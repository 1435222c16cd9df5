//! Scale tests for the workload-suite size presets, mirroring
//! `crates/core/tests/scale.rs`: the ~10^5-block presets must build and
//! simulate within the CI time budget, and the `#[ignore]`d ~10^6-block
//! presets are the manual stress for the dense block→slot index's memory
//! footprint and grow path (run with
//! `cargo test -p wsf-workloads --release --test scale -- --ignored`).

use wsf_core::{ParallelSimulator, RandomScheduler, SimConfig, SimScratch};
use wsf_dag::classify;
use wsf_workloads::presets::{self, BlockScale};

/// Builds every preset family at `scale`, asserts its block budget and its
/// class (which also keeps classification near-linear: a per-thread
/// whole-DAG search would take minutes here), and simulates it once at a
/// capacity deep inside the indexed-cache regime (C = 4096), so the dense
/// index actually grows to the declared space.
fn build_and_simulate(scale: BlockScale, min_blocks: usize) {
    let config = SimConfig {
        processors: 8,
        cache_lines: 4096,
        ..SimConfig::default()
    };
    let sim = ParallelSimulator::new(config);
    let mut scratch = SimScratch::new();
    for (name, build) in presets::FAMILIES {
        let dag = build(scale);
        assert!(
            dag.num_blocks() >= min_blocks,
            "{name}: {} blocks is below the {min_blocks} floor",
            dag.num_blocks()
        );
        let class = classify(&dag);
        if name == "stencil_exchange" {
            assert!(class.structured && class.super_final, "{name}: {class:?}");
        } else {
            assert!(
                class.is_structured_local_touch(),
                "{name}: {:?}",
                class.violations
            );
        }
        let seq = sim.sequential(&dag);
        let mut sched = RandomScheduler::new(config.seed);
        let report = sim.run_with_scratch(&dag, &seq, &mut sched, false, &mut scratch);
        assert!(
            report.completed,
            "{name}: budget must suffice at this scale"
        );
        assert_eq!(report.executed(), dag.num_nodes() as u64, "{name}");
    }
}

#[test]
fn hundred_k_block_presets_build_and_simulate() {
    build_and_simulate(BlockScale::HundredK, 90_000);
}

/// The acceptance bar for the 10^6-block grow-out: every family — the
/// exchange stencil in particular — builds and simulates at ≥ 10^6
/// distinct blocks.
#[test]
#[ignore = "10^6-block instances; seconds in release, minutes in debug"]
fn million_block_presets_build_and_simulate() {
    build_and_simulate(BlockScale::Million, 1_000_000);
}
