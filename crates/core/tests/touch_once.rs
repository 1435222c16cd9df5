//! Touch-once DAGs: when no block is touched by two nodes, the simulator
//! counts misses instead of running its caches. This file holds that
//! counting path to the cache path it replaces, and holds the fact that
//! selects it, [`SeqReport::reuses_blocks`], to a brute-force scan of the
//! DAG's blocks.
//!
//! The oracle is the same run against `SeqReport::new(order, cache)`: a
//! report built from an order knows nothing of the blocks, says the DAG
//! reuses them, and so forces every cache to run. No switch exists for
//! tests; the two sides differ only in the report they are handed.

use wsf_core::{
    ExecutionReport, ForkPolicy, ParallelSimulator, PolicyConfig, PolicyScheduler, Scheduler,
    SeqReport, SequentialExecutor, SimConfig, SimScratch, StealAmount, StealContext,
};
use wsf_dag::{Dag, DagBuilder, NodeId};
use wsf_workloads::random::{random_single_touch, RandomConfig};
use wsf_workloads::submission::{ShapeScratch, ShapeSpec};
use wsf_workloads::{apps, backpressure, pipeline, presets, sort, stencil};

/// The three `serve_medium` shapes, built as the server builds them.
fn served_shapes() -> Vec<Dag> {
    let mut scratch = ShapeScratch::new();
    [
        ShapeSpec::Mergesort { leaves: 512 },
        ShapeSpec::Stencil {
            rows: 16,
            width: 64,
            steps: 8,
        },
        ShapeSpec::Pipeline {
            stages: 8,
            items: 256,
            window: 8,
            work: 4,
        },
    ]
    .iter()
    .map(|spec| spec.build_into(&mut DagBuilder::new(), &mut scratch))
    .collect()
}

/// One small DAG of every touch-once family.
fn touch_once_families() -> Vec<(&'static str, Dag)> {
    vec![
        ("mergesort", sort::mergesort(256, 4)),
        ("mergesort_streaming", sort::mergesort_streaming(256, 8, 16)),
        ("pipeline", pipeline::pipeline(4, 24, 2)),
        (
            "batched_pipeline",
            backpressure::batched_pipeline(4, 32, 4, 2),
        ),
        ("reduce", apps::reduce(256, 8, 4)),
        ("stencil steps=1", stencil::stencil(6, 24, 1)),
        (
            "stencil_exchange steps=1",
            stencil::stencil_exchange(6, 24, 1),
        ),
    ]
}

/// Brute force: whether two nodes of `dag` name the same block.
fn some_block_repeats(dag: &Dag) -> bool {
    let mut blocks: Vec<u32> = dag
        .node_ids()
        .filter_map(|n| dag.block_of(n))
        .map(|b| b.0)
        .collect();
    let all = blocks.len();
    blocks.sort_unstable();
    blocks.dedup();
    blocks.len() != all
}

/// A scheduler that, on a touch-once DAG (`touch_once`), checks what makes
/// counting exact for a residency reader too: even a real cache never
/// holds a victim's top block, since only that unrun node touches it.
struct NeverResident {
    inner: PolicyScheduler,
    touch_once: bool,
}

impl Scheduler for NeverResident {
    fn on_complete(&mut self, proc: usize, node: NodeId, step: u64) {
        self.inner.on_complete(proc, node, step);
    }

    fn choose_victim(&mut self, thief: usize, ctx: &StealContext<'_>) -> Option<usize> {
        assert!(
            !(self.touch_once && ctx.any_resident()),
            "a touch-once block is resident before its only node ran"
        );
        self.inner.choose_victim(thief, ctx)
    }

    fn wants_residency(&self) -> bool {
        self.inner.wants_residency()
    }

    fn steal_amount(&self) -> StealAmount {
        self.inner.steal_amount()
    }

    fn step_blind(&self) -> bool {
        self.inner.step_blind()
    }
}

/// Every counter the report carries, processor by processor.
fn counters(report: &ExecutionReport) -> (u64, bool, Vec<[u64; 7]>) {
    let per_proc = report
        .per_proc
        .iter()
        .map(|s| {
            [
                s.executed,
                s.steals,
                s.failed_steals,
                s.deviations,
                s.cache.hits,
                s.cache.misses,
                s.cache.silent,
            ]
        })
        .collect();
    (report.makespan, report.completed, per_proc)
}

#[test]
fn counting_matches_the_cache_on_touch_once_dags() {
    let prefer_cached = PolicyConfig {
        prefer_cached: true,
        ..PolicyConfig::ws_half(11)
    };
    let mut dags = touch_once_families();
    dags.extend(served_shapes().into_iter().map(|dag| ("served", dag)));
    let mut scratch = SimScratch::new();
    for (name, dag) in &dags {
        for fork_policy in ForkPolicy::ALL {
            for cache_lines in [1usize, 8, 64] {
                let seq = ParallelSimulator::new(SimConfig::new(1, cache_lines, fork_policy))
                    .sequential(dag);
                let forced = SeqReport::new(seq.order().to_vec(), seq.cache);
                assert!(
                    forced.reuses_blocks(),
                    "a report built from an order must force the cache path"
                );
                let touch_once = !seq.reuses_blocks();
                assert!(touch_once || *name == "served", "{name} reuses a block");
                assert!(!touch_once || seq.cache.hits == 0, "{name}: touch-once hit");
                for processors in [1usize, 2, 4, 8] {
                    let sim = ParallelSimulator::new(SimConfig::new(
                        processors,
                        cache_lines,
                        fork_policy,
                    ));
                    let at = format!("{name}, P={processors}, C={cache_lines}, {fork_policy}");
                    for cfg in [PolicyConfig::ws_half(5), PolicyConfig::parsimonious(1)] {
                        let mut run = |report: &SeqReport, traced: bool| {
                            let mut sched = PolicyScheduler::new(cfg);
                            sim.run_with_scratch(dag, report, &mut sched, traced, &mut scratch)
                        };
                        for traced in [false, true] {
                            let counted = run(&seq, traced);
                            let cached = run(&forced, traced);
                            assert_eq!(
                                counters(&counted),
                                counters(&cached),
                                "{at}, {cfg:?}, traced {traced}"
                            );
                            assert_eq!(counted.trace, cached.trace, "{at}, {cfg:?}");
                        }
                    }
                    let mut run = |report: &SeqReport| {
                        let mut sched = NeverResident {
                            inner: PolicyScheduler::new(prefer_cached),
                            touch_once,
                        };
                        sim.run_with_scratch(dag, report, &mut sched, false, &mut scratch)
                    };
                    let (with_fact, cached) = (run(&seq), run(&forced));
                    assert_eq!(
                        counters(&with_fact),
                        counters(&cached),
                        "{at}, prefer_cached"
                    );
                }
            }
        }
    }
}

#[test]
fn the_walk_reports_reuse_exactly_when_a_block_repeats() {
    let mut dags: Vec<(String, Dag)> = touch_once_families()
        .into_iter()
        .map(|(name, dag)| (name.to_string(), dag))
        .collect();
    dags.extend(
        served_shapes()
            .into_iter()
            .enumerate()
            .map(|(i, dag)| (format!("served shape {i}"), dag)),
    );
    for (name, build) in presets::FAMILIES {
        dags.push((
            format!("preset {name}"),
            build(presets::BlockScale::HundredK),
        ));
    }
    for (seed, access_probability) in [(3, 0.8), (4, 0.0)] {
        dags.push((
            format!("random_single_touch seed {seed}"),
            random_single_touch(&RandomConfig {
                target_nodes: 1_500,
                access_probability,
                seed,
                ..RandomConfig::default()
            }),
        ));
    }
    for steps in [2, 3] {
        dags.push((
            format!("stencil steps={steps}"),
            stencil::stencil(6, 24, steps),
        ));
        dags.push((
            format!("stencil_exchange steps={steps}"),
            stencil::stencil_exchange(6, 24, steps),
        ));
    }
    dags.push(("map_reduce".to_string(), apps::map_reduce(8, 4)));

    let (mut reuse, mut once) = (0, 0);
    for (name, dag) in &dags {
        let expected = some_block_repeats(dag);
        for policy in ForkPolicy::ALL {
            let seq = SequentialExecutor::new(policy).run(dag);
            assert_eq!(seq.reuses_blocks(), expected, "{name}, {policy}");
        }
        if expected {
            reuse += 1;
        } else {
            once += 1;
        }
    }
    assert!(reuse > 0 && once > 0, "both answers must occur");
}
