//! Property-based tests over randomly generated structured computations.
//!
//! Case counts are bounded so the tier-1 suite finishes in seconds. For a
//! deeper sweep either set `PROPTEST_CASES` (absolute override honoured by
//! every property) or run the `#[ignore]`d heavy test explicitly:
//! `cargo test --test proptest_invariants -- --ignored`.

use proptest::prelude::*;
use wsf::core::{ForkPolicy, ParallelSimulator, SequentialExecutor, SimConfig};
use wsf::workloads::random::{random_single_touch, RandomConfig};
use wsf_dag::{classify, is_descendant, span, topo_order, validate};

/// Bounded default for tier-1; `PROPTEST_CASES` in the environment raises
/// (or lowers) it for all properties at once.
const QUICK_CASES: u32 = 12;

fn arb_config() -> impl Strategy<Value = RandomConfig> {
    (
        100usize..600,
        1usize..6,
        0.05f64..0.5,
        any::<u64>(),
        2usize..32,
    )
        .prop_map(
            |(target_nodes, max_depth, fork_probability, seed, blocks)| RandomConfig {
                target_nodes,
                max_depth,
                fork_probability,
                seed,
                blocks,
                ..RandomConfig::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(QUICK_CASES))]

    #[test]
    fn generated_dags_validate_and_classify(config in arb_config()) {
        let dag = random_single_touch(&config);
        prop_assert!(validate(&dag).is_ok());
        let class = classify(&dag);
        prop_assert!(class.is_structured_single_touch(), "{:?}", class.violations);
        // Node-id order is topological and the span is consistent with it.
        let order = topo_order(&dag).expect("acyclic");
        prop_assert_eq!(order.len(), dag.num_nodes());
        prop_assert!(span(&dag) as usize <= dag.num_nodes());
    }

    #[test]
    fn sequential_and_single_processor_runs_agree(config in arb_config()) {
        let dag = random_single_touch(&config);
        for policy in ForkPolicy::ALL {
            let seq = SequentialExecutor::new(policy).with_cache_lines(8).run(&dag);
            prop_assert_eq!(seq.order().len(), dag.num_nodes());

            let sim = ParallelSimulator::new(SimConfig {
                processors: 1,
                cache_lines: 8,
                fork_policy: policy,
                ..SimConfig::default()
            });
            let report = sim.run(&dag);
            prop_assert!(report.completed);
            prop_assert_eq!(report.deviations(), 0);
            prop_assert_eq!(report.cache_misses(), seq.cache_misses());
        }
    }

    #[test]
    fn parallel_runs_execute_every_node_once(config in arb_config()) {
        let dag = random_single_touch(&config);
        for p in [2usize, 3, 5] {
            let report = ParallelSimulator::new(SimConfig::new(p, 8, ForkPolicy::FutureFirst)).run(&dag);
            prop_assert!(report.completed);
            prop_assert_eq!(report.executed(), dag.num_nodes() as u64);
            prop_assert!(report.busy_processors() >= 1);
        }
    }

    #[test]
    fn touch_structure_relations(config in arb_config()) {
        let dag = random_single_touch(&config);
        for touch in dag.touches() {
            if dag.is_sync_only(touch) {
                continue;
            }
            let fork = dag.corresponding_fork(touch).expect("touch has a fork");
            let right = dag.right_child(fork).expect("fork has a right child");
            // Definition 2: the touch is a descendant of the fork's right child.
            prop_assert!(is_descendant(&dag, right, touch));
            // The future parent lies in the spawned thread.
            let ft = dag.future_thread_of_touch(touch).unwrap();
            prop_assert_eq!(dag.thread(ft).fork(), Some(fork));
        }
    }
}

// The heavy configuration: larger DAGs, more processors, more cases.
// Gated behind `#[ignore]` so tier-1 stays fast; run it with
// `cargo test --test proptest_invariants -- --ignored` (and optionally
// `PROPTEST_CASES` to scale further).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(QUICK_CASES * 8))]

    #[test]
    #[ignore = "heavy sweep; run explicitly with -- --ignored"]
    fn heavy_large_dags_agree_across_policies_and_processor_counts(
        (seed, target_nodes) in (any::<u64>(), 1_000usize..4_000)
    ) {
        let dag = random_single_touch(&RandomConfig {
            target_nodes,
            seed,
            ..RandomConfig::default()
        });
        prop_assert!(validate(&dag).is_ok());
        prop_assert!(classify(&dag).is_structured_single_touch());
        for policy in ForkPolicy::ALL {
            let seq = SequentialExecutor::new(policy).with_cache_lines(16).run(&dag);
            prop_assert_eq!(seq.order().len(), dag.num_nodes());
            for p in [1usize, 2, 4, 8, 16] {
                let report = ParallelSimulator::new(SimConfig {
                    processors: p,
                    cache_lines: 16,
                    fork_policy: policy,
                    ..SimConfig::default()
                })
                .run(&dag);
                prop_assert!(report.completed);
                prop_assert_eq!(report.executed(), dag.num_nodes() as u64);
                if p == 1 {
                    prop_assert_eq!(report.deviations(), 0);
                    prop_assert_eq!(report.cache_misses(), seq.cache_misses());
                }
            }
        }
    }
}
