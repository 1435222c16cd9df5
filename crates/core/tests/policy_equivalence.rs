//! The E19 refactor's backward-compatibility contract: `RandomScheduler`
//! is *exactly* `PolicyScheduler` at `PolicyConfig::ws_random`, pinned
//! step-for-step at the trait level (randomized call sequences, RNG
//! consumption included) and report-for-report at the full-simulation
//! level — this is what makes the E11–E18 byte-identity across the
//! refactor a theorem rather than a coincidence. (The deterministic
//! baselines have no second type to compare with: they *are*
//! `PolicyConfig::parsimonious`.) Plus the `StealAmount::Half` invariants:
//! exactly-once delivery and a consistent incrementally-maintained
//! non-empty set. And the strand walk: a step-blind scheduler's untraced
//! run equals the step-at-a-time walk counter for counter.

use wsf_core::{
    ForkPolicy, ParallelSimulator, PolicyConfig, PolicyScheduler, RandomScheduler, Scheduler,
    SimConfig, SimScratch, StealAmount, StealContext, VictimOrder,
};
use wsf_dag::NodeId;
use wsf_workloads::random::{random_single_touch, RandomConfig};
use wsf_workloads::submission::{ShapeScratch, ShapeSpec};

/// Deterministic xorshift64* for generating randomized call sequences
/// (proptest-style sampling without the dependency).
struct Xs(u64);

impl Xs {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Drives `a` and `b` through an identical randomized sequence of trait
/// calls (victim choices over varying candidate sets, completions, wake
/// probes) and asserts every observable output matches.
fn assert_step_for_step(
    a: &mut dyn Scheduler,
    b: &mut dyn Scheduler,
    procs: usize,
    steps: u64,
    gen_seed: u64,
) {
    let mut rng = Xs(gen_seed | 1);
    let mut candidates: Vec<usize> = Vec::new();
    for step in 0..steps {
        let thief = rng.below(procs as u64) as usize;
        match rng.below(4) {
            0 => {
                let node = NodeId(rng.below(1000) as u32);
                a.on_complete(thief, node, step);
                b.on_complete(thief, node, step);
            }
            1 => {
                assert_eq!(
                    a.is_awake(thief, step),
                    b.is_awake(thief, step),
                    "step {step}"
                );
            }
            _ => {
                // A random candidate subset (possibly empty) of the other
                // processors, ascending — the shape the simulator builds.
                candidates.clear();
                let mask = rng.next();
                candidates.extend((0..procs).filter(|&q| q != thief && mask >> q & 1 == 1));
                let ctx = StealContext::bare(&candidates);
                assert_eq!(
                    a.choose_victim(thief, &ctx),
                    b.choose_victim(thief, &ctx),
                    "step {step}, candidates {candidates:?}"
                );
            }
        }
    }
}

#[test]
fn policy_random_one_zero_matches_random_scheduler_step_for_step() {
    // The equivalence includes RNG consumption: both draw exactly one
    // `gen_range` per non-empty candidate list, so interleaving empty and
    // non-empty calls must never desynchronize the streams.
    for rng_seed in [0u64, 7, 0x5eed, u64::MAX] {
        for gen_seed in [5u64, 23, 99] {
            let mut policy = PolicyScheduler::new(PolicyConfig::ws_random(rng_seed));
            let mut legacy = RandomScheduler::new(rng_seed);
            assert_step_for_step(&mut policy, &mut legacy, 8, 400, gen_seed);
        }
    }
}

/// Two full simulations over the same DAG must produce identical reports.
fn assert_reports_identical<S1: Scheduler, S2: Scheduler>(
    config: SimConfig,
    dag: &wsf_dag::Dag,
    mut a: S1,
    mut b: S2,
) {
    let sim = ParallelSimulator::new(config);
    let seq = sim.sequential(dag);
    let mut scratch = SimScratch::new();
    let ra = sim.run_with_scratch(dag, &seq, &mut a, true, &mut scratch);
    let rb = sim.run_with_scratch(dag, &seq, &mut b, true, &mut scratch);
    assert!(ra.completed && rb.completed);
    assert_eq!(ra.makespan, rb.makespan);
    assert_eq!(ra.steals(), rb.steals());
    assert_eq!(ra.deviations(), rb.deviations());
    assert_eq!(ra.cache_misses(), rb.cache_misses());
    let (ta, tb) = (ra.trace.as_ref().unwrap(), rb.trace.as_ref().unwrap());
    assert_eq!(ta.len(), tb.len());
    for (x, y) in ta.iter().zip(tb) {
        assert_eq!((x.step, x.proc, x.node), (y.step, y.proc, y.node));
    }
}

#[test]
fn full_simulations_agree_between_policy_and_random_scheduler() {
    let dag = random_single_touch(&RandomConfig {
        target_nodes: 3_000,
        seed: 13,
        ..RandomConfig::default()
    });
    for fork_policy in ForkPolicy::ALL {
        for processors in [2usize, 4, 8] {
            let config = SimConfig {
                processors,
                cache_lines: 16,
                fork_policy,
                ..SimConfig::default()
            };
            assert_reports_identical(
                config,
                &dag,
                PolicyScheduler::new(PolicyConfig::ws_random(config.seed)),
                RandomScheduler::new(config.seed),
            );
        }
    }
}

/// Runs `dag` under a half-stealing policy and asserts the two invariants
/// the `StealAmount::Half` transfer must preserve: every node executes
/// exactly once (the multi-entry transfer neither drops nor duplicates
/// deque entries) and the run completes (the incrementally-maintained
/// non-empty set stayed consistent on BOTH sides of the transfer — a stale
/// entry for the drained victim or a missing one for the refilled thief
/// starves the steal loop and blows the step budget).
fn assert_half_steal_invariants(order: VictimOrder, processors: usize, dag: &wsf_dag::Dag) {
    let config = SimConfig {
        processors,
        cache_lines: 16,
        ..SimConfig::default()
    };
    let sim = ParallelSimulator::new(config);
    let seq = sim.sequential(dag);
    let mut scratch = SimScratch::new();
    let mut sched = PolicyScheduler::new(PolicyConfig {
        order,
        amount: StealAmount::Half,
        patience: 0,
        prefer_cached: false,
    });
    let report = sim.run_with_scratch(dag, &seq, &mut sched, true, &mut scratch);
    assert!(
        report.completed,
        "half-stealing run starved ({order:?}, P={processors})"
    );
    assert_eq!(report.executed(), dag.num_nodes() as u64);
    let mut seen = vec![false; dag.num_nodes()];
    for ev in report.trace.as_ref().unwrap() {
        assert!(
            !std::mem::replace(&mut seen[ev.node.0 as usize], true),
            "node {:?} executed twice under steal-half",
            ev.node
        );
    }
    assert!(seen.iter().all(|&s| s), "steal-half dropped nodes");
}

#[test]
fn steal_half_delivers_every_node_exactly_once() {
    let wide = random_single_touch(&RandomConfig {
        target_nodes: 4_000,
        seed: 21,
        ..RandomConfig::default()
    });
    let sort = wsf_workloads::sort::mergesort(256, 8);
    for order in [
        VictimOrder::Random(1),
        VictimOrder::LowestId,
        VictimOrder::RoundRobin,
        VictimOrder::MostLoaded,
        VictimOrder::LastVictim,
    ] {
        for processors in [2usize, 4, 8] {
            assert_half_steal_invariants(order, processors, &wide);
        }
        assert_half_steal_invariants(order, 4, &sort);
    }
}

#[test]
fn theorem_bounds_hold_over_sampled_policy_points() {
    // Theorem 8/10/12 conformance extended from the two named baselines
    // to sampled `PolicyScheduler` points: the deviation bound O(P·T∞²)
    // (in the repo's constant-free reading, `bounds::thm8_deviations`) and
    // the miss bound C·deviations hold for every policy in the composable
    // space — the proofs only use work-stealing structure (steals happen
    // into empty processors from deque tops), which every point preserves.
    use wsf_core::bounds;

    let dag = random_single_touch(&RandomConfig {
        target_nodes: 2_000,
        seed: 31,
        ..RandomConfig::default()
    });
    let sampled = [
        PolicyConfig::ws_random(9),
        PolicyConfig::parsimonious(2),
        PolicyConfig::ws_half(9),
        PolicyConfig::rr_eager(),
        PolicyConfig::loaded_frugal(),
        PolicyConfig {
            order: VictimOrder::LastVictim,
            amount: StealAmount::Half,
            patience: 1,
            prefer_cached: true,
        },
    ];
    for fork_policy in ForkPolicy::ALL {
        for processors in [2usize, 4] {
            let config = SimConfig {
                processors,
                cache_lines: 16,
                fork_policy,
                ..SimConfig::default()
            };
            let sim = ParallelSimulator::new(config);
            let seq = sim.sequential(&dag);
            let span = wsf_dag::span(&dag);
            let mut scratch = SimScratch::new();
            for cfg in sampled {
                let mut sched = PolicyScheduler::new(cfg);
                let report = sim.run_with_scratch(&dag, &seq, &mut sched, false, &mut scratch);
                assert!(report.completed);
                let dev = report.deviations();
                let dev_bound = bounds::thm8_deviations(processors as u64, span);
                assert!(
                    dev <= dev_bound,
                    "{cfg:?} at P={processors}: {dev} deviations exceed the \
                     Theorem-8 bound {dev_bound}"
                );
                let extra = report.additional_misses(&seq);
                let miss_bound = bounds::thm8_additional_misses(
                    config.cache_lines as u64,
                    processors as u64,
                    span,
                );
                assert!(
                    extra <= miss_bound,
                    "{cfg:?} at P={processors}: {extra} extra misses exceed the \
                     Theorem-8 miss bound {miss_bound}"
                );
            }
        }
    }
}

/// `S` with `step_blind() == false`: the simulator walks every step and
/// calls `on_complete` for every node, as it does for a scripted adversary.
struct Stepwise<S>(S);

impl<S: Scheduler> Scheduler for Stepwise<S> {
    fn on_complete(&mut self, proc: usize, node: NodeId, step: u64) {
        self.0.on_complete(proc, node, step);
    }

    fn choose_victim(&mut self, thief: usize, ctx: &StealContext<'_>) -> Option<usize> {
        self.0.choose_victim(thief, ctx)
    }

    fn wants_residency(&self) -> bool {
        self.0.wants_residency()
    }

    fn steal_amount(&self) -> StealAmount {
        self.0.steal_amount()
    }
}

/// Every per-processor counter of a report, cache hits, misses and silent
/// instructions included.
fn proc_counters(report: &wsf_core::ExecutionReport) -> Vec<[u64; 7]> {
    report
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
        .collect()
}

/// The strand walk (an untraced run of a step-blind scheduler runs each
/// in-degree-1 chain ahead in one loop and jumps over the steps in which
/// only chains advance) must equal the step-at-a-time walk it replaces.
/// The benchmark's oracle (`benchmark/src/adapter.rs::expected`) calls the
/// same simulator, so it cannot catch a strand-walk bug: this test is the
/// check. It covers the served shapes, every policy preset plus a
/// `LastVictim`/`Half`/patience-1/`prefer_cached` point, both fork
/// policies, cache sizes on both sides of the scan crossover, and runs cut
/// short by a step budget.
#[test]
fn strand_walk_matches_the_stepwise_walk() {
    let mut scratch = ShapeScratch::new();
    let mut dags: Vec<wsf_dag::Dag> = [
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
    .map(|spec| spec.build_into(&mut wsf_dag::DagBuilder::new(), &mut scratch))
    .collect();
    dags.push(random_single_touch(&RandomConfig {
        target_nodes: 3_000,
        seed: 17,
        ..RandomConfig::default()
    }));
    dags.push(wsf_workloads::sort::mergesort(256, 8));
    let configs = [
        PolicyConfig::ws_random(3),
        PolicyConfig::parsimonious(2),
        PolicyConfig::ws_half(3),
        PolicyConfig::rr_eager(),
        PolicyConfig::loaded_frugal(),
        PolicyConfig {
            order: VictimOrder::LastVictim,
            amount: StealAmount::Half,
            patience: 1,
            prefer_cached: true,
        },
    ];
    let mut sim_scratch = SimScratch::new();
    for dag in &dags {
        let nodes = dag.num_nodes() as u64;
        for fork_policy in ForkPolicy::ALL {
            for cache_lines in [8usize, 64] {
                let seq = ParallelSimulator::new(SimConfig::new(1, cache_lines, fork_policy))
                    .sequential(dag);
                for processors in [1usize, 2, 3, 4, 8] {
                    for max_steps in [None, Some(nodes / 7)] {
                        let sim = ParallelSimulator::new(SimConfig {
                            processors,
                            cache_lines,
                            fork_policy,
                            max_steps,
                            ..SimConfig::default()
                        });
                        for cfg in configs {
                            let strand = sim.run_with_scratch(
                                dag,
                                &seq,
                                &mut PolicyScheduler::new(cfg),
                                false,
                                &mut sim_scratch,
                            );
                            let stepwise = sim.run_with_scratch(
                                dag,
                                &seq,
                                &mut Stepwise(PolicyScheduler::new(cfg)),
                                false,
                                &mut sim_scratch,
                            );
                            let at = format!(
                                "{nodes} nodes, {cfg:?}, P={processors}, C={cache_lines}, \
                                 {fork_policy}, max_steps {max_steps:?}"
                            );
                            assert_eq!(strand.makespan, stepwise.makespan, "{at}");
                            assert_eq!(strand.completed, stepwise.completed, "{at}");
                            assert_eq!(proc_counters(&strand), proc_counters(&stepwise), "{at}");
                        }
                    }
                }
            }
        }
    }
}
