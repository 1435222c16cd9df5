//! Cross-crate conformance suite for the paper's theorem bounds.
//!
//! Every test runs the [`ParallelSimulator`] over reconstructions of the
//! paper's figures and over randomized structured DAGs, then checks the
//! measured deviation / additional-cache-miss counts against the formulas
//! in [`wsf_core::bounds`]:
//!
//! * **Theorem 8** (upper): future-first work stealing on structured
//!   single-touch computations incurs `O(P·T∞²)` deviations and
//!   `O(C·P·T∞²)` additional misses.
//! * **Theorem 9** (lower): the Figure 6 constructions *achieve* `Ω(T∞)`
//!   deviations per steal under the proof's scripted adversary, and the
//!   repeated variant multiplies the count by the number of gadgets.
//! * **Theorem 10** (lower): the Figure 8 construction under parent-first
//!   achieves `Ω(t·n)` deviations from a single adversarial steal.
//! * **Theorem 12** (upper): the future-first bound extends to structured
//!   *local-touch* computations (pipelines).
//! * **Theorems 16 & 18** (upper): both bounds survive adding a *super
//!   final node* (Definitions 13/17) — checked on the symmetric-exchange
//!   stencil family, whose per-neighbour boundary copies the plain
//!   local-touch model cannot express.
//!
//! Both [`ForkPolicy`] variants are exercised; policy-independent
//! invariants (Acar–Blelloch–Blumofe's `ΔM ≤ C·deviations` bridge, zero
//! deviations on one processor) are asserted for every run.
//!
//! The simulator is deterministic for a fixed [`SimConfig`] seed, so the
//! thresholds below are calibrated against actual runs with a safety
//! margin, not guessed.

use wsf::prelude::*;
use wsf_core::{
    bounds, ExecutionReport, PolicyConfig, PolicyScheduler, RandomScheduler, Scheduler, SeqReport,
};
use wsf_dag::{classify, span, Dag};
use wsf_workloads::backpressure::batched_pipeline;
use wsf_workloads::figures::{fig3, fig4, fig5a, fig5b, Fig6, Fig7b, Fig8};
use wsf_workloads::pipeline::pipeline;
use wsf_workloads::random::{random_single_touch, RandomConfig};
use wsf_workloads::sort::{mergesort, mergesort_streaming};
use wsf_workloads::stencil::{stencil, stencil_exchange};

const CACHE: usize = 16;

/// The deterministic steal-frugal baseline (`patience = 0` is greedy).
fn parsimonious(patience: u32) -> PolicyScheduler {
    PolicyScheduler::new(PolicyConfig::parsimonious(patience))
}

/// Runs the simulator over `dag` and returns the sequential baseline plus
/// the parallel report (randomized work stealing, fixed seed).
fn run(dag: &Dag, processors: usize, policy: ForkPolicy) -> (SeqReport, ExecutionReport) {
    run_cache(dag, processors, CACHE, policy)
}

fn run_cache(
    dag: &Dag,
    processors: usize,
    cache_lines: usize,
    policy: ForkPolicy,
) -> (SeqReport, ExecutionReport) {
    let sim = ParallelSimulator::new(SimConfig {
        processors,
        cache_lines,
        fork_policy: policy,
        ..SimConfig::default()
    });
    let seq = sim.sequential(dag);
    let report = sim.run(dag);
    (seq, report)
}

/// Runs `dag` under a scripted adversary from one of the figure modules.
fn run_adversary(
    dag: &Dag,
    processors: usize,
    cache_lines: usize,
    policy: ForkPolicy,
    adversary: &mut dyn Scheduler,
) -> (SeqReport, ExecutionReport) {
    let sim = ParallelSimulator::new(SimConfig {
        processors,
        cache_lines,
        fork_policy: policy,
        ..SimConfig::default()
    });
    let seq = sim.sequential(dag);
    let report = sim.run_against(dag, &seq, adversary, false);
    (seq, report)
}

/// Asserts the Theorem 8 formulas (`P·T∞²` deviations, `C·P·T∞²` extra
/// misses) for one run, plus the policy-independent sanity relations.
fn assert_thm8_bounds(name: &str, dag: &Dag, processors: usize, policy: ForkPolicy) {
    let sp = span(dag);
    let (seq, rep) = run(dag, processors, policy);
    assert!(rep.completed, "{name}: run did not complete");
    assert_eq!(
        rep.executed(),
        dag.num_nodes() as u64,
        "{name}: every node executes exactly once"
    );
    let dev_bound = bounds::thm8_deviations(processors as u64, sp);
    assert!(
        rep.deviations() <= dev_bound,
        "{name} (P={processors}, {policy}): {} deviations exceed Theorem 8's P*T_inf^2 = {dev_bound}",
        rep.deviations(),
    );
    let miss_bound = bounds::thm8_additional_misses(CACHE as u64, processors as u64, sp);
    assert!(
        rep.additional_misses(&seq) <= miss_bound,
        "{name} (P={processors}, {policy}): {} additional misses exceed Theorem 8's C*P*T_inf^2 = {miss_bound}",
        rep.additional_misses(&seq),
    );
}

/// The figure workloads Theorem 8 is about: structured single-touch DAGs.
fn single_touch_figures() -> Vec<(&'static str, Dag)> {
    vec![
        ("fig4(5,3)", fig4(5, 3)),
        ("fig5a(10)", fig5a(10)),
        ("fig5b(10)", fig5b(10)),
        ("fig6a(k=8)", Fig6::gadget(8, 4).dag),
    ]
}

#[test]
fn thm8_upper_bound_holds_on_figure_workloads() {
    for (name, dag) in single_touch_figures() {
        let class = classify(&dag);
        assert!(
            class.is_structured_single_touch(),
            "{name} must be structured single-touch for Theorem 8: {:?}",
            class.violations
        );
        for p in [2usize, 4, 8] {
            assert_thm8_bounds(name, &dag, p, ForkPolicy::FutureFirst);
        }
    }
}

#[test]
fn thm8_upper_bound_holds_on_random_dags() {
    for seed in [1u64, 7, 23, 101] {
        let dag = random_single_touch(&RandomConfig {
            target_nodes: 400,
            seed,
            ..RandomConfig::default()
        });
        let class = classify(&dag);
        assert!(class.is_structured_single_touch(), "seed {seed}");
        for p in [2usize, 4] {
            assert_thm8_bounds(
                &format!("random(seed={seed})"),
                &dag,
                p,
                ForkPolicy::FutureFirst,
            );
        }
    }
}

#[test]
fn thm12_upper_bound_holds_on_local_touch_pipelines() {
    // Theorem 12 extends the future-first bound of Theorem 8 from
    // single-touch to local-touch computations; pipelines are the paper's
    // canonical member of that class.
    for (stages, items) in [(2usize, 6usize), (4, 8), (6, 10)] {
        let dag = pipeline(stages, items, 3);
        let class = classify(&dag);
        assert!(
            class.is_structured_local_touch(),
            "pipeline({stages},{items}) must be local-touch: {:?}",
            class.violations
        );
        for p in [2usize, 4] {
            assert_thm8_bounds(
                &format!("pipeline({stages},{items})"),
                &dag,
                p,
                ForkPolicy::FutureFirst,
            );
        }
    }
}

/// The Theorem-12 workload suite: the three scenario families this issue
/// opens, each in the class the theorem is about.
fn thm12_suite() -> Vec<(&'static str, Dag)> {
    vec![
        ("mergesort(128,8)", mergesort(128, 8)),
        (
            "mergesort_streaming(128,8,16)",
            mergesort_streaming(128, 8, 16),
        ),
        ("stencil(4,3,5)", stencil(4, 3, 5)),
        ("stencil(6,2,1)", stencil(6, 2, 1)),
        ("batched_pipeline(3,8,4,2)", batched_pipeline(3, 8, 4, 2)),
        ("batched_pipeline(3,8,1,2)", batched_pipeline(3, 8, 1, 2)),
        ("batched_pipeline(2,6,6,3)", batched_pipeline(2, 6, 6, 3)),
    ]
}

#[test]
fn thm12_upper_bound_holds_on_workload_suite() {
    // Theorem 12's O(P·T∞²) / O(C·P·T∞²) bounds on the whole suite:
    // randomized work stealing (via run()) plus two deterministic victim
    // selections — greedy (always rob the lowest-numbered deque, the most
    // collision-prone choice) and parsimonious (steal-frugal). The Theorem
    // 8/12 guarantee holds for *any* victim selection, so none of the
    // three may exceed the bound under future-first.
    for (name, dag) in thm12_suite() {
        let class = classify(&dag);
        assert!(
            class.is_structured_local_touch(),
            "{name} must be local-touch for Theorem 12: {:?}",
            class.violations
        );
        let sp = span(&dag);
        for p in [2usize, 4] {
            assert_thm8_bounds(name, &dag, p, ForkPolicy::FutureFirst);
            let schedulers: Vec<(&str, Box<dyn Scheduler>)> = vec![
                ("greedy", Box::new(parsimonious(0))),
                ("parsimonious", Box::new(parsimonious(4))),
            ];
            for (sched_name, mut sched) in schedulers {
                let (seq, rep) =
                    run_adversary(&dag, p, CACHE, ForkPolicy::FutureFirst, sched.as_mut());
                assert!(rep.completed, "{name}/{sched_name} P={p}");
                assert_eq!(
                    rep.executed(),
                    dag.num_nodes() as u64,
                    "{name}/{sched_name}"
                );
                let dev_bound = bounds::thm12_deviations(p as u64, sp);
                assert!(
                    rep.deviations() <= dev_bound,
                    "{name}/{sched_name} P={p}: {} deviations exceed Theorem 12's {dev_bound}",
                    rep.deviations()
                );
                assert!(
                    rep.additional_misses(&seq)
                        <= bounds::thm12_additional_misses(CACHE as u64, p as u64, sp),
                    "{name}/{sched_name} P={p}: misses exceed Theorem 12's C·P·T∞²"
                );
            }
        }
    }
}

/// The Theorem-16/18 workload suite: symmetric-exchange stencils, closed
/// by a super final node. `steps = 1` instances are exactly Definition 13
/// (single-touch + super final, the Theorem 16 class); `steps > 1`
/// instances exchange with both neighbours, leaving plain local-touch —
/// the super-final regime the Theorem 18 formula is measured against.
fn super_final_suite() -> Vec<(&'static str, Dag, bool)> {
    vec![
        ("stencil_exchange(4,3,1)", stencil_exchange(4, 3, 1), true),
        ("stencil_exchange(6,2,1)", stencil_exchange(6, 2, 1), true),
        ("stencil_exchange(4,3,5)", stencil_exchange(4, 3, 5), false),
        ("stencil_exchange(6,4,3)", stencil_exchange(6, 4, 3), false),
        ("stencil_exchange(8,2,4)", stencil_exchange(8, 2, 4), false),
    ]
}

#[test]
fn thm16_18_upper_bounds_hold_on_exchange_stencils() {
    // Theorems 16 and 18: the O(P·T∞²) / O(C·P·T∞²) future-first bounds
    // survive the super final node. Randomized work stealing plus the two
    // deterministic victim selections, as in the Theorem-12 suite check.
    for (name, dag, single_touch) in super_final_suite() {
        let class = classify(&dag);
        assert!(class.super_final, "{name} must carry a super final node");
        assert!(class.structured, "{name}: {:?}", class.violations);
        if single_touch {
            assert_eq!(
                dag.num_touches(),
                0,
                "{name}: a 1-step exchange has no touches, only super-final sync"
            );
            assert!(
                class.single_touch,
                "{name} must be Definition 13: {:?}",
                class.violations
            );
        } else {
            assert!(
                !class.local_touch,
                "{name}: the symmetric exchange must leave plain local-touch"
            );
        }
        let sp = span(&dag);
        for p in [2usize, 4] {
            let (seq0, rep0) = run(&dag, p, ForkPolicy::FutureFirst);
            let schedulers: Vec<(&str, Box<dyn Scheduler>)> = vec![
                ("greedy", Box::new(parsimonious(0))),
                ("parsimonious", Box::new(parsimonious(4))),
            ];
            let mut runs = vec![("ws-random", seq0, rep0)];
            for (sched_name, mut sched) in schedulers {
                let (seq, rep) =
                    run_adversary(&dag, p, CACHE, ForkPolicy::FutureFirst, sched.as_mut());
                runs.push((sched_name, seq, rep));
            }
            for (sched_name, seq, rep) in runs {
                assert!(rep.completed, "{name}/{sched_name} P={p}");
                assert_eq!(
                    rep.executed(),
                    dag.num_nodes() as u64,
                    "{name}/{sched_name}"
                );
                let (dev_bound, miss_bound) = if single_touch {
                    (
                        bounds::thm16_deviations(p as u64, sp),
                        bounds::thm16_additional_misses(CACHE as u64, p as u64, sp),
                    )
                } else {
                    (
                        bounds::thm18_deviations(p as u64, sp),
                        bounds::thm18_additional_misses(CACHE as u64, p as u64, sp),
                    )
                };
                assert!(
                    rep.deviations() <= dev_bound,
                    "{name}/{sched_name} P={p}: {} deviations exceed Theorem {}'s {dev_bound}",
                    rep.deviations(),
                    if single_touch { 16 } else { 18 },
                );
                assert!(
                    rep.additional_misses(&seq) <= miss_bound,
                    "{name}/{sched_name} P={p}: misses exceed Theorem {}'s C·P·T∞²",
                    if single_touch { 16 } else { 18 },
                );
            }
        }
    }
}

#[test]
fn exchange_stencil_universal_relations_hold_under_both_policies() {
    // The policy-independent sanity relations on the super-final family:
    // P = 1 reproduces the sequential execution, ΔM ≤ C·deviations, and
    // deviations stay inside the general (P+t)·T∞ shape.
    for (name, dag, _) in super_final_suite() {
        let sp = span(&dag);
        let touches = dag.touches().count() as u64;
        for policy in ForkPolicy::ALL {
            let (seq1, rep1) = run(&dag, 1, policy);
            assert_eq!(rep1.deviations(), 0, "{name} ({policy}, P=1)");
            assert_eq!(
                rep1.cache_misses(),
                seq1.cache_misses(),
                "{name} ({policy}, P=1)"
            );
            for p in [2usize, 4] {
                let (seq, rep) = run(&dag, p, policy);
                assert!(rep.completed, "{name} ({policy}, P={p})");
                assert!(
                    rep.additional_misses(&seq)
                        <= bounds::misses_from_deviations(CACHE as u64, rep.deviations()),
                    "{name} ({policy}, P={p}): ΔM exceeds C·deviations"
                );
                assert!(
                    rep.deviations() <= bounds::unstructured_deviations(p as u64, touches, sp),
                    "{name} ({policy}, P={p}): deviations exceed (P+t)·T∞"
                );
            }
        }
    }
}

#[test]
fn workload_suite_universal_relations_hold_under_both_policies() {
    // Both fork policies over the suite: one processor reproduces the
    // sequential execution exactly; any execution obeys the
    // Acar–Blelloch–Blumofe ΔM ≤ C·deviations bridge and the general
    // (P+t)·T∞ deviation shape (the regime of Theorem 10's parent-first
    // lower bound).
    for (name, dag) in thm12_suite() {
        let sp = span(&dag);
        let touches = dag.touches().count() as u64;
        for policy in ForkPolicy::ALL {
            let (seq1, rep1) = run(&dag, 1, policy);
            assert_eq!(rep1.deviations(), 0, "{name} ({policy}, P=1)");
            assert_eq!(
                rep1.cache_misses(),
                seq1.cache_misses(),
                "{name} ({policy}, P=1)"
            );
            for p in [2usize, 4] {
                let (seq, rep) = run(&dag, p, policy);
                assert!(rep.completed, "{name} ({policy}, P={p})");
                assert!(
                    rep.additional_misses(&seq)
                        <= bounds::misses_from_deviations(CACHE as u64, rep.deviations()),
                    "{name} ({policy}, P={p}): ΔM exceeds C·deviations"
                );
                assert!(
                    rep.deviations() <= bounds::unstructured_deviations(p as u64, touches, sp),
                    "{name} ({policy}, P={p}): deviations exceed (P+t)·T∞"
                );
            }
        }
    }
}

#[test]
fn workload_suite_is_deterministic_per_config() {
    // The suite feeds byte-identical experiment tables (E12–E14), so every
    // run of a (dag, config, scheduler) cell must reproduce the same
    // numbers.
    for (name, dag) in thm12_suite() {
        for policy in ForkPolicy::ALL {
            let (_, a) = run(&dag, 4, policy);
            let (_, b) = run(&dag, 4, policy);
            assert_eq!(a.deviations(), b.deviations(), "{name} {policy}");
            assert_eq!(a.cache_misses(), b.cache_misses(), "{name} {policy}");
            assert_eq!(a.steals(), b.steals(), "{name} {policy}");
            assert_eq!(a.makespan, b.makespan, "{name} {policy}");
        }
    }
}

#[test]
fn parsimonious_scheduler_trades_steals_for_locality() {
    // The locality end of the E11–E14 comparison: as the parsimonious
    // patience grows unbounded, thieves never actually steal, the owner
    // executes the whole DAG in the parsimonious sequential order, and the
    // execution degrades to the zero-deviation, sequential-miss-count
    // baseline — the most cache-local schedule possible. (At finite
    // patience the steal count need not be below random work stealing's —
    // refusing a steal reshapes the schedule — but the Theorem 12 bounds
    // still hold; see `thm12_upper_bound_holds_on_workload_suite`.)
    for (name, dag) in thm12_suite() {
        let sim = ParallelSimulator::new(SimConfig {
            processors: 4,
            cache_lines: CACHE,
            fork_policy: ForkPolicy::FutureFirst,
            ..SimConfig::default()
        });
        let seq = sim.sequential(&dag);
        let mut random = RandomScheduler::new(SimConfig::default().seed);
        let ws = sim.run_against(&dag, &seq, &mut random, false);
        let mut infinite = parsimonious(u32::MAX);
        let frugal = sim.run_against(&dag, &seq, &mut infinite, false);
        assert!(ws.completed && frugal.completed, "{name}");
        assert_eq!(frugal.steals(), 0, "{name}: infinite patience never steals");
        assert_eq!(
            frugal.deviations(),
            0,
            "{name}: a steal-free execution follows the sequential order"
        );
        assert_eq!(
            frugal.cache_misses(),
            seq.cache_misses(),
            "{name}: steal-free execution reproduces the sequential misses"
        );
        assert!(
            frugal.cache_misses() <= ws.cache_misses(),
            "{name}: the steal-free schedule is the locality optimum"
        );
    }
}

#[test]
fn thm9_adversary_achieves_linear_deviations_in_span() {
    // Theorem 9, Figure 6(a): one adversarial steal forces Ω(T∞)
    // deviations and Ω(k·C)-shaped additional misses. The scripted
    // adversary reliably achieves ~2k deviations on the k-stage gadget;
    // assert the Ω with a 2x safety margin.
    let chain = 4usize;
    let mut last = 0u64;
    for k in [4usize, 8, 16] {
        let fig = Fig6::gadget(k, chain);
        let sp = span(&fig.dag);
        let mut adv = fig.adversary();
        let (seq, rep) = run_adversary(&fig.dag, fig.processors, chain, Fig6::POLICY, &mut adv);
        assert!(rep.completed, "fig6a(k={k}) adversary schedule deadlocked");
        assert!(
            rep.deviations() >= k as u64,
            "fig6a(k={k}): only {} deviations from one steal, expected Ω(T∞) ≥ {k}",
            rep.deviations()
        );
        assert!(
            rep.deviations() >= sp / 4,
            "fig6a(k={k}): {} deviations not linear in span {sp}",
            rep.deviations()
        );
        assert!(
            rep.additional_misses(&seq) >= k as u64,
            "fig6a(k={k}): only {} additional misses, expected Ω(k·C) ≥ {k}",
            rep.additional_misses(&seq)
        );
        assert!(
            rep.deviations() > last,
            "fig6a: deviations must grow with k"
        );
        last = rep.deviations();
    }
}

#[test]
fn thm9_repeated_gadgets_multiply_deviations() {
    // Figure 6(b): m chained gadgets replayed by the same processors incur
    // ~2·m·k deviations; assert Ω(m·k).
    let k = 6usize;
    for m in [1usize, 2, 4, 8] {
        let fig = Fig6::repeated(m, k, 1);
        let mut adv = fig.adversary();
        let (_, rep) = run_adversary(&fig.dag, fig.processors, 8, Fig6::POLICY, &mut adv);
        assert!(rep.completed, "fig6b(m={m}) adversary schedule deadlocked");
        assert!(
            rep.deviations() >= (m * k) as u64,
            "fig6b(m={m},k={k}): only {} deviations, expected Ω(m·k) = {}",
            rep.deviations(),
            m * k
        );
    }
}

#[test]
fn thm10_adversary_achieves_touches_times_span_deviations() {
    // Theorem 10, Figure 8: under parent-first, a single steal at the root
    // propagates into every branch, forcing Ω(t·n) deviations (t touches,
    // n-stage leaf gadgets). thm10_deviations(t, n) is the formula with
    // the per-branch span as its span argument.
    let (n, chain) = (6usize, 4usize);
    for depth in [1usize, 2, 3] {
        let fig = Fig8::new(depth, n, chain);
        let t = fig.touches() as u64;
        let mut adv = fig.adversary();
        let (_, rep) = run_adversary(&fig.dag, 2, chain, Fig8::POLICY, &mut adv);
        assert!(
            rep.completed,
            "fig8(depth={depth}) adversary schedule deadlocked"
        );
        let omega = bounds::thm10_deviations(t, n as u64) / 2;
        assert!(
            rep.deviations() >= omega,
            "fig8(depth={depth}): only {} deviations, expected Ω(t·n) ≥ {omega} (t={t}, n={n})",
            rep.deviations()
        );
    }
}

#[test]
fn thm10_single_steal_on_fig7b_costs_linear_misses() {
    // Figure 7(b) is the single-branch core of Theorem 10: one steal under
    // parent-first already costs Ω(n) deviations and additional misses
    // growing with n.
    let chain = 8usize;
    let mut last_misses = 0u64;
    for n in [4usize, 8, 16] {
        let fig = Fig7b::new(8, n, chain);
        let mut adv = fig.adversary();
        let (seq, rep) = run_adversary(&fig.dag, 2, chain, Fig7b::POLICY, &mut adv);
        assert!(rep.completed, "fig7b(n={n}) adversary schedule deadlocked");
        assert!(
            rep.deviations() >= n as u64,
            "fig7b(n={n}): only {} deviations from one steal",
            rep.deviations()
        );
        assert!(
            rep.additional_misses(&seq) >= last_misses,
            "fig7b(n={n}): additional misses must not shrink as n grows"
        );
        last_misses = rep.additional_misses(&seq);
    }
    assert!(
        last_misses > 0,
        "fig7b(n=16): the steal must cost extra misses"
    );
}

#[test]
fn universal_relations_hold_under_both_policies() {
    // Policy-independent conformance over figure workloads, an
    // unstructured DAG and randomized DAGs:
    //  * one processor ⇒ zero deviations, sequential miss count;
    //  * Acar–Blelloch–Blumofe: additional misses ≤ C · deviations;
    //  * Spoonhower et al.'s general deviation form P·T∞ + t·T∞ is never
    //    exceeded by randomized work stealing on these sizes;
    //  * every node executes exactly once.
    let mut workloads: Vec<(String, Dag)> = vec![
        ("fig3(8) [unstructured]".into(), fig3(8)),
        ("fig4(5,3)".into(), fig4(5, 3)),
        ("fig5a(10)".into(), fig5a(10)),
        ("pipeline(4,8)".into(), pipeline(4, 8, 3)),
    ];
    for seed in [5u64, 55] {
        workloads.push((
            format!("random(seed={seed})"),
            random_single_touch(&RandomConfig {
                target_nodes: 300,
                seed,
                ..RandomConfig::default()
            }),
        ));
    }

    for (name, dag) in &workloads {
        let sp = span(dag);
        let touches = dag.touches().count() as u64;
        for policy in ForkPolicy::ALL {
            // Single processor: the parallel execution *is* the sequential
            // one, so both deviation and miss counts must coincide.
            let (seq1, rep1) = run(dag, 1, policy);
            assert_eq!(rep1.deviations(), 0, "{name} ({policy}, P=1)");
            assert_eq!(
                rep1.cache_misses(),
                seq1.cache_misses(),
                "{name} ({policy}, P=1)"
            );

            for p in [2usize, 4] {
                let (seq, rep) = run(dag, p, policy);
                assert!(rep.completed, "{name} ({policy}, P={p})");
                assert_eq!(
                    rep.executed(),
                    dag.num_nodes() as u64,
                    "{name} ({policy}, P={p})"
                );
                assert!(
                    rep.additional_misses(&seq)
                        <= bounds::misses_from_deviations(CACHE as u64, rep.deviations()),
                    "{name} ({policy}, P={p}): ΔM = {} exceeds C·deviations = {}",
                    rep.additional_misses(&seq),
                    bounds::misses_from_deviations(CACHE as u64, rep.deviations()),
                );
                let general = bounds::unstructured_deviations(p as u64, touches, sp);
                assert!(
                    rep.deviations() <= general,
                    "{name} ({policy}, P={p}): {} deviations exceed (P+t)·T∞ = {general}",
                    rep.deviations(),
                );
            }
        }
    }
}

#[test]
fn structured_bound_separates_from_unstructured_shape() {
    // The paper's headline: on structured single-touch DAGs the measured
    // future-first deviations stay bounded by P·T∞², far below the t·T∞
    // shape that unstructured futures admit once t ≫ P·T∞. Check the
    // formulas order correctly at the sizes the suite exercises.
    let dag = random_single_touch(&RandomConfig {
        target_nodes: 500,
        seed: 13,
        ..RandomConfig::default()
    });
    let sp = span(&dag);
    let touches = dag.touches().count() as u64;
    for p in [2u64, 4] {
        let structured = bounds::thm8_deviations(p, sp);
        let unstructured = bounds::unstructured_deviations(p, touches, sp);
        // At these sizes P·T∞ dominates t, so the structured bound is the
        // larger *formula*; the measured runs must sit below both.
        let (_, rep) = run(&dag, p as usize, ForkPolicy::FutureFirst);
        assert!(rep.deviations() <= structured.min(unstructured));
    }
}
