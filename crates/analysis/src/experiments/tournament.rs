//! E19: the scheduler tournament over the composable steal-policy space.

use super::suites::{exchange_family, thm12_family};
use super::Scale;
use crate::policy::PolicySpec;
use crate::table::Table;
use crate::tournament::{policy_space, run_tournament, TournamentConfig};
use crate::validate::BoundFamily;
use wsf_core::ForkPolicy;
use wsf_dag::Dag;
use wsf_workloads::{backpressure, sort, stencil};

/// One workload of the E19 tournament suite: name, DAG, and the theorem
/// family whose bounds govern it.
struct E19Workload {
    name: &'static str,
    dag: Dag,
    family: BoundFamily,
}

/// The Theorem-12/16 workload suite the E19 tournament scores against:
/// the four E15 families plus one Theorem-16 (`steps = 1`) and one
/// Theorem-18 symmetric-exchange stencil. Instances are sized below the
/// E15 full-scale ones — the tournament simulates every workload once per
/// `(P, policy)` over the whole policy space, so the suite trades
/// working-set size for grid width (only the sizes shrink at
/// `Scale::Quick`; the policy grid never does).
fn e19_suite(scale: Scale) -> Vec<E19Workload> {
    let (len, grain) = scale.pick((64usize, 8usize), (1_024, 32));
    let (r, w, s) = scale.pick((3usize, 2usize, 3usize), (16, 32, 4));
    let (stages, items) = scale.pick((2usize, 4usize), (4, 64));
    let mut suite: Vec<E19Workload> = [
        ("mergesort", sort::mergesort(len, grain)),
        (
            "mergesort-streaming",
            sort::mergesort_streaming(len, grain, 2 * grain),
        ),
        ("stencil", stencil::stencil(r, w, s)),
        (
            "pipeline-window4",
            backpressure::batched_pipeline(stages, items, 4, 3),
        ),
    ]
    .into_iter()
    .map(|(name, dag)| E19Workload {
        name,
        family: thm12_family(&dag),
        dag,
    })
    .collect();
    for (name, (r, w, s)) in [
        (
            "exchange-thm16",
            scale.pick((4usize, 2usize, 1usize), (16, 64, 1)),
        ),
        ("exchange-thm18", scale.pick((3, 2, 2), (16, 32, 4))),
    ] {
        let dag = stencil::stencil_exchange(r, w, s);
        suite.push(E19Workload {
            name,
            family: exchange_family(&dag, r, s),
            dag,
        });
    }
    suite
}

/// The E19-promoted presets, in [`PolicySpec::NAMED`] order (everything
/// after the two historical baselines).
fn e19_presets() -> Vec<PolicySpec> {
    PolicySpec::NAMED
        .iter()
        .map(|&(_, spec)| spec)
        .filter(|spec| *spec != PolicySpec::ws_random() && *spec != PolicySpec::parsimonious())
        .collect()
}

/// E19 — the scheduler tournament: the simulator as a fitness oracle over
/// the composable steal-policy space. Grid-enumerates victim order ×
/// steal amount × patience × locality (80 points, ≥ 64 at every scale),
/// scores every point over the Theorem-12/16 workload suite × P ×
/// sampled capacities with one one-pass [`capacity_sweep`](crate::sweeps::capacity_sweep) per workload,
/// and emits three tables: aggregate scores with Pareto marks, the
/// Pareto front, and the promoted presets against the `ws-random`
/// baseline cell by cell — with the Theorem 8/10/12-shaped bound, the
/// slack left under it, and a `beats` verdict (fewer extra misses at
/// equal-or-better makespan) per `(workload, P, C)`.
pub fn e19_scheduler_tournament(scale: Scale) -> Vec<Table> {
    e19_scheduler_tournament_with_specs(scale, &policy_space())
}

/// [`e19_scheduler_tournament`] over a caller-chosen policy set (the
/// harness's `--schedulers`/`--patience` flags). A set narrower than the
/// default grid is flagged in the scores table's title, so a narrowed
/// tournament cannot pose as the full one.
pub fn e19_scheduler_tournament_with_specs(scale: Scale, specs: &[PolicySpec]) -> Vec<Table> {
    let suite = e19_suite(scale);
    let workloads: Vec<(String, Dag)> = suite
        .iter()
        .map(|w| (w.name.to_string(), w.dag.clone()))
        .collect();
    let config = TournamentConfig {
        // Two victim candidates minimum (P ≥ 3 would be better still, but
        // P = 4 keeps the quick grid inside the smoke-test budget) so the
        // victim-order dimension is never degenerate.
        processors: scale.pick(vec![2, 4], vec![2, 8]),
        specs: specs.to_vec(),
        capacities: scale.pick(vec![16, 256], vec![16, 256, 4096, 32768]),
        fork_policy: ForkPolicy::FutureFirst,
    };
    let t = run_tournament(&workloads, &config);

    let default_points = policy_space().len();
    let mut title = format!(
        "E19 — scheduler tournament: aggregate scores over {} policy points × the Theorem-12/16 suite",
        specs.len()
    );
    if specs.len() < default_points {
        title.push_str(&format!(
            " [note: policy set truncated to {} point(s) (default grid sweeps {})]",
            specs.len(),
            default_points
        ));
    }
    let mut scores = Table::new(
        title,
        &[
            "sched",
            "deviations",
            "steals",
            "extra misses",
            "makespan",
            "pareto",
        ],
    );
    for e in &t.entries {
        scores.push_row(vec![
            e.spec.to_string(),
            e.deviations.to_string(),
            e.steals.to_string(),
            e.extra_misses.to_string(),
            e.makespan.to_string(),
            if e.pareto { "yes" } else { "-" }.to_string(),
        ]);
    }

    // Policies that tie on the whole score tuple are mutually
    // non-dominated, so a raw front drowns in duplicates (at P = 2 every
    // victim order is degenerate, for one). Collapse ties: one row per
    // distinct score, first spec in grid order speaks for the group.
    let mut front = Table::new(
        "E19 — Pareto front on (deviations, extra misses, makespan), score ties collapsed",
        &[
            "sched",
            "deviations",
            "steals",
            "extra misses",
            "makespan",
            "ties",
        ],
    );
    let mut seen_scores: Vec<(u64, u64, u64)> = Vec::new();
    for e in t.pareto_front() {
        let score = (e.deviations, e.extra_misses, e.makespan);
        if seen_scores.contains(&score) {
            continue;
        }
        seen_scores.push(score);
        let ties = t
            .pareto_front()
            .filter(|o| (o.deviations, o.extra_misses, o.makespan) == score)
            .count();
        front.push_row(vec![
            e.spec.to_string(),
            e.deviations.to_string(),
            e.steals.to_string(),
            e.extra_misses.to_string(),
            e.makespan.to_string(),
            ties.to_string(),
        ]);
    }

    // The promoted presets against ws-random, cell by cell. Only presets
    // present in the evaluated set appear (an explicit --schedulers list
    // may omit them).
    let presets: Vec<PolicySpec> = e19_presets()
        .into_iter()
        .filter(|p| specs.contains(p))
        .collect();
    let mut promoted = Table::new(
        "E19 — promoted presets vs ws-random, per (workload, P, C) cell",
        &[
            "workload",
            "P",
            "C",
            "sched",
            "T_inf",
            "deviations",
            "dev bound",
            "slack",
            "extra misses",
            "miss bound",
            "d_misses",
            "makespan",
            "d_makespan",
            "beats",
            "within",
        ],
    );
    if specs.contains(&PolicySpec::ws_random()) {
        for (widx, w) in suite.iter().enumerate() {
            for &p in &config.processors {
                let base = t
                    .run(widx, p, &PolicySpec::ws_random())
                    .expect("ws-random cell evaluated");
                for (ci, &c) in config.capacities.iter().enumerate() {
                    for preset in &presets {
                        let run = t.run(widx, p, preset).expect("preset cell evaluated");
                        let dev_bound = w.family.deviation_bound(p as u64, run.span);
                        let miss_bound = w.family.miss_bound(c as u64, p as u64, run.span);
                        let (misses, base_misses) = (run.extra_misses[ci], base.extra_misses[ci]);
                        let beats = misses < base_misses && run.makespan <= base.makespan;
                        let within = run.deviations <= dev_bound && misses <= miss_bound;
                        promoted.push_row(vec![
                            w.name.to_string(),
                            p.to_string(),
                            c.to_string(),
                            preset.to_string(),
                            run.span.to_string(),
                            run.deviations.to_string(),
                            dev_bound.to_string(),
                            (dev_bound.saturating_sub(run.deviations)).to_string(),
                            misses.to_string(),
                            miss_bound.to_string(),
                            format!("{:+}", misses as i64 - base_misses as i64),
                            run.makespan.to_string(),
                            format!("{:+}", run.makespan as i64 - base.makespan as i64),
                            if beats { "yes" } else { "-" }.to_string(),
                            if within { "yes" } else { "NO" }.to_string(),
                        ]);
                    }
                }
            }
        }
    }

    vec![scores, front, promoted]
}
