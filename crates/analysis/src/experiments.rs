//! The experiment suite: one function per experiment in `docs/DESIGN.md`
//! §3, grouped by theme — `theorems` E1–E9, the workload `suites`
//! E11–E17 (rows over one bound-table driver), the `runtime` experiments
//! E10/E18/E20/E21 and the E19 `tournament` — and listed once, in
//! [`registry`].
//!
//! Every experiment returns one or more [`Table`]s whose rows are the
//! measurements the corresponding theorem or figure of the paper is about,
//! next to the theorem's own formula evaluated at the same parameters. The
//! benchmark harness prints them; `docs/EXPERIMENTS.md` archives a run.

mod runtime;
mod suites;
mod theorems;
mod tournament;

pub use runtime::*;
pub use suites::*;
pub use theorems::*;
pub use tournament::*;

use crate::table::Table;
use wsf_core::{ExecutionReport, ForkPolicy, ParallelSimulator, Scheduler, SeqReport, SimConfig};
use wsf_dag::Dag;

/// How large the experiment sweeps should be.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny parameters, used by the test-suite smoke tests.
    Quick,
    /// The sizes reported in `docs/EXPERIMENTS.md`.
    Full,
}

impl Scale {
    fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

fn run_with(
    dag: &Dag,
    processors: usize,
    cache_lines: usize,
    policy: ForkPolicy,
    scheduler: Option<&mut dyn Scheduler>,
) -> (SeqReport, ExecutionReport) {
    let config = SimConfig {
        processors,
        cache_lines,
        fork_policy: policy,
        ..SimConfig::default()
    };
    let sim = ParallelSimulator::new(config);
    let seq = sim.sequential(dag);
    let report = match scheduler {
        Some(s) => sim.run_against(dag, &seq, s, false),
        None => {
            let mut random = wsf_core::RandomScheduler::new(config.seed);
            sim.run_against(dag, &seq, &mut random, false)
        }
    };
    (seq, report)
}

/// Runs every experiment of the [`registry`] at the given scale.
pub fn run_all(scale: Scale) -> Vec<Table> {
    registry()
        .into_iter()
        .flat_map(|(_, _, run)| run(scale))
        .collect()
}

/// One experiment registry entry: id, description, runner.
pub type Experiment = (&'static str, &'static str, fn(Scale) -> Vec<Table>);

/// The experiment registry: id, description, runner.
pub fn registry() -> Vec<Experiment> {
    vec![
        ("e1", "Theorem 8 upper bound (future-first)", e1_thm8_upper),
        ("e2", "Theorem 9 lower bound (Figure 6)", e2_thm9_lower),
        (
            "e3",
            "Theorem 10 lower bound (Figures 7(b), 8)",
            e3_thm10_parent_first,
        ),
        ("e4", "Figure 2/3 background bounds", e4_unstructured),
        ("e5", "Theorem 12 local-touch computations", e5_local_touch),
        ("e6", "Theorems 16/18 super final node", e6_super_final),
        ("e7", "Lemmas 4/11/14 sequential order", e7_lemma4),
        ("e8", "future-first vs parent-first", e8_policy_comparison),
        ("e9", "application workloads", e9_applications),
        ("e10", "real runtime", e10_runtime),
        ("e11", "bulk random sweep (thread-sharded)", e11_bulk_sweep),
        (
            "e12",
            "Theorem 12 divide-and-conquer mergesort",
            e12_dnc_sort,
        ),
        ("e13", "Theorem 12 wavefront stencil grids", e13_stencil),
        (
            "e14",
            "Theorems 10/12 bounded-backpressure pipelines",
            e14_backpressure,
        ),
        (
            "e15",
            "large-capacity locality sweep (one-pass, C = 16 … 2^20)",
            e15_cache_capacity,
        ),
        (
            "e16",
            "Theorems 16/18 symmetric-exchange stencils (super final node)",
            e16_exchange_stencil,
        ),
        (
            "e17",
            "one-pass miss-ratio curves (stack distance)",
            e17_miss_ratio_curves,
        ),
        (
            "e18",
            "fault-tolerant streaming epochs (crash recovery)",
            e18_streaming_epochs,
        ),
        (
            "e19",
            "scheduler tournament over the composable steal-policy space (Pareto front)",
            e19_scheduler_tournament,
        ),
        (
            "e20",
            "futures as a service (wsf-server over TCP, zipfian multi-tenant mix)",
            e20_futures_service,
        ),
        (
            "e21",
            "hardware-validation loop (runtime traces vs Theorem 12/16/18 bounds)",
            e21_hw_validate,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_runs_every_experiment() {
        let tables = run_all(Scale::Quick);
        assert!(tables.len() >= 10);
        for table in &tables {
            assert!(!table.is_empty(), "table {} has no rows", table.title);
            assert!(!table.render().is_empty());
        }
    }

    #[test]
    fn lemma4_has_no_violations() {
        for table in e7_lemma4(Scale::Quick) {
            for row in &table.rows {
                assert_eq!(row.last().map(String::as_str), Some("0"), "row {row:?}");
            }
        }
    }

    #[test]
    fn e10_results_are_ok_under_every_spawn_policy() {
        let tables = e10_runtime(Scale::Quick);
        let [table] = &tables[..] else {
            panic!("E10 renders one table, got {}", tables.len())
        };
        let column = |name: &str| table.headers.iter().position(|h| h == name).expect(name);
        let (policy, ok) = (column("policy"), column("result ok"));
        for row in &table.rows {
            assert_eq!(row[ok], "true", "kernel result mismatch: {row:?}");
        }
        // Quick scale runs one thread count: one row per spawn policy.
        let policies: Vec<&str> = table.rows.iter().map(|r| r[policy].as_str()).collect();
        let expected: Vec<String> = wsf_runtime::SpawnPolicy::ALL
            .iter()
            .map(|p| p.to_string())
            .collect();
        assert_eq!(policies, expected);
    }

    #[test]
    fn registry_ids_are_unique_and_runnable() {
        let reg = registry();
        assert_eq!(reg.len(), 21);
        let mut ids: Vec<&str> = reg.iter().map(|(id, _, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 21);
    }

    #[test]
    fn thm12_suite_tables_respect_their_bounds() {
        // The acceptance contract of the Theorem-12/16/18 workload suites:
        // every E12–E18 row reports "yes" in its bound-verdict column, for
        // both the random-WS and the parsimonious scheduler — E15/E16/E17
        // extend the check across the capacity sweeps (E16 over the
        // super-final exchange stencils, E17 over the one-pass miss-ratio
        // curves) and E18 across its injected fault schedule (both the
        // per-epoch miss table and the crash-recovery summary end in a
        // verdict column).
        for runner in [
            e12_dnc_sort,
            e13_stencil,
            e14_backpressure,
            e15_cache_capacity,
            e16_exchange_stencil,
            e17_miss_ratio_curves,
            e18_streaming_epochs,
            e21_hw_validate,
        ] {
            for table in runner(Scale::Quick) {
                assert!(!table.is_empty(), "{}", table.title);
                for row in &table.rows {
                    assert_eq!(
                        row.last().map(String::as_str),
                        Some("yes"),
                        "{}: row {row:?} violates its bound",
                        table.title
                    );
                }
            }
        }
    }

    #[test]
    fn e19_covers_the_space_and_respects_the_bounds() {
        let tables = e19_scheduler_tournament(Scale::Quick);
        assert_eq!(tables.len(), 3);
        let [scores, front, promoted] = &tables[..] else {
            unreachable!()
        };
        // ≥ 64 policy points at every scale — the quick grid is the full
        // grid; only the workload sizes shrink.
        assert!(scores.len() >= 64, "{} policy points", scores.len());
        assert!(!front.is_empty(), "Pareto front is never empty");
        // Every promoted-preset cell stays within its governing theorem
        // bound — steal-half and the other dimensions do not break the
        // Theorem 12/16/18 regime on this suite.
        assert!(!promoted.is_empty());
        for row in &promoted.rows {
            assert_eq!(
                row.last().map(String::as_str),
                Some("yes"),
                "{}: row {row:?} violates its bound",
                promoted.title
            );
        }
    }

    #[test]
    #[ignore = "full-scale tournament; seconds-long in debug builds"]
    fn e19_full_scale_has_a_preset_beating_ws_random() {
        // The promotion contract (see docs/EXPERIMENTS.md §E19): at full
        // scale at least one promoted preset beats ws-random on extra
        // misses at equal-or-better makespan in some (workload, P, C)
        // cell. `beats` is the second-to-last column.
        let tables = e19_scheduler_tournament(Scale::Full);
        let promoted = &tables[2];
        assert!(
            promoted.rows.iter().any(|row| row[row.len() - 2] == "yes"),
            "no promoted preset beats ws-random in any cell"
        );
    }

    #[test]
    fn e8_future_first_never_loses_badly_on_structured_dags() {
        // On the adversarial DAGs the random scheduler may or may not hit
        // the worst case, but future-first should never be drastically worse
        // than parent-first on the app workloads (last rows).
        let tables = e8_policy_comparison(Scale::Quick);
        assert_eq!(tables.len(), 1);
        assert!(tables[0].len() >= 4);
    }
}
