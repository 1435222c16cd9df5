//! Wide parameter sweeps over `(seed, P, policy, cache, scheduler)` cells.
//!
//! The per-experiment tables in [`crate::experiments`] reproduce specific
//! figures; this module provides the *bulk* sweep used to study large
//! random DAG populations: every combination of workload seed, processor
//! count, fork policy, cache size and steal scheduler is measured and
//! summarized in one table, next to the theorem bound that governs the
//! cell (Theorem 8/12's `P·T∞²` under future-first, the general
//! `(P+t)·T∞` shape under parent-first — the regime Theorem 10's lower
//! bound lives in).
//!
//! Three things make the sweep fast without changing a single measured
//! number:
//!
//! * cells are sharded across threads with [`crate::par::par_map`] and the
//!   table is assembled from the ordered results, so the output is
//!   byte-identical at every thread count;
//! * each `(seed, policy)` pair runs one [`capacity_sweep`]: the
//!   sequential baseline is computed once, each `(P, scheduler)` schedule
//!   is simulated once, traced, and every cache size is read off the
//!   resulting miss-ratio curves. That is exact because no sweep scheduler
//!   reads cache state (`docs/DESIGN.md` §4; [`seed_sweep_cells`] asserts
//!   it);
//! * each sweep reuses one [`SimScratch`], so repeated simulations allocate
//!   nothing per step.

use crate::par::par_map;
use crate::policy::PolicySpec;
use crate::table::Table;
use wsf_cache::{MissRatioCurve, StackDistanceSim};
use wsf_core::{
    bounds, ExecutionReport, ForkPolicy, ParallelSimulator, SeqReport, SimConfig, SimScratch,
};
use wsf_dag::{classify, span, Dag};
use wsf_workloads::random::{random_single_touch, RandomConfig};

/// The cache capacities a locality sweep evaluates.
///
/// With the one-pass [`capacity_sweep`] the evaluation grid is free (one
/// traced execution answers every capacity), so the full-scale grid is
/// *dense* — every power of two from 2⁴ to 2²⁰.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CapacityGrid {
    capacities: Vec<usize>,
}

impl CapacityGrid {
    /// A grid over the given capacities (kept in caller order).
    ///
    /// # Panics
    /// Panics if `capacities` is empty or contains a zero.
    pub fn new(capacities: Vec<usize>) -> Self {
        assert!(!capacities.is_empty(), "capacity grid must be non-empty");
        assert!(
            capacities.iter().all(|&c| c > 0),
            "cache capacities must be positive"
        );
        CapacityGrid { capacities }
    }

    /// The dense default: every power of two 2⁴ … 2²⁰ (17 points).
    pub fn dense() -> Self {
        CapacityGrid::new((4..=20).map(|e| 1usize << e).collect())
    }

    /// The two-point grid the `Scale::Quick` smoke tests sweep.
    pub fn quick() -> Self {
        CapacityGrid::new(vec![16, 256])
    }

    /// The capacities, in evaluation order.
    pub fn capacities(&self) -> &[usize] {
        &self.capacities
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.capacities.len()
    }

    /// Whether the grid has no points (never true for a constructed grid).
    pub fn is_empty(&self) -> bool {
        self.capacities.is_empty()
    }
}

/// The sequential execution's miss-ratio curve: `seq.order()` replayed
/// through one stack-distance profiler. `curve.misses_at(c)` equals the
/// miss count of a sequential run at `cache_lines = c` exactly.
pub fn sequential_curve(dag: &Dag, seq: &SeqReport) -> MissRatioCurve {
    let mut sd = StackDistanceSim::with_block_hint(dag.block_space());
    for &node in seq.order() {
        sd.access_opt(dag.block_of(node).map(|b| b.0));
    }
    sd.curve()
}

/// A traced parallel execution's aggregate miss-ratio curve, profiled one
/// processor at a time on a single profiler: each processor's
/// completions, in trace order, form one lane. `curve.misses_at(c)`
/// equals the summed per-processor miss count of the same execution at
/// `cache_lines = c` exactly.
///
/// Lanes run one after another with a flush between them, so each starts
/// from a cold cache while the histogram accumulates: that is the merge of
/// the per-processor curves (merging is a sum, so lane order changes no
/// count), with one profiler's working set in cache instead of `P`
/// interleaved ones.
///
/// # Panics
/// Panics if `rep` carries no trace (run the simulator with
/// `traced = true`).
pub fn parallel_curve(dag: &Dag, rep: &ExecutionReport) -> MissRatioCurve {
    let trace = rep
        .trace
        .as_ref()
        .expect("parallel_curve needs a traced execution");
    let mut sd = StackDistanceSim::with_block_hint(dag.block_space());
    for proc in 0..rep.per_proc.len() {
        sd.flush();
        for ev in trace.iter().filter(|ev| ev.proc == proc) {
            sd.access_opt(dag.block_of(ev.node).map(|b| b.0));
        }
    }
    sd.curve()
}

/// One `(P, scheduler)` execution of a [`capacity_sweep`]: the
/// C-independent schedule measurements plus the miss-ratio curve that
/// answers every capacity.
#[derive(Clone, Debug)]
pub struct CapacityRun {
    /// Processor count of the run.
    pub processors: usize,
    /// Scheduler of the run.
    pub scheduler: PolicySpec,
    /// Deviations from the sequential order (C-independent).
    pub deviations: u64,
    /// Successful steals (C-independent).
    pub steals: u64,
    /// Simulated makespan in steps (C-independent).
    pub makespan: u64,
    /// Aggregate per-processor miss-ratio curve of the execution.
    pub curve: MissRatioCurve,
}

impl CapacityRun {
    /// Cache misses beyond the sequential baseline at capacity `c`
    /// (clamped at zero, matching
    /// [`ExecutionReport::additional_misses`]).
    pub fn additional_misses_at(&self, seq_curve: &MissRatioCurve, c: usize) -> u64 {
        self.curve
            .misses_at(c)
            .saturating_sub(seq_curve.misses_at(c))
    }
}

/// Result of [`capacity_sweep`]: everything E15/E16/E17 need to emit one
/// row per capacity without re-simulating anything.
#[derive(Clone, Debug)]
pub struct CapacitySweep {
    /// Span (`T∞`) of the DAG.
    pub span: u64,
    /// The sequential execution's miss-ratio curve.
    pub seq_curve: MissRatioCurve,
    /// One entry per `(P, scheduler)` pair, in `processors`-major order.
    pub runs: Vec<CapacityRun>,
}

/// Simulates `dag` once per `(P, scheduler)` pair and profiles every trace
/// with the one-pass stack-distance simulator, so hit/miss counts at
/// *every* capacity come from a single execution per pair — where the
/// seed experiments re-simulated once per capacity.
///
/// Replacing the per-C loop is exact only for schedulers with
/// `wants_residency() == false`. Those never read cache state: caches are
/// pure accounting updated at node completion, so the execution order,
/// deviations, steals and makespan are identical at every `C`, and the
/// per-processor access traces — hence the exact per-C miss counts,
/// recovered here via the LRU inclusion property — are too. A
/// `prefer_cached` policy probes the thief's cache when it picks a victim,
/// so its one traced run (at `SimConfig::default()`'s C = 8) chooses
/// victims from C = 8 residency, and the misses read off the curve at any
/// other `C` are those of that schedule, not of a run at `C`. The
/// differential suite in
/// `crates/cache/tests/stack_distance_differential.rs` holds the curves,
/// and this module's `capacity_sweep_matches_per_capacity_simulation` holds
/// every field of the sweep, to per-capacity `ParallelSimulator` runs.
pub fn capacity_sweep(
    dag: &Dag,
    fork_policy: ForkPolicy,
    processors: &[usize],
    schedulers: &[PolicySpec],
) -> CapacitySweep {
    let base = SimConfig {
        fork_policy,
        ..SimConfig::default()
    };
    let seq = ParallelSimulator::new(base).sequential(dag);
    let seq_curve = sequential_curve(dag, &seq);
    let mut scratch = SimScratch::new();
    let mut runs = Vec::with_capacity(processors.len() * schedulers.len());
    for &p in processors {
        for &scheduler in schedulers {
            let cfg = SimConfig {
                processors: p,
                ..base
            };
            // By-value instantiation: a concrete PolicyScheduler, so the
            // loop stays monomorphized and allocation-free (the old
            // SweepScheduler path boxed a dyn Scheduler per run).
            let mut sched = scheduler.instantiate(cfg.seed);
            let rep = ParallelSimulator::new(cfg).run_with_scratch(
                dag,
                &seq,
                &mut sched,
                true,
                &mut scratch,
            );
            runs.push(CapacityRun {
                processors: p,
                scheduler,
                deviations: rep.deviations(),
                steals: rep.steals(),
                makespan: rep.makespan,
                curve: parallel_curve(dag, &rep),
            });
        }
    }
    CapacitySweep {
        span: span(dag),
        seq_curve,
        runs,
    }
}

/// Parameters of [`seed_sweep`].
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Approximate node count of each random DAG.
    pub target_nodes: usize,
    /// Workload seeds; one random DAG is generated per seed.
    pub seeds: Vec<u64>,
    /// Processor counts to simulate.
    pub processors: Vec<usize>,
    /// Fork policies to simulate.
    pub policies: Vec<ForkPolicy>,
    /// Cache sizes (lines) to report. Each is read off one miss-ratio
    /// curve per `(P, scheduler)` schedule, so a size adds rows, not
    /// simulations.
    pub cache_lines: Vec<usize>,
    /// Steal schedulers to simulate.
    pub schedulers: Vec<PolicySpec>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            target_nodes: 20_000,
            seeds: vec![0, 1, 2, 3],
            processors: vec![2, 4, 8],
            policies: ForkPolicy::ALL.to_vec(),
            cache_lines: vec![16],
            schedulers: vec![PolicySpec::ws_random()],
        }
    }
}

/// One row of the sweep: the measured quantities of a single cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepCell {
    /// Workload seed.
    pub seed: u64,
    /// Fork policy.
    pub policy: ForkPolicy,
    /// Cache lines.
    pub cache_lines: usize,
    /// Steal scheduler.
    pub scheduler: PolicySpec,
    /// Processor count.
    pub processors: usize,
    /// Nodes in the generated DAG.
    pub nodes: usize,
    /// Span (`T∞`) of the generated DAG.
    pub span: u64,
    /// Deviations of the parallel execution.
    pub deviations: u64,
    /// Successful steals.
    pub steals: u64,
    /// Cache misses beyond the sequential baseline.
    pub additional_misses: u64,
    /// Simulated makespan in steps.
    pub makespan: u64,
    /// The deviation bound governing the cell: Theorem 8/12's `P·T∞²`
    /// under future-first, the general `(P+t)·T∞` shape under
    /// parent-first.
    pub deviation_bound: u64,
}

impl SweepCell {
    /// Whether the measured deviations respect the cell's governing bound.
    pub fn within_bound(&self) -> bool {
        self.deviations <= self.deviation_bound
    }
}

/// Runs every `(seed, P, policy, cache, scheduler)` cell of `config` and
/// returns the rows in deterministic sweep order (seed-major, then policy,
/// cache, scheduler, P).
///
/// # Panics
/// Panics if a scheduler in `config.schedulers` has `prefer_cached`: every
/// cache size is read off one [`capacity_sweep`], which is exact only for
/// schedulers that never read cache state.
pub fn seed_sweep_cells(config: &SweepConfig) -> Vec<SweepCell> {
    if let Some(spec) = config.schedulers.iter().find(|s| s.prefer_cached) {
        panic!(
            "seed_sweep reads every cache size off one capacity_sweep, which is exact only \
             for schedulers that never read cache state (docs/DESIGN.md §4); {spec} does"
        );
    }
    // One shard per seed: the (expensive) DAG generation happens once per
    // seed, and each policy runs one capacity sweep whose curves answer
    // every cache size.
    let rows = par_map(config.seeds.clone(), |seed| {
        let dag = random_single_touch(&RandomConfig {
            target_nodes: config.target_nodes,
            seed,
            ..RandomConfig::default()
        });
        let class = classify(&dag);
        assert!(
            class.is_structured_single_touch(),
            "seed {seed}: {:?}",
            class.violations
        );
        let touches = dag.touches().count() as u64;
        let mut rows = Vec::new();
        for &policy in &config.policies {
            let sweep = capacity_sweep(&dag, policy, &config.processors, &config.schedulers);
            for &cache_lines in &config.cache_lines {
                for (s, &scheduler) in config.schedulers.iter().enumerate() {
                    for (p, &processors) in config.processors.iter().enumerate() {
                        // `runs` is processors-major.
                        let run = &sweep.runs[p * config.schedulers.len() + s];
                        let deviation_bound = match policy {
                            ForkPolicy::FutureFirst => {
                                bounds::thm12_deviations(processors as u64, sweep.span)
                            }
                            ForkPolicy::ParentFirst => bounds::unstructured_deviations(
                                processors as u64,
                                touches,
                                sweep.span,
                            ),
                        };
                        rows.push(SweepCell {
                            seed,
                            policy,
                            cache_lines,
                            scheduler,
                            processors,
                            nodes: dag.num_nodes(),
                            span: sweep.span,
                            deviations: run.deviations,
                            steals: run.steals,
                            additional_misses: run
                                .additional_misses_at(&sweep.seq_curve, cache_lines),
                            makespan: run.makespan,
                            deviation_bound,
                        });
                    }
                }
            }
        }
        rows
    });
    rows.into_iter().flatten().collect()
}

/// Runs [`seed_sweep_cells`] and renders the rows as a [`Table`].
pub fn seed_sweep(config: &SweepConfig) -> Table {
    let mut t = Table::new(
        "Bulk sweep — random structured single-touch DAGs, every (seed, P, policy, C, scheduler) cell",
        &[
            "seed",
            "policy",
            "C",
            "sched",
            "P",
            "nodes",
            "T_inf",
            "deviations",
            "dev bound",
            "within",
            "steals",
            "extra misses",
            "makespan",
        ],
    );
    for cell in seed_sweep_cells(config) {
        t.push_row(vec![
            cell.seed.to_string(),
            cell.policy.to_string(),
            cell.cache_lines.to_string(),
            cell.scheduler.to_string(),
            cell.processors.to_string(),
            cell.nodes.to_string(),
            cell.span.to_string(),
            cell.deviations.to_string(),
            cell.deviation_bound.to_string(),
            if cell.within_bound() { "yes" } else { "NO" }.to_string(),
            cell.steals.to_string(),
            cell.additional_misses.to_string(),
            cell.makespan.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_grid_defaults() {
        assert_eq!(CapacityGrid::dense().len(), 17);
        assert_eq!(CapacityGrid::dense().capacities()[0], 16);
        assert_eq!(CapacityGrid::dense().capacities()[16], 1 << 20);
        assert_eq!(CapacityGrid::quick().capacities(), &[16, 256]);
        assert!(!CapacityGrid::quick().is_empty());
    }

    #[test]
    fn capacity_sweep_matches_per_capacity_simulation() {
        // The exactness oracle behind every table built on `capacity_sweep`
        // (E12, E13, E15–E18): each field of the one traced execution —
        // and its curve read at C — equals a `ParallelSimulator` run
        // configured with `cache_lines = C` that simulates its caches.
        // Both bound families are held to it: the Theorem-12 mergesort, and
        // the Theorem-16/18 symmetric-exchange stencils (super final node;
        // `steps = 1` and `steps > 1`), each at capacities on both sides of
        // its working set.
        use wsf_workloads::{sort, stencil};
        let schedulers = [PolicySpec::ws_random(), PolicySpec::parsimonious()];
        let processors = [2usize, 4];
        for dag in [
            sort::mergesort(64, 8),
            stencil::stencil_exchange(4, 8, 1),
            stencil::stencil_exchange(4, 8, 3),
        ] {
            let blocks = dag.block_space();
            assert!(
                blocks > 17,
                "working set must straddle the small capacities"
            );
            let sweep = capacity_sweep(&dag, ForkPolicy::FutureFirst, &processors, &schedulers);
            assert_eq!(sweep.runs.len(), processors.len() * schedulers.len());
            assert_eq!(sweep.span, span(&dag));
            for c in [
                1,
                4,
                16,
                17,
                blocks - 1,
                blocks,
                blocks + 1,
                256,
                4096,
                32768,
            ] {
                let base = SimConfig {
                    cache_lines: c,
                    fork_policy: ForkPolicy::FutureFirst,
                    ..SimConfig::default()
                };
                // The sequential executor always runs its cache. The
                // oracle's runs get a report that does not say the DAG is
                // touch-once, so they run their caches too rather than
                // count.
                let seq = ParallelSimulator::new(base).sequential(&dag);
                assert_eq!(sweep.seq_curve.misses_at(c), seq.cache_misses());
                let seq = SeqReport::new(seq.order().to_vec(), seq.cache);
                let mut runs = sweep.runs.iter();
                for &p in &processors {
                    for scheduler in schedulers {
                        let run = runs.next().expect("one run per (P, scheduler)");
                        assert_eq!((run.processors, run.scheduler), (p, scheduler));
                        let cfg = SimConfig {
                            processors: p,
                            ..base
                        };
                        let mut s = scheduler.instantiate(cfg.seed);
                        let rep =
                            ParallelSimulator::new(cfg).run_against(&dag, &seq, &mut s, false);
                        assert_eq!(run.deviations, rep.deviations());
                        assert_eq!(run.steals, rep.steals());
                        assert_eq!(run.makespan, rep.makespan);
                        assert_eq!(run.curve.misses_at(c), rep.cache_misses(), "C = {c}");
                        assert_eq!(
                            run.additional_misses_at(&sweep.seq_curve, c),
                            rep.additional_misses(&seq)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn seed_sweep_matches_per_capacity_simulation() {
        // The exactness oracle of E11: every cell read off the one-pass
        // sweep equals a fresh simulation configured with `cache_lines = C`,
        // for both fork policies and capacities on both sides of the
        // paper's C = 8/16.
        let config = SweepConfig {
            target_nodes: 400,
            seeds: vec![1, 2],
            processors: vec![2, 4],
            policies: ForkPolicy::ALL.to_vec(),
            cache_lines: vec![1, 8, 16, 17, 4096],
            schedulers: vec![PolicySpec::ws_random(), PolicySpec::parsimonious()],
        };
        let mut expected = Vec::new();
        for &seed in &config.seeds {
            let dag = random_single_touch(&RandomConfig {
                target_nodes: config.target_nodes,
                seed,
                ..RandomConfig::default()
            });
            let sp = span(&dag);
            let touches = dag.touches().count() as u64;
            for &policy in &config.policies {
                for &cache_lines in &config.cache_lines {
                    for &scheduler in &config.schedulers {
                        for &processors in &config.processors {
                            let cfg = SimConfig {
                                processors,
                                cache_lines,
                                fork_policy: policy,
                                ..SimConfig::default()
                            };
                            let sim = ParallelSimulator::new(cfg);
                            let seq = sim.sequential(&dag);
                            let mut sched = scheduler.instantiate(cfg.seed);
                            let rep = sim.run_against(&dag, &seq, &mut sched, false);
                            expected.push(SweepCell {
                                seed,
                                policy,
                                cache_lines,
                                scheduler,
                                processors,
                                nodes: dag.num_nodes(),
                                span: sp,
                                deviations: rep.deviations(),
                                steals: rep.steals(),
                                additional_misses: rep.additional_misses(&seq),
                                makespan: rep.makespan,
                                deviation_bound: match policy {
                                    ForkPolicy::FutureFirst => {
                                        bounds::thm12_deviations(processors as u64, sp)
                                    }
                                    ForkPolicy::ParentFirst => bounds::unstructured_deviations(
                                        processors as u64,
                                        touches,
                                        sp,
                                    ),
                                },
                            });
                        }
                    }
                }
            }
        }
        let cells = seed_sweep_cells(&config);
        assert_eq!(cells.len(), expected.len());
        for (cell, want) in cells.iter().zip(&expected) {
            assert_eq!(cell, want);
        }
        assert!(
            cells.iter().any(|c| c.additional_misses > 0),
            "some cell must carry extra misses, or the capacities test nothing"
        );
    }

    #[test]
    #[should_panic(expected = "docs/DESIGN.md §4")]
    fn seed_sweep_rejects_schedulers_that_read_the_cache() {
        seed_sweep_cells(&SweepConfig {
            target_nodes: 100,
            seeds: vec![1],
            schedulers: vec![PolicySpec::parse("random+cache").expect("valid spec")],
            ..SweepConfig::default()
        });
    }

    #[test]
    fn sweep_covers_every_cell_in_order() {
        let config = SweepConfig {
            target_nodes: 400,
            seeds: vec![1, 2],
            processors: vec![2, 4],
            policies: ForkPolicy::ALL.to_vec(),
            cache_lines: vec![8],
            schedulers: vec![PolicySpec::ws_random(), PolicySpec::parsimonious()],
        };
        let cells = seed_sweep_cells(&config);
        assert_eq!(cells.len(), 2 * 2 * 2 * 2);
        // Seed-major order, then policy, scheduler, P.
        assert_eq!(cells[0].seed, 1);
        assert_eq!(cells[0].scheduler, PolicySpec::ws_random());
        assert_eq!(cells[0].processors, 2);
        assert_eq!(cells[1].processors, 4);
        assert_eq!(cells[2].scheduler, PolicySpec::parsimonious());
        assert_eq!(cells[8].seed, 2);
        let table = seed_sweep(&config);
        assert_eq!(table.len(), cells.len());
    }

    #[test]
    fn every_cell_respects_its_governing_bound() {
        let cells = seed_sweep_cells(&SweepConfig {
            target_nodes: 600,
            seeds: vec![3, 9],
            processors: vec![2, 4],
            cache_lines: vec![8],
            schedulers: vec![PolicySpec::ws_random(), PolicySpec::parsimonious()],
            ..SweepConfig::default()
        });
        for cell in &cells {
            assert!(
                cell.within_bound(),
                "seed {} {} {} P={}: {} deviations exceed bound {}",
                cell.seed,
                cell.policy,
                cell.scheduler,
                cell.processors,
                cell.deviations,
                cell.deviation_bound
            );
        }
    }

    #[test]
    fn parsimonious_cells_steal_less_than_random_ws() {
        let cells = seed_sweep_cells(&SweepConfig {
            target_nodes: 1_000,
            seeds: vec![5],
            processors: vec![4],
            policies: vec![ForkPolicy::FutureFirst],
            cache_lines: vec![8],
            schedulers: vec![PolicySpec::ws_random(), PolicySpec::parsimonious()],
        });
        assert_eq!(cells.len(), 2);
        assert!(
            cells[1].steals <= cells[0].steals,
            "parsimonious ({}) must not out-steal random WS ({})",
            cells[1].steals,
            cells[0].steals
        );
    }
}
