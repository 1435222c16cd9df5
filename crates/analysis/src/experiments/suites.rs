//! E11–E17: the workload suites — the bulk random sweep, and the
//! Theorem-12/16/18 families as rows over one bound-table driver.
//!
//! E12, E13, E15, E16 and E17 are each a [`BoundTable`] literal handed to
//! [`bound_table`]: the driver shards the workloads with [`par_map`], runs
//! one [`capacity_sweep`] per shard and emits every row through
//! [`verdict_row`], the single place a bound verdict is assembled. E14
//! stays hand-written: it runs both fork policies against two different
//! bound shapes, which the driver would have to branch on.

use super::{run_with, Scale};
use crate::par::par_map;
use crate::policy::PolicySpec;
use crate::sweeps::{
    capacity_sweep, seed_sweep, CapacityGrid, CapacityRun, CapacitySweep, SweepConfig,
};
use crate::table::Table;
use crate::validate::BoundFamily;
use wsf_core::{bounds, ForkPolicy, SimConfig};
use wsf_dag::{classify, span, Dag};
use wsf_workloads::{backpressure, sort, stencil};

/// The scheduler pair every suite compares: randomized work stealing and
/// the deterministic parsimonious scheduler.
pub(super) const WS_VS_PARSIMONIOUS: [PolicySpec; 2] =
    [PolicySpec::ws_random(), PolicySpec::parsimonious()];

/// E11 — the bulk `(seed, P, policy, cache, scheduler)` sweep over random
/// structured single-touch DAGs (thread-sharded; see [`crate::sweeps`]),
/// comparing randomized work stealing with the deterministic parsimonious
/// scheduler against each cell's governing deviation bound.
pub fn e11_bulk_sweep(scale: Scale) -> Vec<Table> {
    let config = SweepConfig {
        target_nodes: scale.pick(400, 20_000),
        seeds: scale.pick(vec![1, 2], vec![0, 1, 2, 3]),
        processors: scale.pick(vec![2, 4], vec![2, 4, 8]),
        cache_lines: scale.pick(vec![8], vec![8, 16]),
        schedulers: WS_VS_PARSIMONIOUS.to_vec(),
        ..SweepConfig::default()
    };
    vec![seed_sweep(&config)]
}

/// The columns [`verdict_row`] fills.
pub(super) const VERDICT_COLUMNS: [&str; 9] = [
    "P",
    "T_inf",
    "sched",
    "deviations",
    "P*T_inf^2",
    "extra misses",
    "C*P*T_inf^2",
    "steals",
    "within",
];

/// Formats one `(P, scheduler)` run of a [`CapacitySweep`], read at
/// capacity `c`, as the [`VERDICT_COLUMNS`] cells: the measurements next
/// to `family`'s deviation and additional-miss bounds, and whether both
/// hold. The single row-assembly point of E12–E18, so their tables cannot
/// drift apart in format or verdict logic.
pub(super) fn verdict_row(
    family: BoundFamily,
    sweep: &CapacitySweep,
    run: &CapacityRun,
    c: usize,
) -> Vec<String> {
    let (p, sp) = (run.processors as u64, sweep.span);
    let dev_bound = family.deviation_bound(p, sp);
    let miss_bound = family.miss_bound(c as u64, p, sp);
    let extra_misses = run.additional_misses_at(&sweep.seq_curve, c);
    let within = run.deviations <= dev_bound && extra_misses <= miss_bound;
    vec![
        p.to_string(),
        sp.to_string(),
        run.scheduler.to_string(),
        run.deviations.to_string(),
        dev_bound.to_string(),
        extra_misses.to_string(),
        miss_bound.to_string(),
        run.steals.to_string(),
        if within { "yes" } else { "NO" }.to_string(),
    ]
}

/// Asserts `dag` is in Theorem 12's class (structured local-touch) and
/// names that family.
pub(super) fn thm12_family(dag: &Dag) -> BoundFamily {
    let class = classify(dag);
    assert!(class.is_structured_local_touch(), "{:?}", class.violations);
    BoundFamily::Thm12
}

/// Classifies one symmetric-exchange stencil DAG, asserting the structural
/// properties its bounds rely on: `steps = 1` instances are exactly the
/// Definition 13 class (Theorem 16); `steps > 1` instances exchange with
/// both neighbours and leave plain local-touch (Definition 17's regime and
/// one step beyond — Theorem 18).
pub(super) fn exchange_family(dag: &Dag, rows: usize, steps: usize) -> BoundFamily {
    let class = classify(dag);
    assert!(class.structured, "{:?}", class.violations);
    assert!(class.super_final);
    if steps == 1 {
        assert!(class.single_touch, "{:?}", class.violations);
    } else if rows > 2 {
        assert!(
            !class.local_touch,
            "symmetric exchange leaves plain local-touch"
        );
    }
    if class.single_touch {
        BoundFamily::Thm16
    } else {
        BoundFamily::Thm18
    }
}

/// One shard of a [`BoundTable`]: the row's prefix cells, the DAG, and the
/// theorem family whose bounds govern it.
type Shard = (Vec<String>, Dag, BoundFamily);

/// A per-capacity column between a row's prefix and its verdict cells:
/// header, and the cell at one capacity of the shard's sweep.
type CapacityColumn = (&'static str, fn(&CapacitySweep, usize) -> String);

const C: CapacityColumn = ("C", |_, c| c.to_string());
const SEQ_MISSES: CapacityColumn = ("seq misses", |sweep, c| {
    sweep.seq_curve.misses_at(c).to_string()
});
const SEQ_RATIO: CapacityColumn = ("seq ratio", |sweep, c| {
    format!("{:.4}", sweep.seq_curve.miss_ratio_at(c))
});

/// A bound-verdict experiment as data: which workloads, on which simulated
/// machines, read at which cache capacities, under which columns.
struct BoundTable<S, F> {
    title: String,
    /// Headers of the cells `build` returns.
    prefix: &'static [&'static str],
    /// One [`par_map`] shard each, so the table is byte-identical at every
    /// thread count.
    shards: Vec<S>,
    build: F,
    procs: Vec<usize>,
    schedulers: Vec<PolicySpec>,
    capacities: Vec<usize>,
    per_capacity: &'static [CapacityColumn],
}

/// Runs a [`BoundTable`]: each shard's DAG is simulated once per
/// `(P, scheduler)` under future-first and answers every capacity from
/// that one [`capacity_sweep`] — exact because no table's scheduler reads
/// cache state (`wants_residency` is false for every one of them). Rows
/// come out shard-major, then C, then
/// `(P, scheduler)`.
fn bound_table<S, F>(spec: BoundTable<S, F>) -> Vec<Table>
where
    S: Send,
    F: Fn(S) -> Shard + Sync,
{
    let mut columns = spec.prefix.to_vec();
    columns.extend(spec.per_capacity.iter().map(|(header, _)| header));
    columns.extend(VERDICT_COLUMNS);
    let mut t = Table::new(spec.title, &columns);
    let rows = par_map(spec.shards, |shard| {
        let (prefix, dag, family) = (spec.build)(shard);
        let sweep = capacity_sweep(&dag, ForkPolicy::FutureFirst, &spec.procs, &spec.schedulers);
        let mut out = Vec::new();
        for &c in &spec.capacities {
            for run in &sweep.runs {
                let mut row = prefix.clone();
                row.extend(spec.per_capacity.iter().map(|(_, cell)| cell(&sweep, c)));
                row.extend(verdict_row(family, &sweep, run, c));
                out.push(row);
            }
        }
        out
    });
    for row in rows.into_iter().flatten() {
        t.push_row(row);
    }
    vec![t]
}

/// E12 — Theorem 12 on divide-and-conquer mergesort: the fork-join
/// (single-touch) and streaming-merge (local-touch) variants under
/// future-first, random work stealing vs the deterministic parsimonious
/// scheduler, against the `O(C·P·T∞²)` bound.
pub fn e12_dnc_sort(scale: Scale) -> Vec<Table> {
    let sizes = scale.pick(
        vec![(64usize, 8usize)],
        vec![(256, 16), (1_024, 32), (4_096, 64)],
    );
    bound_table(BoundTable {
        title: "E12 / Theorem 12 — divide-and-conquer mergesort, future-first, WS vs parsimonious"
            .into(),
        prefix: &["variant", "len", "grain"],
        shards: sizes
            .iter()
            .flat_map(|&(len, grain)| ["fork-join", "streaming"].map(|v| (len, grain, v)))
            .collect(),
        build: |(len, grain, variant): (usize, usize, &str)| {
            let dag = match variant {
                "fork-join" => sort::mergesort(len, grain),
                _ => sort::mergesort_streaming(len, grain, 2 * grain),
            };
            let cells = vec![variant.to_string(), len.to_string(), grain.to_string()];
            let family = thm12_family(&dag);
            (cells, dag, family)
        },
        procs: scale.pick(vec![2], vec![2, 4, 8]),
        schedulers: WS_VS_PARSIMONIOUS.to_vec(),
        capacities: vec![16],
        per_capacity: &[],
    })
}

/// E13 — Theorem 12 on wavefront stencil grids: row threads exchanging
/// boundary futures, interior blocks reused across time steps.
pub fn e13_stencil(scale: Scale) -> Vec<Table> {
    bound_table(BoundTable {
        title: "E13 / Theorem 12 — wavefront stencil grids, future-first, WS vs parsimonious"
            .into(),
        prefix: &["rows", "width", "steps"],
        shards: scale.pick(
            vec![(3usize, 2usize, 3usize)],
            vec![(4, 4, 8), (8, 8, 8), (8, 4, 16)],
        ),
        build: |(rows, width, steps): (usize, usize, usize)| {
            let dag = stencil::stencil(rows, width, steps);
            let cells = vec![rows.to_string(), width.to_string(), steps.to_string()];
            let family = thm12_family(&dag);
            (cells, dag, family)
        },
        procs: scale.pick(vec![2], vec![2, 4, 8]),
        schedulers: WS_VS_PARSIMONIOUS.to_vec(),
        capacities: vec![16],
        per_capacity: &[],
    })
}

/// E14 — Theorem 12 on streaming pipelines with bounded backpressure: the
/// window sweep shows how tightening the in-flight bound shrinks span-side
/// slack while the Theorem 12 bound keeps holding; both fork policies run
/// (future-first against `P·T∞²`, parent-first against the general
/// `(P+t)·T∞` shape Theorem 10's lower bound lives in).
pub fn e14_backpressure(scale: Scale) -> Vec<Table> {
    let c = 16usize;
    let (stages, items, work) = scale.pick((2usize, 4usize, 2usize), (4, 16, 3));
    let windows = scale.pick(vec![1usize, 4], vec![1, 2, 4, 16]);
    let procs = scale.pick(vec![2usize], vec![2, 4, 8]);
    let mut t = Table::new(
        "E14 / Theorems 10 & 12 — bounded-backpressure pipelines, both policies, WS vs parsimonious",
        &[
            "stages",
            "items",
            "window",
            "policy",
            "P",
            "T_inf",
            "sched",
            "deviations",
            "dev bound",
            "extra misses",
            "steals",
            "within",
        ],
    );
    let rows = par_map(windows, |window| {
        let dag = backpressure::batched_pipeline(stages, items, window, work);
        let class = classify(&dag);
        assert!(class.is_structured_local_touch(), "{:?}", class.violations);
        let sp = span(&dag);
        let touches = dag.touches().count() as u64;
        let mut out = Vec::new();
        for policy in ForkPolicy::ALL {
            for &p in &procs {
                for sched in WS_VS_PARSIMONIOUS {
                    let mut s = sched.instantiate(SimConfig::default().seed);
                    let (seq, rep) = run_with(&dag, p, c, policy, Some(&mut s));
                    let dev_bound = match policy {
                        ForkPolicy::FutureFirst => bounds::thm12_deviations(p as u64, sp),
                        ForkPolicy::ParentFirst => {
                            bounds::unstructured_deviations(p as u64, touches, sp)
                        }
                    };
                    let within = rep.deviations() <= dev_bound
                        && rep.additional_misses(&seq)
                            <= bounds::misses_from_deviations(c as u64, rep.deviations());
                    out.push(vec![
                        stages.to_string(),
                        items.to_string(),
                        window.to_string(),
                        policy.to_string(),
                        p.to_string(),
                        sp.to_string(),
                        sched.to_string(),
                        rep.deviations().to_string(),
                        dev_bound.to_string(),
                        rep.additional_misses(&seq).to_string(),
                        rep.steals().to_string(),
                        if within { "yes" } else { "NO" }.to_string(),
                    ]);
                }
            }
        }
        out
    });
    for row in rows.into_iter().flatten() {
        t.push_row(row);
    }
    vec![t]
}

/// The capacity grid the locality sweeps (E15–E17) read their curves at:
/// two points at `Scale::Quick`, the dense power-of-two grid at
/// `Scale::Full`.
pub fn default_capacity_grid(scale: Scale) -> CapacityGrid {
    scale.pick(CapacityGrid::quick(), CapacityGrid::dense())
}

/// Renders a capacity-sweep table title: the C range and point count.
fn sweep_title(prefix: &str, grid: &CapacityGrid) -> String {
    let caps = grid.capacities();
    let (lo, hi) = (
        caps.iter().min().expect("grid is non-empty"),
        caps.iter().max().expect("grid is non-empty"),
    );
    format!(
        "{prefix}, one-pass over C = {lo} … {hi} ({} points)",
        caps.len()
    )
}

/// One workload family of the E15/E17 sweeps: label plus DAG builder.
type Family = (&'static str, fn(Scale) -> Dag);

/// The Theorem-12 workload families E15 (and E17) sweep.
///
/// Full-scale sizes are chosen so the working sets straddle the swept
/// capacities (the mergesort variants touch tens of thousands of blocks,
/// comparable to C = 32768) — only tractable with O(1) cache models.
fn e15_families() -> [Family; 4] {
    [
        ("mergesort", |s| {
            sort::mergesort(s.pick(64, 65_536), s.pick(8, 64))
        }),
        ("mergesort-streaming", |s| {
            let grain = s.pick(8, 64);
            sort::mergesort_streaming(s.pick(64, 65_536), grain, 2 * grain)
        }),
        ("stencil", |s| {
            let (rows, width, steps) = s.pick((3, 2, 3), (48, 128, 6));
            stencil::stencil(rows, width, steps)
        }),
        ("pipeline-window4", |s| {
            let (stages, items) = s.pick((2, 4), (8, 512));
            backpressure::batched_pipeline(stages, items, 4, 3)
        }),
    ]
}

/// E15 — large-capacity locality sweep: the Theorem-12 workload families at
/// cache capacities from the paper's toy C = 16 up to 2²⁰ lines (the regime
/// real cache-simulation frameworks model). The theorems are stated for
/// arbitrary `C`; the sweep evaluates the full dense power-of-two grid from
/// *one* execution per `(family, P, scheduler)` via the stack-distance
/// profiler's [`capacity_sweep`] (Mattson's one-pass algorithm), so the
/// grid's resolution costs nothing extra.
pub fn e15_cache_capacity(scale: Scale) -> Vec<Table> {
    let grid = default_capacity_grid(scale);
    bound_table(BoundTable {
        title: sweep_title("E15 / Theorem 12 at scale — locality sweep", &grid),
        prefix: &["family", "nodes", "blocks"],
        shards: e15_families().to_vec(),
        build: |(name, build): Family| {
            let dag = build(scale);
            let cells = vec![
                name.to_string(),
                dag.num_nodes().to_string(),
                dag.block_space().to_string(),
            ];
            let family = thm12_family(&dag);
            (cells, dag, family)
        },
        procs: scale.pick(vec![2], vec![2, 8]),
        schedulers: WS_VS_PARSIMONIOUS.to_vec(),
        capacities: grid.capacities().to_vec(),
        per_capacity: &[C],
    })
}

/// E16 — Theorems 16/18 at scale: the symmetric-exchange stencil (the
/// super-final workload family — per-neighbour boundary copies closed by a
/// super final node, which the one-sided E13 wavefront cannot express)
/// swept over the same cache capacities as E15. The bound columns carry
/// the Theorem 16 formula for `steps = 1` shapes (exactly the Definition
/// 13 class) and the Theorem 18 one otherwise, and every row's verdict is
/// asserted in tests.
///
/// Full-scale shapes straddle the swept capacities like E15's: ~1.3k,
/// ~6.7k and ~34k distinct blocks, plus a steps = 1 shape (the pure
/// Theorem 16 / Definition 13 class) with a ~33k-block working set.
pub fn e16_exchange_stencil(scale: Scale) -> Vec<Table> {
    let grid = default_capacity_grid(scale);
    bound_table(BoundTable {
        title: sweep_title(
            "E16 / Theorems 16 & 18 at scale — symmetric-exchange stencils (super final node)",
            &grid,
        ),
        prefix: &["rows", "width", "steps", "nodes", "blocks"],
        shards: scale.pick(
            vec![(3usize, 2usize, 2usize), (4, 2, 1)],
            vec![(16, 64, 8), (48, 128, 6), (128, 256, 4), (64, 512, 1)],
        ),
        build: |(rows, width, steps): (usize, usize, usize)| {
            let dag = stencil::stencil_exchange(rows, width, steps);
            let cells = vec![
                rows.to_string(),
                width.to_string(),
                steps.to_string(),
                dag.num_nodes().to_string(),
                dag.block_space().to_string(),
            ];
            let family = exchange_family(&dag, rows, steps);
            (cells, dag, family)
        },
        procs: scale.pick(vec![2], vec![2, 8]),
        schedulers: WS_VS_PARSIMONIOUS.to_vec(),
        capacities: grid.capacities().to_vec(),
        per_capacity: &[C],
    })
}

/// The E17 workload list: the Theorem-12 families plus two exchange
/// stencils (one `steps = 1` Theorem-16 instance, one Theorem-18
/// instance).
enum E17Workload {
    Family(Family),
    Exchange(usize, usize, usize),
}

/// E17 — per-workload miss-ratio curves: every E15 family and two E16
/// exchange shapes profiled once with the stack-distance simulator, then
/// read out at every grid capacity. Each row shows the *sequential*
/// miss count and miss ratio at that capacity next to the parallel run's
/// standard bound-verdict columns (Theorem 12 for the families, Theorem
/// 16/18 for the exchange shapes) — the dense C-resolution picture of how
/// each working set falls into cache, with the theorem verdicts riding
/// along at every point.
pub fn e17_miss_ratio_curves(scale: Scale) -> Vec<Table> {
    let grid = default_capacity_grid(scale);
    let exchanges = scale.pick(
        [(3usize, 2usize, 2usize), (4, 2, 1)],
        [(48, 128, 6), (64, 512, 1)],
    );
    bound_table(BoundTable {
        title: sweep_title(
            "E17 / Theorems 12, 16 & 18 — miss-ratio curves (stack distance)",
            &grid,
        ),
        prefix: &["workload", "blocks"],
        shards: e15_families()
            .into_iter()
            .map(E17Workload::Family)
            .chain(
                exchanges
                    .into_iter()
                    .map(|(r, w, s)| E17Workload::Exchange(r, w, s)),
            )
            .collect(),
        build: |workload: E17Workload| {
            let (name, dag, family) = match workload {
                E17Workload::Family((name, build)) => {
                    let dag = build(scale);
                    let family = thm12_family(&dag);
                    (name.to_string(), dag, family)
                }
                E17Workload::Exchange(r, w, s) => {
                    let dag = stencil::stencil_exchange(r, w, s);
                    let family = exchange_family(&dag, r, s);
                    (format!("exchange-{r}x{w}x{s}"), dag, family)
                }
            };
            (vec![name, dag.block_space().to_string()], dag, family)
        },
        procs: vec![scale.pick(2, 8)],
        schedulers: vec![PolicySpec::ws_random()],
        capacities: grid.capacities().to_vec(),
        per_capacity: &[C, SEQ_MISSES, SEQ_RATIO],
    })
}
