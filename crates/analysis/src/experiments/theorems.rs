//! E1–E9: the paper's theorems, lemmas and figures, one table each —
//! the Theorem 8/9/10 bounds on their own constructions, the background
//! figures, the sequential-order lemmas, the fork-policy comparison and
//! the application workloads.

use super::{run_with, Scale};
use crate::fit::power_law_exponent;
use crate::par::par_map;
use crate::table::Table;
use wsf_core::{bounds, ForkPolicy, SequentialExecutor};
use wsf_dag::{classify, span, Dag, DagBuilder};
use wsf_workloads::figures::{fig3, fig4, fig5a, fig5b, Fig6, Fig7a, Fig7b, Fig8};
use wsf_workloads::random::{random_single_touch, RandomConfig};
use wsf_workloads::{apps, pipeline};

/// E1 — Theorem 8 upper bound: measured deviations and additional misses of
/// future-first work stealing on structured single-touch computations,
/// against `P·T∞²` and `C·P·T∞²`.
pub fn e1_thm8_upper(scale: Scale) -> Vec<Table> {
    let procs = scale.pick(vec![2usize, 4], vec![2, 4, 8, 16]);
    let depths = scale.pick(vec![4usize, 6], vec![4, 6, 8, 10]);
    let c = 16usize;

    let mut t = Table::new(
        "E1 / Theorem 8 — future-first upper bound on structured single-touch DAGs",
        &[
            "workload",
            "P",
            "T_inf",
            "deviations",
            "P*T_inf^2",
            "extra misses",
            "C*P*T_inf^2",
            "steals",
        ],
    );
    // One independent cell per (P, workload); sharded across threads and
    // re-assembled in order, so the table is identical at any thread count.
    let mut cells: Vec<(usize, Option<usize>)> = Vec::new();
    for &p in &procs {
        cells.extend(depths.iter().map(|&d| (p, Some(d))));
        cells.push((p, None));
    }
    let rows = par_map(cells, |(p, depth)| {
        let (label, dag) = match depth {
            Some(d) => (format!("fig4(depth={d})"), fig4(d, 4)),
            None => (
                "random-single-touch".to_string(),
                random_single_touch(&RandomConfig {
                    target_nodes: scale.pick(600, 4_000),
                    seed: 11,
                    ..RandomConfig::default()
                }),
            ),
        };
        let sp = span(&dag);
        let (seq, rep) = run_with(&dag, p, c, ForkPolicy::FutureFirst, None);
        vec![
            label,
            p.to_string(),
            sp.to_string(),
            rep.deviations().to_string(),
            bounds::thm8_deviations(p as u64, sp).to_string(),
            rep.additional_misses(&seq).to_string(),
            bounds::thm8_additional_misses(c as u64, p as u64, sp).to_string(),
            rep.steals().to_string(),
        ]
    });
    for row in rows {
        t.push_row(row);
    }
    vec![t]
}

/// E2 — Theorem 9 lower bound: the Figure 6 constructions under the
/// scripted adversary. One steal forces `Θ(T∞)` deviations per gadget;
/// chained gadgets multiply the count.
pub fn e2_thm9_lower(scale: Scale) -> Vec<Table> {
    let ks = scale.pick(vec![4usize, 8], vec![8, 16, 32, 64]);
    let c = scale.pick(4usize, 16);

    let mut gadget = Table::new(
        "E2a / Theorem 9, Figure 6(a) — one steal, future-first",
        &[
            "k",
            "T_inf",
            "steals",
            "deviations",
            "dev/T_inf",
            "seq misses",
            "extra misses",
            "k*C",
        ],
    );
    let mut points = Vec::new();
    for &k in &ks {
        let fig = Fig6::gadget(k, c);
        let sp = span(&fig.dag);
        let mut adv = fig.adversary();
        let (seq, rep) = run_with(&fig.dag, fig.processors, c, Fig6::POLICY, Some(&mut adv));
        points.push((sp as f64, rep.deviations() as f64));
        gadget.push_row(vec![
            k.to_string(),
            sp.to_string(),
            rep.steals().to_string(),
            rep.deviations().to_string(),
            format!("{:.3}", rep.deviations() as f64 / sp as f64),
            seq.cache_misses().to_string(),
            rep.additional_misses(&seq).to_string(),
            (k * c).to_string(),
        ]);
    }
    gadget.push_row(vec![
        "exponent of deviations vs T_inf".to_string(),
        format!(
            "{:.2} (theorem: 1.0 per steal)",
            power_law_exponent(&points)
        ),
    ]);

    let mut repeated = Table::new(
        "E2b / Theorem 9, Figure 6(b) — gadgets replayed by the same processors",
        &[
            "gadgets m",
            "k",
            "deviations",
            "m*k",
            "extra misses",
            "steals",
        ],
    );
    let k = scale.pick(6usize, 16);
    for &m in &scale.pick(vec![1usize, 2, 4], vec![1, 2, 4, 8, 16]) {
        let fig = Fig6::repeated(m, k, 1);
        let mut adv = fig.adversary();
        let (seq, rep) = run_with(&fig.dag, fig.processors, 8, Fig6::POLICY, Some(&mut adv));
        repeated.push_row(vec![
            m.to_string(),
            k.to_string(),
            rep.deviations().to_string(),
            (m * k).to_string(),
            rep.additional_misses(&seq).to_string(),
            rep.steals().to_string(),
        ]);
    }

    let mut tree = Table::new(
        "E2c / Theorem 9, Figure 6(c) — independent gadget groups (random scheduler)",
        &["gadgets n", "P", "T_inf", "deviations", "P*T_inf^2"],
    );
    for &n in &scale.pick(vec![2usize], vec![2, 4, 8]) {
        let fig = Fig6::tree(n, k, 1);
        let sp = span(&fig.dag);
        let p = fig.processors;
        let (_, rep) = run_with(&fig.dag, p, 8, Fig6::POLICY, None);
        tree.push_row(vec![
            n.to_string(),
            p.to_string(),
            sp.to_string(),
            rep.deviations().to_string(),
            bounds::thm9_deviations(p as u64, sp).to_string(),
        ]);
    }
    vec![gadget, repeated, tree]
}

/// E3 — Theorem 10: parent-first executions of the Figure 7(b) and Figure 8
/// constructions with the single-steal adversary.
pub fn e3_thm10_parent_first(scale: Scale) -> Vec<Table> {
    let c = scale.pick(4usize, 16);
    let ns = scale.pick(vec![4usize, 8], vec![8, 16, 32, 64]);

    let mut chain = Table::new(
        "E3a / Theorem 10, Figure 7(b) — one steal, parent-first",
        &[
            "n",
            "k",
            "T_inf",
            "deviations",
            "seq misses",
            "extra misses",
            "C*T_inf",
        ],
    );
    for &n in &ns {
        let fig = Fig7b::new(8, n, c);
        let sp = span(&fig.dag);
        let mut adv = fig.adversary();
        let (seq, rep) = run_with(&fig.dag, 2, c, Fig7b::POLICY, Some(&mut adv));
        chain.push_row(vec![
            n.to_string(),
            fig.k.to_string(),
            sp.to_string(),
            rep.deviations().to_string(),
            seq.cache_misses().to_string(),
            rep.additional_misses(&seq).to_string(),
            (c as u64 * sp).to_string(),
        ]);
    }

    let mut branching = Table::new(
        "E3b / Theorem 10, Figure 8 — branching multiplies the damage (t branches)",
        &[
            "branches",
            "touches t",
            "T_inf",
            "deviations",
            "t*n",
            "extra misses",
            "C*t*n",
        ],
    );
    let n = scale.pick(4usize, 16);
    for &depth in &scale.pick(vec![1usize, 2], vec![1, 2, 3, 4, 5]) {
        let fig = Fig8::new(depth, n, c);
        let sp = span(&fig.dag);
        let t = fig.touches();
        let mut adv = fig.adversary();
        let (seq, rep) = run_with(&fig.dag, 2, c, Fig8::POLICY, Some(&mut adv));
        branching.push_row(vec![
            fig.leaves.to_string(),
            t.to_string(),
            sp.to_string(),
            rep.deviations().to_string(),
            (t * n).to_string(),
            rep.additional_misses(&seq).to_string(),
            (c * fig.leaves * n).to_string(),
        ]);
    }
    vec![chain, branching]
}

/// E4 — background bounds: the Figure 7(a)/Figure 2 amplification gadget
/// (one delayed touch costs `Ω(C·T∞)` misses) and the unstructured
/// Figure 3 DAG.
pub fn e4_unstructured(scale: Scale) -> Vec<Table> {
    let c = scale.pick(4usize, 16);
    let ns = scale.pick(vec![8usize], vec![16, 32, 64]);

    let mut amp = Table::new(
        "E4a / Figure 2 & 7(a) — a single delayed touch costs Ω(C·T_inf) misses (parent-first, sequential)",
        &["n", "C", "misses (gate ready)", "misses (gate delayed)", "ratio"],
    );
    for &n in &ns {
        let cheap = Fig7a::new(n, c, false);
        let dear = Fig7a::new(n, c, true);
        let run = |fig: &Fig7a| {
            SequentialExecutor::new(Fig7a::POLICY)
                .with_cache_lines(c)
                .run(&fig.dag)
                .cache
                .misses
        };
        let (a, b) = (run(&cheap), run(&dear));
        amp.push_row(vec![
            n.to_string(),
            c.to_string(),
            a.to_string(),
            b.to_string(),
            format!("{:.2}", b as f64 / a.max(1) as f64),
        ]);
    }

    let mut unstructured = Table::new(
        "E4b / Figure 3 — unstructured futures under work stealing",
        &[
            "touches t",
            "policy",
            "P",
            "deviations",
            "unstructured bound P*T+t*T",
            "extra misses",
        ],
    );
    for &t in &scale.pick(vec![4usize], vec![8, 32, 128]) {
        let dag = fig3(t);
        let sp = span(&dag);
        for policy in ForkPolicy::ALL {
            let (seq, rep) = run_with(&dag, 4, c, policy, None);
            unstructured.push_row(vec![
                t.to_string(),
                policy.to_string(),
                "4".to_string(),
                rep.deviations().to_string(),
                bounds::unstructured_deviations(4, t as u64, sp).to_string(),
                rep.additional_misses(&seq).to_string(),
            ]);
        }
    }
    vec![amp, unstructured]
}

/// E5 — Theorem 12: structured local-touch computations (pipelines) under
/// future-first work stealing.
pub fn e5_local_touch(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "E5 / Theorem 12 — local-touch pipelines, future-first",
        &[
            "stages",
            "items",
            "P",
            "T_inf",
            "deviations",
            "P*T_inf^2",
            "extra misses",
            "C*P*T_inf^2",
        ],
    );
    let c = 16usize;
    let procs = scale.pick(vec![2usize], vec![2, 4, 8]);
    let shards = scale.pick(
        vec![(2usize, 3usize)],
        vec![(2, 8), (4, 8), (4, 16), (8, 16)],
    );
    // Shard per (stages, items): the DAG is generated once per shard and
    // every P of the inner loop reuses it.
    let rows = par_map(shards, |(stages, items)| {
        let dag = pipeline::pipeline(stages, items, 3);
        let class = classify(&dag);
        assert!(class.is_structured_local_touch());
        let sp = span(&dag);
        procs
            .iter()
            .map(|&p| {
                let (seq, rep) = run_with(&dag, p, c, ForkPolicy::FutureFirst, None);
                vec![
                    stages.to_string(),
                    items.to_string(),
                    p.to_string(),
                    sp.to_string(),
                    rep.deviations().to_string(),
                    bounds::thm8_deviations(p as u64, sp).to_string(),
                    rep.additional_misses(&seq).to_string(),
                    bounds::thm8_additional_misses(c as u64, p as u64, sp).to_string(),
                ]
            })
            .collect::<Vec<_>>()
    });
    for row in rows.into_iter().flatten() {
        t.push_row(row);
    }
    vec![t]
}

/// E6 — Theorems 16/18: computations with a super final node.
pub fn e6_super_final(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "E6 / Theorems 16 & 18 — side-effect futures synchronized by a super final node",
        &[
            "side-effect threads",
            "P",
            "T_inf",
            "deviations",
            "P*T_inf^2",
            "extra misses",
        ],
    );
    let c = 16usize;
    let procs = scale.pick(vec![2usize], vec![2, 4, 8]);
    let rows = par_map(scale.pick(vec![4usize], vec![8, 32, 128]), |threads| {
        let dag = side_effect_dag(threads, 6);
        let class = classify(&dag);
        assert!(class.structured && class.single_touch && class.super_final);
        let sp = span(&dag);
        procs
            .iter()
            .map(|&p| {
                let (seq, rep) = run_with(&dag, p, c, ForkPolicy::FutureFirst, None);
                vec![
                    threads.to_string(),
                    p.to_string(),
                    sp.to_string(),
                    rep.deviations().to_string(),
                    bounds::thm8_deviations(p as u64, sp).to_string(),
                    rep.additional_misses(&seq).to_string(),
                ]
            })
            .collect::<Vec<_>>()
    });
    for row in rows.into_iter().flatten() {
        t.push_row(row);
    }
    vec![t]
}

/// A program whose futures are forked purely for side effects and only
/// synchronized by the super final node (Definition 13).
fn side_effect_dag(threads: usize, work: usize) -> Dag {
    let mut b = DagBuilder::new();
    let main = b.main_thread();
    for i in 0..threads {
        let f = b.fork(main);
        for w in 0..work {
            let n = b.task(f.future_thread);
            b.set_block(n, wsf_dag::Block((i * work + w) as u32));
        }
        b.task(main);
    }
    b.finish_with_super_final()
        .expect("side-effect DAG builds a valid super-final computation")
}

/// E7 — Lemmas 4, 11 and 14: the sequential-order properties of structured
/// computations under future-first.
pub fn e7_lemma4(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "E7 / Lemmas 4, 11, 14 — sequential order properties (future-first)",
        &["workload", "touches checked", "violations"],
    );
    let workloads: Vec<(String, Dag)> = vec![
        ("fig4".into(), fig4(scale.pick(3, 8), 3)),
        ("fig5a".into(), fig5a(scale.pick(3, 12))),
        ("fig5b".into(), fig5b(scale.pick(3, 12))),
        ("fig6a".into(), Fig6::gadget(scale.pick(4, 24), 4).dag),
        ("fib".into(), apps::fib(scale.pick(6, 12))),
        (
            "pipeline".into(),
            pipeline::pipeline(3, scale.pick(3, 10), 2),
        ),
        (
            "random".into(),
            random_single_touch(&RandomConfig {
                target_nodes: scale.pick(400, 3_000),
                seed: 3,
                ..RandomConfig::default()
            }),
        ),
    ];
    for (name, dag) in workloads {
        let seq = SequentialExecutor::new(ForkPolicy::FutureFirst).run(&dag);
        let mut pos = vec![usize::MAX; dag.num_nodes()];
        for (i, n) in seq.order().iter().enumerate() {
            pos[n.index()] = i;
        }
        let mut checked = 0usize;
        let mut violations = 0usize;
        for touch in dag.touches() {
            let (Some(fp), Some(lp)) = (dag.future_parent(touch), dag.local_parent(touch)) else {
                continue;
            };
            checked += 1;
            if pos[fp.index()] >= pos[lp.index()] {
                violations += 1;
            }
        }
        t.push_row(vec![name, checked.to_string(), violations.to_string()]);
    }
    vec![t]
}

/// E8 — the paper's "second contribution": future-first beats parent-first
/// on structured single-touch computations.
pub fn e8_policy_comparison(scale: Scale) -> Vec<Table> {
    let c = scale.pick(8usize, 16);
    let mut t = Table::new(
        "E8 / Section 5.1 vs 5.2 — future-first vs parent-first (additional misses, deviations)",
        &[
            "workload",
            "P",
            "FF deviations",
            "PF deviations",
            "FF extra misses",
            "PF extra misses",
        ],
    );
    let workloads: Vec<(String, Dag)> = vec![
        ("fig6a(k=16)".into(), Fig6::gadget(scale.pick(6, 16), c).dag),
        (
            "fig7b(n=16)".into(),
            Fig7b::new(8, scale.pick(6, 16), c).dag,
        ),
        ("fib".into(), apps::fib(scale.pick(6, 12))),
        ("reduce".into(), apps::reduce(scale.pick(128, 2_048), 16, 8)),
        (
            "matmul".into(),
            apps::matmul(scale.pick(2, 4), scale.pick(4, 8)),
        ),
    ];
    let procs = scale.pick(vec![2usize], vec![2, 8]);
    let rows = par_map(workloads, |(name, dag)| {
        procs
            .iter()
            .map(|&p| {
                let (ff_seq, ff) = run_with(&dag, p, c, ForkPolicy::FutureFirst, None);
                let (pf_seq, pf) = run_with(&dag, p, c, ForkPolicy::ParentFirst, None);
                vec![
                    name.clone(),
                    p.to_string(),
                    ff.deviations().to_string(),
                    pf.deviations().to_string(),
                    ff.additional_misses(&ff_seq).to_string(),
                    pf.additional_misses(&pf_seq).to_string(),
                ]
            })
            .collect::<Vec<_>>()
    });
    for row in rows.into_iter().flatten() {
        t.push_row(row);
    }
    vec![t]
}

/// E9 — application workloads: classification and locality.
pub fn e9_applications(scale: Scale) -> Vec<Table> {
    let c = 32usize;
    let mut t = Table::new(
        "E9 / Section 4 — application workloads: class membership and locality (future-first, P=4)",
        &[
            "workload",
            "nodes",
            "T_inf",
            "class",
            "deviations",
            "extra misses",
            "seq misses",
        ],
    );
    let workloads: Vec<(String, Dag)> = vec![
        ("fib".into(), apps::fib(scale.pick(8, 14))),
        ("reduce".into(), apps::reduce(scale.pick(256, 4_096), 16, 8)),
        ("matmul".into(), apps::matmul(scale.pick(3, 6), 8)),
        ("map_reduce".into(), apps::map_reduce(scale.pick(4, 16), 32)),
        ("fig5a (priority futures)".into(), fig5a(scale.pick(4, 16))),
        ("fig5b (passed future)".into(), fig5b(scale.pick(4, 16))),
        (
            "pipeline".into(),
            pipeline::pipeline(4, scale.pick(4, 16), 4),
        ),
    ];
    let rows = par_map(workloads, |(name, dag)| {
        let class = classify(&dag);
        let label = if class.fork_join {
            "fork-join"
        } else if class.is_structured_single_touch() && class.local_touch {
            "single+local"
        } else if class.is_structured_single_touch() {
            "single-touch"
        } else if class.is_structured_local_touch() {
            "local-touch"
        } else {
            "unstructured"
        };
        let (seq, rep) = run_with(&dag, 4, c, ForkPolicy::FutureFirst, None);
        vec![
            name,
            dag.num_nodes().to_string(),
            span(&dag).to_string(),
            label.to_string(),
            rep.deviations().to_string(),
            rep.additional_misses(&seq).to_string(),
            seq.cache_misses().to_string(),
        ]
    });
    for row in rows {
        t.push_row(row);
    }
    vec![t]
}
