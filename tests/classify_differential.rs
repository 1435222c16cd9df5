//! Differential test of the classifier: `wsf_dag::classify`, which answers
//! same-thread descendant questions by node id, against the search-based
//! reference in `support/classify_oracle.rs` — the whole `DagClass` (five
//! flags and every violation string, in order) on every workload family,
//! the E9 applications, the paper's figures, hand-built corner cases and
//! arbitrary builder programs; and `is_descendant` against a brute-force
//! reachability search.
//!
//! The full-scale table shapes and 20k-node random DAGs run with
//! `cargo test --release --test classify_differential -- --ignored`.

#[path = "support/builder_programs.rs"]
mod builder_programs;
#[path = "support/classify_oracle.rs"]
mod classify_oracle;

use builder_programs::{arb_program, run_program};

use proptest::prelude::*;
use proptest::test_runner::rng_for_case;
use wsf::workloads::apps;
use wsf::workloads::figures::{fig3, fig4, fig5a, fig5b, Fig6, Fig7a, Fig7b, Fig8};
use wsf::workloads::random::{random_single_touch, RandomConfig};
use wsf::workloads::{backpressure, pipeline, sort, stencil};
use wsf_dag::{classify, is_descendant, Dag, DagBuilder, DagClass};

/// Asserts the classifier equals the reference on `dag`, and that
/// `is_descendant` equals brute-force reachability from up to `ancestors`
/// evenly spaced nodes to up to 2,048 evenly spaced nodes (every node when
/// the DAG is that small).
fn check(name: &str, dag: &Dag, ancestors: usize) {
    assert_eq!(classify(dag), classify_oracle::classify(dag), "{name}");
    let stride = |samples: usize| dag.num_nodes().div_ceil(samples).max(1);
    for a in dag.node_ids().step_by(stride(ancestors)) {
        let reach = classify_oracle::reachable_from(dag, a);
        for b in dag.node_ids().step_by(stride(2_048)) {
            assert_eq!(
                is_descendant(dag, a, b),
                reach[b.index()],
                "{name}: is_descendant({a}, {b})"
            );
        }
    }
}

/// Every table workload family at `Scale::Quick` sizes, E14's window sweep
/// at its full-scale shape (it is small), the E9 applications and the
/// figures.
fn quick_shapes() -> Vec<(String, Dag)> {
    let mut shapes: Vec<(String, Dag)> = vec![
        ("mergesort(64,8)".into(), sort::mergesort(64, 8)),
        (
            "mergesort_streaming(64,8,16)".into(),
            sort::mergesort_streaming(64, 8, 16),
        ),
        ("stencil(3,2,3)".into(), stencil::stencil(3, 2, 3)),
        ("stencil(4,4,8)".into(), stencil::stencil(4, 4, 8)),
        (
            "stencil_exchange(3,2,2)".into(),
            stencil::stencil_exchange(3, 2, 2),
        ),
        (
            "stencil_exchange(4,2,1)".into(),
            stencil::stencil_exchange(4, 2, 1),
        ),
        (
            "stencil_exchange(5,3,3)".into(),
            stencil::stencil_exchange(5, 3, 3),
        ),
        ("pipeline(2,3,3)".into(), pipeline::pipeline(2, 3, 3)),
        ("pipeline(4,4,4)".into(), pipeline::pipeline(4, 4, 4)),
        ("fib(8)".into(), apps::fib(8)),
        ("reduce(256,16,8)".into(), apps::reduce(256, 16, 8)),
        ("matmul(3,8)".into(), apps::matmul(3, 8)),
        ("map_reduce(4,32)".into(), apps::map_reduce(4, 32)),
        ("fig3(4)".into(), fig3(4)),
        ("fig4(4,4)".into(), fig4(4, 4)),
        ("fig5a(4)".into(), fig5a(4)),
        ("fig5b(4)".into(), fig5b(4)),
        ("fig6 gadget".into(), Fig6::gadget(4, 4).dag),
        ("fig6 repeated".into(), Fig6::repeated(2, 6, 1).dag),
        ("fig6 tree".into(), Fig6::tree(2, 6, 1).dag),
        ("fig7a".into(), Fig7a::new(8, 4, false).dag),
        ("fig7a blocked".into(), Fig7a::new(8, 4, true).dag),
        ("fig7b".into(), Fig7b::new(8, 6, 4).dag),
        ("fig8(1)".into(), Fig8::new(1, 4, 4).dag),
        ("fig8(2)".into(), Fig8::new(2, 4, 4).dag),
    ];
    for (stages, items, work) in [(2, 4, 2), (4, 16, 3)] {
        for window in [1, 2, 4, 16] {
            shapes.push((
                format!("batched_pipeline({stages},{items},{window},{work})"),
                backpressure::batched_pipeline(stages, items, window, work),
            ));
        }
    }
    for seed in [1, 2] {
        shapes.push((
            format!("random_single_touch(400, seed {seed})"),
            random_single_touch(&RandomConfig {
                target_nodes: 400,
                seed,
                ..RandomConfig::default()
            }),
        ));
    }
    shapes
}

#[test]
fn workload_families_apps_and_figures_match_the_reference() {
    for (name, dag) in quick_shapes() {
        check(&name, &dag, 24);
    }
}

/// Two futures touched in creation order: their intervals cross, so the
/// DAG is single-touch and local-touch but not fork-join. The first one
/// forks and joins a child of its own before the second is created, so
/// the two crossing intervals belong to threads whose ids are not
/// adjacent.
fn crossing() -> Dag {
    let mut b = DagBuilder::new();
    let main = b.main_thread();
    let f1 = b.fork(main);
    let g = b.fork(f1.future_thread);
    b.task(g.future_thread);
    b.task(f1.future_thread);
    b.touch_thread(f1.future_thread, g.future_thread);
    let f2 = b.fork(main);
    b.chain(f2.future_thread, 2);
    b.task(main);
    b.touch_thread(main, f1.future_thread);
    b.touch_thread(main, f2.future_thread);
    b.task(main);
    b.finish().unwrap()
}

/// A future passed to a sibling thread that touches it (Figure 5(b)).
fn passed_future() -> Dag {
    let mut b = DagBuilder::new();
    let main = b.main_thread();
    let fx = b.fork(main);
    b.chain(fx.future_thread, 2);
    let fc = b.fork(main);
    b.task(fc.future_thread);
    b.touch_thread(fc.future_thread, fx.future_thread);
    b.chain(fc.future_thread, 1);
    b.task(main);
    b.touch_thread(main, fc.future_thread);
    b.task(main);
    b.finish().unwrap()
}

/// One thread's value touched twice: once mid-thread by the parent, once
/// at its end by a grandchild thread.
fn multi_touch() -> Dag {
    let mut b = DagBuilder::new();
    let main = b.main_thread();
    let f = b.fork(main);
    let early = b.task(f.future_thread);
    b.chain(f.future_thread, 2);
    b.task(main);
    b.touch(main, early);
    let g = b.fork(main);
    b.task(g.future_thread);
    b.touch_thread(g.future_thread, f.future_thread);
    b.task(main);
    b.touch_thread(main, g.future_thread);
    b.task(main);
    b.finish().unwrap()
}

/// Side-effect threads, nested ones among them, closed by a super final
/// node; one of them is also touched by a sibling.
fn super_final() -> Dag {
    let mut b = DagBuilder::new();
    let main = b.main_thread();
    let a = b.fork(main);
    b.chain(a.future_thread, 2);
    let inner = b.fork(a.future_thread);
    b.task(inner.future_thread);
    b.task(a.future_thread);
    b.task(main);
    let c = b.fork(main);
    b.task(c.future_thread);
    b.touch_thread(c.future_thread, a.future_thread);
    b.task(main);
    b.finish_with_super_final().unwrap()
}

#[test]
fn hand_built_corner_cases_match_the_reference() {
    for (name, dag) in [
        ("crossing", crossing()),
        ("passed future", passed_future()),
        ("multi-touch", multi_touch()),
        ("super final", super_final()),
    ] {
        check(name, &dag, usize::MAX);
    }
    // The cases cover what they are named for.
    let crossing = classify(&crossing());
    assert!(crossing.is_structured_single_touch() && crossing.local_touch && !crossing.fork_join);
    assert!(!classify(&passed_future()).local_touch);
    assert!(!classify(&multi_touch()).single_touch);
    assert!(classify(&super_final()).super_final);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_builder_programs_match_the_reference((ops, super_final) in arb_program(1..120)) {
        if let Some(dag) = run_program(&ops, super_final) {
            check("builder program", &dag, usize::MAX);
        }
    }
}

/// Every table shape at `Scale::Full` that the bound-verdict experiments
/// classify, and the random DAGs of E11.
#[test]
#[ignore = "full-scale shapes; seconds in release, minutes in debug"]
fn full_scale_table_shapes_match_the_reference() {
    let mut shapes: Vec<(String, Dag)> = Vec::new();
    for (len, grain) in [(256, 16), (1_024, 32), (4_096, 64), (65_536, 64)] {
        shapes.push((
            format!("mergesort({len},{grain})"),
            sort::mergesort(len, grain),
        ));
        shapes.push((
            format!("mergesort_streaming({len},{grain})"),
            sort::mergesort_streaming(len, grain, 2 * grain),
        ));
    }
    for (rows, width, steps) in [(4, 4, 8), (8, 8, 8), (8, 4, 16), (48, 128, 6)] {
        shapes.push((
            format!("stencil({rows},{width},{steps})"),
            stencil::stencil(rows, width, steps),
        ));
    }
    for (rows, width, steps) in [(16, 64, 8), (48, 128, 6), (128, 256, 4), (64, 512, 1)] {
        shapes.push((
            format!("stencil_exchange({rows},{width},{steps})"),
            stencil::stencil_exchange(rows, width, steps),
        ));
    }
    for window in [1, 2, 4, 16] {
        shapes.push((
            format!("batched_pipeline(4,16,{window},3)"),
            backpressure::batched_pipeline(4, 16, window, 3),
        ));
    }
    shapes.push((
        "batched_pipeline(8,512,4,3)".into(),
        backpressure::batched_pipeline(8, 512, 4, 3),
    ));
    for (stages, items) in [(2, 8), (4, 8), (4, 16), (8, 16)] {
        shapes.push((
            format!("pipeline({stages},{items},3)"),
            pipeline::pipeline(stages, items, 3),
        ));
    }
    shapes.extend([
        ("fig3(128)".into(), fig3(128)),
        ("fig4(10,4)".into(), fig4(10, 4)),
        ("fig6 gadget(64)".into(), Fig6::gadget(64, 16).dag),
        ("fig7b(64)".into(), Fig7b::new(8, 64, 16).dag),
        ("fig8(5)".into(), Fig8::new(5, 16, 16).dag),
        ("fib(14)".into(), apps::fib(14)),
        ("reduce(4096,16,8)".into(), apps::reduce(4_096, 16, 8)),
    ]);
    for seed in 0..4 {
        shapes.push((
            format!("random_single_touch(20000, seed {seed})"),
            random_single_touch(&RandomConfig {
                target_nodes: 20_000,
                seed,
                ..RandomConfig::default()
            }),
        ));
    }
    for (name, dag) in shapes {
        check(&name, &dag, 8);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    #[ignore = "20k-step builder programs; seconds in release, minutes in debug"]
    fn large_builder_programs_match_the_reference((ops, super_final) in arb_program(20_000..20_001)) {
        if let Some(dag) = run_program(&ops, super_final) {
            check("large builder program", &dag, 8);
        }
    }
}

/// The property above draws every class it is meant to compare on: the
/// cases of its default run finish into unstructured, multi-touch,
/// non-local, super-final and fork-join DAGs.
#[test]
fn builder_programs_draw_every_class() {
    let strategy = arb_program(1..120);
    let classes: Vec<DagClass> = (0..64)
        .filter_map(|case| {
            let (ops, super_final) = strategy.generate(&mut rng_for_case(case));
            run_program(&ops, super_final)
        })
        .map(|dag| classify(&dag))
        .collect();
    assert!(
        classes.len() >= 48,
        "{} of 64 programs finish",
        classes.len()
    );
    assert!(classes.iter().any(|c| !c.structured));
    assert!(classes.iter().any(|c| !c.single_touch));
    assert!(classes.iter().any(|c| !c.local_touch));
    assert!(classes.iter().any(|c| c.super_final));
    assert!(classes.iter().any(|c| c.fork_join));
}
