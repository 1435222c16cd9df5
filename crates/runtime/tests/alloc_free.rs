//! Proves the touch recorder's allocation discipline: all of its heap
//! usage happens in [`TouchTrace::new`]'s up-front reserve.
//!
//! * [`TouchTrace::record`] performs **zero** allocations after
//!   construction — on the fast path, on the overflow (drop-and-count)
//!   path, and after a [`TouchTrace::clear`] (which keeps the reserves).
//! * At the run level, executing the same DAG on a traced and an
//!   untraced pool allocates the same in steady state: with the reserve
//!   paid at construction, enabling tracing adds no per-event cost to
//!   the hot loop (and disabled tracing is a single never-taken branch).
//! * A `dag_exec` chain is a plain pool task (`Runtime::spawn`), not a
//!   future: a warmed untraced run allocates one boxed task per executed
//!   task plus the run's own few set-up allocations — no completion slot
//!   per chain.
//!
//! The counter is process-global (worker threads allocate too), so this
//! file holds a single test function: nothing else may run concurrently
//! in this binary.

use std::sync::Arc;
use wsf_core::ForkPolicy;
use wsf_runtime::{Runtime, SpawnPolicy, TaskOrigin, TouchEvent, TouchTrace};
use wsf_workloads::dag_exec::run_dag_on_pool;
use wsf_workloads::sort;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::process_allocs as allocs;

#[test]
fn recording_allocates_only_during_the_construction_reserve() {
    // ---- Recorder in isolation: exact zero, deterministically. ----
    let trace = TouchTrace::new(4, 1024);
    let before = allocs();
    for lane in 0..trace.lanes() {
        trace.record(
            lane,
            TouchEvent::Task {
                origin: TaskOrigin::Local,
            },
        );
    }
    for n in 0..1023u32 {
        trace.record(
            0,
            TouchEvent::Node {
                node: n,
                block: Some(n % 7),
            },
        );
    }
    // Lane 0 is now full: the overflow path must count, not grow.
    for n in 0..512u32 {
        trace.record(
            0,
            TouchEvent::Node {
                node: n,
                block: None,
            },
        );
    }
    assert_eq!(
        allocs() - before,
        0,
        "record() must never allocate (fast path or overflow path)"
    );
    assert_eq!(trace.dropped(), 512);

    // clear() keeps the reserves, so refilling is also allocation-free.
    let before = allocs();
    trace.clear();
    for n in 0..1024u32 {
        trace.record(
            0,
            TouchEvent::Node {
                node: n,
                block: None,
            },
        );
    }
    assert_eq!(allocs() - before, 0, "clear() must keep the lane reserves");
    assert_eq!(trace.dropped(), 0);

    // ---- Run-level parity: tracing adds no per-event allocations. ----
    // The same DAG on one traced and one untraced single-worker pool; in
    // steady state (pools warmed, reserves paid) the traced run may not
    // allocate more than the untraced one beyond a small scheduling
    // jitter — a per-event cost would show up as hundreds of extra
    // allocations (the run records > 300 events).
    let dag = Arc::new(sort::mergesort(256, 8));
    let traced = Arc::new(
        Runtime::builder()
            .threads(1)
            .policy(SpawnPolicy::ChildFirst)
            .touch_trace(1 << 14)
            .build(),
    );
    let untraced = Arc::new(
        Runtime::builder()
            .threads(1)
            .policy(SpawnPolicy::ChildFirst)
            .build(),
    );
    let measure = |rt: &Arc<Runtime>| -> u64 {
        if let Some(t) = rt.touch_trace() {
            t.clear();
        }
        let before = allocs();
        let report = run_dag_on_pool(rt, &dag, ForkPolicy::FutureFirst);
        let count = allocs() - before;
        assert_eq!(report.nodes_executed, dag.num_nodes());
        count
    };
    let _warm = (measure(&traced), measure(&untraced));
    let traced_steady = measure(&traced).min(measure(&traced));
    let untraced_steady = measure(&untraced).min(measure(&untraced));
    let events = traced.touch_trace().unwrap().total_events() as u64;
    assert!(
        events > 300,
        "the parity run must be event-dense ({events})"
    );
    eprintln!("alloc parity: traced={traced_steady} untraced={untraced_steady} events={events}");
    assert!(
        traced_steady <= untraced_steady + events / 8,
        "tracing allocated per event: {traced_steady} vs {untraced_steady} \
         for {events} recorded events"
    );

    // ---- Chains are tasks: one allocation per executed task. ----
    // The untraced pool is warm (its deque has grown), so what remains is
    // the boxed task per chain plus the run's context and its two
    // per-node arrays. A future per chain would add a completion slot each.
    let stats_before = untraced.stats();
    let before = allocs();
    let report = run_dag_on_pool(&untraced, &dag, ForkPolicy::FutureFirst);
    let count = allocs() - before;
    let delta = untraced.stats().since(&stats_before);
    assert_eq!(report.nodes_executed, dag.num_nodes());
    assert_eq!(delta.futures_created, 0, "a chain creates no future");
    eprintln!(
        "chain tasks: allocations={count} tasks={}",
        delta.tasks_executed
    );
    assert!(
        count <= delta.tasks_executed + 4,
        "{count} allocations for {} chain tasks",
        delta.tasks_executed
    );
}
