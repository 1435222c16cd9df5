//! `TouchTrace` — a zero-cost-when-disabled block-touch recorder.
//!
//! The simulator side of the repo measures locality on *simulated*
//! schedules; this module is the runtime side of the hardware-validation
//! loop: it records, per worker, the sequence of `(node, block)` touches a
//! real pool execution performs, interleaved with task-provenance events
//! (was the task popped locally, pulled from the injector, stolen — and
//! from whom — or run inline). `wsf_analysis::validate` reads the
//! per-worker sequences as a `wsf_core::Schedule` and counts them with the
//! simulator's own deviation and miss accounting.
//!
//! The recorder follows the same discipline as [`crate::FaultHooks`]:
//! stored as `Option<Arc<TouchTrace>>` on the pool, so every dispatch site
//! pays one never-taken branch when tracing is disabled (the default and
//! every production configuration). When enabled, each lane's buffer is
//! reserved up front ([`TouchTrace::new`]) and [`TouchTrace::record`]
//! never grows it: events beyond the capacity are dropped and counted in
//! [`TouchTrace::dropped`], so recording itself performs no heap
//! allocation after construction (proved by the `alloc_free` integration
//! test).
//!
//! Lanes `0..workers` belong to the worker threads; the last lane
//! ([`TouchTrace::external_lane`]) collects events recorded from
//! non-worker threads (e.g. a rescue pass finishing a DAG after the fault
//! injector killed every worker).

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where a dequeued task came from — the runtime analogue of the
/// simulator's steal accounting, recorded into the lane of the worker
/// that acquired the task.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TaskOrigin {
    /// Popped from the worker's own deque (bottom, LIFO — the
    /// parsimonious fast path).
    Local,
    /// Pulled from the global injector (externally submitted work).
    Inject,
    /// Stolen from the top of another worker's deque.
    Steal {
        /// Index of the victim worker.
        victim: u32,
    },
    /// A future executed inline by its creating worker (the child-first
    /// fast path; it never became a queued task).
    Inline,
}

/// One recorded event of a worker lane.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TouchEvent {
    /// The lane's worker acquired a task with the given provenance. The
    /// `Node` events that follow (until the next `Task` event) were
    /// executed under it.
    Task {
        /// Where the task came from.
        origin: TaskOrigin,
    },
    /// A DAG node was executed on this lane, touching `block` (or nothing
    /// for a silent node).
    Node {
        /// The executed node's index.
        node: u32,
        /// The memory block the node touches, if any.
        block: Option<u32>,
    },
}

/// A per-lane block-touch recorder attached to a [`crate::Runtime`] via
/// [`crate::RuntimeBuilder::touch_trace`].
pub struct TouchTrace {
    /// One buffer per worker plus one external lane, each cache-padded so
    /// concurrent recording on different lanes never false-shares.
    lanes: Vec<CachePadded<Mutex<Vec<TouchEvent>>>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl TouchTrace {
    /// Creates a recorder for a pool of `workers` threads, reserving
    /// `capacity` events per lane up front (one extra lane collects events
    /// from non-worker threads). This is the *only* point at which the
    /// recorder allocates; recording drops (and counts) events beyond the
    /// reserve instead of growing.
    pub fn new(workers: usize, capacity: usize) -> Arc<TouchTrace> {
        Arc::new(TouchTrace {
            lanes: (0..workers + 1)
                .map(|_| CachePadded::new(Mutex::new(Vec::with_capacity(capacity))))
                .collect(),
            capacity,
            dropped: AtomicU64::new(0),
        })
    }

    /// Number of lanes (workers + 1; the last is the external lane).
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Index of the lane that collects events recorded from non-worker
    /// threads.
    pub fn external_lane(&self) -> usize {
        self.lanes.len() - 1
    }

    /// The per-lane event capacity reserved at construction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records `event` into `lane`, dropping it (counted) if the lane's
    /// reserve is exhausted. Never allocates.
    pub fn record(&self, lane: usize, event: TouchEvent) {
        let mut buf = self.lanes[lane].lock();
        if buf.len() < self.capacity {
            buf.push(event);
        } else {
            drop(buf);
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Events dropped because a lane's reserve was exhausted. A validation
    /// run with `dropped() > 0` under-recorded and must be retried with a
    /// larger capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A snapshot of one lane's events, in recording order.
    pub fn events(&self, lane: usize) -> Vec<TouchEvent> {
        self.lanes[lane].lock().clone()
    }

    /// One lane's `(node, block)` touch sequence, in execution order
    /// (provenance events filtered out) — what `wsf_analysis::validate`
    /// reads as one lane of a schedule.
    pub fn node_trace(&self, lane: usize) -> Vec<(u32, Option<u32>)> {
        self.lanes[lane]
            .lock()
            .iter()
            .filter_map(|e| match e {
                TouchEvent::Node { node, block } => Some((*node, *block)),
                TouchEvent::Task { .. } => None,
            })
            .collect()
    }

    /// Total events currently recorded across all lanes.
    pub fn total_events(&self) -> usize {
        self.lanes.iter().map(|l| l.lock().len()).sum()
    }

    /// Tasks acquired by steal across all lanes (the runtime counterpart
    /// of the simulator's per-run steal count).
    pub fn steal_tasks(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| {
                l.lock()
                    .iter()
                    .filter(|e| {
                        matches!(
                            e,
                            TouchEvent::Task {
                                origin: TaskOrigin::Steal { .. }
                            }
                        )
                    })
                    .count() as u64
            })
            .sum()
    }

    /// Clears every lane (keeping the reserves) and the drop counter, so
    /// one recorder can bracket several runs.
    pub fn clear(&self) {
        for lane in &self.lanes {
            lane.lock().clear();
        }
        self.dropped.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for TouchTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TouchTrace")
            .field("lanes", &self.lanes.len())
            .field("capacity", &self.capacity)
            .field("events", &self.total_events())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_per_lane_in_order() {
        let t = TouchTrace::new(2, 8);
        assert_eq!(t.lanes(), 3);
        assert_eq!(t.external_lane(), 2);
        t.record(
            0,
            TouchEvent::Task {
                origin: TaskOrigin::Inject,
            },
        );
        t.record(
            0,
            TouchEvent::Node {
                node: 0,
                block: Some(7),
            },
        );
        t.record(
            1,
            TouchEvent::Node {
                node: 1,
                block: None,
            },
        );
        assert_eq!(t.node_trace(0), vec![(0, Some(7))]);
        assert_eq!(t.node_trace(1), vec![(1, None)]);
        assert_eq!(t.events(0).len(), 2);
        assert_eq!(t.total_events(), 3);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn over_capacity_events_are_dropped_and_counted() {
        let t = TouchTrace::new(1, 2);
        for n in 0..5u32 {
            t.record(
                0,
                TouchEvent::Node {
                    node: n,
                    block: None,
                },
            );
        }
        assert_eq!(t.node_trace(0).len(), 2, "reserve bounds the lane");
        assert_eq!(t.dropped(), 3);
        t.clear();
        assert_eq!(t.total_events(), 0);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn steal_tasks_counts_only_steal_provenance() {
        let t = TouchTrace::new(2, 8);
        t.record(
            0,
            TouchEvent::Task {
                origin: TaskOrigin::Local,
            },
        );
        t.record(
            1,
            TouchEvent::Task {
                origin: TaskOrigin::Steal { victim: 0 },
            },
        );
        t.record(
            1,
            TouchEvent::Task {
                origin: TaskOrigin::Inline,
            },
        );
        assert_eq!(t.steal_tasks(), 1);
    }
}
