//! The MPMC injector queue for external task submission.
//!
//! The runtime's workers each own a Chase–Lev deque ([`crate::chase_lev`]),
//! but tasks submitted from *outside* the pool need a queue any thread may
//! push to and any worker may steal from: the server's jobs, a `dag_exec`
//! root chain and its rescues. The paper's bounds are about thieves
//! robbing the per-processor deques; nothing in them depends on this queue
//! being lock-free, so it is a `Mutex<VecDeque<T>>`.
//!
//! # Why a lock
//!
//! A lock-free segmented queue with epoch reclamation and striped counters
//! held this place before, at six times the code and with raw-pointer
//! reasoning throughout. Alternating pairs of the end-to-end benchmark
//! (2-vCPU guest, seed 7, `--trace 0`) could not tell the two apart on
//! `pool_dags`, the workload whose idle workers poll this queue: medians
//! of 30.07e6 and 30.21e6 nodes/s for the lock-free queue against 30.00e6
//! and 30.37e6 for this one, over two batches of 10 pairs, 13 of the 20
//! won by this one. On the served workloads every median stayed inside
//! the lock-free queue's quartiles, and the injector's own operations got
//! cheaper in a traced `serve_medium` run (`push_batch` 1.45 → 1.15 µs,
//! `steal` 0.41 → 0.16 µs). The trade-off: a preempted lock holder delays the other submitters and
//! workers for one `VecDeque` operation or one batch `extend`, as no
//! caller holds the lock across anything else.
//!
//! # Why the fields are padded
//!
//! Idle workers load `len` on every empty poll, and the lock's word is
//! written on every operation. Unpadded, they share cache lines with
//! whatever fields the owner's struct places next to the queue, and
//! `pool_dags` lost 5 of 6 pairs against the lock-free queue, median
//! ×0.89. Each field gets its own line.
//!
//! # Ordering
//!
//! Every operation that changes the queue stores its new length into
//! `len` with `Release` while still holding the lock; readers load it with
//! `Acquire`. A zero length lets [`Injector::steal`] and
//! [`Injector::is_empty`] answer without locking. Like any concurrent
//! emptiness check, the answer is exact only when no push is in flight.

use crossbeam_utils::CachePadded;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Which injector operation a stall hook fired on.
///
/// Passed to the hook installed with [`Injector::install_stall_hook`] so a
/// fault injector can stall pushes and steals independently.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StallSite {
    /// A producer entering [`Injector::push`] or [`Injector::push_batch`].
    Push,
    /// A consumer entering [`Injector::steal`].
    Steal,
}

/// A callback invoked at the top of every `push`/`steal` once installed.
type StallHook = Box<dyn Fn(StallSite) + Send + Sync>;

/// An unbounded MPMC FIFO queue.
///
/// ```
/// use wsf_deque::Injector;
///
/// let q = Injector::new();
/// q.push(1);
/// q.push(2);
/// assert_eq!(q.steal(), Some(1));
/// assert_eq!(q.steal(), Some(2));
/// assert_eq!(q.steal(), None);
/// ```
pub struct Injector<T> {
    queue: CachePadded<Mutex<VecDeque<T>>>,
    /// The queue's length, stored under the lock (see the module docs).
    len: CachePadded<AtomicUsize>,
    /// Optional fault-injection stall hook (see
    /// [`Injector::install_stall_hook`]). When absent the fast path pays a
    /// single non-atomic initialized-check branch.
    stall_hook: OnceLock<StallHook>,
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Injector::new()
    }
}

impl<T> Injector<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Injector {
            queue: CachePadded::new(Mutex::new(VecDeque::new())),
            len: CachePadded::new(AtomicUsize::new(0)),
            stall_hook: OnceLock::new(),
        }
    }

    /// Installs a fault-injection hook called at the top of every `push`,
    /// `push_batch` and `steal`, **before** the lock is taken — so a hook
    /// that sleeps stalls only its caller, never the other submitters and
    /// workers.
    ///
    /// Returns `false` (and drops `hook`) if a hook was already installed;
    /// the hook cannot be replaced or removed once set.
    pub fn install_stall_hook(&self, hook: impl Fn(StallSite) + Send + Sync + 'static) -> bool {
        self.stall_hook.set(Box::new(hook)).is_ok()
    }

    /// Fires the stall hook, if one is installed.
    #[inline]
    fn maybe_stall(&self, site: StallSite) {
        if let Some(hook) = self.stall_hook.get() {
            hook(site);
        }
    }

    /// Locks the queue. A panic cannot leave a `VecDeque` half-updated, so
    /// a poisoned lock still guards a valid queue.
    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pushes `value` at the back of the queue.
    pub fn push(&self, value: T) {
        self.maybe_stall(StallSite::Push);
        let mut q = self.lock();
        q.push_back(value);
        self.len.store(q.len(), Ordering::Release);
    }

    /// Pushes every value of `batch` at the back of the queue, taking the
    /// lock (and firing the stall hook) **once per batch** instead of once
    /// per value — the ingest-server fast path. Values land in iteration
    /// order. An empty batch fires no hook and takes no lock.
    pub fn push_batch<I>(&self, batch: I)
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: ExactSizeIterator,
    {
        let iter = batch.into_iter();
        if iter.len() == 0 {
            return;
        }
        self.maybe_stall(StallSite::Push);
        let mut q = self.lock();
        q.extend(iter);
        self.len.store(q.len(), Ordering::Release);
    }

    /// Takes the value at the front of the queue, if any. An empty queue
    /// is answered from the length, without locking.
    pub fn steal(&self) -> Option<T> {
        self.maybe_stall(StallSite::Steal);
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = self.lock();
        let value = q.pop_front();
        self.len.store(q.len(), Ordering::Release);
        value
    }

    /// Whether the queue appears empty (exact only when no concurrent
    /// operations are in flight).
    pub fn is_empty(&self) -> bool {
        self.len.load(Ordering::Acquire) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_across_many_items() {
        let q = Injector::new();
        let n = 64 * 3 + 7;
        for i in 0..n {
            q.push(i);
        }
        assert!(!q.is_empty());
        for i in 0..n {
            assert_eq!(q.steal(), Some(i));
        }
        assert_eq!(q.steal(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_steal() {
        let q = Injector::new();
        for round in 0..50 {
            q.push(round * 2);
            q.push(round * 2 + 1);
            assert_eq!(q.steal(), Some(round * 2));
            assert_eq!(q.steal(), Some(round * 2 + 1));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn drop_releases_unconsumed_values() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let q = Injector::new();
            for _ in 0..(64 + 9) {
                q.push(Counted);
            }
            drop(q.steal()); // one dropped here
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 64 + 9);
    }

    #[test]
    fn empty_queue_behaviour() {
        let q: Injector<String> = Injector::new();
        assert!(q.is_empty());
        assert_eq!(q.steal(), None);
        q.push("x".into());
        assert_eq!(q.steal(), Some("x".into()));
        assert_eq!(q.steal(), None);
    }

    #[test]
    fn bursts_arrive_in_order() {
        let q = Injector::new();
        let mut next_out = 0usize;
        let mut next_in = 0usize;
        for round in 0..40 {
            let burst = 64 / 2 + round;
            for _ in 0..burst {
                q.push(next_in);
                next_in += 1;
            }
            for _ in 0..burst {
                assert_eq!(q.steal(), Some(next_out));
                next_out += 1;
            }
        }
        assert!(q.is_empty());
    }

    #[test]
    fn push_batch_preserves_fifo() {
        let q = Injector::new();
        let mut next = 0usize;
        for size in [0usize, 1, 7, 64 - 1, 64, 64 + 5, 3 * 64] {
            q.push_batch((next..next + size).collect::<Vec<_>>());
            next += size;
        }
        for expect in 0..next {
            assert_eq!(q.steal(), Some(expect));
        }
        assert_eq!(q.steal(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn push_batch_interleaves_with_scalar_push() {
        let q = Injector::new();
        q.push(0);
        q.push_batch(vec![1, 2, 3]);
        q.push(4);
        q.push_batch(vec![5]);
        for expect in 0..=5 {
            assert_eq!(q.steal(), Some(expect));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn push_batch_fires_the_push_hook_once_per_batch() {
        use std::sync::Arc;

        let q = Injector::new();
        let pushes = Arc::new(AtomicUsize::new(0));
        let p = Arc::clone(&pushes);
        assert!(q.install_stall_hook(move |site| {
            if site == StallSite::Push {
                p.fetch_add(1, Ordering::Relaxed);
            }
        }));
        q.push_batch(0..(3 * 64));
        q.push_batch(std::iter::empty::<usize>()); // no hook, no lock
        q.push_batch([7usize; 5]);
        assert_eq!(pushes.load(Ordering::Relaxed), 2);
        for expect in 0..3 * 64 {
            assert_eq!(q.steal(), Some(expect));
        }
        for _ in 0..5 {
            assert_eq!(q.steal(), Some(7));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn stall_hook_fires_per_operation_and_installs_once() {
        use std::sync::Arc;

        let q = Injector::new();
        let pushes = Arc::new(AtomicUsize::new(0));
        let steals = Arc::new(AtomicUsize::new(0));
        let (p, s) = (Arc::clone(&pushes), Arc::clone(&steals));
        assert!(q.install_stall_hook(move |site| {
            match site {
                StallSite::Push => p.fetch_add(1, Ordering::Relaxed),
                StallSite::Steal => s.fetch_add(1, Ordering::Relaxed),
            };
        }));
        // Second install is rejected; the first hook keeps firing.
        assert!(!q.install_stall_hook(|_| panic!("replaced hook must not run")));

        for i in 0..10 {
            q.push(i);
        }
        for i in 0..10 {
            assert_eq!(q.steal(), Some(i));
        }
        assert_eq!(q.steal(), None);
        assert_eq!(pushes.load(Ordering::Relaxed), 10);
        // Every steal attempt fires the hook, including the empty one.
        assert_eq!(steals.load(Ordering::Relaxed), 11);
    }
}
