//! # wsf-cache — software cache simulators
//!
//! The cache model of *"Well-Structured Futures and Cache Locality"*
//! (Herlihy & Liu, PPoPP 2014, Section 3): each processor owns a fully
//! associative cache of `C` lines, each holding one memory block, managed
//! with the LRU replacement policy. Every instruction (DAG node) accesses
//! at most one block. The cache locality of an execution is the number of
//! cache misses it incurs.
//!
//! This crate provides that model ([`LruCache`], behind the [`Cache`]
//! trait), the bookkeeping wrapper every simulated processor owns
//! ([`CacheSim`]), and the one-pass profiler that answers every capacity
//! at once ([`StackDistanceSim`]). LRU is the only policy: the upper
//! bounds charge each deviation at most `C` extra misses, which needs a
//! policy whose miss count on a trace depends on its starting contents by
//! at most `C` — LRU has that property, FIFO does not (`docs/DESIGN.md`
//! §2 has the counterexample).
//!
//! ## Representations
//!
//! The paper's experiments run at C = 8 and 16, where a linear scan of the
//! recency vector is as fast as any pointer structure. The served tenants
//! run at C = 64 and the large-capacity sweeps at thousands of lines, where
//! the scan's O(C) cost dominates, so the cache is **capacity-adaptive**:
//! at or below [`SCAN_CROSSOVER`] lines it keeps the seed scan
//! representation, above it it switches to an indexed slot arena
//! (intrusive recency ring + direct-mapped block→slot index — see the
//! private `indexed` module's docs) with O(1) access and eviction. The two
//! representations are access-for-access identical; `tests/differential.rs`
//! proves it property-style.
//!
//! Block ids are numbered densely from 0, as the model's workloads number
//! them, so every block index is a vector indexed by id: the indexed
//! caches and the profiler accept ids below [`MAX_BLOCK_SPACE`] and panic
//! on any other.
//!
//! ```
//! use wsf_cache::{Cache, CacheSim};
//!
//! let mut sim = CacheSim::new(2);
//! assert!(sim.access(1).is_miss());
//! assert!(sim.access(2).is_miss());
//! assert!(sim.access(1).is_hit());
//! assert!(sim.access(3).is_miss()); // evicts block 2 (least recently used)
//! assert!(sim.access(2).is_miss());
//! assert_eq!(sim.stats().misses, 4);
//! assert_eq!(sim.stats().hits, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod indexed;
mod lru;
pub mod replay;
mod sim;
pub mod stack_distance;
mod stats;

pub use lru::LruCache;
pub use replay::{replay, replay_curves, ReplayOp, ReplaySummary};
pub use sim::{CacheSim, StackDistanceSim};
pub use stack_distance::{MissRatioCurve, StackDistance};
pub use stats::CacheStats;

/// A memory block identifier. Blocks are the unit of cache occupancy: each
/// cache line holds exactly one block.
pub type BlockId = u32;

/// Largest capacity at which the scan representation is used; above it the
/// indexed representation takes over.
///
/// The scan costs O(C) per access (a position scan, plus a front-removal
/// shift on every miss); the direct-mapped indexed arena costs the same at
/// any C. Measured on a warm LRU cache (release build, 2-vCPU box, best of
/// 15 passes over 65,536 accesses), in ns per access:
///
/// | C  | scan, ~50 % hits | dense, ~50 % hits | scan, all misses | dense, all misses |
/// |----|------------------|-------------------|------------------|-------------------|
/// | 8  | 13.0             | 16.1              | 7.8              | 8.3               |
/// | 16 | 16.3             | 15.0              | 11.0             | 8.3               |
/// | 32 | 20.6             | 14.8              | 23.2             | 8.1               |
/// | 64 | 30.0             | 14.6              | 33.6             | 8.3               |
///
/// The tie is at C = 16, so C = 8 and 16 (every table experiment) keep the
/// seed representation and everything larger, including the served
/// tenants' C = 64, takes the arena. The arena's index is direct-mapped at
/// every capacity; `SequentialExecutor` and `SimScratch` hint every cache
/// with the DAG's block space (see [`CacheSim::with_block_hint`] and
/// [`CacheSim::rehint`]) so the index is sized before the walk, and an
/// unhinted cache grows it on demand. The benchmark's per-layer metrics
/// `cache.lru_scan_c16.ns_per_access` and
/// `cache.lru_dense_c1024.ns_per_access` track the two sides.
pub const SCAN_CROSSOVER: usize = 16;

/// The block-id ceiling of every direct-mapped block index: ids must lie
/// in `0..MAX_BLOCK_SPACE` (2^24; a full index is 128 MB).
///
/// A declared block space past it, or an id at or past it reaching an
/// indexed cache or a [`StackDistance`] profiler, panics. Workload builders
/// number blocks densely from 0, and the largest shape a server frame may
/// request declares about 2^21 blocks, an eighth of the ceiling.
pub const MAX_BLOCK_SPACE: usize = 1 << 24;

/// The outcome of a single cache access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The block was already cached.
    Hit,
    /// The block was not cached; it has been loaded, evicting `evicted` if
    /// the cache was full.
    Miss {
        /// The block that was evicted to make room, if any.
        evicted: Option<BlockId>,
    },
}

impl AccessOutcome {
    /// Whether the access hit the cache.
    pub fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }

    /// Whether the access missed the cache.
    pub fn is_miss(self) -> bool {
        !self.is_hit()
    }

    /// The evicted block, if the access was a miss that evicted one.
    pub fn evicted(self) -> Option<BlockId> {
        match self {
            AccessOutcome::Hit => None,
            AccessOutcome::Miss { evicted } => evicted,
        }
    }
}

/// Common interface of all simulated caches.
pub trait Cache {
    /// Accesses `block`, updating replacement state, and reports whether it
    /// was a hit or a miss.
    fn access(&mut self, block: BlockId) -> AccessOutcome;

    /// Whether `block` is currently resident.
    fn contains(&self, block: BlockId) -> bool;

    /// Number of cache lines.
    fn capacity(&self) -> usize;

    /// Number of lines currently occupied.
    fn len(&self) -> usize;

    /// Whether the cache is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties the cache.
    fn clear(&mut self);

    /// Replaces the contents of `out` with the resident blocks, in an
    /// implementation-defined order. The borrowing form of
    /// [`Cache::resident_blocks`]: callers that poll residency repeatedly
    /// reuse one buffer instead of allocating a vector per call.
    fn resident_into(&self, out: &mut Vec<BlockId>);

    /// The resident blocks, in an implementation-defined order.
    ///
    /// Thin allocating wrapper over [`Cache::resident_into`], kept for
    /// tests and one-shot inspection.
    fn resident_blocks(&self) -> Vec<BlockId> {
        let mut out = Vec::with_capacity(self.len());
        self.resident_into(&mut out);
        out
    }
}

/// Borrowing iterator over a cache's resident blocks.
///
/// Returned by [`LruCache::resident_iter`]; the variants cover the scan
/// representation (contiguous storage) and the indexed representation
/// (intrusive-list walk).
pub struct ResidentIter<'a> {
    inner: ResidentIterInner<'a>,
}

enum ResidentIterInner<'a> {
    Slice(std::slice::Iter<'a, BlockId>),
    Linked(indexed::ResidentIter<'a>),
}

impl<'a> ResidentIter<'a> {
    pub(crate) fn slice(blocks: &'a [BlockId]) -> Self {
        ResidentIter {
            inner: ResidentIterInner::Slice(blocks.iter()),
        }
    }

    pub(crate) fn linked(iter: indexed::ResidentIter<'a>) -> Self {
        ResidentIter {
            inner: ResidentIterInner::Linked(iter),
        }
    }
}

impl Iterator for ResidentIter<'_> {
    type Item = BlockId;

    fn next(&mut self) -> Option<BlockId> {
        match &mut self.inner {
            ResidentIterInner::Slice(it) => it.next().copied(),
            ResidentIterInner::Linked(it) => it.next(),
        }
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn exercise(cache: &mut dyn Cache) {
        assert!(cache.is_empty());
        assert!(cache.access(10).is_miss());
        assert!(cache.contains(10));
        assert!(!cache.contains(11));
        assert!(cache.access(10).is_hit());
        assert_eq!(cache.len(), 1);
        let mut buf = vec![99, 98];
        cache.resident_into(&mut buf);
        assert_eq!(buf, vec![10], "resident_into replaces the buffer");
        assert_eq!(cache.resident_blocks(), vec![10]);
        cache.clear();
        assert!(cache.is_empty());
        assert!(!cache.contains(10));
    }

    #[test]
    fn all_representations_implement_the_trait_consistently() {
        exercise(&mut LruCache::scan(4));
        exercise(&mut LruCache::indexed_dense(4, 0));
        exercise(&mut LruCache::indexed_dense(4, 16));
    }

    #[test]
    fn outcome_helpers() {
        assert!(AccessOutcome::Hit.is_hit());
        assert!(!AccessOutcome::Hit.is_miss());
        assert_eq!(AccessOutcome::Hit.evicted(), None);
        let m = AccessOutcome::Miss { evicted: Some(3) };
        assert!(m.is_miss());
        assert_eq!(m.evicted(), Some(3));
        let m = AccessOutcome::Miss { evicted: None };
        assert_eq!(m.evicted(), None);
    }
}
