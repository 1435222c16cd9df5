//! The capacity-adaptive representation shared by [`crate::LruCache`] and
//! [`crate::FifoCache`].
//!
//! Both policies pick between the same two representations by the same
//! rule (the seed scan structure at or below [`SCAN_CROSSOVER`], the
//! indexed arena above) and dispatch every operation the same way; only the
//! scan structure itself and the on-hit behavior differ. [`Adaptive`]
//! factors that choice out once, parameterized by a [`ScanRepr`], so the
//! constructor/crossover logic cannot drift between the two cache types.

use crate::indexed::IndexedCache;
use crate::{AccessOutcome, BlockId, ResidentIter, SCAN_CROSSOVER};

/// A policy's seed scan representation, as consumed by [`Adaptive`].
pub(crate) trait ScanRepr {
    /// Whether a hit moves the block to the recency tail (LRU) or leaves
    /// it in place (FIFO). The indexed arena takes this as its
    /// `move_on_hit` argument.
    const MOVE_ON_HIT: bool;

    fn new(capacity: usize) -> Self;
    fn access(&mut self, block: BlockId) -> AccessOutcome;
    fn contains(&self, block: BlockId) -> bool;
    fn capacity(&self) -> usize;
    fn len(&self) -> usize;
    fn clear(&mut self);
    /// Resident blocks from eviction end (LRU / first-in) to newest.
    fn iter(&self) -> ResidentIter<'_>;
    /// The block at the eviction end, if any.
    fn front(&self) -> Option<BlockId>;
    /// The block at the newest end, if any.
    fn back(&self) -> Option<BlockId>;
}

/// Scan representation below the crossover, indexed arena above it.
#[derive(Clone, Debug)]
pub(crate) enum Adaptive<S> {
    Scan(S),
    Indexed(IndexedCache),
}

impl<S: ScanRepr> Adaptive<S> {
    pub(crate) fn new(capacity: usize) -> Self {
        if capacity <= SCAN_CROSSOVER {
            Adaptive::scan(capacity)
        } else {
            Adaptive::indexed(capacity)
        }
    }

    pub(crate) fn with_block_hint(capacity: usize, block_space: usize) -> Self {
        if capacity <= SCAN_CROSSOVER {
            Adaptive::scan(capacity)
        } else {
            Adaptive::indexed_dense(capacity, block_space)
        }
    }

    pub(crate) fn scan(capacity: usize) -> Self {
        Adaptive::Scan(S::new(capacity))
    }

    pub(crate) fn indexed(capacity: usize) -> Self {
        Adaptive::Indexed(IndexedCache::new_hash(capacity))
    }

    pub(crate) fn indexed_dense(capacity: usize, block_space: usize) -> Self {
        Adaptive::Indexed(IndexedCache::new_dense(capacity, block_space, 1))
    }

    pub(crate) fn indexed_dense_strided(capacity: usize, block_space: usize, stride: u32) -> Self {
        Adaptive::Indexed(IndexedCache::new_dense(capacity, block_space, stride))
    }

    pub(crate) fn is_indexed(&self) -> bool {
        matches!(self, Adaptive::Indexed(_))
    }

    /// See [`IndexedCache::rehint`]; the scan representation has no index.
    pub(crate) fn rehint(&mut self, block_space: usize) {
        if let Adaptive::Indexed(ix) = self {
            ix.rehint(block_space);
        }
    }

    #[inline]
    pub(crate) fn access(&mut self, block: BlockId) -> AccessOutcome {
        match self {
            Adaptive::Scan(scan) => scan.access(block),
            Adaptive::Indexed(ix) => ix.access(block, S::MOVE_ON_HIT),
        }
    }

    pub(crate) fn contains(&self, block: BlockId) -> bool {
        match self {
            Adaptive::Scan(scan) => scan.contains(block),
            Adaptive::Indexed(ix) => ix.contains(block),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        match self {
            Adaptive::Scan(scan) => scan.capacity(),
            Adaptive::Indexed(ix) => ix.capacity(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Adaptive::Scan(scan) => scan.len(),
            Adaptive::Indexed(ix) => ix.len(),
        }
    }

    pub(crate) fn clear(&mut self) {
        match self {
            Adaptive::Scan(scan) => scan.clear(),
            Adaptive::Indexed(ix) => ix.clear(),
        }
    }

    pub(crate) fn resident_iter(&self) -> ResidentIter<'_> {
        match self {
            Adaptive::Scan(scan) => scan.iter(),
            Adaptive::Indexed(ix) => ResidentIter::linked(ix.resident_iter()),
        }
    }

    /// The block at the eviction end (LRU block / next FIFO eviction).
    pub(crate) fn front_block(&self) -> Option<BlockId> {
        match self {
            Adaptive::Scan(scan) => scan.front(),
            Adaptive::Indexed(ix) => ix.head_block(),
        }
    }

    /// The block at the newest end (MRU / most recently inserted).
    pub(crate) fn back_block(&self) -> Option<BlockId> {
        match self {
            Adaptive::Scan(scan) => scan.back(),
            Adaptive::Indexed(ix) => ix.tail_block(),
        }
    }
}
