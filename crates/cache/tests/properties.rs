//! Property-based tests of the cache simulators against a reference model.

use proptest::prelude::*;
use wsf_cache::{Cache, CacheSim, LruCache};

/// A straightforward reference implementation of fully associative LRU kept
/// deliberately different in structure from `LruCache` (timestamps instead
/// of a recency vector).
struct ReferenceLru {
    capacity: usize,
    clock: u64,
    resident: Vec<(u32, u64)>,
}

impl ReferenceLru {
    fn new(capacity: usize) -> Self {
        ReferenceLru {
            capacity,
            clock: 0,
            resident: Vec::new(),
        }
    }

    fn access(&mut self, block: u32) -> bool {
        self.clock += 1;
        if let Some(entry) = self.resident.iter_mut().find(|(b, _)| *b == block) {
            entry.1 = self.clock;
            return true;
        }
        if self.resident.len() == self.capacity {
            let idx = self
                .resident
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, at))| *at)
                .map(|(i, _)| i)
                .expect("non-empty");
            self.resident.swap_remove(idx);
        }
        self.resident.push((block, self.clock));
        false
    }
}

fn trace_strategy() -> impl Strategy<Value = (usize, Vec<u32>)> {
    (1usize..24, proptest::collection::vec(0u32..40, 1..400))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lru_matches_reference_model((capacity, trace) in trace_strategy()) {
        let mut lru = LruCache::new(capacity);
        let mut reference = ReferenceLru::new(capacity);
        for &block in &trace {
            let got_hit = lru.access(block).is_hit();
            let want_hit = reference.access(block);
            prop_assert_eq!(got_hit, want_hit, "block {} diverged", block);
        }
        prop_assert!(lru.len() <= capacity);
    }

    #[test]
    fn lru_inclusion_property((capacity, trace) in trace_strategy()) {
        // A larger LRU cache never misses more often than a smaller one
        // (the classic stack/inclusion property of LRU).
        let mut small = CacheSim::new(capacity);
        let mut large = CacheSim::new(capacity + 4);
        for &block in &trace {
            small.access(block);
            large.access(block);
        }
        prop_assert!(large.stats().misses <= small.stats().misses);
    }

    #[test]
    fn miss_counts_are_bounded_by_accesses((capacity, trace) in trace_strategy()) {
        let distinct = {
            let mut blocks = trace.clone();
            blocks.sort_unstable();
            blocks.dedup();
            blocks.len() as u64
        };
        let mut sim = CacheSim::new(capacity);
        for &block in &trace {
            sim.access(block);
        }
        let stats = sim.stats();
        prop_assert_eq!(stats.accesses(), trace.len() as u64);
        prop_assert!(stats.misses >= distinct.min(trace.len() as u64) && stats.misses >= 1);
        prop_assert!(stats.misses <= trace.len() as u64);
        // Compulsory misses: at least one miss per distinct block.
        prop_assert!(stats.misses >= distinct);
    }

    #[test]
    fn resident_blocks_are_consistent_with_contains((capacity, trace) in trace_strategy()) {
        let mut lru = LruCache::new(capacity);
        for &block in &trace {
            lru.access(block);
        }
        for block in lru.resident_blocks() {
            prop_assert!(lru.contains(block));
        }
        prop_assert_eq!(lru.resident_blocks().len(), lru.len());
    }
}

/// Misses `cache` takes on `trace` after being warmed by `warm` (the
/// warm-up's own misses are not counted).
fn misses_after_warmup(mut cache: LruCache, warm: &[u32], trace: &[u32]) -> u64 {
    for &block in warm {
        cache.access(block);
    }
    trace.iter().filter(|&&b| cache.access(b).is_miss()).count() as u64
}

/// A capacity, two warm-ups and a trace: a random pattern repeated a
/// random number of times, since cyclic reuse is where a policy's start
/// state matters longest.
fn start_state_strategy() -> impl Strategy<Value = (usize, Vec<u32>, Vec<u32>, Vec<u32>)> {
    (
        1usize..=24,
        proptest::collection::vec(0u32..40, 0..64),
        proptest::collection::vec(0u32..40, 0..64),
        proptest::collection::vec(0u32..40, 1..48),
        1usize..24,
    )
        .prop_map(|(capacity, warm_a, warm_b, pattern, reps)| {
            (capacity, warm_a, warm_b, pattern.repeat(reps))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The property the paper's upper bounds need from the cache: each
    /// deviation is charged at most `C` extra misses, which holds only if
    /// the miss count on a trace depends on the cache's starting contents
    /// by at most `C`. Under LRU only the first access of each of the
    /// first `C` distinct blocks can differ; after that both caches hold
    /// the same `C` most recently used blocks.
    #[test]
    fn start_state_changes_misses_by_at_most_c((capacity, warm_a, warm_b, trace) in start_state_strategy()) {
        for (name, empty) in [
            ("scan", LruCache::scan(capacity)),
            ("indexed", LruCache::indexed(capacity)),
            ("indexed_dense", LruCache::indexed_dense(capacity, 40)),
        ] {
            let a = misses_after_warmup(empty.clone(), &warm_a, &trace);
            let b = misses_after_warmup(empty, &warm_b, &trace);
            prop_assert!(
                a.abs_diff(b) <= capacity as u64,
                "{name}: {a} vs {b} misses at C = {capacity}"
            );
        }
    }
}

/// The trace on which FIFO's miss count depends on its start state without
/// bound — `(0, 1, 2)` repeated at C = 2 costs FIFO 2,998 misses started
/// as `[0, 1]` but 1,500 started as `[0, 2]` — costs LRU one miss more or
/// less.
#[test]
fn fifo_counterexample_trace_moves_lru_by_one_miss() {
    let trace = [0, 1, 2].repeat(1_000);
    for make in [LruCache::scan, LruCache::indexed] {
        let a = misses_after_warmup(make(2), &[0, 1], &trace);
        let b = misses_after_warmup(make(2), &[0, 2], &trace);
        assert_eq!((a, b), (2_998, 2_999));
    }
}
