//! Differential property tests: the indexed O(1) representations must be
//! **access-for-access identical** to the seed scan representation — not
//! just the same miss counts, but the same [`AccessOutcome`] (including
//! which block each miss evicts) at every single step, across random
//! traces, capacities straddling the crossover, and block ranges both
//! inside and outside a declared dense space.
//!
//! This is the contract that makes the representation switch invisible:
//! every cache-miss table in the repository is reproduced bit-for-bit no
//! matter which representation the capacity selects.

use proptest::prelude::*;
use wsf_cache::{AccessOutcome, Cache, LruCache, SCAN_CROSSOVER};

/// Runs `trace` through `a` and `b`, asserting identical outcomes step by
/// step and identical final residency.
fn assert_lockstep<A: Cache, B: Cache>(a: &mut A, b: &mut B, trace: &[u32]) {
    for (i, &block) in trace.iter().enumerate() {
        let got_a = a.access(block);
        let got_b = b.access(block);
        assert_eq!(
            got_a, got_b,
            "outcome diverged at access {i} (block {block})"
        );
        assert_eq!(a.len(), b.len());
        assert_eq!(a.contains(block), b.contains(block));
    }
    let mut res_a = Vec::new();
    let mut res_b = Vec::new();
    a.resident_into(&mut res_a);
    b.resident_into(&mut res_b);
    assert_eq!(res_a, res_b, "final residency (in order) diverged");
}

/// Capacities on both sides of the crossover (a fixed range, so it keeps
/// covering 16/17 and the served tenants' C = 64 whatever the constant),
/// block ids spilling past the declared dense space, and traces long enough
/// to force evictions.
fn trace_strategy() -> impl Strategy<Value = (usize, usize, Vec<u32>)> {
    (
        1usize..=192,
        1usize..200,
        proptest::collection::vec(0u32..300, 1..600),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_lru_matches_scan_lru((capacity, space, trace) in trace_strategy()) {
        let mut scan = LruCache::scan(capacity);
        let mut grown = LruCache::indexed_dense(capacity, 0);
        assert_lockstep(&mut scan, &mut grown, &trace);

        let mut scan = LruCache::scan(capacity);
        let mut dense = LruCache::indexed_dense(capacity, space);
        assert_lockstep(&mut scan, &mut dense, &trace);
    }

    #[test]
    fn adaptive_constructor_matches_forced_scan((capacity, _space, trace) in trace_strategy()) {
        // Whatever representation `new` picks must reproduce the scan
        // outcomes exactly.
        let mut scan = LruCache::scan(capacity);
        let mut adaptive = LruCache::new(capacity);
        prop_assert_eq!(adaptive.is_indexed(), capacity > SCAN_CROSSOVER);
        assert_lockstep(&mut scan, &mut adaptive, &trace);
    }

    #[test]
    fn clear_preserves_equivalence((capacity, space, trace) in trace_strategy()) {
        // Interleave clears: generation-stamped dense clearing must behave
        // exactly like wiping the scan vector.
        let mut scan = LruCache::scan(capacity);
        let mut dense = LruCache::indexed_dense(capacity, space);
        let third = (trace.len() / 3).max(1);
        for (i, chunk) in trace.chunks(third).enumerate() {
            assert_lockstep(&mut scan, &mut dense, chunk);
            if i % 2 == 0 {
                scan.clear();
                dense.clear();
                prop_assert!(dense.is_empty());
            }
        }
    }

    #[test]
    fn rehint_mid_trace_preserves_equivalence((capacity, space, trace) in trace_strategy()) {
        // A reused cache re-declared for a larger block space mid-stream
        // (what `SimScratch` does between DAGs, minus the clear) must keep
        // every outcome and the residency order of the scan reference.
        let half = trace.len() / 2;
        let grown = 8 * space + 4_096;
        let mut scan = LruCache::scan(capacity);
        let mut lru = LruCache::with_block_hint(capacity, space);
        assert_lockstep(&mut scan, &mut lru, &trace[..half]);
        lru.rehint(grown);
        let wide: Vec<u32> = trace[half..].iter().map(|&b| b * 31 % grown as u32).collect();
        assert_lockstep(&mut scan, &mut lru, &wide);
    }

    #[test]
    fn eviction_outcomes_carry_identical_blocks((capacity, _space, trace) in trace_strategy()) {
        // Focused check of the evicted-block payload: collect only the
        // misses-with-eviction and compare the victim sequences.
        let mut scan = LruCache::scan(capacity);
        let mut indexed = LruCache::indexed_dense(capacity, 0);
        let victims = |c: &mut LruCache, t: &[u32]| -> Vec<u32> {
            t.iter()
                .filter_map(|&b| match c.access(b) {
                    AccessOutcome::Miss { evicted: Some(v) } => Some(v),
                    _ => None,
                })
                .collect()
        };
        prop_assert_eq!(victims(&mut scan, &trace), victims(&mut indexed, &trace));
    }
}
