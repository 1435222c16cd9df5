//! Differential cache check on the symmetric-exchange stencil: replaying
//! one instance's sequential block trace through the scan and indexed
//! cache representations must produce access-for-access identical
//! outcomes (including which block each miss evicts).
//!
//! The cache crate's own differential suite drives random traces; this
//! test pins the *workload-shaped* trace — interior blocks re-touched
//! every step interleaved with write-once boundary copies — which is
//! exactly the reuse pattern the E16 capacity sweep measures.

use wsf_cache::{Cache, LruCache};
use wsf_core::{ForkPolicy, SequentialExecutor};
use wsf_workloads::stencil::stencil_exchange;

/// The sequential-order block trace of one exchange instance.
fn trace(rows: usize, width: usize, steps: usize) -> (Vec<u32>, usize) {
    let dag = stencil_exchange(rows, width, steps);
    let seq = SequentialExecutor::new(ForkPolicy::FutureFirst).run(&dag);
    let trace = seq
        .order()
        .iter()
        .filter_map(|&n| dag.block_of(n))
        .map(|b| b.0)
        .collect();
    (trace, dag.block_space())
}

fn assert_identical(name: &str, reference: &mut dyn Cache, candidate: &mut dyn Cache, t: &[u32]) {
    for (i, &b) in t.iter().enumerate() {
        let want = reference.access(b);
        let got = candidate.access(b);
        assert_eq!(want, got, "{name}: access #{i} (block {b}) diverged");
    }
}

#[test]
fn exchange_trace_is_identical_under_scan_and_indexed_lru() {
    let (t, space) = trace(8, 24, 6);
    assert!(t.len() > 1_000, "trace too small to be meaningful");
    // Capacities straddling the working set, all above and below the
    // adaptive crossover.
    for c in [4usize, 16, 64, 256] {
        assert_identical(
            &format!("lru/hash C={c}"),
            &mut LruCache::scan(c),
            &mut LruCache::indexed(c),
            &t,
        );
        assert_identical(
            &format!("lru/dense C={c}"),
            &mut LruCache::scan(c),
            &mut LruCache::indexed_dense(c, space),
            &t,
        );
    }
}
