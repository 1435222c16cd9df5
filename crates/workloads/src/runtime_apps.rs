//! Closure-based versions of the application workloads for the real
//! runtime (`wsf-runtime`).
//!
//! These exercise the structured single-touch discipline on real threads:
//! every future handle is touched exactly once (the API enforces it), and
//! the same kernels exist as DAGs in [`crate::apps`] so simulator and
//! runtime results can be compared side by side. The suite families
//! (mergesort, stencils, batched pipeline) have no closure version: the
//! real pool executes their own DAGs through [`crate::dag_exec`].

use std::sync::Arc;
use wsf_runtime::Runtime;

/// Parallel Fibonacci with one future per recursive call.
pub fn fib(rt: &Arc<Runtime>, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let rt2 = Arc::clone(rt);
    let left = rt.spawn_future(move || fib(&rt2, n - 1));
    let right = fib(rt, n - 2);
    left.touch() + right
}

/// Parallel sum of `data[lo..hi]` by divide and conquer with the given
/// sequential `grain`.
pub fn sum(rt: &Arc<Runtime>, data: &Arc<Vec<u64>>, lo: usize, hi: usize, grain: usize) -> u64 {
    if hi - lo <= grain.max(1) {
        return data[lo..hi].iter().sum();
    }
    let mid = lo + (hi - lo) / 2;
    let rt2 = Arc::clone(rt);
    let data2 = Arc::clone(data);
    let left = rt.spawn_future(move || sum(&rt2, &data2, lo, mid, grain));
    let right = sum(rt, data, mid, hi, grain);
    left.touch() + right
}

/// Creates `ways` mapper futures and touches them in creation order
/// (the Figure 5(a) pattern), reducing with `combine`.
pub fn map_reduce<T, M, C>(rt: &Arc<Runtime>, ways: usize, map: M, combine: C) -> Option<T>
where
    T: Send + 'static,
    M: Fn(usize) -> T + Send + Sync + 'static,
    C: Fn(T, T) -> T,
{
    let map = Arc::new(map);
    let futures: Vec<_> = (0..ways)
        .map(|w| {
            let map = Arc::clone(&map);
            rt.spawn_future(move || map(w))
        })
        .collect();
    futures.into_iter().map(|f| f.touch()).reduce(combine)
}

/// A two-stage pipeline: a producer future computes a batch, a transformer
/// future (which receives the producer's handle — the Figure 5(b) pattern)
/// touches it and post-processes it, and the caller touches the
/// transformer.
pub fn pipeline(rt: &Arc<Runtime>, items: usize) -> Vec<u64> {
    let producer = rt.spawn_future(move || (0..items as u64).collect::<Vec<u64>>());
    let transformer = rt.spawn_future(move || {
        producer
            .touch()
            .into_iter()
            .map(|x| x * x + 1)
            .collect::<Vec<u64>>()
    });
    transformer.touch()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsf_runtime::SpawnPolicy;

    fn runtimes() -> Vec<Arc<Runtime>> {
        SpawnPolicy::ALL
            .iter()
            .map(|&p| Arc::new(Runtime::builder().threads(2).policy(p).build()))
            .collect()
    }

    #[test]
    fn fib_matches_reference() {
        for rt in runtimes() {
            assert_eq!(fib(&rt, 16), 987);
        }
    }

    #[test]
    fn sum_matches_reference() {
        let data: Arc<Vec<u64>> = Arc::new((0..10_000).collect());
        let expected: u64 = data.iter().sum();
        for rt in runtimes() {
            assert_eq!(sum(&rt, &data, 0, data.len(), 64), expected);
        }
    }

    #[test]
    fn map_reduce_touches_in_creation_order() {
        for rt in runtimes() {
            let result = map_reduce(&rt, 16, |w| w as u64 * 10, |a, b| a + b);
            assert_eq!(result, Some((0..16u64).map(|w| w * 10).sum()));
        }
    }

    #[test]
    fn pipeline_composes_futures() {
        for rt in runtimes() {
            let out = pipeline(&rt, 100);
            assert_eq!(out.len(), 100);
            assert_eq!(out[3], 10);
        }
    }
}
