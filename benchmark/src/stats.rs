//! Order statistics, timing and hashing helpers shared by the workloads.

use std::time::Instant;

/// Sorts `xs` in place and returns its median (0 when empty).
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// The `q`-quantile (nearest rank) of an ascending slice, or `None` when
/// fewer than ten samples lie beyond it: a percentile with a handful of
/// samples above it is one slow request, not a property of the system.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((n as f64 * q).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + 10).then(|| sorted[rank - 1])
}

/// Median wall seconds of `samples` calls of `f`, after one warm-up call.
pub fn time_median<R>(samples: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut times)
}

pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over `bytes`, continuing from `state` (start from [`FNV_OFFSET`]).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), Some(990.0));
        assert_eq!(quantile(&xs[..999], 0.99), None, "990th of 999 leaves 9");
        assert_eq!(quantile(&xs[..100], 0.9), Some(90.0));
        assert_eq!(quantile(&xs[..99], 0.9), None);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
