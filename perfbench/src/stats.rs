//! The benchmark's own statistics: nearest-rank percentiles, the rule for
//! which percentile a sample supports, and seeded Poisson arrival schedules.

use pfp_math::rng::{exponential, seeded_rng};

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending sample: the
/// smallest value with at least `p`% of the sample at or below it.
///
/// # Panics
/// Panics on an empty sample or `p` outside (0, 100].
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values), 50.0)
}

/// A copy of `values` in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are finite"));
    v
}

/// How many samples lie strictly above the nearest-rank position of `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Whether a sample of `n` values supports reporting percentile `p`: at
/// least ten samples must lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= 10
}

/// Percentile `p` of an ascending sample, or `None` (with the reason left to
/// the caller) when fewer than ten samples lie beyond it.
pub fn reported_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    supports(sorted.len(), p).then(|| nearest_rank(sorted, p))
}

/// Send offsets (seconds from the start of a step) of `n` Poisson arrivals
/// at `rate` per second, drawn from `seed`.
pub fn poisson_schedule(rate: f64, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = seeded_rng(seed);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += exponential(&mut rng, rate);
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_value_covering_p() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50.0);
        assert_eq!(nearest_rank(&v, 99.0), 99.0);
        assert_eq!(nearest_rank(&v, 100.0), 100.0);
        assert_eq!(nearest_rank(&v, 0.5), 1.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
        let w = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&w, 50.0), 2.0);
        assert_eq!(nearest_rank(&w, 51.0), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn nearest_rank_rejects_an_empty_sample() {
        nearest_rank(&[], 50.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert!(!supports(0, 50.0));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(reported_percentile(&v, 99.0), None);
        assert_eq!(reported_percentile(&v, 90.0), Some(900.0));
    }

    #[test]
    fn poisson_schedule_is_reproducible_from_its_seed() {
        let a = poisson_schedule(40_000.0, 5_000, 7);
        assert_eq!(a, poisson_schedule(40_000.0, 5_000, 7));
        assert_ne!(a, poisson_schedule(40_000.0, 5_000, 8));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "offsets must increase");
        // Mean gap 1/rate: 5,000 arrivals at 40k/s span ≈ 0.125 s.
        let span = *a.last().unwrap();
        assert!((span - 0.125).abs() < 0.01, "span {span}");
    }
}
