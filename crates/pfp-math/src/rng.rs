//! Seeded sampling helpers.
//!
//! Every stochastic component of the workspace (cohort generation, point
//! process simulation, parameter initialisation, fold shuffling) takes an
//! explicit `u64` seed so experiments are reproducible.  This module wraps the
//! handful of `rand` calls the workspace needs behind small, testable
//! functions.

use rand::prelude::*;
use rand::rngs::StdRng;

/// Deterministic RNG from a `u64` seed.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derive a stream-specific seed from a base seed and a stream index.
///
/// SplitMix64-style mixing, so nearby `(seed, stream)` pairs give unrelated
/// generators.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sample an index proportionally to the non-negative `weights`.
///
/// Falls back to a uniform draw if every weight is zero or negative.
pub fn sample_categorical(rng: &mut impl Rng, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "cannot sample from empty weights");
    let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
    if total <= 0.0 {
        return rng.gen_range(0..weights.len());
    }
    let mut u = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if w.is_finite() && w > 0.0 {
            u -= w;
            if u <= 0.0 {
                return i;
            }
        }
    }
    weights.len() - 1
}

/// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
pub fn bernoulli(rng: &mut impl Rng, p: f64) -> bool {
    rng.gen::<f64>() < p.clamp(0.0, 1.0)
}

/// Exponential sample with the given `rate` (mean `1/rate`).
pub fn exponential(rng: &mut impl Rng, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    let u: f64 = rng.gen::<f64>().max(1e-12);
    -u.ln() / rate
}

/// Fisher–Yates shuffle of indices `0..n`.
pub fn shuffled_indices(rng: &mut impl Rng, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx
}

/// Sample `k` distinct indices from `0..n` (k ≤ n), in random order.
pub fn sample_without_replacement(rng: &mut impl Rng, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} items from {n}");
    let mut idx = shuffled_indices(rng, n);
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_reproducible() {
        let a: Vec<f64> = {
            let mut r = seeded_rng(42);
            (0..5).map(|_| r.gen()).collect()
        };
        let b: Vec<f64> = {
            let mut r = seeded_rng(42);
            (0..5).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn derive_seed_differs_across_streams() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }

    #[test]
    fn sample_categorical_respects_weights() {
        let mut rng = seeded_rng(1);
        let weights = [0.0, 0.0, 1.0];
        for _ in 0..100 {
            assert_eq!(sample_categorical(&mut rng, &weights), 2);
        }
    }

    #[test]
    fn sample_categorical_approximates_distribution() {
        let mut rng = seeded_rng(2);
        let weights = [1.0, 3.0];
        let mut counts = [0usize; 2];
        for _ in 0..20_000 {
            counts[sample_categorical(&mut rng, &weights)] += 1;
        }
        let p1 = counts[1] as f64 / 20_000.0;
        assert!((p1 - 0.75).abs() < 0.02, "p1 = {p1}");
    }

    #[test]
    fn sample_categorical_uniform_fallback_for_zero_weights() {
        let mut rng = seeded_rng(3);
        let weights = [0.0, 0.0, 0.0];
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[sample_categorical(&mut rng, &weights)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exponential_mean_is_roughly_one_over_rate() {
        let mut rng = seeded_rng(4);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut rng, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn shuffled_indices_is_a_permutation() {
        let mut rng = seeded_rng(6);
        let mut idx = shuffled_indices(&mut rng, 50);
        idx.sort_unstable();
        assert_eq!(idx, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_without_replacement_has_distinct_elements() {
        let mut rng = seeded_rng(7);
        let s = sample_without_replacement(&mut rng, 10, 6);
        assert_eq!(s.len(), 6);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = seeded_rng(8);
        assert!(!bernoulli(&mut rng, 0.0));
        assert!(bernoulli(&mut rng, 1.0));
    }
}
