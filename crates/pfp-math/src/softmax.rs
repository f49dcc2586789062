//! Numerically-stable softmax utilities.
//!
//! The discriminative DMCP objective (Eq. 6 of the paper) is a pair of
//! categorical cross-entropies over the normalised conditional intensities
//! `λ_c(t)/Σ λ_{c'}(t)`.  With the mutually-correcting intensity
//! `λ_c(t) = exp(θ_c⊤ f_t)` this is exactly a softmax over the linear scores,
//! so the implementation works in log-space throughout.

/// `log Σ exp(x_i)` computed stably via the max trick.
///
/// Returns `-∞` for an empty slice.
pub fn log_sum_exp(scores: &[f64]) -> f64 {
    let m = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        return m;
    }
    let sum: f64 = scores.iter().map(|&x| (x - m).exp()).sum();
    m + sum.ln()
}

/// Replace `scores` with `softmax(scores)` in place.
///
/// The result sums to 1 (up to floating error) and every entry is in `[0, 1]`.
pub fn softmax_in_place(scores: &mut [f64]) {
    let lse = log_sum_exp(scores);
    normalize_in_place(scores, lse);
}

/// Replace `scores` with `exp(scores_i − lse)`, given `lse = log_sum_exp(scores)`.
fn normalize_in_place(scores: &mut [f64], lse: f64) {
    if !lse.is_finite() {
        // All scores were -inf (or the slice is empty): fall back to uniform.
        let n = scores.len().max(1) as f64;
        scores.iter_mut().for_each(|x| *x = 1.0 / n);
        return;
    }
    scores.iter_mut().for_each(|x| *x = (*x - lse).exp());
}

/// Return the cross-entropy of `target` and replace `scores` with
/// `softmax(scores)`, from one log-sum-exp.
///
/// The same bits as [`cross_entropy`]`(scores, target)` followed by
/// [`softmax_in_place`]`(scores)`, which compute the same log-sum-exp twice:
/// the loss is `-(scores[target] − lse)` and each probability is
/// `exp(scores_i − lse)`, with the same uniform fallback when `lse` is not
/// finite.  An all-`-∞` row thus still gives a NaN loss and uniform
/// probabilities.  This is one softmax head of the DMCP objective's fused
/// kernel.
///
/// ```
/// use pfp_math::softmax::{cross_entropy, cross_entropy_softmax_in_place, softmax};
///
/// let scores = [0.5, -1.0, 2.0];
/// let mut probs = scores;
/// let loss = cross_entropy_softmax_in_place(&mut probs, 2);
/// assert_eq!(loss.to_bits(), cross_entropy(&scores, 2).to_bits());
/// assert_eq!(probs.to_vec(), softmax(&scores));
/// ```
pub fn cross_entropy_softmax_in_place(scores: &mut [f64], target: usize) -> f64 {
    let lse = log_sum_exp(scores);
    let loss = -(scores[target] - lse);
    normalize_in_place(scores, lse);
    loss
}

/// Softmax into a freshly-allocated vector.
pub fn softmax(scores: &[f64]) -> Vec<f64> {
    let mut out = scores.to_vec();
    softmax_in_place(&mut out);
    out
}

/// Log-probability of class `target` under a softmax over `scores`.
pub fn log_softmax_at(scores: &[f64], target: usize) -> f64 {
    scores[target] - log_sum_exp(scores)
}

/// Negative log-likelihood of `target` under a softmax over `scores`
/// (categorical cross-entropy for a one-hot label).
pub fn cross_entropy(scores: &[f64], target: usize) -> f64 {
    -log_softmax_at(scores, target)
}

/// Index of the maximum score (ties broken towards the lower index).
pub fn argmax(scores: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in scores.iter().enumerate() {
        if v > scores[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sum_exp_matches_naive_for_small_values() {
        let x: [f64; 3] = [0.1, 0.2, 0.3];
        let naive = x.iter().map(|v| v.exp()).sum::<f64>().ln();
        assert!((log_sum_exp(&x) - naive).abs() < 1e-12);
    }

    #[test]
    fn log_sum_exp_is_stable_for_large_values() {
        let x = [1000.0, 1000.0];
        let v = log_sum_exp(&x);
        assert!(v.is_finite());
        assert!((v - (1000.0 + 2.0_f64.ln())).abs() < 1e-9);
    }

    #[test]
    fn softmax_sums_to_one_and_preserves_order() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let s: f64 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_of_uniform_scores_is_uniform() {
        let p = softmax(&[5.0, 5.0, 5.0, 5.0]);
        for &v in &p {
            assert!((v - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn softmax_handles_all_neg_infinity() {
        let p = softmax(&[f64::NEG_INFINITY, f64::NEG_INFINITY]);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_is_low_for_confident_correct_prediction() {
        let ce_good = cross_entropy(&[10.0, 0.0, 0.0], 0);
        let ce_bad = cross_entropy(&[10.0, 0.0, 0.0], 1);
        assert!(ce_good < 0.01);
        assert!(ce_bad > 5.0);
    }

    #[test]
    fn cross_entropy_of_uniform_is_log_k() {
        let ce = cross_entropy(&[0.0, 0.0, 0.0, 0.0], 2);
        assert!((ce - (4.0_f64).ln()).abs() < 1e-12);
    }

    /// `cross_entropy` then `softmax_in_place`: the two-call form the fused
    /// head must reproduce bit for bit.
    fn two_call(scores: &[f64], target: usize) -> (f64, Vec<f64>) {
        let loss = cross_entropy(scores, target);
        let mut probs = scores.to_vec();
        softmax_in_place(&mut probs);
        (loss, probs)
    }

    fn assert_fused_matches_two_call(scores: &[f64], target: usize) {
        let (loss, probs) = two_call(scores, target);
        let mut fused = scores.to_vec();
        let fused_loss = cross_entropy_softmax_in_place(&mut fused, target);
        assert_eq!(fused_loss.to_bits(), loss.to_bits(), "loss of {scores:?}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fused), bits(&probs), "probabilities of {scores:?}");
    }

    #[test]
    fn fused_head_matches_two_call_form_bitwise() {
        let rows: [&[f64]; 5] = [
            &[0.1, -2.3, 4.7, 0.0, -0.0, 1e-300],
            &[3.0, 3.0, 3.0],
            &[700.0, -700.0, 699.5, -699.9],
            &[-700.0, -700.0, -701.0],
            &[f64::NEG_INFINITY, 1.5, f64::NEG_INFINITY],
        ];
        for row in rows {
            for target in 0..row.len() {
                assert_fused_matches_two_call(row, target);
            }
        }
    }

    #[test]
    fn fused_head_of_one_class_is_zero_loss_and_certainty() {
        assert_fused_matches_two_call(&[-3.25], 0);
        let mut one = [42.0];
        assert_eq!(cross_entropy_softmax_in_place(&mut one, 0), 0.0);
        assert_eq!(one, [1.0]);
    }

    /// An all-`-∞` row has no finite log-sum-exp: the loss is NaN and the
    /// probabilities fall back to uniform, exactly as the two-call form.
    #[test]
    fn fused_head_of_all_neg_infinity_is_nan_loss_and_uniform() {
        let row = [f64::NEG_INFINITY; 4];
        assert_fused_matches_two_call(&row, 1);
        let mut probs = row;
        assert!(cross_entropy_softmax_in_place(&mut probs, 1).is_nan());
        assert_eq!(probs, [0.25; 4]);
    }

    #[test]
    fn argmax_picks_first_of_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[-1.0]), 0);
    }
}
