//! Proximal operators for the `ℓ_{1,2}` (group-lasso) regulariser.
//!
//! In the paper each feature dimension `m` is a group: the corresponding row
//! `Θ_m ∈ R^{C+D}` of the parameter matrix is either suppressed to zero or
//! shrunk towards zero as a whole, so a feature is selected (or not) *jointly*
//! for the destination-CU and duration models.

use pfp_math::Matrix;

/// Group soft-threshold of a vector: `max(0, 1 − τ/‖v‖₂) · v`.
pub fn group_soft_threshold(v: &mut [f64], tau: f64) {
    debug_assert!(tau >= 0.0);
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm <= tau {
        v.iter_mut().for_each(|x| *x = 0.0);
    } else {
        let scale = 1.0 - tau / norm;
        v.iter_mut().for_each(|x| *x *= scale);
    }
}

/// Row-wise group soft-threshold: the proximal operator of
/// `τ · Σ_m ‖X_m‖₂` evaluated at `v`, writing the result into a new matrix.
///
/// This is the exact X-update of Algorithm 1 with `τ = γ/ρ`.
pub fn prox_group_lasso(v: &Matrix, tau: f64) -> Matrix {
    let mut out = v.clone();
    for r in 0..out.rows() {
        group_soft_threshold(out.row_mut(r), tau);
    }
    out
}

/// Row-wise group soft-threshold applied in place.
pub fn prox_group_lasso_in_place(v: &mut Matrix, tau: f64) {
    for r in 0..v.rows() {
        group_soft_threshold(v.row_mut(r), tau);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_soft_threshold_zeroes_small_rows() {
        let mut v = vec![0.3, 0.4]; // norm 0.5
        group_soft_threshold(&mut v, 0.6);
        assert_eq!(v, vec![0.0, 0.0]);
    }

    #[test]
    fn group_soft_threshold_preserves_direction() {
        let mut v = vec![3.0, 4.0]; // norm 5
        group_soft_threshold(&mut v, 1.0);
        // Shrunk to norm 4, same direction.
        let norm = (v[0] * v[0] + v[1] * v[1]).sqrt();
        assert!((norm - 4.0).abs() < 1e-12);
        assert!((v[0] / v[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn prox_group_lasso_acts_row_wise() {
        let v = Matrix::from_vec(2, 2, vec![3.0, 4.0, 0.1, 0.1]);
        let p = prox_group_lasso(&v, 1.0);
        assert!((p.row_l2_norm(0) - 4.0).abs() < 1e-12);
        assert_eq!(p.row(1), &[0.0, 0.0]);
        assert_eq!(p.zero_rows(), 1);
    }

    #[test]
    fn prox_with_zero_tau_is_identity() {
        let v = Matrix::from_vec(2, 3, vec![1.0, -2.0, 3.0, 0.0, 0.5, -0.5]);
        let p = prox_group_lasso(&v, 0.0);
        assert_eq!(p, v);
    }

    #[test]
    fn prox_in_place_matches_out_of_place() {
        let v = Matrix::from_vec(3, 2, vec![1.0, 1.0, 0.2, 0.2, -3.0, 4.0]);
        let out = prox_group_lasso(&v, 0.5);
        let mut inplace = v.clone();
        prox_group_lasso_in_place(&mut inplace, 0.5);
        assert_eq!(out, inplace);
    }

    #[test]
    fn prox_is_non_expansive() {
        // ‖prox(a) − prox(b)‖_F ≤ ‖a − b‖_F for proximal operators.
        let a = Matrix::from_vec(2, 2, vec![2.0, -1.0, 0.3, 0.1]);
        let b = Matrix::from_vec(2, 2, vec![-1.0, 0.5, 0.2, 0.9]);
        let pa = prox_group_lasso(&a, 0.7);
        let pb = prox_group_lasso(&b, 0.7);
        assert!(pa.sub(&pb).frobenius_norm() <= a.sub(&b).frobenius_norm() + 1e-12);
    }
}
