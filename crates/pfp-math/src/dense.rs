//! Row-major dense matrix and dense vector helpers.
//!
//! The matrix is deliberately simple: a `Vec<f64>` with `rows × cols` layout
//! and the handful of operations the DMCP trainer needs (row access, scaled
//! accumulation, Frobenius norms, row-group norms for the `ℓ_{1,2}`
//! regulariser).  No BLAS, no generics over scalars — the whole workspace is
//! `f64`.

use serde::{Deserialize, Serialize};

/// A dense row-major `rows × cols` matrix of `f64`.
///
/// In the DMCP model the convention is `rows = M` feature dimensions
/// (the group-lasso groups) and `cols = C + D` output classes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Create a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable access to element `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable access to element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Add `v` to element `(r, c)`.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] += v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major data slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable row-major data slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Fill the whole matrix with `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Element-wise `self += alpha * other`.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn add_scaled(&mut self, other: &Matrix, alpha: f64) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add_scaled");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Element-wise `self *= alpha`.
    pub fn scale(&mut self, alpha: f64) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// Return `self - other` as a new matrix.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in sub");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Return `self + other` as a new matrix.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Overwrite `self` with the contents of `src` (no allocation).
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn copy_from(&mut self, src: &Matrix) {
        assert_eq!(self.shape(), src.shape(), "shape mismatch in copy_from");
        self.data.copy_from_slice(&src.data);
    }

    /// Frobenius norm `sqrt(Σ a_ij²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// `‖self − other‖_F` without materialising the difference.
    ///
    /// Bitwise equal to `self.sub(other).frobenius_norm()` — the elementwise
    /// subtractions, squarings, and the summation order are identical — but
    /// allocation-free, for the ADMM driver's per-outer residuals.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn diff_frobenius_norm(&self, other: &Matrix) -> f64 {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch in diff_frobenius_norm"
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Squared Frobenius norm.
    pub fn frobenius_norm_sq(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>()
    }

    /// `ℓ2` norm of row `r`.
    pub fn row_l2_norm(&self, r: usize) -> f64 {
        self.row(r).iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// `ℓ_{1,2}` norm: the sum of the `ℓ2` norms of the rows.
    ///
    /// This is the group-lasso penalty used by the paper, with one group per
    /// feature dimension (matrix row).
    pub fn l12_norm(&self) -> f64 {
        (0..self.rows).map(|r| self.row_l2_norm(r)).sum()
    }

    /// Relative change `‖a − b‖_F / max(‖a‖_F, ε)` used as the convergence
    /// criterion of Algorithm 1.
    pub fn relative_change(&self, previous: &Matrix) -> f64 {
        let denom = self.frobenius_norm().max(1e-12);
        self.sub(previous).frobenius_norm() / denom
    }

    /// Number of rows whose `ℓ2` norm is exactly zero (fully suppressed
    /// feature groups after the group-lasso proximal step).
    pub fn zero_rows(&self) -> usize {
        (0..self.rows)
            .filter(|&r| self.row(r).iter().all(|&x| x == 0.0))
            .count()
    }

    /// `out[k] += alpha * self[r][k]` for all columns `k`.
    ///
    /// General row primitive (used by [`Self::matvec_t`]).  The hot sparse
    /// kernel `SparseVec::accumulate_scores` inlines this same loop against
    /// the raw data slice — keep the two in sync.
    #[inline]
    pub fn axpy_row_into(&self, r: usize, alpha: f64, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.cols);
        for (o, v) in out.iter_mut().zip(self.row(r).iter()) {
            *o += alpha * v;
        }
    }

    /// Dense matrix–vector product `self · x` (x has `cols` entries).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows).map(|r| dot(self.row(r), x)).collect()
    }

    /// Transposed matrix–vector product `selfᵀ · x` (x has `rows` entries).
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            self.axpy_row_into(r, xr, &mut out);
        }
        out
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// True if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

/// Solve the square linear system `A x = b` by Gaussian elimination with
/// partial pivoting.  Returns `None` when `A` is (numerically) singular.
///
/// Intended for the small dense systems of the workspace (e.g. the
/// `(C+D) × (C+D)` ridge normal equations of the VAR baseline), not for
/// large-scale use.
pub fn solve_linear_system(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "solve_linear_system requires a square matrix");
    assert_eq!(b.len(), n, "right-hand side length mismatch");
    // Augmented matrix [A | b].
    let mut aug = vec![0.0; n * (n + 1)];
    for r in 0..n {
        for c in 0..n {
            aug[r * (n + 1) + c] = a.get(r, c);
        }
        aug[r * (n + 1) + n] = b[r];
    }
    for col in 0..n {
        // Partial pivot.
        let mut pivot = col;
        for r in col + 1..n {
            if aug[r * (n + 1) + col].abs() > aug[pivot * (n + 1) + col].abs() {
                pivot = r;
            }
        }
        if aug[pivot * (n + 1) + col].abs() < 1e-12 {
            return None;
        }
        if pivot != col {
            for c in 0..=n {
                aug.swap(col * (n + 1) + c, pivot * (n + 1) + c);
            }
        }
        let diag = aug[col * (n + 1) + col];
        for r in 0..n {
            if r == col {
                continue;
            }
            let factor = aug[r * (n + 1) + col] / diag;
            if factor == 0.0 {
                continue;
            }
            for c in col..=n {
                aug[r * (n + 1) + c] -= factor * aug[col * (n + 1) + c];
            }
        }
    }
    Some(
        (0..n)
            .map(|r| aug[r * (n + 1) + n] / aug[r * (n + 1) + r])
            .collect(),
    )
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
#[inline]
pub fn l2_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Scale a slice in place.
#[inline]
pub fn scale(x: &mut [f64], alpha: f64) {
    x.iter_mut().for_each(|v| *v *= alpha);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_and_get_agree() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(1, 2), 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn add_scaled_matches_manual_computation() {
        let mut a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![10.0, 20.0, 30.0, 40.0]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.as_slice(), &[6.0, 12.0, 18.0, 24.0]);
    }

    #[test]
    fn frobenius_norm_of_identity_like() {
        let m = Matrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert!((m.frobenius_norm_sq() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn diff_frobenius_norm_is_bitwise_the_allocating_path() {
        let a = Matrix::from_fn(3, 4, |r, c| 0.7 * (r as f64) - 1.3 * (c as f64) + 0.01);
        let b = Matrix::from_fn(3, 4, |r, c| -0.2 * (r as f64) + 0.4 * (c as f64 + 1.0));
        let fused = a.diff_frobenius_norm(&b);
        let allocating = a.sub(&b).frobenius_norm();
        assert_eq!(fused.to_bits(), allocating.to_bits());
        assert_eq!(a.diff_frobenius_norm(&a), 0.0);
    }

    #[test]
    fn copy_from_overwrites_in_place() {
        let src = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
        let mut dst = Matrix::from_fn(2, 3, |_, _| -1.0);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "shape mismatch in copy_from")]
    fn copy_from_rejects_shape_mismatch() {
        let src = Matrix::zeros(2, 2);
        let mut dst = Matrix::zeros(2, 3);
        dst.copy_from(&src);
    }

    #[test]
    fn l12_norm_sums_row_norms() {
        let m = Matrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 2.0]);
        assert!((m.l12_norm() - (5.0 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn relative_change_is_zero_for_identical_matrices() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert!(m.relative_change(&m.clone()) < 1e-15);
    }

    #[test]
    fn zero_rows_counts_suppressed_groups() {
        let m = Matrix::from_vec(3, 2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0]);
        assert_eq!(m.zero_rows(), 2);
    }

    #[test]
    fn axpy_row_into_accumulates() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut out = vec![1.0, 1.0, 1.0];
        m.axpy_row_into(1, 2.0, &mut out);
        assert_eq!(out, vec![9.0, 11.0, 13.0]);
    }

    #[test]
    fn matvec_and_matvec_t_are_consistent() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = vec![1.0, 0.0, -1.0];
        assert_eq!(m.matvec(&x), vec![-2.0, -2.0]);
        let y = vec![1.0, 1.0];
        assert_eq!(m.matvec_t(&y), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn dot_axpy_norm_helpers() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        let mut z = [1.0, -2.0];
        scale(&mut z, -3.0);
        assert_eq!(z, [-3.0, 6.0]);
    }

    #[test]
    fn solve_linear_system_recovers_known_solution() {
        let a = Matrix::from_vec(3, 3, vec![4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0]);
        let x_true = [1.0, -2.0, 3.0];
        let b = a.matvec(&x_true);
        let x = solve_linear_system(&a, &b).expect("solvable");
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_linear_system_detects_singularity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(solve_linear_system(&a, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn solve_linear_system_handles_permuted_rows() {
        // Requires pivoting: leading zero on the diagonal.
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = solve_linear_system(&a, &[5.0, 7.0]).expect("solvable");
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = Matrix::zeros(1, 2);
        assert!(m.is_finite());
        m.set(0, 1, f64::NAN);
        assert!(!m.is_finite());
    }

    #[test]
    fn max_abs_finds_largest_magnitude() {
        let m = Matrix::from_vec(1, 3, vec![-7.0, 2.0, 5.0]);
        assert_eq!(m.max_abs(), 7.0);
    }
}
