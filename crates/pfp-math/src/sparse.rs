//! Sparse feature vectors.
//!
//! EHR feature vectors are extremely sparse — a patient receives a handful of
//! treatments out of thousands of possible items — so the DMCP feature map
//! `f_t` is represented as a sorted list of `(index, value)` pairs.  Binary
//! indicator vectors are the special case where every value is `1.0`.

use serde::{Deserialize, Serialize};

use crate::dense::Matrix;

/// A sparse vector with sorted, unique indices.
///
/// Indices and values are stored as two parallel arrays (structure-of-arrays)
/// rather than one `Vec<(u32, f64)>`: the hot kernels walk both with a single
/// induction variable, the `u32` indices pack twice as densely in cache as
/// padded pairs would, and the value array stays contiguous for the
/// multiply-accumulate loops.
///
/// ```
/// use pfp_math::SparseVec;
///
/// let v = SparseVec::from_pairs(8, vec![(6, 0.5), (1, 2.0), (6, 0.25)]);
/// assert_eq!(v.nnz(), 2);           // duplicates merged
/// assert_eq!(v.get(6), 0.75);       // 0.5 + 0.25
/// assert_eq!(v.get(0), 0.0);        // absent entries read as zero
/// assert_eq!(v.indices(), &[1, 6]); // always sorted
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SparseVec {
    dim: usize,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVec {
    /// Empty sparse vector of dimensionality `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Build from `(index, value)` pairs.
    ///
    /// Indices are sorted, duplicates are summed, explicit zeros are removed.
    /// Duplicates are summed left to right in input order (the sort is
    /// stable), so the bits of a sum never depend on the sort algorithm:
    /// `(5, 1e16), (5, 1.0), (5, -1e16)` gives `0.0` (`1e16 + 1.0` rounds
    /// back to `1e16`) and is pruned, while `(5, 1e16), (5, -1e16), (5, 1.0)`
    /// gives `1.0`.
    pub fn from_pairs(dim: usize, pairs: impl IntoIterator<Item = (u32, f64)>) -> Self {
        let mut pairs: Vec<(u32, f64)> = pairs.into_iter().collect();
        pairs.sort_by_key(|&(i, _)| i);
        if let Some(&(max, _)) = pairs.last() {
            assert!(
                (max as usize) < dim,
                "index {max} out of bounds for dim {dim}"
            );
        }
        // Sized to the distinct indices: a featurized history repeats many.
        let distinct =
            usize::from(!pairs.is_empty()) + pairs.windows(2).filter(|w| w[0].0 != w[1].0).count();
        let mut indices = Vec::with_capacity(distinct);
        let mut values: Vec<f64> = Vec::with_capacity(distinct);
        for (i, v) in pairs {
            if indices.last() == Some(&i) {
                *values.last_mut().expect("values parallel to indices") += v;
            } else {
                indices.push(i);
                values.push(v);
            }
        }
        let mut out = Self {
            dim,
            indices,
            values,
        };
        out.prune_zeros();
        out
    }

    /// Build a binary indicator vector from a set of active indices; an index
    /// listed `k` times stores the value `k`.
    ///
    /// The indices are sorted in place and each run of equal indices is
    /// merged into one entry, so a `Vec` argument is reused as the index
    /// array and the values are the only other allocation.  `k` is the same
    /// bits as summing `k` ones.
    pub fn binary(dim: usize, active: impl IntoIterator<Item = u32>) -> Self {
        let mut v = Self {
            dim,
            indices: active.into_iter().collect(),
            values: Vec::new(),
        };
        v.merge_binary_runs();
        v
    }

    /// Rebuild `self` in place as [`binary`](Self::binary)`(dim, a ++ b)`
    /// from two sorted index lists, without sorting: one merge writes each
    /// index once, an index listed `k` times across both lists storing the
    /// value `k`.  Both arrays keep their capacity, so a vector refilled over
    /// and over stops allocating once it has held its largest content.
    ///
    /// # Panics
    /// Panics if either list is not sorted (non-decreasing) or an index is
    /// out of range.
    ///
    /// ```
    /// use pfp_math::SparseVec;
    ///
    /// let mut v = SparseVec::binary(4, vec![1, 2]);
    /// v.refill_binary_merged(6, &[0, 5, 5], &[2, 5]);
    /// assert_eq!(v.indices(), &[0, 2, 5]);
    /// assert_eq!(v.values(), &[1.0, 1.0, 3.0]);
    /// assert_eq!(v, SparseVec::binary(6, vec![5, 0, 5, 2, 5]));
    /// ```
    pub fn refill_binary_merged(&mut self, dim: usize, a: &[u32], b: &[u32]) {
        assert!(
            a.is_sorted() && b.is_sorted(),
            "merged index lists must be sorted"
        );
        if let Some(&max) = a.last().max(b.last()) {
            assert!(
                (max as usize) < dim,
                "index {max} out of bounds for dim {dim}"
            );
        }
        self.dim = dim;
        let (indices, values) = (&mut self.indices, &mut self.values);
        indices.clear();
        values.clear();
        indices.reserve(a.len() + b.len());
        values.reserve(a.len() + b.len());
        let mut push = |i: u32| {
            if indices.last() == Some(&i) {
                *values.last_mut().expect("values parallel to indices") += 1.0;
            } else {
                indices.push(i);
                values.push(1.0);
            }
        };
        let (mut ia, mut ib) = (0, 0);
        while ia < a.len() && ib < b.len() {
            // Select rather than branch: which list runs next is data.
            let from_b = b[ib] < a[ia];
            push(if from_b { b[ib] } else { a[ia] });
            ib += usize::from(from_b);
            ia += usize::from(!from_b);
        }
        a[ia..].iter().chain(&b[ib..]).for_each(|&i| push(i));
    }

    /// Turn the index array, holding active indices in any order, into the
    /// sorted indices of a binary vector and their multiplicities.
    fn merge_binary_runs(&mut self) {
        let (dim, indices) = (self.dim, &mut self.indices);
        indices.sort_unstable();
        if let Some(&max) = indices.last() {
            assert!(
                (max as usize) < dim,
                "index {max} out of bounds for dim {dim}"
            );
        }
        let values = &mut self.values;
        values.clear();
        values.reserve(indices.len());
        let mut kept = 0;
        for k in 0..indices.len() {
            let i = indices[k];
            if kept > 0 && indices[kept - 1] == i {
                *values.last_mut().expect("values parallel to indices") += 1.0;
            } else {
                indices[kept] = i;
                values.push(1.0);
                kept += 1;
            }
        }
        indices.truncate(kept);
    }

    /// Build from strictly increasing `indices` and their parallel `values`,
    /// taking both arrays as they are (no sort, merge or pruning).
    ///
    /// # Panics
    /// Panics if the arrays differ in length, the indices are not strictly
    /// increasing, or an index is out of range.
    pub fn from_sorted_parts(dim: usize, indices: Vec<u32>, values: Vec<f64>) -> Self {
        assert_eq!(
            indices.len(),
            values.len(),
            "indices and values differ in length"
        );
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "indices must be strictly increasing"
        );
        if let Some(&max) = indices.last() {
            assert!(
                (max as usize) < dim,
                "index {max} out of bounds for dim {dim}"
            );
        }
        Self {
            dim,
            indices,
            values,
        }
    }

    /// Dimensionality of the (conceptually dense) vector.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored nonzero entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// True if no nonzero entries are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Iterate `(index, value)` pairs in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// The sorted nonzero indices (parallel to [`Self::values`]).
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The nonzero values (parallel to [`Self::indices`]).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value at `index` (zero when absent).
    ///
    /// A binary search over the sorted index array — `O(log nnz)`, never a
    /// linear scan (exercised up to nnz ≈ 1000 in the unit tests).
    pub fn get(&self, index: u32) -> f64 {
        match self.indices.binary_search(&index) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Storage position of `index`, if present — the binary-search primitive
    /// behind [`Self::get`], exposed for callers that need the parallel-array
    /// offset rather than the value.
    #[inline]
    pub fn position(&self, index: u32) -> Option<usize> {
        self.indices.binary_search(&index).ok()
    }

    /// Add `value` at `index` (inserting if absent).
    pub fn add(&mut self, index: u32, value: f64) {
        assert!((index as usize) < self.dim, "index {index} out of bounds");
        match self.indices.binary_search(&index) {
            Ok(pos) => self.values[pos] += value,
            Err(pos) => {
                self.indices.insert(pos, index);
                self.values.insert(pos, value);
            }
        }
    }

    /// Remove stored entries that are exactly zero, compacting in place.
    pub fn prune_zeros(&mut self) {
        let mut kept = 0;
        for k in 0..self.values.len() {
            let v = self.values[k];
            if v != 0.0 {
                self.indices[kept] = self.indices[k];
                self.values[kept] = v;
                kept += 1;
            }
        }
        self.indices.truncate(kept);
        self.values.truncate(kept);
    }

    /// Dot product with a dense slice of length `dim`.
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        debug_assert_eq!(dense.len(), self.dim);
        self.iter().map(|(i, v)| v * dense[i as usize]).sum()
    }

    /// `self += alpha * other`, merging index sets.
    ///
    /// A single two-pointer merge over both sorted index arrays — `O(n + m)`.
    /// (The previous implementation re-ran [`Self::add`] per entry, whose
    /// mid-array `Vec::insert` made the whole update `O(n · m)` on
    /// disjoint index sets.)
    pub fn add_scaled(&mut self, other: &SparseVec, alpha: f64) {
        debug_assert_eq!(self.dim, other.dim);
        if other.is_empty() {
            return;
        }
        let mut indices = Vec::with_capacity(self.indices.len() + other.indices.len());
        let mut values = Vec::with_capacity(indices.capacity());
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.indices.len() && b < other.indices.len() {
            match self.indices[a].cmp(&other.indices[b]) {
                std::cmp::Ordering::Less => {
                    indices.push(self.indices[a]);
                    values.push(self.values[a]);
                    a += 1;
                }
                std::cmp::Ordering::Greater => {
                    indices.push(other.indices[b]);
                    values.push(alpha * other.values[b]);
                    b += 1;
                }
                std::cmp::Ordering::Equal => {
                    indices.push(self.indices[a]);
                    values.push(self.values[a] + alpha * other.values[b]);
                    a += 1;
                    b += 1;
                }
            }
        }
        indices.extend_from_slice(&self.indices[a..]);
        values.extend_from_slice(&self.values[a..]);
        for (&i, &v) in other.indices[b..].iter().zip(&other.values[b..]) {
            indices.push(i);
            values.push(alpha * v);
        }
        self.indices = indices;
        self.values = values;
    }

    /// Sum of stored values.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Squared Euclidean norm of the vector.
    pub fn norm_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>()
    }

    /// Euclidean norm of the vector.
    pub fn l2_norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Densify into a `Vec<f64>` of length `dim`.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        for (i, v) in self.iter() {
            out[i as usize] = v;
        }
        out
    }

    /// Accumulate `out[k] += Σ_i value_i · theta[row_i][k]`, i.e. the per-class
    /// linear scores `Θ⊤ f` for a parameter matrix with `dim` rows.
    ///
    /// This is one of the two kernels DMCP training spends its time in, so it
    /// is written against the raw structure-of-arrays layout: the index and
    /// value arrays are walked in lockstep and each touched parameter row is
    /// read as one contiguous row-major slice, keeping the inner
    /// multiply-accumulate loop over the `C + D` columns branch-free and
    /// auto-vectorizable.
    ///
    /// # Panics
    /// Panics (debug) if `theta.rows() != dim` or `out.len() != theta.cols()`.
    ///
    /// ```
    /// use pfp_math::{Matrix, SparseVec};
    ///
    /// let theta = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    /// let f = SparseVec::from_pairs(3, vec![(0, 1.0), (2, 2.0)]);
    /// let mut scores = vec![0.0; 2];
    /// f.accumulate_scores(&theta, &mut scores);
    /// assert_eq!(scores, vec![1.0 + 2.0 * 5.0, 2.0 + 2.0 * 6.0]);
    /// ```
    pub fn accumulate_scores(&self, theta: &Matrix, out: &mut [f64]) {
        debug_assert_eq!(theta.rows(), self.dim);
        debug_assert_eq!(out.len(), theta.cols());
        let cols = theta.cols();
        let data = theta.as_slice();
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            let base = i as usize * cols;
            let row = &data[base..base + cols];
            for (o, &t) in out.iter_mut().zip(row) {
                *o += v * t;
            }
        }
    }

    /// Scatter `grad[row_i][k] += value_i · contrib[k]` for every stored
    /// entry — the gradient update of a log-linear model for one sample.
    ///
    /// The hot counterpart of [`Self::accumulate_scores`]: each touched
    /// gradient row is a contiguous row-major tile, updated with one
    /// branch-free fused loop over the columns.  Accumulating into a dense
    /// `grad` (rather than a sparse one) is what makes per-thread partial
    /// gradients cheap to tree-reduce in the parallel trainer.
    ///
    /// ```
    /// use pfp_math::{Matrix, SparseVec};
    ///
    /// let mut grad = Matrix::zeros(3, 2);
    /// let f = SparseVec::from_pairs(3, vec![(1, 2.0)]);
    /// f.scatter_gradient(&[0.5, -1.0], &mut grad);
    /// assert_eq!(grad.row(1), &[1.0, -2.0]);
    /// assert_eq!(grad.row(0), &[0.0, 0.0]);
    /// ```
    pub fn scatter_gradient(&self, contrib: &[f64], grad: &mut Matrix) {
        debug_assert_eq!(grad.rows(), self.dim);
        debug_assert_eq!(contrib.len(), grad.cols());
        let cols = grad.cols();
        let data = grad.as_mut_slice();
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            let base = i as usize * cols;
            let row = &mut data[base..base + cols];
            for (g, &c) in row.iter_mut().zip(contrib) {
                *g += v * c;
            }
        }
    }

    /// Concatenate two sparse vectors: `self` occupies dimensions
    /// `[0, self.dim)` and `other` is shifted by `self.dim`.
    pub fn concat(&self, other: &SparseVec) -> SparseVec {
        let dim = self.dim + other.dim;
        let mut indices = self.indices.clone();
        let mut values = self.values.clone();
        indices.extend(other.indices.iter().map(|&i| i + self.dim as u32));
        values.extend(other.values.iter().copied());
        SparseVec {
            dim,
            indices,
            values,
        }
    }

    /// Multiply every stored value by `alpha`.
    pub fn scaled(&self, alpha: f64) -> SparseVec {
        let mut out = self.clone();
        out.values.iter_mut().for_each(|v| *v *= alpha);
        out.prune_zeros();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_and_merges_duplicates() {
        let v = SparseVec::from_pairs(10, vec![(5, 1.0), (2, 2.0), (5, 3.0)]);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.get(2), 2.0);
        assert_eq!(v.get(5), 4.0);
        assert_eq!(v.get(7), 0.0);
    }

    /// Floating-point addition is not associative, so which of three
    /// duplicates is added first decides the bits; `from_pairs` always adds
    /// them in input order.
    #[test]
    fn from_pairs_sums_duplicates_in_input_order() {
        let v = SparseVec::from_pairs(8, vec![(5, 1e16), (2, 1.0), (5, 1.0), (5, -1e16)]);
        assert_eq!(v.indices(), &[2]); // (1e16 + 1.0) - 1e16 == 0.0, pruned
        let w = SparseVec::from_pairs(8, vec![(5, 1e16), (2, 1.0), (5, -1e16), (5, 1.0)]);
        assert_eq!(w.indices(), &[2, 5]);
        assert_eq!(w.get(5).to_bits(), 1.0f64.to_bits());
        let x = SparseVec::from_pairs(8, vec![(5, 1.0), (5, 1e16), (5, -1e16)]);
        assert_eq!(x.get(5), 0.0); // (1.0 + 1e16) - 1e16 == 0.0
    }

    #[test]
    fn binary_stores_the_multiplicity_of_repeated_indices() {
        let v = SparseVec::binary(10, vec![7, 3, 7, 0, 7, 3]);
        assert_eq!(v.indices(), &[0, 3, 7]);
        assert_eq!(v.values(), &[1.0, 2.0, 3.0]);
        let ones = (0..1000).map(|i| (i % 3, 1.0));
        assert_eq!(
            SparseVec::binary(3, (0..1000).map(|i| i % 3)),
            SparseVec::from_pairs(3, ones)
        );
        assert!(SparseVec::binary(4, Vec::new()).is_empty());
    }

    /// A vector refilled from two sorted lists equals the fresh binary
    /// vector of their concatenation, whatever it held before, and keeps its
    /// buffers: repeats within a list, across the lists and both at once.
    #[test]
    fn refill_binary_merged_matches_binary_and_keeps_capacity() {
        let mut v = SparseVec::binary(50, (0..40).rev());
        let (indices_cap, values_cap) = (v.indices.capacity(), v.values.capacity());
        let cases: [(&[u32], &[u32]); 8] = [
            (&[0, 3, 7, 7], &[]),
            (&[], &[1, 1, 9]),
            (&[], &[]),
            (&[2, 4], &[1, 3, 5]),
            (&[2, 4, 4], &[4, 9]),
            (&[0, 0, 9], &[0, 9, 9]),
            (&[9], &[0]),
            (&[5, 5, 5], &[5, 5]),
        ];
        for (a, b) in cases {
            v.refill_binary_merged(10, a, b);
            assert_eq!(v, SparseVec::binary(10, a.iter().chain(b).copied()));
            assert_eq!(v.indices.capacity(), indices_cap);
            assert_eq!(v.values.capacity(), values_cap);
        }
        v.refill_binary_merged(10, &[5, 5, 5], &[5, 5]);
        assert_eq!(v.indices(), &[5]);
        assert_eq!(v.values()[0].to_bits(), 5.0f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn refill_binary_merged_rejects_out_of_range_index() {
        SparseVec::new(4).refill_binary_merged(4, &[0, 1], &[2, 4]);
    }

    #[test]
    #[should_panic(expected = "must be sorted")]
    fn refill_binary_merged_rejects_unsorted_lists() {
        SparseVec::new(4).refill_binary_merged(4, &[0, 1], &[3, 2]);
    }

    #[test]
    fn from_sorted_parts_takes_the_arrays_as_they_are() {
        let v = SparseVec::from_sorted_parts(8, vec![1, 4, 7], vec![0.5, 0.0, -2.0]);
        assert_eq!(v.indices(), &[1, 4, 7]);
        assert_eq!(v.values(), &[0.5, 0.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_sorted_parts_rejects_repeated_indices() {
        let _ = SparseVec::from_sorted_parts(8, vec![1, 1], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_sorted_parts_rejects_out_of_range_index() {
        let _ = SparseVec::from_sorted_parts(8, vec![8], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn from_sorted_parts_rejects_unpaired_arrays() {
        let _ = SparseVec::from_sorted_parts(8, vec![1], vec![]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn binary_rejects_out_of_range_index() {
        let _ = SparseVec::binary(3, vec![0, 3, 1]);
    }

    #[test]
    fn prune_zeros_compacts_in_place() {
        let mut v = SparseVec::from_pairs(6, vec![(0, 1.0), (1, 2.0), (3, -1.0), (4, 4.0)]);
        v.values[1] = 0.0;
        v.values[2] = -0.0;
        v.prune_zeros();
        assert_eq!(v.indices(), &[0, 4]);
        assert_eq!(v.values(), &[1.0, 4.0]);
    }

    #[test]
    fn from_pairs_drops_explicit_zeros() {
        let v = SparseVec::from_pairs(4, vec![(1, 0.0), (2, 3.0)]);
        assert_eq!(v.nnz(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_pairs_rejects_out_of_range_index() {
        let _ = SparseVec::from_pairs(3, vec![(3, 1.0)]);
    }

    #[test]
    fn binary_constructor_sets_ones() {
        let v = SparseVec::binary(6, vec![0, 3, 5]);
        assert_eq!(v.to_dense(), vec![1.0, 0.0, 0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn dot_dense_matches_dense_computation() {
        let v = SparseVec::from_pairs(4, vec![(0, 2.0), (3, -1.0)]);
        let d = vec![1.0, 10.0, 100.0, 4.0];
        assert_eq!(v.dot_dense(&d), 2.0 - 4.0);
    }

    #[test]
    fn add_scaled_merges_and_sums() {
        let mut a = SparseVec::from_pairs(5, vec![(1, 1.0)]);
        let b = SparseVec::from_pairs(5, vec![(1, 2.0), (3, 4.0)]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.get(1), 2.0);
        assert_eq!(a.get(3), 2.0);
    }

    #[test]
    fn accumulate_scores_equals_dense_matvec_t() {
        let theta = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let f = SparseVec::from_pairs(3, vec![(0, 1.0), (2, 2.0)]);
        let mut scores = vec![0.0, 0.0];
        f.accumulate_scores(&theta, &mut scores);
        let dense = theta.matvec_t(&f.to_dense());
        assert_eq!(scores, dense);
    }

    #[test]
    fn scatter_gradient_updates_only_active_rows() {
        let mut grad = Matrix::zeros(3, 2);
        let f = SparseVec::from_pairs(3, vec![(1, 2.0)]);
        f.scatter_gradient(&[0.5, -1.0], &mut grad);
        assert_eq!(grad.row(0), &[0.0, 0.0]);
        assert_eq!(grad.row(1), &[1.0, -2.0]);
        assert_eq!(grad.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn concat_shifts_indices() {
        let a = SparseVec::binary(3, vec![1]);
        let b = SparseVec::binary(2, vec![0]);
        let c = a.concat(&b);
        assert_eq!(c.dim(), 5);
        assert_eq!(c.to_dense(), vec![0.0, 1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn scaled_multiplies_values_and_prunes() {
        let v = SparseVec::from_pairs(3, vec![(0, 2.0), (1, 4.0)]);
        let s = v.scaled(0.0);
        assert!(s.is_empty());
        let s2 = v.scaled(0.5);
        assert_eq!(s2.get(1), 2.0);
    }

    #[test]
    fn l2_norm_and_sum() {
        let v = SparseVec::from_pairs(5, vec![(0, 3.0), (4, 4.0)]);
        assert!((v.l2_norm() - 5.0).abs() < 1e-12);
        assert_eq!(v.sum(), 7.0);
    }

    #[test]
    fn position_finds_stored_entries_only() {
        let v = SparseVec::from_pairs(10, vec![(2, 1.0), (7, 2.0)]);
        assert_eq!(v.position(2), Some(0));
        assert_eq!(v.position(7), Some(1));
        assert_eq!(v.position(5), None);
    }

    /// The lookup/merge helpers at realistic density: nnz ≈ 1000 entries with
    /// every third index populated.  `get`/`position` (binary search) must
    /// agree with the dense reference at every coordinate, and the merge-based
    /// `add_scaled` must agree with the dense sum on interleaved index sets.
    #[test]
    fn helpers_agree_with_dense_reference_at_nnz_1000() {
        let dim = 3000u32;
        let a = SparseVec::from_pairs(
            dim as usize,
            (0..dim).step_by(3).map(|i| (i, 1.0 + i as f64 * 0.5)),
        );
        assert_eq!(a.nnz(), 1000);
        let dense_a = a.to_dense();
        for i in 0..dim {
            assert_eq!(a.get(i), dense_a[i as usize], "get({i})");
            assert_eq!(a.position(i).is_some(), dense_a[i as usize] != 0.0);
        }
        // Even indices: collides with `a` exactly at multiples of six, so the
        // merge exercises the match, self-only and other-only arms together.
        // (Values strictly positive — `from_pairs` would prune explicit
        // zeros and skew the nnz accounting below.)
        let b = SparseVec::from_pairs(
            dim as usize,
            (0..dim).step_by(2).map(|i| (i, 2.0 + i as f64 * 0.25)),
        );
        let mut merged = a.clone();
        merged.add_scaled(&b, 0.5);
        let dense_b = b.to_dense();
        let merged_dense = merged.to_dense();
        for i in 0..dim as usize {
            let expected = dense_a[i] + 0.5 * dense_b[i];
            assert!(
                (merged_dense[i] - expected).abs() < 1e-12,
                "add_scaled mismatch at {i}"
            );
        }
        // The merge keeps the sorted-unique invariant; |a ∪ b| = 1000 + 1500
        // minus the 500 shared multiples of six.
        assert!(merged.indices().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(merged.nnz(), 2000);
    }
}
