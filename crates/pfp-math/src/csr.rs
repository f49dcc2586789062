//! Sample-major compressed-sparse-row matrix over a cohort's feature vectors.
//!
//! The DMCP objective walks every sample's sparse feature vector twice per
//! evaluation (scores `Θ⊤ f_i`, then the gradient scatter).  Stored as one
//! [`SparseVec`] per sample, each walk chases a separate pair of heap
//! allocations; packing the cohort into one CSR matrix once per solve makes
//! each evaluation two linear passes over contiguous arrays — one
//! `CSR × Θ` scores pass and one `CSRᵀ` scatter — with both row kernels
//! register-blocked over the output columns.
//!
//! # Column panels
//!
//! The nonzeros are stored as column panels of [`PANEL_COLS`] features: each
//! panel is a CSR matrix of its own over all rows, with its own row pointers,
//! holding the entries whose feature index falls in its column span.  A
//! row's indices are sorted, so its panels split them in storage order.
//! Both kernels run panel by panel on the outside and row by row on the
//! inside, so each panel's slice of `Θ` (and of the gradient) is the only
//! part of it a pass touches at a time.  At the paper's `M = 17,672` rows
//! and `C + D = 16` columns, `Θ` is 2.26 MB — more than a 2 MiB per-core L2 —
//! while one panel's slice is 512 KiB and fits in L2 beside its gradient
//! slice.  A matrix with `dim ≤ PANEL_COLS` has one panel.
//!
//! # Kernel determinism contract
//!
//! The batched kernels ([`CsrMatrix::accumulate_scores_range`],
//! [`CsrMatrix::scatter_gradient_range`]) perform **exactly the same
//! floating-point operations in the same order** as the per-[`SparseVec`]
//! kernels ([`SparseVec::accumulate_scores`] /
//! [`SparseVec::scatter_gradient`]) on the same rows, so batched results
//! match the per-sample path bitwise:
//!
//! * **Multiply, then add.**  Every update is `x += v · y` as one rounded
//!   multiply followed by one rounded add.  No FMA contraction: the kernels
//!   never call `mul_add`, and Rust never contracts `a * b + c` on its own,
//!   even where an instantiation's target features (`avx512f` implies
//!   `fma`) make a fused instruction available.
//! * **Per-column accumulation in storage order.**  Each score column
//!   accumulates independently, starting from `+0.0`, over a row's nonzeros
//!   in the order they are stored.  The panels split a row's nonzeros in
//!   storage order and are visited in increasing order, each carrying the
//!   row's running sums in `out` on to the next, so the panelling changes no
//!   column's summation order.  Vectorizing across the columns changes none
//!   either.
//! * **One panel per gradient element, rows in increasing order.**  Each
//!   gradient element belongs to exactly one panel's column span, and that
//!   panel visits the rows in increasing order, so every element receives
//!   its updates in the order of the per-sample loop.
//! * **The dispatch choice changes no bit.**  Each kernel has one body,
//!   compiled three times: portably, inside an `avx2`-enabled function and
//!   inside an `avx512f`-enabled one.  At run time the widest one the CPU
//!   supports is chosen, AVX-512 before AVX2 ([`kernel_path`] reports
//!   which).  By the rules above, every instantiation produces the same
//!   bits; the unit tests here call each one the CPU can run directly and
//!   compare them bitwise.

use serde::{Deserialize, Serialize};
use std::ops::Range;

use crate::dense::Matrix;
use crate::sparse::SparseVec;

/// Feature columns per panel of a [`CsrMatrix`].
///
/// 4,096 columns make a 512 KiB slice of `Θ` at `C + D = 16` output
/// columns, which fits in a 2 MiB L2 beside the matching slice of a gradient
/// partial.  Panels of 3–6 K columns measured alike on the paper-scale
/// cohort; 1 K columns were slower.
pub const PANEL_COLS: usize = 4096;

/// One column panel: a CSR matrix over all rows of the entries whose feature
/// index lies in the panel's column span.  Indices are global feature
/// indices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Panel {
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl Panel {
    fn empty() -> Self {
        Self {
            indptr: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The row pointers of `range`: `range.len() + 1` entries whose windows
    /// are the rows' spans of `indices` and `values`.
    #[inline(always)]
    fn spans(&self, range: &Range<usize>) -> &[usize] {
        &self.indptr[range.start..range.end + 1]
    }

    /// Append one row's entries (global indices) and close it.
    fn push(&mut self, indices: &[u32], values: &[f64]) {
        self.indices.extend_from_slice(indices);
        self.values.extend_from_slice(values);
        self.indptr.push(self.indices.len());
    }
}

/// Number of panels of a `dim`-column matrix (at least one).
fn panel_count(dim: usize) -> usize {
    dim.div_ceil(PANEL_COLS).max(1)
}

/// Append one row, given by its sorted `indices` and parallel `values`, to
/// `panels`, the panels from number `first` on to the last: each takes the
/// entries of its column span, the last one all that remain (so a
/// one-panel matrix appends the row as it is, with no search).
fn push_split(panels: &mut [Panel], first: usize, mut indices: &[u32], mut values: &[f64]) {
    let Some((last, inner)) = panels.split_last_mut() else {
        return;
    };
    for (p, panel) in inner.iter_mut().enumerate() {
        let end = (first + p + 1) * PANEL_COLS;
        let n = indices.partition_point(|&c| (c as usize) < end);
        panel.push(&indices[..n], &values[..n]);
        (indices, values) = (&indices[n..], &values[n..]);
    }
    last.push(indices, values);
}

/// Immutable sample-major CSR matrix: row `i` holds sample `i`'s sparse
/// feature vector over `dim` feature columns, stored as column panels (see
/// the [module docs](self)).
///
/// ```
/// use pfp_math::{CsrMatrix, Matrix, SparseVec};
///
/// let rows = vec![
///     SparseVec::from_pairs(3, vec![(0, 1.0), (2, 2.0)]),
///     SparseVec::from_pairs(3, vec![(1, -1.0)]),
/// ];
/// let csr = CsrMatrix::from_rows(3, rows.iter());
/// assert_eq!((csr.rows(), csr.dim(), csr.nnz()), (2, 3, 3));
///
/// let theta = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// let mut scores = vec![f64::NAN; 4];
/// csr.accumulate_scores_range(&theta, 0..2, &mut scores);
/// assert_eq!(scores, vec![11.0, 14.0, -3.0, -4.0]); // [Θ⊤f_0, Θ⊤f_1]
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    dim: usize,
    panels: Vec<Panel>,
}

impl Default for CsrMatrix {
    /// An empty 0-row, 0-column matrix.  (A derived `Default` would leave
    /// it without panels and row pointers.)
    fn default() -> Self {
        Self::with_dim(0)
    }
}

impl CsrMatrix {
    /// An empty matrix over `dim` feature columns with zero rows, ready for
    /// incremental [`push_row`](Self::push_row) construction.
    ///
    /// This is the serve-path micro-batcher's entry point: one buffer is
    /// created per service, each flush packs its batch via `push_row`, and
    /// [`clear_rows`](Self::clear_rows) resets it without dropping capacity.
    /// A matrix that never receives a row (a timer flush racing with zero
    /// accumulated requests) is valid: `rows() == 0` and the range kernels
    /// are no-ops on it.
    pub fn with_dim(dim: usize) -> Self {
        Self {
            dim,
            panels: (0..panel_count(dim)).map(|_| Panel::empty()).collect(),
        }
    }

    /// Append one sparse row (batch-of-k construction).
    ///
    /// Equivalent to having included the row in [`from_rows`](Self::from_rows):
    /// the stored layout, and therefore every kernel result, is identical.
    ///
    /// # Panics
    /// Panics if the row's dimensionality differs from this matrix's `dim`.
    pub fn push_row(&mut self, row: &SparseVec) {
        assert_eq!(row.dim(), self.dim, "row dimensionality mismatch");
        push_split(&mut self.panels, 0, row.indices(), row.values());
    }

    /// Append one row whose entries `fill` pushes onto the ends of the index
    /// and value arrays, in strictly increasing index order: a row built in
    /// place, with no [`SparseVec`] in between.  `fill` must only append,
    /// the same number of indices as values.
    ///
    /// `fill` appends to the first panel's arrays; on a matrix of more than
    /// one panel the entries past its column span then move on to the
    /// others.
    ///
    /// ```
    /// use pfp_math::CsrMatrix;
    ///
    /// let mut csr = CsrMatrix::with_dim(5);
    /// csr.push_row_with(|indices, values| {
    ///     indices.extend([1, 4]);
    ///     values.extend([0.5, 2.0]);
    /// });
    /// assert_eq!(csr.row_entries(0).collect::<Vec<_>>(), [(1, 0.5), (4, 2.0)]);
    /// ```
    ///
    /// # Panics
    /// Panics if the appended indices and values differ in number, or the
    /// indices are not strictly increasing and below `dim`.
    pub fn push_row_with(&mut self, fill: impl FnOnce(&mut Vec<u32>, &mut Vec<f64>)) {
        let (first, rest) = self
            .panels
            .split_first_mut()
            .expect("a matrix has at least one panel");
        let start = first.indices.len();
        fill(&mut first.indices, &mut first.values);
        assert!(
            first.indices.len() == first.values.len() && first.indices.len() >= start,
            "a row must append as many indices as values"
        );
        let row = &first.indices[start..];
        assert!(
            row.windows(2).all(|w| w[0] < w[1])
                && row.last().is_none_or(|&i| (i as usize) < self.dim),
            "row indices must be strictly increasing and below {}",
            self.dim
        );
        if !rest.is_empty() {
            let split = start + row.partition_point(|&c| (c as usize) < PANEL_COLS);
            push_split(rest, 1, &first.indices[split..], &first.values[split..]);
            first.indices.truncate(split);
            first.values.truncate(split);
        }
        first.indptr.push(first.indices.len());
    }

    /// Drop all rows, keeping `dim` and the allocated capacity, so one buffer
    /// can be reused across micro-batch flushes (and across streaming shard
    /// repacks) without per-batch allocation.
    ///
    /// Re-establishes each panel's leading row-pointer sentinel (and the
    /// panel count) explicitly rather than truncating to them: a value
    /// deserialized from hostile input may lack either, and every subsequent
    /// [`push_row`](Self::push_row) would otherwise record offsets against a
    /// missing base, corrupting the row layout.
    pub fn clear_rows(&mut self) {
        self.panels.resize_with(panel_count(self.dim), Panel::empty);
        for panel in &mut self.panels {
            panel.indices.clear();
            panel.values.clear();
            panel.indptr.clear();
            panel.indptr.push(0);
        }
    }

    /// Pack sparse rows (each of dimensionality `dim`) into CSR form, each
    /// panel's arrays allocated once at their final size.  (Growing them row
    /// by row instead left the peak RSS of a paper-scale train 4–7 MiB
    /// higher, on a 2-vCPU Xeon guest.)
    ///
    /// # Panics
    /// Panics if a row's dimensionality differs from `dim`.
    pub fn from_rows<'a>(dim: usize, rows: impl IntoIterator<Item = &'a SparseVec>) -> Self {
        let rows: Vec<&SparseVec> = rows.into_iter().collect();
        let mut csr = Self::with_dim(dim);
        let mut nnz = vec![0usize; csr.panels.len()];
        for row in &rows {
            assert_eq!(row.dim(), dim, "row dimensionality mismatch");
            // Split as `push_split` does: the last panel takes the rest.
            let (last, inner) = nnz
                .split_last_mut()
                .expect("a matrix has at least one panel");
            let mut rest = row.indices();
            for (p, n) in inner.iter_mut().enumerate() {
                let k = rest.partition_point(|&c| (c as usize) < (p + 1) * PANEL_COLS);
                *n += k;
                rest = &rest[k..];
            }
            *last += rest.len();
        }
        for (panel, n) in csr.panels.iter_mut().zip(nnz) {
            panel.indptr.reserve_exact(rows.len());
            panel.indices.reserve_exact(n);
            panel.values.reserve_exact(n);
        }
        for row in rows {
            push_split(&mut csr.panels, 0, row.indices(), row.values());
        }
        csr
    }

    /// Number of rows (samples).
    ///
    /// Robust to a deserialized value without panels or row pointers
    /// (reported as zero rows rather than panicking or underflowing).
    #[inline]
    pub fn rows(&self) -> usize {
        self.panels
            .first()
            .map_or(0, |p| p.indptr.len().saturating_sub(1))
    }

    /// Number of feature columns.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.panels.iter().map(|p| p.indices.len()).sum()
    }

    /// Row `i`'s `(index, value)` entries in increasing index order.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.panels.iter().flat_map(move |p| {
            let span = p.indptr[i]..p.indptr[i + 1];
            let values = &p.values[span.clone()];
            p.indices[span].iter().copied().zip(values.iter().copied())
        })
    }

    /// Batched scores pass: for every row `i` in `range`, write
    /// `out[local·K + k] = Σ_j v_ij · theta[col_ij][k]` where
    /// `local = i − range.start` and `K = theta.cols()`.
    ///
    /// `out` must hold `range.len() · K` entries and is **overwritten**: its
    /// prior contents are never read, so callers need not zero it.  The pass
    /// runs panel by panel, carrying each row's running sums in `out` from
    /// one panel to the next.  The inner multiply-accumulate is
    /// register-blocked over the output columns: for the workspace-wide
    /// `K = 16` (and the small-cohort `K = 4` / `K = 8` shapes) the
    /// accumulator lives in a fixed-size stack array across a row's nonzero
    /// walk in a panel, so scores stay in registers instead of round-tripping
    /// through `out` per entry.  See the [module docs](self) for the
    /// determinism contract.
    ///
    /// # Panics
    /// Panics (debug) on shape mismatches.
    pub fn accumulate_scores_range(&self, theta: &Matrix, range: Range<usize>, out: &mut [f64]) {
        debug_assert_eq!(theta.rows(), self.dim);
        debug_assert_eq!(out.len(), range.len() * theta.cols());
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            if avx512_detected() {
                // SAFETY: the running CPU supports AVX-512F.
                return unsafe { self.scores_avx512(theta, range, out) };
            }
            if avx2_detected() {
                // SAFETY: the running CPU supports AVX2.
                return unsafe { self.scores_avx2(theta, range, out) };
            }
        }
        self.scores_body(theta, range, out)
    }

    /// [`Self::scores_body`] compiled with AVX-512F enabled.
    ///
    /// # Safety
    /// The running CPU must support AVX-512F.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx512f")]
    unsafe fn scores_avx512(&self, theta: &Matrix, range: Range<usize>, out: &mut [f64]) {
        self.scores_body(theta, range, out)
    }

    /// [`Self::scores_body`] compiled with AVX2 enabled.
    ///
    /// # Safety
    /// The running CPU must support AVX2.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    unsafe fn scores_avx2(&self, theta: &Matrix, range: Range<usize>, out: &mut [f64]) {
        self.scores_body(theta, range, out)
    }

    #[inline(always)]
    fn scores_body(&self, theta: &Matrix, range: Range<usize>, out: &mut [f64]) {
        match theta.cols() {
            4 => self.scores_blocked::<4>(theta, range, out),
            8 => self.scores_blocked::<8>(theta, range, out),
            16 => self.scores_blocked::<16>(theta, range, out),
            _ => self.scores_generic(theta, range, out),
        }
    }

    #[inline(always)]
    fn scores_blocked<const K: usize>(&self, theta: &Matrix, range: Range<usize>, out: &mut [f64]) {
        let data = theta.as_slice();
        for (p, panel) in self.panels.iter().enumerate() {
            for (local, span) in panel.spans(&range).windows(2).enumerate() {
                let dst = tile_mut::<K>(out, local * K);
                let mut acc = if p == 0 { [0.0f64; K] } else { *dst };
                let span = span[0]..span[1];
                for (&col, &v) in panel.indices[span.clone()].iter().zip(&panel.values[span]) {
                    for (a, &t) in acc.iter_mut().zip(tile::<K>(data, col as usize * K)) {
                        *a += v * t;
                    }
                }
                *dst = acc;
            }
        }
    }

    #[inline(always)]
    fn scores_generic(&self, theta: &Matrix, range: Range<usize>, out: &mut [f64]) {
        let cols = theta.cols();
        let data = theta.as_slice();
        for (p, panel) in self.panels.iter().enumerate() {
            for (local, span) in panel.spans(&range).windows(2).enumerate() {
                let dst = &mut out[local * cols..(local + 1) * cols];
                if p == 0 {
                    dst.fill(0.0);
                }
                let span = span[0]..span[1];
                for (&col, &v) in panel.indices[span.clone()].iter().zip(&panel.values[span]) {
                    let row = &data[col as usize * cols..col as usize * cols + cols];
                    for (o, &t) in dst.iter_mut().zip(row) {
                        *o += v * t;
                    }
                }
            }
        }
    }

    /// Batched transpose-scatter pass: for every row `i` in `range`, scatter
    /// `grad[col_ij][k] += v_ij · contrib[local·K + k]` — the `CSRᵀ ×
    /// residual` half of a log-linear gradient, one contiguous walk over the
    /// range per panel.
    ///
    /// Register-blocked like the scores pass: for `K ∈ {4, 8, 16}` a row's
    /// `contrib` slice is held in a fixed-size array across its nonzero walk.
    /// Each gradient element lies in one panel, which visits the rows in
    /// increasing order, so every element's updates land in the same order
    /// as [`SparseVec::scatter_gradient`] would produce and the batched
    /// gradient is bitwise identical to the per-sample loop (see the
    /// [module docs](self)).
    ///
    /// # Panics
    /// Panics (debug) on shape mismatches.
    pub fn scatter_gradient_range(&self, contrib: &[f64], range: Range<usize>, grad: &mut Matrix) {
        debug_assert_eq!(grad.rows(), self.dim);
        debug_assert_eq!(contrib.len(), range.len() * grad.cols());
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            if avx512_detected() {
                // SAFETY: the running CPU supports AVX-512F.
                return unsafe { self.scatter_avx512(contrib, range, grad) };
            }
            if avx2_detected() {
                // SAFETY: the running CPU supports AVX2.
                return unsafe { self.scatter_avx2(contrib, range, grad) };
            }
        }
        self.scatter_body(contrib, range, grad)
    }

    /// [`Self::scatter_body`] compiled with AVX-512F enabled.
    ///
    /// # Safety
    /// The running CPU must support AVX-512F.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx512f")]
    unsafe fn scatter_avx512(&self, contrib: &[f64], range: Range<usize>, grad: &mut Matrix) {
        self.scatter_body(contrib, range, grad)
    }

    /// [`Self::scatter_body`] compiled with AVX2 enabled.
    ///
    /// # Safety
    /// The running CPU must support AVX2.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    unsafe fn scatter_avx2(&self, contrib: &[f64], range: Range<usize>, grad: &mut Matrix) {
        self.scatter_body(contrib, range, grad)
    }

    #[inline(always)]
    fn scatter_body(&self, contrib: &[f64], range: Range<usize>, grad: &mut Matrix) {
        match grad.cols() {
            4 => self.scatter_blocked::<4>(contrib, range, grad),
            8 => self.scatter_blocked::<8>(contrib, range, grad),
            16 => self.scatter_blocked::<16>(contrib, range, grad),
            _ => self.scatter_generic(contrib, range, grad),
        }
    }

    #[inline(always)]
    fn scatter_blocked<const K: usize>(
        &self,
        contrib: &[f64],
        range: Range<usize>,
        grad: &mut Matrix,
    ) {
        let data = grad.as_mut_slice();
        for panel in &self.panels {
            for (local, span) in panel.spans(&range).windows(2).enumerate() {
                let c = tile::<K>(contrib, local * K);
                let span = span[0]..span[1];
                for (&col, &v) in panel.indices[span.clone()].iter().zip(&panel.values[span]) {
                    for (g, &ck) in tile_mut::<K>(data, col as usize * K).iter_mut().zip(c) {
                        *g += v * ck;
                    }
                }
            }
        }
    }

    #[inline(always)]
    fn scatter_generic(&self, contrib: &[f64], range: Range<usize>, grad: &mut Matrix) {
        let cols = grad.cols();
        let data = grad.as_mut_slice();
        for panel in &self.panels {
            for (local, span) in panel.spans(&range).windows(2).enumerate() {
                let c = &contrib[local * cols..(local + 1) * cols];
                let span = span[0]..span[1];
                for (&col, &v) in panel.indices[span.clone()].iter().zip(&panel.values[span]) {
                    let row = &mut data[col as usize * cols..col as usize * cols + cols];
                    for (g, &ck) in row.iter_mut().zip(c) {
                        *g += v * ck;
                    }
                }
            }
        }
    }
}

/// The `K` entries of `data` from `at` on, as a fixed-width row the
/// blocked kernels keep in registers.
#[inline(always)]
fn tile<const K: usize>(data: &[f64], at: usize) -> &[f64; K] {
    data[at..at + K].try_into().expect("a slice of K entries")
}

/// Mutable [`tile`].
#[inline(always)]
fn tile_mut<const K: usize>(data: &mut [f64], at: usize) -> &mut [f64; K] {
    (&mut data[at..at + K])
        .try_into()
        .expect("a slice of K entries")
}

/// Whether the running CPU supports AVX2 (detected once, then cached by
/// `std`).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[inline]
fn avx2_detected() -> bool {
    is_x86_feature_detected!("avx2")
}

/// Whether the running CPU supports AVX-512F (detected once, then cached by
/// `std`).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[inline]
fn avx512_detected() -> bool {
    is_x86_feature_detected!("avx512f")
}

/// Which instantiation of the batched kernels this process runs: `"avx512"`
/// when the CPU supports AVX-512F, else `"avx2"` when it supports AVX2, else
/// `"portable"`.
///
/// The choice changes no bit of any kernel result (see the
/// [module docs](self)); it is reported so a timing can name the code that
/// produced it.
///
/// ```
/// assert!(["avx512", "avx2", "portable"].contains(&pfp_math::csr::kernel_path()));
/// ```
pub fn kernel_path() -> &'static str {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        if avx512_detected() {
            return "avx512";
        }
        if avx2_detected() {
            return "avx2";
        }
    }
    "portable"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> Vec<SparseVec> {
        vec![
            SparseVec::from_pairs(5, vec![(0, 1.5), (3, -2.0)]),
            SparseVec::new(5), // empty row
            SparseVec::from_pairs(5, vec![(1, 0.5), (2, 1.0), (4, 3.0)]),
            SparseVec::from_pairs(5, vec![(4, -1.0)]),
        ]
    }

    fn entries(row: &SparseVec) -> Vec<(u32, f64)> {
        row.iter().collect()
    }

    #[test]
    fn from_rows_preserves_layout_and_counts() {
        let rows = sample_rows();
        let csr = CsrMatrix::from_rows(5, rows.iter());
        assert_eq!(csr.rows(), 4);
        assert_eq!(csr.dim(), 5);
        assert_eq!(csr.nnz(), 6);
        assert_eq!(csr.panels.len(), 1);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(csr.row_entries(i).collect::<Vec<_>>(), entries(r));
        }
    }

    #[test]
    #[should_panic(expected = "row dimensionality mismatch")]
    fn from_rows_rejects_mismatched_dim() {
        let rows = [SparseVec::new(3)];
        let _ = CsrMatrix::from_rows(5, rows.iter());
    }

    /// Batched kernels must match the per-SparseVec kernels **bitwise** for
    /// every output width, including the register-blocked 4/8/16 fast paths.
    #[test]
    fn batched_kernels_match_per_sample_kernels_bitwise() {
        let rows = sample_rows();
        let csr = CsrMatrix::from_rows(5, rows.iter());
        for cols in [1usize, 3, 4, 7, 8, 16] {
            let theta = Matrix::from_fn(5, cols, |r, c| {
                0.37 * (r as f64 + 1.0) - 0.21 * (c as f64 + 1.0)
            });
            // Scores: batched vs per-sample.
            let mut batched = vec![0.0; rows.len() * cols];
            csr.accumulate_scores_range(&theta, 0..rows.len(), &mut batched);
            for (i, r) in rows.iter().enumerate() {
                let mut expected = vec![0.0; cols];
                r.accumulate_scores(&theta, &mut expected);
                for (b, e) in batched[i * cols..(i + 1) * cols].iter().zip(&expected) {
                    assert_eq!(b.to_bits(), e.to_bits(), "cols={cols} row={i}");
                }
            }
            // Scatter: batched vs per-sample.
            let contrib: Vec<f64> = (0..rows.len() * cols)
                .map(|k| 0.11 * (k as f64) - 0.4)
                .collect();
            let mut grad_batched = Matrix::zeros(5, cols);
            csr.scatter_gradient_range(&contrib, 0..rows.len(), &mut grad_batched);
            let mut grad_per_sample = Matrix::zeros(5, cols);
            for (i, r) in rows.iter().enumerate() {
                r.scatter_gradient(&contrib[i * cols..(i + 1) * cols], &mut grad_per_sample);
            }
            assert_eq!(grad_batched, grad_per_sample, "cols={cols}");
        }
    }

    type ScoresKernel = fn(&CsrMatrix, &Matrix, Range<usize>, &mut [f64]);
    type ScatterKernel = fn(&CsrMatrix, &[f64], Range<usize>, &mut Matrix);

    /// Every instantiation this CPU can run, called directly: the portable
    /// body, plus the AVX2 and AVX-512 ones when the CPU supports them,
    /// narrowest first: the last one is the one the public entry points run.
    fn kernel_instantiations() -> Vec<(&'static str, ScoresKernel, ScatterKernel)> {
        let mut paths: Vec<(&'static str, ScoresKernel, ScatterKernel)> =
            vec![("portable", CsrMatrix::scores_body, CsrMatrix::scatter_body)];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            if avx2_detected() {
                paths.push((
                    "avx2",
                    // SAFETY: the running CPU supports AVX2.
                    |m, theta, range, out| unsafe { m.scores_avx2(theta, range, out) },
                    |m, contrib, range, grad| unsafe { m.scatter_avx2(contrib, range, grad) },
                ));
            }
            if avx512_detected() {
                paths.push((
                    "avx512",
                    // SAFETY: the running CPU supports AVX-512F.
                    |m, theta, range, out| unsafe { m.scores_avx512(theta, range, out) },
                    |m, contrib, range, grad| unsafe { m.scatter_avx512(contrib, range, grad) },
                ));
            }
        }
        paths
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    const EDGE_DIM: usize = 6;

    /// Empty rows (first, middle, last) and ±∞ feature values.  (−0.0 cannot
    /// be stored in a `SparseVec`, so it enters through `theta` / `contrib`.)
    fn edge_rows() -> Vec<SparseVec> {
        let pairs = |p: &[(u32, f64)]| SparseVec::from_pairs(EDGE_DIM, p.to_vec());
        vec![
            SparseVec::new(EDGE_DIM),
            pairs(&[(0, 1.5), (3, -2.0), (5, 0.25)]),
            SparseVec::new(EDGE_DIM),
            pairs(&[(1, f64::INFINITY), (2, 1.0)]),
            pairs(&[(2, -0.5), (4, f64::NEG_INFINITY)]),
            pairs(&[(0, 3.0), (1, -1.0), (2, 0.5), (3, 2.0), (4, -4.0), (5, 1.0)]),
            SparseVec::new(EDGE_DIM),
        ]
    }

    /// Every instantiation, on every dispatch width (the blocked 4/8/16 and
    /// the generic rest), agree bitwise with the per-`SparseVec` kernels —
    /// and so with each other — on empty rows, ±∞ and −0.0 entries, and any
    /// split of the row range into two sub-ranges.
    #[test]
    fn every_kernel_instantiation_matches_the_per_sample_kernels_bitwise() {
        let rows = edge_rows();
        let n = rows.len();
        let csr = CsrMatrix::from_rows(EDGE_DIM, rows.iter());
        for cols in [1usize, 3, 4, 7, 8, 16, 17] {
            let theta = Matrix::from_fn(EDGE_DIM, cols, |r, c| match (r * cols + c) % 5 {
                0 => -0.0,
                _ if (r, c) == (5, cols - 1) => f64::NEG_INFINITY,
                _ => 0.37 * (r as f64 + 1.0) - 0.21 * (c as f64 + 1.0),
            });
            let contrib: Vec<f64> = (0..n * cols)
                .map(|k| match k % 6 {
                    0 => -0.0,
                    _ if k == 3 * cols + 1 => f64::INFINITY,
                    _ => 0.11 * (k as f64) - 0.4,
                })
                .collect();
            let mut scores_oracle = vec![0.0; n * cols];
            let mut grad_oracle = Matrix::zeros(EDGE_DIM, cols);
            for (i, r) in rows.iter().enumerate() {
                let span = i * cols..(i + 1) * cols;
                r.accumulate_scores(&theta, &mut scores_oracle[span.clone()]);
                r.scatter_gradient(&contrib[span], &mut grad_oracle);
            }
            assert!(scores_oracle.iter().any(|s| !s.is_finite()));
            assert!(scores_oracle.iter().any(|s| s.is_finite() && *s != 0.0));
            for (path, scores, scatter) in kernel_instantiations() {
                for split in [0, 1, 3, n] {
                    let mut out = vec![0.0; n * cols];
                    let (head, tail) = out.split_at_mut(split * cols);
                    scores(&csr, &theta, 0..split, head);
                    scores(&csr, &theta, split..n, tail);
                    assert_eq!(
                        bits(&out),
                        bits(&scores_oracle),
                        "{path} scores, cols={cols}, split={split}"
                    );
                    let mut grad = Matrix::zeros(EDGE_DIM, cols);
                    let (head, tail) = contrib.split_at(split * cols);
                    scatter(&csr, head, 0..split, &mut grad);
                    scatter(&csr, tail, split..n, &mut grad);
                    assert_eq!(
                        bits(grad.as_slice()),
                        bits(grad_oracle.as_slice()),
                        "{path} scatter, cols={cols}, split={split}"
                    );
                }
            }
        }
    }

    /// Rows over `dim` columns that exercise the panel boundaries: empty
    /// rows, rows confined to one panel (the first, the last, a middle one),
    /// rows with no entry in some panel, rows touching every panel, and the
    /// columns on either side of each boundary.  Values are drawn from a
    /// fixed xorshift stream.
    fn panel_rows(dim: usize) -> Vec<SparseVec> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ dim as u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let last = dim - 1;
        let panels = panel_count(dim);
        let boundaries: Vec<usize> = (1..panels).map(|p| p * PANEL_COLS).collect();
        let mut index_sets: Vec<Vec<usize>> = vec![
            vec![],
            vec![0, 1, 2, 17],
            vec![last],
            vec![0, last],
            boundaries.iter().flat_map(|&b| [b - 1, b]).collect(),
            vec![],
            (0..dim).step_by(97).collect(),
            boundaries.iter().map(|&b| b - 1).collect(),
            boundaries.iter().map(|&b| (b + 3).min(last)).collect(),
            vec![PANEL_COLS.min(last) - 1, last],
        ];
        if panels > 2 {
            // Entries in the middle panel only, then in the first and last
            // panels but not the middle one.
            index_sets.push(vec![PANEL_COLS + 5, PANEL_COLS + 900, 2 * PANEL_COLS - 1]);
            index_sets.push(vec![3, 2 * PANEL_COLS + 1, last]);
        }
        for k in 0..12 {
            index_sets.push((0..40).map(|_| next() as usize % dim).collect());
            if k % 4 == 0 {
                index_sets.push(vec![]);
            }
        }
        let mut value = || (next() % 2000) as f64 / 250.0 - 4.0 + 0.125;
        index_sets
            .into_iter()
            .map(|set| SparseVec::from_pairs(dim, set.into_iter().map(|i| (i as u32, value()))))
            .collect()
    }

    /// Every instantiation, on every dispatch width, matches the
    /// per-`SparseVec` kernels bit for bit on matrices of one to four panels,
    /// over row ranges that start and end mid-matrix.  The scores overwrite
    /// an `out` full of NaN, and the scatter adds onto a gradient that is not
    /// zero.
    #[test]
    fn panelled_kernels_match_the_per_sample_kernels_bitwise() {
        for dim in [4095, PANEL_COLS, 4097, 3 * PANEL_COLS + 17] {
            let rows = panel_rows(dim);
            let n = rows.len();
            let csr = CsrMatrix::from_rows(dim, rows.iter());
            assert_eq!(csr.panels.len(), panel_count(dim), "dim={dim}");
            assert_eq!(csr.nnz(), rows.iter().map(SparseVec::nnz).sum::<usize>());
            let ranges = [0..n, 0..7, 3..n - 2, 5..6, 9..9, n - 4..n];
            for cols in [3usize, 4, 8, 16, 17] {
                let theta = Matrix::from_fn(dim, cols, |r, c| match (r * 7 + c) % 11 {
                    0 => -0.0,
                    k => 0.37 * k as f64 - 1.9 + 0.001 * (r % 13) as f64,
                });
                let contrib: Vec<f64> = (0..n * cols)
                    .map(|k| match k % 9 {
                        0 => -0.0,
                        j => 0.11 * j as f64 - 0.4,
                    })
                    .collect();
                let start = Matrix::from_fn(dim, cols, |r, c| ((r + c) % 3) as f64 * 0.5);
                for (path, scores, scatter) in kernel_instantiations() {
                    for range in ranges.clone() {
                        let mut expected = vec![0.0; range.len() * cols];
                        let mut grad_oracle = start.clone();
                        let contrib = &contrib[range.start * cols..range.end * cols];
                        for (local, r) in rows[range.clone()].iter().enumerate() {
                            let span = local * cols..(local + 1) * cols;
                            r.accumulate_scores(&theta, &mut expected[span.clone()]);
                            r.scatter_gradient(&contrib[span], &mut grad_oracle);
                        }
                        let what = format!("{path}, dim={dim}, cols={cols}, rows={range:?}");
                        let mut out = vec![f64::NAN; range.len() * cols];
                        scores(&csr, &theta, range.clone(), &mut out);
                        assert_eq!(bits(&out), bits(&expected), "scores: {what}");
                        let mut grad = start.clone();
                        scatter(&csr, contrib, range, &mut grad);
                        assert_eq!(
                            bits(grad.as_slice()),
                            bits(grad_oracle.as_slice()),
                            "scatter: {what}"
                        );
                    }
                }
            }
        }
    }

    /// `from_rows`, `push_row` and `push_row_with` build the same matrix on
    /// either side of the panel width, and its rows read back as the input.
    #[test]
    fn every_constructor_builds_the_same_panelled_matrix() {
        for dim in [4095, PANEL_COLS, 4097, 3 * PANEL_COLS + 17] {
            let rows = panel_rows(dim);
            let packed = CsrMatrix::from_rows(dim, rows.iter());
            let mut pushed = CsrMatrix::with_dim(dim);
            let mut filled = CsrMatrix::with_dim(dim);
            for row in &rows {
                pushed.push_row(row);
                filled.push_row_with(|indices, values| {
                    indices.extend_from_slice(row.indices());
                    values.extend_from_slice(row.values());
                });
            }
            assert_eq!(pushed, packed, "push_row, dim={dim}");
            assert_eq!(filled, packed, "push_row_with, dim={dim}");
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(packed.row_entries(i).collect::<Vec<_>>(), entries(row));
            }
            for (p, panel) in packed.panels.iter().enumerate() {
                let span = p * PANEL_COLS..(p + 1) * PANEL_COLS;
                assert!(panel.indices.iter().all(|&c| span.contains(&(c as usize))));
                assert_eq!(panel.indptr.len(), rows.len() + 1);
            }
        }
    }

    #[test]
    fn kernel_path_names_the_instantiation_the_entry_points_run() {
        let (widest, _, _) = *kernel_instantiations().last().expect("portable");
        assert_eq!(kernel_path(), widest);
    }

    #[test]
    fn sub_ranges_cover_the_same_work_as_the_full_range() {
        let rows = sample_rows();
        let csr = CsrMatrix::from_rows(5, rows.iter());
        let cols = 4;
        let theta = Matrix::from_fn(5, cols, |r, c| (r * cols + c) as f64 * 0.1);
        let mut full = vec![0.0; rows.len() * cols];
        csr.accumulate_scores_range(&theta, 0..rows.len(), &mut full);
        let mut split = vec![0.0; rows.len() * cols];
        csr.accumulate_scores_range(&theta, 0..2, &mut split[..2 * cols]);
        csr.accumulate_scores_range(&theta, 2..4, &mut split[2 * cols..]);
        assert_eq!(full, split);
    }

    #[test]
    fn incremental_push_row_matches_from_rows_exactly() {
        let rows = sample_rows();
        let packed = CsrMatrix::from_rows(5, rows.iter());
        let mut incremental = CsrMatrix::with_dim(5);
        for r in &rows {
            incremental.push_row(r);
        }
        assert_eq!(incremental, packed);
        // Clearing and repacking reuses the buffer and lands on the same
        // layout — the serve batcher's per-flush cycle.
        incremental.clear_rows();
        assert_eq!(incremental.rows(), 0);
        assert_eq!(incremental.nnz(), 0);
        assert_eq!(incremental.dim(), 5);
        for r in &rows {
            incremental.push_row(r);
        }
        assert_eq!(incremental, packed);
    }

    /// The capacities of every panel's three arrays.
    fn capacities(m: &CsrMatrix) -> Vec<[usize; 3]> {
        m.panels
            .iter()
            .map(|p| {
                [
                    p.indptr.capacity(),
                    p.indices.capacity(),
                    p.values.capacity(),
                ]
            })
            .collect()
    }

    /// Streaming shard training repacks one buffer over and over with
    /// *varying* row counts.  Across ≥3 clear+repack cycles the layout must
    /// match a fresh `from_rows` pack exactly, no stale row pointers may
    /// survive a shrink (4 rows → 1 row → 3 rows), and the allocations must
    /// be reused, not reallocated, once capacity has grown to the high-water
    /// mark — on one panel and on several.
    #[test]
    fn repeated_clear_and_repack_cycles_preserve_capacity_and_layout() {
        for (dim, rows) in [(5, sample_rows()), (4097, panel_rows(4097))] {
            let mut buf = CsrMatrix::with_dim(dim);
            for r in &rows {
                buf.push_row(r);
            }
            let caps = capacities(&buf);
            // Cycle through shrinking and growing row counts (all ≤ the first
            // pack, so the high-water capacities must never change).
            for cycle_rows in [&rows[..1], &rows[..3], &rows[..], &rows[..2]] {
                buf.clear_rows();
                assert_eq!((buf.rows(), buf.nnz(), buf.dim()), (0, 0, dim));
                for r in cycle_rows {
                    buf.push_row(r);
                }
                let expected = CsrMatrix::from_rows(dim, cycle_rows.iter());
                assert_eq!(buf, expected);
                assert!(buf
                    .panels
                    .iter()
                    .all(|p| p.indptr.len() == cycle_rows.len() + 1));
                assert_eq!(capacities(&buf), caps, "dim={dim}: reallocated");
            }
        }
    }

    /// Regression: `clear_rows` on a value without row pointers or panels
    /// (possible via deserialization — `rows()` tolerates it) must
    /// re-establish the panels and their leading 0 sentinels.  A bare
    /// truncation left them missing, so the next `push_row` recorded an end
    /// offset with no base and every row lookup was shifted.
    #[test]
    fn clear_rows_restores_sentinel_on_empty_indptr() {
        let row = SparseVec::from_pairs(5, vec![(1, 0.5), (4, -2.0)]);
        let broken = Panel {
            indptr: Vec::new(),
            indices: Vec::new(),
            values: Vec::new(),
        };
        for panels in [vec![], vec![broken.clone()], vec![broken.clone(), broken]] {
            let mut m = CsrMatrix { dim: 5, panels };
            assert_eq!(m.rows(), 0);
            m.clear_rows();
            assert_eq!(m, CsrMatrix::with_dim(5));
            m.push_row(&row);
            assert_eq!(m.rows(), 1);
            assert_eq!(m.row_entries(0).collect::<Vec<_>>(), entries(&row));
        }
    }

    /// Rows appended in place equal the same rows pushed as vectors.
    #[test]
    fn push_row_with_matches_push_row() {
        let rows = [
            SparseVec::from_pairs(6, vec![(0, 1.5), (5, -2.0)]),
            SparseVec::new(6),
            SparseVec::from_pairs(6, vec![(2, 0.25), (3, 4.0), (4, 1.0)]),
        ];
        let mut built = CsrMatrix::with_dim(6);
        for row in &rows {
            built.push_row_with(|indices, values| {
                indices.extend_from_slice(row.indices());
                values.extend_from_slice(row.values());
            });
        }
        assert_eq!(built, CsrMatrix::from_rows(6, rows.iter()));
    }

    #[test]
    #[should_panic(expected = "strictly increasing and below 6")]
    fn push_row_with_rejects_unsorted_indices() {
        CsrMatrix::with_dim(6).push_row_with(|indices, values| {
            indices.extend([3, 1]);
            values.extend([1.0, 1.0]);
        });
    }

    #[test]
    #[should_panic(expected = "strictly increasing and below 6")]
    fn push_row_with_rejects_out_of_range_indices() {
        CsrMatrix::with_dim(6).push_row_with(|indices, values| {
            indices.push(6);
            values.push(1.0);
        });
    }

    #[test]
    #[should_panic(expected = "as many indices as values")]
    fn push_row_with_rejects_unpaired_entries() {
        CsrMatrix::with_dim(6).push_row_with(|indices, _| indices.push(1));
    }

    #[test]
    #[should_panic(expected = "row dimensionality mismatch")]
    fn push_row_rejects_mismatched_dim() {
        let mut m = CsrMatrix::with_dim(5);
        m.push_row(&SparseVec::new(3));
    }

    /// The micro-batcher edge cases: a zero-request flush and a batch of one
    /// must not panic or divide by zero, and must score exactly like the
    /// per-sample walk.
    #[test]
    fn zero_row_and_one_row_batches_score_like_the_per_sample_walk() {
        let theta = Matrix::from_fn(5, 4, |r, c| 0.3 * (r as f64) - 0.11 * (c as f64));

        // 0-row batch: all kernels are no-ops on the empty row range.
        let empty = CsrMatrix::with_dim(5);
        assert_eq!(empty.rows(), 0);
        let mut out: Vec<f64> = Vec::new();
        empty.accumulate_scores_range(&theta, 0..0, &mut out);
        assert!(out.is_empty());
        let mut grad = Matrix::zeros(5, 4);
        empty.scatter_gradient_range(&[], 0..0, &mut grad);
        assert_eq!(grad, Matrix::zeros(5, 4));

        // 1-row batch: bitwise identical to the single SparseVec kernel.
        let row = SparseVec::from_pairs(5, vec![(1, 0.5), (4, -2.0)]);
        let mut single = CsrMatrix::with_dim(5);
        single.push_row(&row);
        assert_eq!(single.rows(), 1);
        let mut batched = vec![0.0; 4];
        single.accumulate_scores_range(&theta, 0..1, &mut batched);
        let mut expected = vec![0.0; 4];
        row.accumulate_scores(&theta, &mut expected);
        for (b, e) in batched.iter().zip(&expected) {
            assert_eq!(b.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn default_is_a_valid_empty_matrix() {
        let m = CsrMatrix::default();
        assert_eq!((m.rows(), m.dim(), m.nnz()), (0, 0, 0));
    }

    #[test]
    fn empty_matrix_and_empty_range_are_no_ops() {
        let csr = CsrMatrix::from_rows(3, std::iter::empty());
        assert_eq!(csr.rows(), 0);
        assert_eq!(csr.nnz(), 0);
        let rows = sample_rows();
        let csr = CsrMatrix::from_rows(5, rows.iter());
        let theta = Matrix::zeros(5, 2);
        let mut out: Vec<f64> = Vec::new();
        csr.accumulate_scores_range(&theta, 1..1, &mut out);
        let mut grad = Matrix::zeros(5, 2);
        csr.scatter_gradient_range(&[], 1..1, &mut grad);
        assert_eq!(grad, Matrix::zeros(5, 2));
    }
}
