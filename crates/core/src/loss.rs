//! The discriminative loss of Eq. 6 and its gradient.
//!
//! With the log-linear intensities `λ_c = exp(θ_c⊤ f)` and
//! `λ_d = exp(θ_d⊤ f)`, the conditional probabilities
//! `p(c | t, H_t)` and `p(d | t, H_t)` are softmaxes over the linear scores,
//! and the loss is the sum of the two categorical cross-entropies.  The
//! parameter matrix stacks both heads: `Θ ∈ R^{M×(C+D)}`, columns `0..C` for
//! the destination head, columns `C..C+D` for the duration head.
//!
//! The loss implemented here is the *mean* over samples (the paper uses the
//! sum; the mean keeps gradient magnitudes independent of the cohort size, so
//! the same learning rate and regularisation weight work from the tiny test
//! cohorts up to the paper-scale one — the γ values quoted in EXPERIMENTS.md
//! are on this normalised scale).
//!
//! Optional per-sample weights implement the "weighted data" imbalance
//! strategy (`w_i = 1 / log(1 + #{(c,d)})`, Section 3.3).
//!
//! # One objective, three sample sources
//!
//! [`Objective`] is the one DMCP objective.  It is generic over a
//! [`SampleSource`] — where a chunk's feature rows come from — and holds the
//! weights, the thread pool, the kernel fold and the curvature bounds once:
//!
//! * [`DmcpObjective`] — the materialized cohort, packed once at
//!   construction into a single CSR block;
//! * [`ShardedDmcpObjective`](crate::stream::ShardedDmcpObjective) — retained
//!   CSR shard blocks ([`ShardedSamples`](crate::stream::ShardedSamples));
//! * [`StreamingDmcpObjective`](crate::stream::StreamingDmcpObjective) — the
//!   cohort regenerated and re-featurized on every evaluation, into reused
//!   blocks of [`ROW_BLOCK`](crate::stream::ROW_BLOCK) rows.
//!
//! Every evaluation is a fold of the batched kernel over the source's rows.
//! The kernel has a *residual half* — one `CSR × Θ` scores pass and one
//! softmax/residual sweep over the packed score block, which also sums the
//! loss — and a *scatter half*, one `CSRᵀ` scatter of the residuals into the
//! gradient.  Both row kernels are register-blocked over the `C + D` outputs
//! and run as their AVX-512 or AVX2 instantiation when the CPU has it
//! (`pfp_math::csr` states the contract that keeps every bit the same).  The
//! scores are computed once per sample and feed both the cross-entropy terms
//! and the softmax residuals; each head takes one log-sum-exp for both.  The
//! sweep is `pfp_math`'s block kernel ([`cross_entropy_softmax_rows`]): its
//! phases run over tiles of rows, its `exp` is vectorized and bitwise equal
//! to `f64::exp`, and it calls back once per row, in order, for the
//! residuals and the loss addition.
//!
//! `value_and_gradient` runs both halves per segment in one walk; `value`
//! runs only the residual half; the line search's value-first
//! `value_then_gradient` runs the residual half, asks its `accept` test, and
//! scatters only for an accepted trial (see [`Objective`]).
//!
//! [`per_sample_value_and_gradient`] computes the same quantity by a plain
//! per-sample walk over the sparse feature vectors, with the two-call
//! `cross_entropy` + `softmax_in_place` form of each head.  It is the
//! reference the fold is tested against; solvers never call it.  The
//! determinism contract — bitwise at a fixed thread count for every source,
//! ≲1e-12 across thread counts — is stated on [`Objective`].

use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

use pfp_math::parallel::{chunk_ranges, tree_reduce_into, tree_reduce_sums, WorkerPool};
use pfp_math::softmax::{cross_entropy, cross_entropy_softmax_rows, softmax_in_place};
use pfp_math::Matrix;
use pfp_optim::SmoothObjective;

use crate::dataset::Sample;
use crate::stream::{check_samples, SampleShard};

/// Where an [`Objective`]'s feature rows come from.
///
/// A source walks a global sample range as `(block, local rows)` segments, in
/// sample order: `local` indexes rows of `block`, whose row `i` is global
/// sample `block.start + i`.  Retained sources hand out their own blocks;
/// the regenerated cohort refills one reused scratch block per
/// [`ROW_BLOCK`](crate::stream::ROW_BLOCK) rows, so a block may end in the
/// middle of a patient's samples.
pub trait SampleSource: Sync {
    /// Whether a walk regenerates its rows instead of handing out retained
    /// blocks.  A second walk over the same range would then regenerate them
    /// again, so the objective evaluates such a source in one fused walk and
    /// never splits an evaluation into a residual walk and a scatter walk.
    const REGENERATES_ROWS: bool = false;

    /// Total number of samples.
    fn total_samples(&self) -> usize;

    /// Call `visit(block, local)` for each segment of `range`, in sample
    /// order.
    fn for_each_segment(&self, range: Range<usize>, visit: impl FnMut(&SampleShard, Range<usize>));
}

impl<S: SampleSource> SampleSource for &S {
    const REGENERATES_ROWS: bool = S::REGENERATES_ROWS;

    fn total_samples(&self) -> usize {
        (**self).total_samples()
    }

    fn for_each_segment(&self, range: Range<usize>, visit: impl FnMut(&SampleShard, Range<usize>)) {
        (**self).for_each_segment(range, visit)
    }
}

/// The materialized objective: the cohort's samples packed into one CSR block.
/// See [`Objective`] for the determinism contract.
pub type DmcpObjective<'a> = Objective<'a, SampleShard>;

/// The normalising constant Σ_i w_i (or the sample count when unweighted).
fn total_weight(weights: Option<&[f64]>, samples: usize) -> f64 {
    match weights {
        Some(w) => w.iter().sum::<f64>().max(1e-12),
        None => samples as f64,
    }
}

/// The multinomial two-head cross-entropy objective, folded over the rows of
/// a [`SampleSource`].
///
/// # Determinism contract
///
/// Every evaluation splits the global sample range into per-thread chunks
/// ([`pfp_math::parallel::chunk_ranges`] over the *total* sample count),
/// folds each chunk through the kernel segment by segment in sample order,
/// and combines the chunk partials with a fixed-order tree reduction
/// ([`pfp_math::parallel::tree_reduce_matrices`]' order, run in place by
/// [`pfp_math::parallel::tree_reduce_into`]).  Chunk 0 scatters into the
/// caller's `grad` and each later chunk into a Θ-sized partial the objective
/// keeps and reuses, so after its first evaluation a pooled objective
/// allocates no Θ-sized buffer.  The chunk closures run on a persistent
/// [`WorkerPool`] created once in [`with_threads`](Self::with_threads) (i.e.
/// once per ADMM solve), so repeated evaluations pay a channel send rather
/// than a thread spawn.
///
/// * **Fixed thread count ⇒ bitwise-deterministic results, for every
///   source.**  Chunk boundaries and the reduction order are pure functions
///   of `(total_samples, threads)`, and the pool returns chunk results in
///   submission order.  Within a chunk, the kernel carries its loss
///   accumulator across segments, so where a source splits the chunk into
///   blocks (shards, patients) changes no floating-point operation: each
///   row's scores, softmax, loss addition and scatter happen in the same
///   order as one un-segmented pass (per-row score equality across CSR
///   sub-ranges is property-tested in `pfp-math`).  `threads == 1` is
///   *exactly* the serial path.  The three sources therefore agree bitwise
///   with each other at any fixed thread count, and on one thread with
///   [`per_sample_value_and_gradient`] (`tests/shard_equivalence.rs`,
///   `tests/parallel_equivalence.rs`).
/// * **Across thread counts ⇒ agreement to rounding only.**  Different
///   chunkings sum in different orders; the results agree to ≲1e-12, not
///   bitwise.
///
/// # Two halves of one kernel
///
/// Each segment's kernel has a *residual half* — the `CSR × Θ` scores pass
/// and the softmax/residual sweep, which also accumulates the loss — and a
/// *scatter half*, the `CSRᵀ` pass of the residual rows into the gradient.
/// The sweep is [`cross_entropy_softmax_rows`]: per tile of rows, each
/// head's max and vector `exp(x − m)`, then each head's `ln`, then row by
/// row the losses, the vector `exp(x − lse)`, the residuals
/// `w_i/Σw · (p − onehot)` and `loss += w_i · l_i`.  Its phases reorder only
/// independent operations and its `exp` lanes are bitwise libm's
/// (`pfp_math::softmax` states that contract), so each row's loss and
/// residuals have the bits of the per-element two-pass head of
/// [`per_sample_value_and_gradient`], and the losses are added in row order.
/// The entry points run them in three ways, all over the same chunks and
/// reductions:
///
/// * `value_and_gradient` and `gradient`: one walk, each segment's residual
///   half followed by its scatter half;
/// * `value`: the residual half only;
/// * `value_then_gradient` (the line search's trials): the residual half of
///   every chunk into per-chunk residual buffers the objective keeps and
///   reuses, the loss reduced and handed to `accept`, and only if it
///   accepts, the scatter half from the kept buffers in chunk order.  A
///   source that regenerates its rows ([`SampleSource::REGENERATES_ROWS`])
///   takes the one-walk fused path instead.
///
/// The scatter reads the same residual rows in the same order whichever way
/// it runs, so all entry points agree bitwise with each other by
/// construction.
pub struct Objective<'a, S> {
    pub(crate) source: S,
    weights: Option<&'a [f64]>,
    /// Σ_i w_i, cached at construction so evaluations do not pay an O(n) sum.
    total_weight: f64,
    num_features: usize,
    num_cus: usize,
    num_durations: usize,
    /// Worker threads for loss/gradient accumulation (≥ 1; 1 = serial).
    threads: usize,
    /// Persistent workers (`None` on the serial path), reused by every
    /// evaluation of a solve.
    pool: Option<WorkerPool>,
    /// One residual block per chunk (`chunk length × (C+D)`), kept between
    /// the two phases of `value_then_gradient` and reused across
    /// evaluations.
    residuals: Mutex<Vec<Vec<f64>>>,
    /// One Θ-sized gradient partial per chunk after the first (chunk 0
    /// scatters into the caller's `grad`), reused across evaluations.
    partials: Mutex<Vec<Matrix>>,
}

impl<'a> DmcpObjective<'a> {
    /// Build an objective over materialized samples, packing them once into
    /// a CSR block plus label vectors; `samples` is not borrowed beyond this
    /// call.
    ///
    /// # Panics
    /// Panics if `samples` is empty, a label is out of range, a feature vector
    /// has the wrong dimension, or `weights` (when given) has the wrong length.
    pub fn new(
        samples: &[Sample],
        weights: Option<&'a [f64]>,
        num_features: usize,
        num_cus: usize,
        num_durations: usize,
    ) -> Self {
        check_samples(samples, num_features, num_cus, num_durations)
            .unwrap_or_else(|err| panic!("{err}"));
        let block = SampleShard::pack(0, samples, num_features);
        Self::from_source(block, weights, num_features, num_cus, num_durations)
    }
}

impl<'a, S: SampleSource> Objective<'a, S> {
    /// Wrap a source, validating the weights against its sample count.
    pub(crate) fn from_source(
        source: S,
        weights: Option<&'a [f64]>,
        num_features: usize,
        num_cus: usize,
        num_durations: usize,
    ) -> Self {
        let n = source.total_samples();
        assert!(n > 0, "cannot build an objective over zero samples");
        if let Some(w) = weights {
            assert_eq!(w.len(), n, "weights length mismatch");
            assert!(w.iter().all(|&x| x >= 0.0), "weights must be non-negative");
        }
        Self {
            source,
            weights,
            total_weight: total_weight(weights, n),
            num_features,
            num_cus,
            num_durations,
            threads: 1,
            pool: None,
            residuals: Mutex::new(Vec::new()),
            partials: Mutex::new(Vec::new()),
        }
    }

    /// Shard loss/gradient accumulation over `threads` worker threads.
    ///
    /// `0` resolves to the available parallelism; any other value is used
    /// as-is (capped at the sample count — a cohort smaller than the thread
    /// count simply runs one sample per thread).  A sharded objective spawns
    /// its [`WorkerPool`] here, **once**; every subsequent evaluation of the
    /// ADMM solve reuses the same workers.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = pfp_math::parallel::resolve_threads(threads);
        // A pool wider than the chunk count would leave workers permanently
        // idle: chunk_ranges caps the chunks at the sample count.
        let workers = self.threads.min(self.total_samples());
        self.pool = (workers > 1).then(|| WorkerPool::new(workers));
        self
    }

    /// The resolved worker-thread count (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total number of samples.
    pub fn total_samples(&self) -> usize {
        self.source.total_samples()
    }

    /// Number of output columns `C + D`.
    pub fn num_outputs(&self) -> usize {
        self.num_cus + self.num_durations
    }

    fn weight(&self, i: usize) -> f64 {
        self.weights.map_or(1.0, |w| w[i])
    }

    /// The residual half of the kernel on one segment: the `CSR × Θ` scores
    /// of `local` (rows of `block`) written into `out`, which holds
    /// `local.len() · (C+D)` entries, then each row's two softmax heads turned
    /// into weighted residuals in place, adding the weighted, un-normalised
    /// cross-entropy to `*loss` row by row.
    ///
    /// Carrying `loss` as an accumulator — instead of returning it — is what
    /// makes a chunk *segmented* across several blocks bitwise-identical to
    /// the same chunk evaluated as one block: the loss additions and each
    /// row's softmax happen in the same order either way (per-row score
    /// equality across sub-ranges is property-tested in `pfp-math`'s csr
    /// module).
    fn residual_half(
        &self,
        theta: &Matrix,
        block: &SampleShard,
        local: Range<usize>,
        out: &mut [f64],
        loss: &mut f64,
    ) {
        let (c, k) = (self.num_cus, self.num_outputs());
        block.csr.accumulate_scores_range(theta, local.clone(), out);
        if self.num_durations > 1 {
            self.residual_rows(block, local, out, &[0..c, c..k], loss);
        } else {
            // One head, the destination's (not a vector of the indices `0..c`).
            #[allow(clippy::single_range_in_vec_init)]
            let heads = [0..c];
            self.residual_rows(block, local, out, &heads, loss);
        }
    }

    /// The softmax half of [`residual_half`](Self::residual_half) over the
    /// score rows `out` of `local`, with `heads` the destination head and,
    /// when it has more than one class, the duration head.  A 1-class
    /// duration head has no softmax: its residual is zero and it adds no
    /// loss.
    fn residual_rows<const H: usize>(
        &self,
        block: &SampleShard,
        local: Range<usize>,
        out: &mut [f64],
        heads: &[Range<usize>; H],
        loss: &mut f64,
    ) {
        let labels = [
            &block.cu_labels[local.clone()],
            &block.duration_labels[local.clone()],
        ];
        let first = block.start + local.start;
        cross_entropy_softmax_rows(
            out,
            self.num_outputs(),
            heads,
            |r| std::array::from_fn(|h| labels[h][r] as usize),
            |r, row, losses| {
                let w = self.weight(first + r);
                let wn = w / self.total_weight;
                for (head, labels) in heads.iter().zip(labels) {
                    let label = labels[r] as usize;
                    for (j, out) in row[head.clone()].iter_mut().enumerate() {
                        *out = wn * (*out - if j == label { 1.0 } else { 0.0 });
                    }
                }
                row[heads[H - 1].end..].fill(0.0);
                let mut l = losses[0];
                for &head_loss in &losses[1..] {
                    l += head_loss;
                }
                *loss += w * l;
            },
        );
    }

    /// One walk over the segments of a global chunk: each segment's residual
    /// half, then — when `grad` is given — its scatter half into `grad`.
    /// Returns the chunk's un-normalised loss.
    fn fold_chunk(
        &self,
        theta: &Matrix,
        chunk: Range<usize>,
        mut grad: Option<&mut Matrix>,
    ) -> f64 {
        // A segment's residual block (`rows × (C+D)`) lives in a thread-local
        // buffer: the serial path and each persistent `WorkerPool` worker
        // allocate it once per solve instead of once per evaluation.
        thread_local! {
            static SCORE_BLOCK: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
        }
        let k = self.num_outputs();
        let mut loss = 0.0;
        SCORE_BLOCK.with(|cell| {
            let mut scratch = cell.borrow_mut();
            self.source.for_each_segment(chunk, |block, local| {
                // The scores pass overwrites the block: no zero-fill.
                let len = local.len() * k;
                if scratch.len() < len {
                    scratch.resize(len, 0.0);
                }
                let scratch = &mut scratch[..len];
                self.residual_half(theta, block, local.clone(), scratch, &mut loss);
                if let Some(grad) = grad.as_deref_mut() {
                    block.csr.scatter_gradient_range(scratch, local, grad);
                }
            });
        });
        loss
    }

    /// The residual half over a global chunk, each segment's rows written in
    /// order into `kept`.  Returns the chunk's un-normalised loss.
    fn residual_chunk(&self, theta: &Matrix, chunk: Range<usize>, kept: &mut Vec<f64>) -> f64 {
        let k = self.num_outputs();
        // Every row is overwritten by its segment's scores pass.
        kept.resize(chunk.len() * k, 0.0);
        let mut rest = kept.as_mut_slice();
        let mut loss = 0.0;
        self.source.for_each_segment(chunk, |block, local| {
            let (out, tail) = std::mem::take(&mut rest).split_at_mut(local.len() * k);
            self.residual_half(theta, block, local, out, &mut loss);
            rest = tail;
        });
        loss
    }

    /// The scatter half over a global chunk, from the residual rows
    /// [`residual_chunk`](Self::residual_chunk) kept.
    fn scatter_chunk(&self, chunk: Range<usize>, kept: &[f64], grad: &mut Matrix) {
        let k = self.num_outputs();
        let mut rest = kept;
        self.source.for_each_segment(chunk, |block, local| {
            let (residuals, tail) = rest.split_at(local.len() * k);
            block.csr.scatter_gradient_range(residuals, local, grad);
            rest = tail;
        });
    }

    /// Run `task` on every item — one per chunk — on the pool when there is
    /// one, and return the results in item order.
    fn per_chunk<I: Send, T: Send>(&self, items: Vec<I>, task: impl Fn(I) -> T + Sync) -> Vec<T> {
        match &self.pool {
            Some(pool) => {
                let task = &task;
                pool.run(items.into_iter().map(|item| move || task(item)).collect())
            }
            None => items.into_iter().map(task).collect(),
        }
    }

    /// Run `task(item, partial)` for every item — one per chunk — on the
    /// pool, each with a zeroed Θ-sized gradient partial: `grad` itself for
    /// the first, a kept partial for each later one.  The partials are then
    /// reduced into `grad` in the fixed tree order.  Returns the tasks'
    /// results in item order.
    fn per_chunk_gradient<I: Send, T: Send>(
        &self,
        items: Vec<I>,
        grad: &mut Matrix,
        task: impl Fn(I, &mut Matrix) -> T + Sync,
    ) -> Vec<T> {
        debug_assert_eq!(grad.shape(), self.shape(), "gradient shape mismatch");
        // Every partial is zeroed before it is written, so one left behind by
        // a panicked evaluation is as good as a fresh one.
        let mut partials = self.partials.lock().unwrap_or_else(PoisonError::into_inner);
        let (rows, cols) = self.shape();
        partials.resize_with(items.len().saturating_sub(1), || Matrix::zeros(rows, cols));
        let targets = std::iter::once(&mut *grad).chain(partials.iter_mut());
        let results = self.per_chunk(
            items.into_iter().zip(targets).collect(),
            |(item, partial)| {
                partial.fill(0.0);
                task(item, partial)
            },
        );
        tree_reduce_into(grad, &mut partials);
        results
    }

    /// The fused evaluation: per-thread chunks on the pool, each folded in
    /// one walk into its gradient partial, partials tree-reduced in chunk
    /// order.
    fn fold(&self, theta: &Matrix, grad: &mut Matrix) -> f64 {
        let chunks = chunk_ranges(self.total_samples(), self.threads);
        let losses = self.per_chunk_gradient(chunks, grad, |chunk, partial| {
            self.fold_chunk(theta, chunk, Some(partial))
        });
        tree_reduce_sums(losses) / self.total_weight
    }
}

impl<S: SampleSource> SmoothObjective for Objective<'_, S> {
    fn value(&self, theta: &Matrix) -> f64 {
        let chunks = chunk_ranges(self.total_samples(), self.threads);
        let losses = self.per_chunk(chunks, |chunk| self.fold_chunk(theta, chunk, None));
        tree_reduce_sums(losses) / self.total_weight
    }

    fn gradient(&self, theta: &Matrix, grad: &mut Matrix) {
        self.fold(theta, grad);
    }

    fn value_and_gradient(&self, theta: &Matrix, grad: &mut Matrix) -> f64 {
        self.fold(theta, grad)
    }

    fn value_then_gradient(
        &self,
        theta: &Matrix,
        grad: &mut Matrix,
        accept: &mut dyn FnMut(f64) -> bool,
    ) -> (f64, bool) {
        if S::REGENERATES_ROWS {
            let value = self.fold(theta, grad);
            return (value, accept(value));
        }
        let chunks = chunk_ranges(self.total_samples(), self.threads);
        // Every buffer is rewritten before it is read, so one left behind by
        // a panicked evaluation is as good as a fresh one.
        let mut kept = self
            .residuals
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        kept.resize_with(chunks.len(), Vec::new);
        let items = chunks.iter().cloned().zip(kept.iter_mut()).collect();
        let losses = self.per_chunk(items, |(chunk, buf)| self.residual_chunk(theta, chunk, buf));
        let value = tree_reduce_sums(losses) / self.total_weight;
        if !accept(value) {
            return (value, false);
        }
        let items = chunks.into_iter().zip(kept.iter()).collect();
        self.per_chunk_gradient(items, grad, |(chunk, buf), partial| {
            self.scatter_chunk(chunk, buf, partial)
        });
        (value, true)
    }

    fn shape(&self) -> (usize, usize) {
        (self.num_features, self.num_outputs())
    }

    fn row_curvature_bounds(&self) -> Option<Vec<f64>> {
        // Per head, the Hessian w.r.t. Θ is the weighted mean of
        // H_softmax ⊗ f fᵀ with ‖H_softmax‖ ≤ ½, so the diagonal entry for
        // feature row r is bounded by ½ · mean_w f_r². Using it as a per-row
        // step preconditioner is what keeps one learning-rate schedule usable
        // across feature maps whose blocks differ in scale by the day-valued
        // g(t) factor: binary service features keep the full step while the
        // day-scaled profile rows get proportionally smaller ones.  Samples
        // are visited in global order, each row's nonzeros in storage order,
        // so every source yields the same bits.
        let mut sums = vec![0.0; self.num_features];
        self.source
            .for_each_segment(0..self.total_samples(), |block, local| {
                for i in local {
                    let w = self.weight(block.start + i);
                    for (idx, v) in block.csr.row_entries(i) {
                        sums[idx as usize] += w * v * v;
                    }
                }
            });
        Some(
            sums.into_iter()
                .map(|s| 0.5 * s / self.total_weight)
                .collect(),
        )
    }
}

/// The loss (returned) and gradient (written into `grad`) of Eq. 6 by a plain
/// per-sample walk over the sparse feature vectors — no CSR packing, no
/// chunking, no pool.
///
/// This is the reference oracle [`Objective`] is tested against: it performs
/// the same floating-point operations in the same order as a serial fold, so
/// the two agree bitwise (`tests/parallel_equivalence.rs`,
/// `tests/shard_equivalence.rs`).  Solvers never call it.
pub fn per_sample_value_and_gradient(
    samples: &[Sample],
    weights: Option<&[f64]>,
    num_cus: usize,
    num_durations: usize,
    theta: &Matrix,
    grad: &mut Matrix,
) -> f64 {
    let norm = total_weight(weights, samples.len());
    grad.fill(0.0);
    let mut scores = vec![0.0; num_cus + num_durations];
    let mut loss = 0.0;
    for (i, s) in samples.iter().enumerate() {
        scores.fill(0.0);
        s.features.accumulate_scores(theta, &mut scores);
        let (cu_scores, dur_scores) = scores.split_at_mut(num_cus);
        let w = weights.map_or(1.0, |w| w[i]);
        let wn = w / norm;
        let mut l = cross_entropy(cu_scores, s.cu_label);
        softmax_in_place(cu_scores);
        for (c, out) in cu_scores.iter_mut().enumerate() {
            *out = wn * (*out - if c == s.cu_label { 1.0 } else { 0.0 });
        }
        if num_durations > 1 {
            l += cross_entropy(dur_scores, s.duration_label);
            softmax_in_place(dur_scores);
            for (d, out) in dur_scores.iter_mut().enumerate() {
                *out = wn * (*out - if d == s.duration_label { 1.0 } else { 0.0 });
            }
        } else {
            dur_scores[0] = 0.0;
        }
        loss += w * l;
        s.features.scatter_gradient(&scores, grad);
    }
    loss / norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureMapKind;
    use crate::stream::{ShardedDmcpObjective, ShardedSamples};
    use pfp_math::csr::PANEL_COLS;
    use pfp_math::SparseVec;

    fn toy_samples() -> Vec<Sample> {
        // Feature 0 active => class 0; feature 1 active => class 1.
        // Duration mirrors the destination.
        vec![
            Sample {
                patient_id: 0,
                features: SparseVec::binary(3, vec![0]),
                cu_label: 0,
                duration_label: 0,
            },
            Sample {
                patient_id: 1,
                features: SparseVec::binary(3, vec![0]),
                cu_label: 0,
                duration_label: 0,
            },
            Sample {
                patient_id: 2,
                features: SparseVec::binary(3, vec![1]),
                cu_label: 1,
                duration_label: 1,
            },
            Sample {
                patient_id: 3,
                features: SparseVec::binary(3, vec![1]),
                cu_label: 1,
                duration_label: 1,
            },
        ]
    }

    fn single_duration_samples() -> Vec<Sample> {
        toy_samples()
            .into_iter()
            .map(|mut s| {
                s.duration_label = 0;
                s
            })
            .collect()
    }

    #[test]
    fn zero_parameters_give_uniform_cross_entropy() {
        let samples = toy_samples();
        let obj = DmcpObjective::new(&samples, None, 3, 2, 2);
        let theta = Matrix::zeros(3, 4);
        let expected = 2.0 * (2.0_f64).ln(); // ln 2 per head
        assert!((obj.value(&theta) - expected).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let samples = toy_samples();
        let obj = DmcpObjective::new(&samples, None, 3, 2, 2);
        let theta = Matrix::from_fn(3, 4, |r, c| 0.1 * (r as f64) - 0.05 * (c as f64));
        let mut grad = Matrix::zeros(3, 4);
        obj.gradient(&theta, &mut grad);
        let eps = 1e-6;
        for r in 0..3 {
            for c in 0..4 {
                let mut plus = theta.clone();
                plus.add_at(r, c, eps);
                let mut minus = theta.clone();
                minus.add_at(r, c, -eps);
                let fd = (obj.value(&plus) - obj.value(&minus)) / (2.0 * eps);
                assert!(
                    (fd - grad.get(r, c)).abs() < 1e-5,
                    "grad mismatch at ({r},{c}): fd={fd}, analytic={}",
                    grad.get(r, c)
                );
            }
        }
    }

    #[test]
    fn training_signal_points_towards_separating_solution() {
        let samples = toy_samples();
        let obj = DmcpObjective::new(&samples, None, 3, 2, 2);
        let theta = Matrix::zeros(3, 4);
        let mut grad = Matrix::zeros(3, 4);
        obj.gradient(&theta, &mut grad);
        // Moving against the gradient should increase θ[0][0] (feature 0 → class 0).
        assert!(grad.get(0, 0) < 0.0);
        assert!(grad.get(1, 0) > 0.0);
        // Feature 2 never appears: its gradient row is exactly zero.
        assert_eq!(grad.row(2), &[0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn weights_rescale_sample_influence() {
        let samples = toy_samples();
        // Give all weight to the class-0 samples.
        let weights = vec![1.0, 1.0, 0.0, 0.0];
        let obj = DmcpObjective::new(&samples, Some(&weights), 3, 2, 2);
        let theta = Matrix::zeros(3, 4);
        let mut grad = Matrix::zeros(3, 4);
        obj.gradient(&theta, &mut grad);
        // Feature 1 only appears in zero-weight samples: no gradient.
        assert_eq!(grad.row(1), &[0.0, 0.0, 0.0, 0.0]);
        assert!(grad.get(0, 0) < 0.0);
    }

    #[test]
    fn single_class_duration_head_contributes_nothing() {
        let samples = single_duration_samples();
        let obj = DmcpObjective::new(&samples, None, 3, 2, 1);
        let theta = Matrix::zeros(3, 3);
        assert!((obj.value(&theta) - (2.0_f64).ln()).abs() < 1e-12);
        let mut grad = Matrix::zeros(3, 3);
        obj.gradient(&theta, &mut grad);
        for r in 0..3 {
            assert_eq!(
                grad.get(r, 2),
                0.0,
                "degenerate head must have zero gradient"
            );
        }
    }

    #[test]
    fn sharded_gradient_and_value_match_serial_within_rounding() {
        let samples = toy_samples();
        let theta = Matrix::from_fn(3, 4, |r, c| 0.3 * (r as f64) - 0.2 * (c as f64));
        let serial = DmcpObjective::new(&samples, None, 3, 2, 2);
        let mut grad_serial = Matrix::zeros(3, 4);
        serial.gradient(&theta, &mut grad_serial);
        for threads in [2, 3, 4] {
            let sharded = DmcpObjective::new(&samples, None, 3, 2, 2).with_threads(threads);
            let mut grad_sharded = Matrix::zeros(3, 4);
            sharded.gradient(&theta, &mut grad_sharded);
            assert!(
                grad_sharded.sub(&grad_serial).max_abs() <= 1e-12,
                "threads={threads}: max abs gradient diff {}",
                grad_sharded.sub(&grad_serial).max_abs()
            );
            assert!(
                (sharded.value(&theta) - serial.value(&theta)).abs() <= 1e-12,
                "threads={threads}: loss diff"
            );
        }
    }

    /// `value`, `gradient` and `value_and_gradient` against the per-sample
    /// oracle, bitwise.
    fn assert_matches_oracle_bitwise(
        samples: &[Sample],
        weights: Option<&[f64]>,
        num_durations: usize,
        theta: &Matrix,
    ) {
        let (rows, cols) = theta.shape();
        let obj = DmcpObjective::new(samples, weights, rows, 2, num_durations);
        let mut grad_oracle = Matrix::zeros(rows, cols);
        let value_oracle = per_sample_value_and_gradient(
            samples,
            weights,
            2,
            num_durations,
            theta,
            &mut grad_oracle,
        );
        let mut grad_fused = Matrix::zeros(rows, cols);
        let value_fused = obj.value_and_gradient(theta, &mut grad_fused);
        assert_eq!(grad_fused, grad_oracle, "fused gradient must match bitwise");
        assert_eq!(value_fused.to_bits(), value_oracle.to_bits());
        let mut grad_only = Matrix::zeros(rows, cols);
        obj.gradient(theta, &mut grad_only);
        assert_eq!(grad_only, grad_oracle, "gradient must match bitwise");
        assert_eq!(obj.value(theta).to_bits(), value_oracle.to_bits());
    }

    #[test]
    fn fused_evaluation_matches_separate_calls_bitwise_in_serial() {
        let samples = toy_samples();
        let weights = [1.0, 0.5, 2.0, 0.25];
        let theta = Matrix::from_fn(3, 4, |r, c| 0.4 * (r as f64) - 0.3 * (c as f64));
        for weights in [None, Some(&weights[..])] {
            assert_matches_oracle_bitwise(&samples, weights, 2, &theta);
        }
    }

    #[test]
    fn batched_csr_evaluation_matches_unbatched_per_sample_bitwise() {
        let samples = toy_samples();
        let weights = [1.0, 0.5, 2.0, 0.25];
        let theta = Matrix::from_fn(3, 4, |r, c| 0.6 * (r as f64) - 0.1 * (c as f64));
        for weights in [None, Some(&weights[..])] {
            assert_matches_oracle_bitwise(&samples, weights, 2, &theta);
        }
    }

    #[test]
    fn batched_csr_evaluation_handles_single_class_duration_head() {
        let theta = Matrix::from_fn(3, 3, |r, c| 0.3 * (r as f64) - 0.2 * (c as f64));
        assert_matches_oracle_bitwise(&single_duration_samples(), None, 1, &theta);
    }

    #[test]
    fn fused_evaluation_handles_single_class_duration_head() {
        let theta = Matrix::from_fn(3, 3, |r, c| 0.2 * (r as f64) + 0.1 * (c as f64));
        assert_matches_oracle_bitwise(&single_duration_samples(), None, 1, &theta);
    }

    #[test]
    fn fused_sharded_matches_fused_serial_within_rounding() {
        let samples = toy_samples();
        let theta = Matrix::from_fn(3, 4, |r, c| 0.3 * (r as f64) - 0.2 * (c as f64));
        let serial = DmcpObjective::new(&samples, None, 3, 2, 2);
        let mut grad_serial = Matrix::zeros(3, 4);
        let value_serial = serial.value_and_gradient(&theta, &mut grad_serial);
        for threads in [2, 3, 4, 64] {
            let sharded = DmcpObjective::new(&samples, None, 3, 2, 2).with_threads(threads);
            let mut grad_sharded = Matrix::zeros(3, 4);
            let value_sharded = sharded.value_and_gradient(&theta, &mut grad_sharded);
            assert!(
                grad_sharded.sub(&grad_serial).max_abs() <= 1e-12,
                "threads={threads}: fused gradient drift"
            );
            assert!(
                (value_sharded - value_serial).abs() <= 1e-12,
                "threads={threads}: fused value drift"
            );
        }
    }

    #[test]
    fn sharded_objective_reuses_one_pool_across_evaluations() {
        // Many evaluations on one sharded objective must all agree with the
        // serial result — exercising pool reuse across an ADMM-solve-like
        // call pattern rather than a single evaluation.
        let samples = toy_samples();
        let serial = DmcpObjective::new(&samples, None, 3, 2, 2);
        let sharded = DmcpObjective::new(&samples, None, 3, 2, 2).with_threads(3);
        for k in 0..20 {
            let theta = Matrix::from_fn(3, 4, |r, c| 0.05 * (k as f64) + 0.1 * ((r + c) as f64));
            let mut a = Matrix::zeros(3, 4);
            let mut b = Matrix::zeros(3, 4);
            let va = serial.value_and_gradient(&theta, &mut a);
            let vb = sharded.value_and_gradient(&theta, &mut b);
            assert!(b.sub(&a).max_abs() <= 1e-12, "round {k}");
            assert!((va - vb).abs() <= 1e-12, "round {k}");
        }
    }

    #[test]
    fn more_threads_than_samples_degenerates_to_one_sample_per_shard() {
        let samples = toy_samples(); // 4 samples
        let theta = Matrix::from_fn(3, 4, |r, c| 0.1 * (r + c) as f64);
        let serial = DmcpObjective::new(&samples, None, 3, 2, 2);
        let sharded = DmcpObjective::new(&samples, None, 3, 2, 2).with_threads(64);
        let mut a = Matrix::zeros(3, 4);
        let mut b = Matrix::zeros(3, 4);
        serial.gradient(&theta, &mut a);
        sharded.gradient(&theta, &mut b);
        assert!(b.sub(&a).max_abs() <= 1e-12);
    }

    #[test]
    fn fixed_thread_count_is_bitwise_deterministic() {
        let samples = toy_samples();
        let theta = Matrix::from_fn(3, 4, |r, c| 0.7 * (r as f64) - 0.4 * (c as f64));
        let run = || {
            let obj = DmcpObjective::new(&samples, None, 3, 2, 2).with_threads(3);
            let mut grad = Matrix::zeros(3, 4);
            obj.gradient(&theta, &mut grad);
            (grad, obj.value(&theta))
        };
        let (g1, v1) = run();
        let (g2, v2) = run();
        assert_eq!(g1, g2, "same thread count must be bitwise reproducible");
        assert!(v1 == v2, "loss must be bitwise reproducible");
    }

    #[test]
    fn one_thread_is_exactly_the_serial_path() {
        let samples = toy_samples();
        let theta = Matrix::from_fn(3, 4, |r, c| 0.2 * (r as f64) + 0.1 * (c as f64));
        let serial = DmcpObjective::new(&samples, None, 3, 2, 2);
        let explicit = DmcpObjective::new(&samples, None, 3, 2, 2).with_threads(1);
        let mut a = Matrix::zeros(3, 4);
        let mut b = Matrix::zeros(3, 4);
        serial.gradient(&theta, &mut a);
        explicit.gradient(&theta, &mut b);
        assert_eq!(a, b);
        assert!(serial.value(&theta) == explicit.value(&theta));
    }

    /// Three full CSR column panels and part of a fourth.
    const WIDE: usize = 3 * PANEL_COLS + 17;

    /// Synthetic samples over [`WIDE`] features whose rows cross every panel
    /// boundary; some rows live in the first panel only, some miss the
    /// middle panels, and one is empty.
    fn wide_samples(num_cus: usize, num_durations: usize) -> Vec<Sample> {
        (0..90)
            .map(|i| {
                let pairs: Vec<(u32, f64)> = match i % 5 {
                    0 => (0..6)
                        .map(|j| ((i * 13 + j * 101) % PANEL_COLS, j))
                        .collect(),
                    1 => vec![(3, 0), (PANEL_COLS - 1, 1), (3 * PANEL_COLS + i % 17, 2)],
                    2 if i == 7 => vec![],
                    _ => (0..25).map(|j| ((i * 7919 + j * 1543) % WIDE, j)).collect(),
                }
                .into_iter()
                .map(|(c, j)| {
                    (
                        c as u32,
                        0.25 + 0.5 * (j % 7) as f64 - 0.01 * (i % 3) as f64,
                    )
                })
                .collect();
                Sample {
                    patient_id: i / 3,
                    features: SparseVec::from_pairs(WIDE, pairs),
                    cu_label: i % num_cus,
                    duration_label: (i / 2) % num_durations,
                }
            })
            .collect()
    }

    fn wide_theta(cols: usize, shift: f64) -> Matrix {
        Matrix::from_fn(WIDE, cols, |r, c| {
            ((r * cols + c) as f64 * 0.37 + shift).sin() * 0.3
        })
    }

    /// The objectives over [`wide_samples`]: materialized, and sharded into
    /// blocks of seven samples.
    fn wide_objectives<'a>(
        samples: &[Sample],
        sharded: &'a ShardedSamples,
        weights: Option<&'a [f64]>,
        threads: usize,
    ) -> (DmcpObjective<'a>, ShardedDmcpObjective<'a>) {
        let (c, d) = (sharded.num_cus(), sharded.num_durations());
        (
            DmcpObjective::new(samples, weights, WIDE, c, d).with_threads(threads),
            ShardedDmcpObjective::new(sharded, weights).with_threads(threads),
        )
    }

    fn shard_wide(samples: &[Sample], num_cus: usize, num_durations: usize) -> ShardedSamples {
        let kind = FeatureMapKind::ModulatedPoisson;
        ShardedSamples::from_samples(samples, 7, kind, 17, WIDE - 17, num_cus, num_durations)
    }

    fn matrix_bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Above the panel width, on one thread, the materialized and sharded
    /// objectives equal the per-sample oracle bit for bit, on the blocked
    /// (K = 16) and the generic (K = 7) kernel paths, weighted and not.
    #[test]
    fn objectives_above_the_panel_width_match_the_oracle_bitwise() {
        for (c, d) in [(8, 8), (3, 4)] {
            let samples = wide_samples(c, d);
            let sharded = shard_wide(&samples, c, d);
            let weights: Vec<f64> = (0..samples.len()).map(|i| 0.5 + (i % 4) as f64).collect();
            let theta = wide_theta(c + d, 0.0);
            for weights in [None, Some(&weights[..])] {
                let mut oracle = Matrix::zeros(WIDE, c + d);
                let value =
                    per_sample_value_and_gradient(&samples, weights, c, d, &theta, &mut oracle);
                let (materialized, sharded) = wide_objectives(&samples, &sharded, weights, 1);
                for (name, objective) in [
                    ("materialized", &materialized as &dyn SmoothObjective),
                    ("sharded", &sharded),
                ] {
                    let mut grad = Matrix::zeros(WIDE, c + d);
                    let v = objective.value_and_gradient(&theta, &mut grad);
                    assert_eq!(v.to_bits(), value.to_bits(), "{name}, K={}", c + d);
                    assert_eq!(
                        matrix_bits(&grad),
                        matrix_bits(&oracle),
                        "{name}, K={}",
                        c + d
                    );
                    assert_eq!(objective.value(&theta).to_bits(), value.to_bits());
                }
            }
        }
    }

    /// Above the panel width, two and three threads agree with one to
    /// rounding, and a repeated evaluation, reusing the kept partials,
    /// repeats its bits.
    #[test]
    fn pooled_objectives_above_the_panel_width_agree_with_one_thread() {
        let (c, d) = (8, 8);
        let samples = wide_samples(c, d);
        let sharded = shard_wide(&samples, c, d);
        let theta = wide_theta(c + d, 1.0);
        let mut serial = Matrix::zeros(WIDE, c + d);
        let value = per_sample_value_and_gradient(&samples, None, c, d, &theta, &mut serial);
        for threads in [2, 3] {
            let (materialized, sharded) = wide_objectives(&samples, &sharded, None, threads);
            for objective in [&materialized as &dyn SmoothObjective, &sharded] {
                let mut first = Matrix::zeros(WIDE, c + d);
                let v = objective.value_and_gradient(&theta, &mut first);
                assert!((v - value).abs() <= 1e-12, "threads={threads}: value drift");
                assert!(
                    first.sub(&serial).max_abs() <= 1e-12,
                    "threads={threads}: gradient drift"
                );
                let mut again = Matrix::from_fn(WIDE, c + d, |_, _| f64::NAN);
                let w = objective.value_and_gradient(&theta, &mut again);
                assert_eq!(w.to_bits(), v.to_bits());
                assert_eq!(
                    matrix_bits(&again),
                    matrix_bits(&first),
                    "threads={threads}"
                );
            }
        }
    }

    /// Above the panel width, an accepted `value_then_gradient` gives the
    /// fused evaluation's bits, and a rejected one leaves `grad` untouched.
    #[test]
    fn value_then_gradient_above_the_panel_width_matches_the_fused_bits() {
        let (c, d) = (8, 8);
        let samples = wide_samples(c, d);
        let sharded = shard_wide(&samples, c, d);
        for threads in [1, 2, 3] {
            let (materialized, sharded) = wide_objectives(&samples, &sharded, None, threads);
            for objective in [&materialized as &dyn SmoothObjective, &sharded] {
                for shift in [0.0, 2.0] {
                    let theta = wide_theta(c + d, shift);
                    let mut fused = Matrix::zeros(WIDE, c + d);
                    let value = objective.value_and_gradient(&theta, &mut fused);
                    let sentinel = Matrix::from_fn(WIDE, c + d, |r, k| (r + k) as f64);
                    let mut grad = sentinel.clone();
                    let (v, accepted) =
                        objective.value_then_gradient(&theta, &mut grad, &mut |_| false);
                    assert!(!accepted);
                    assert_eq!(v.to_bits(), value.to_bits(), "threads={threads}");
                    assert_eq!(matrix_bits(&grad), matrix_bits(&sentinel), "rejected");
                    let (v, accepted) =
                        objective.value_then_gradient(&theta, &mut grad, &mut |_| true);
                    assert!(accepted);
                    assert_eq!(v.to_bits(), value.to_bits(), "threads={threads}");
                    assert_eq!(matrix_bits(&grad), matrix_bits(&fused), "threads={threads}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn rejects_empty_sample_set() {
        let samples: Vec<Sample> = vec![];
        let _ = DmcpObjective::new(&samples, None, 3, 2, 2);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_out_of_range_label() {
        let samples = vec![Sample {
            patient_id: 0,
            features: SparseVec::binary(2, vec![0]),
            cu_label: 5,
            duration_label: 0,
        }];
        let _ = DmcpObjective::new(&samples, None, 2, 2, 2);
    }
}
