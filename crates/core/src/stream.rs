//! Sharded and out-of-core training over streaming cohort shards.
//!
//! The materialized path ([`crate::dataset::Dataset`] → [`DmcpObjective`](crate::loss::DmcpObjective))
//! holds the whole cohort several times over: `Vec<PatientRecord>`, the raw
//! samples (each with its own cloned history), the featurized samples, *and*
//! the CSR packing.  At paper scale and beyond that is the memory ceiling.
//! This module replaces the monolithic packing with **shard blocks** fed by
//! the seeded, resumable [`CohortShards`] generator:
//!
//! * [`ShardedSamples`] / [`ShardedDmcpObjective`] — the cohort's featurized
//!   samples packed into per-shard [`CsrMatrix`] blocks plus label vectors,
//!   built by streaming patients through the featurizer (peak transient:
//!   one patient shard).  Evaluation folds `value_and_gradient` over the
//!   blocks; the retained state is the CSR blocks only, not the patients or
//!   sparse-vector samples.
//! * [`StreamingDmcpObjective`] — true out-of-core: retains **no** sample
//!   data at all, only an 8-byte-per-patient sample-offset index.  Every
//!   evaluation regenerates and re-featurizes the cohort one patient at a
//!   time into a reused scratch CSR block ([`CsrMatrix::clear_rows`] +
//!   `push_row`), so peak memory is independent of the cohort size, at the
//!   cost of regenerating the cohort per evaluation.
//!
//! # Determinism contract (the shard fold)
//!
//! Both objectives reproduce the materialized [`DmcpObjective`](crate::loss::DmcpObjective) **bitwise at
//! a fixed thread count** and to ≤1e-12 across thread counts, for *any* shard
//! size (property-tested in `tests/shard_equivalence.rs`).  Why bitwise
//! holds:
//!
//! 1. Per-thread chunks come from the same `chunk_ranges(total_samples,
//!    threads)` the materialized objective uses — chunk boundaries never
//!    depend on the shard size.
//! 2. Within a chunk, the overlapping shard blocks are walked in sample
//!    order through `fused_csr_block`, which carries the loss accumulator
//!    across segments: the per-row scores, softmax residuals, loss additions
//!    and gradient scatters are the same floating-point operations in the
//!    same order as one un-segmented pass (per-row score equality across CSR
//!    sub-ranges is property-tested in `pfp-math`).
//! 3. Partials are combined with the same fixed-order tree reduction.
//!
//! Shard size therefore changes *where* the work is segmented but not a
//! single floating-point operation; only the thread count changes summation
//! order.

use std::ops::Range;

use pfp_ehr::departments::{NUM_CARE_UNITS, NUM_DURATION_CLASSES};
use pfp_ehr::{CohortConfig, CohortShards, PatientRecord};
use pfp_math::parallel::{
    chunk_ranges, intersect_ranges, tree_reduce_matrices, tree_reduce_sums, WorkerPool,
};
use pfp_math::{CsrMatrix, Matrix, SparseVec};
use pfp_optim::admm::{WarmStart, WarmStartError};
use pfp_optim::SmoothObjective;

use crate::dataset::Sample;
use crate::features::{FeatureMapKind, HistoryFeaturizer, HistoryStay, EVAL_OFFSET_DAYS};
use crate::imbalance::ImbalanceStrategy;
use crate::loss::fused_csr_block;
use crate::model::DmcpModel;
use crate::train::{solve_for_train, TrainConfig, TrainReport};

/// Featurize every transition sample of one patient, in transition order,
/// without materializing `RawSample`s: `visit(features, cu_label,
/// duration_label)` is called once per transition.
///
/// Produces exactly the features
/// [`extract_patient_samples`](crate::dataset::extract_patient_samples) +
/// [`HistoryFeaturizer::featurize`] would — the history prefix passed for
/// transition `i` is identical content in identical order — so the streamed
/// features match the materialized ones bitwise.  The full history is built
/// once per patient and sliced per transition, instead of re-cloning a
/// growing prefix per sample.
pub fn for_each_patient_sample(
    patient: &PatientRecord,
    featurizer: &HistoryFeaturizer,
    mut visit: impl FnMut(SparseVec, usize, usize),
) {
    let transitions = patient.transitions();
    if transitions.is_empty() {
        return;
    }
    let history: Vec<HistoryStay> = patient
        .stays
        .iter()
        .map(|s| HistoryStay {
            entry_time: s.entry_time,
            services: s.services.clone(),
        })
        .collect();
    for t in &transitions {
        let current = t.from_stay;
        let t_prev = if current == 0 {
            0.0
        } else {
            patient.stays[current - 1].entry_time
        };
        let t_eval = patient.stays[current].entry_time + EVAL_OFFSET_DAYS;
        let features = featurizer.featurize(&patient.profile, &history[..=current], t_eval, t_prev);
        visit(features, t.destination, t.duration_class);
    }
}

/// One featurized shard: a CSR block over the shard's samples plus their
/// labels.  Row `i` of `csr` is global sample `start + i`.
#[derive(Debug, Clone)]
pub struct SampleShard {
    /// Global index of this shard's first sample.
    pub start: usize,
    /// Feature rows of the shard's samples.
    pub csr: CsrMatrix,
    /// Destination labels (parallel to the CSR rows).
    pub cu_labels: Vec<u32>,
    /// Duration-class labels (parallel to the CSR rows).
    pub duration_labels: Vec<u32>,
}

impl SampleShard {
    /// Number of samples in the shard.
    pub fn len(&self) -> usize {
        self.csr.rows()
    }

    /// Whether the shard holds no samples (possible: a patient shard whose
    /// patients all have single-stay trajectories yields zero transitions).
    pub fn is_empty(&self) -> bool {
        self.csr.rows() == 0
    }

    /// The global sample range this shard covers.
    pub fn range(&self) -> Range<usize> {
        self.start..self.start + self.len()
    }
}

/// A cohort's featurized samples as shard blocks, plus the layout metadata a
/// trainer needs.  Built either from already-featurized samples
/// ([`from_samples`](Self::from_samples)) or by streaming a cohort config
/// through the generator and featurizer without ever materializing patient or
/// sample vectors ([`stream_cohort`](Self::stream_cohort)).
#[derive(Debug, Clone)]
pub struct ShardedSamples {
    shards: Vec<SampleShard>,
    num_features: usize,
    num_cus: usize,
    num_durations: usize,
    total_samples: usize,
    /// The feature map the samples were featurized under (recorded by
    /// `stream_cohort`; `from_samples` callers track their own).
    kind: Option<FeatureMapKind>,
    profile_dim: usize,
    service_dim: usize,
}

impl ShardedSamples {
    /// Pack featurized samples into shard blocks of at most `shard_size`
    /// samples.
    ///
    /// # Panics
    /// Panics if `shard_size == 0`, a label is out of range, or a feature
    /// vector has the wrong dimension.
    pub fn from_samples(
        samples: &[Sample],
        shard_size: usize,
        num_features: usize,
        num_cus: usize,
        num_durations: usize,
    ) -> Self {
        assert!(shard_size > 0, "shard_size must be positive");
        assert!(
            num_cus >= 1 && num_durations >= 1,
            "need at least one class per head"
        );
        let mut shards = Vec::with_capacity(samples.len().div_ceil(shard_size).max(1));
        for (block_idx, block) in samples.chunks(shard_size).enumerate() {
            let mut shard = SampleShard {
                start: block_idx * shard_size,
                csr: CsrMatrix::with_dim(num_features),
                cu_labels: Vec::with_capacity(block.len()),
                duration_labels: Vec::with_capacity(block.len()),
            };
            for s in block {
                assert_eq!(s.features.dim(), num_features, "feature dimension mismatch");
                assert!(s.cu_label < num_cus, "destination label out of range");
                assert!(
                    s.duration_label < num_durations,
                    "duration label out of range"
                );
                shard.csr.push_row(&s.features);
                shard.cu_labels.push(s.cu_label as u32);
                shard.duration_labels.push(s.duration_label as u32);
            }
            shards.push(shard);
        }
        Self {
            shards,
            num_features,
            num_cus,
            num_durations,
            total_samples: samples.len(),
            kind: None,
            profile_dim: 0,
            service_dim: 0,
        }
    }

    /// Stream the cohort of `config` into featurized shard blocks of (at
    /// most) the samples of `shard_size` patients each, without ever holding
    /// more than one patient shard in memory.
    ///
    /// `kind` overrides the feature map; `None` selects the paper default
    /// (mutually-correcting with σ = cohort mean dwell time, computed in a
    /// streaming pre-pass that sums dwell times in exactly
    /// [`pfp_ehr::stats::mean_dwell_days`]' order, so σ — and therefore every
    /// feature — matches the materialized
    /// [`Dataset`](crate::dataset::Dataset) path bitwise).
    pub fn stream_cohort(
        config: &CohortConfig,
        kind: Option<FeatureMapKind>,
        shard_size: usize,
    ) -> Self {
        let kind = kind.unwrap_or_else(|| default_mcp_kind_streaming(config, shard_size));
        let profile_dim = config.features.profile;
        let service_dim = config.features.time_varying_dim();
        let num_features = profile_dim + service_dim;
        let featurizer = HistoryFeaturizer::new(kind, profile_dim, service_dim);
        let mut shards = Vec::new();
        let mut total_samples = 0usize;
        for patient_shard in CohortShards::new(config, shard_size) {
            let mut shard = SampleShard {
                start: total_samples,
                csr: CsrMatrix::with_dim(num_features),
                cu_labels: Vec::new(),
                duration_labels: Vec::new(),
            };
            for patient in &patient_shard.patients {
                for_each_patient_sample(patient, &featurizer, |features, cu, dur| {
                    shard.csr.push_row(&features);
                    shard.cu_labels.push(cu as u32);
                    shard.duration_labels.push(dur as u32);
                });
            }
            total_samples += shard.len();
            shards.push(shard);
        }
        Self {
            shards,
            num_features,
            num_cus: NUM_CARE_UNITS,
            num_durations: NUM_DURATION_CLASSES,
            total_samples,
            kind: Some(kind),
            profile_dim,
            service_dim,
        }
    }

    /// Total number of samples across all shards.
    pub fn total_samples(&self) -> usize {
        self.total_samples
    }

    /// The shard blocks, in sample order.
    pub fn shards(&self) -> &[SampleShard] {
        &self.shards
    }

    /// Feature dimension `M`.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of destination classes `C`.
    pub fn num_cus(&self) -> usize {
        self.num_cus
    }

    /// Number of duration classes `D`.
    pub fn num_durations(&self) -> usize {
        self.num_durations
    }

    /// The feature map recorded by [`stream_cohort`](Self::stream_cohort).
    pub fn kind(&self) -> Option<FeatureMapKind> {
        self.kind
    }

    /// Per-joint-class `(c, d)` sample counts, streamed over the shard
    /// labels.  Same counts as
    /// [`crate::imbalance::joint_class_counts`] on the materialized samples.
    pub fn joint_class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_cus * self.num_durations];
        for shard in &self.shards {
            for (&c, &d) in shard.cu_labels.iter().zip(&shard.duration_labels) {
                counts[c as usize * self.num_durations + d as usize] += 1;
            }
        }
        counts
    }

    /// The weighted-data (WDMCP) per-sample weights, `w_i = 1 / ln(1 +
    /// #{(c_i, d_i)})`, in global sample order — bitwise the same values as
    /// [`crate::imbalance::sample_weights`] on the materialized samples.
    pub fn sample_weights(&self) -> Vec<f64> {
        let counts = self.joint_class_counts();
        let mut weights = Vec::with_capacity(self.total_samples);
        for shard in &self.shards {
            for (&c, &d) in shard.cu_labels.iter().zip(&shard.duration_labels) {
                let n = counts[c as usize * self.num_durations + d as usize].max(1);
                weights.push(1.0 / (1.0 + n as f64).ln());
            }
        }
        weights
    }

    /// Index of the first shard whose sample range ends after `sample` —
    /// the entry point of a chunk fold.
    fn first_shard_overlapping(&self, sample: usize) -> usize {
        self.shards.partition_point(|s| s.range().end <= sample)
    }
}

/// The DMCP objective folded over [`ShardedSamples`] blocks.
///
/// Drop-in replacement for [`DmcpObjective`](crate::loss::DmcpObjective) on the solver side
/// ([`solve_group_lasso`](pfp_optim::admm::solve_group_lasso) takes any
/// [`SmoothObjective`]); reproduces it
/// bitwise at a fixed thread count for any shard size (see the module docs
/// for the argument, `tests/shard_equivalence.rs` for the proof-by-test).
pub struct ShardedDmcpObjective<'a> {
    samples: &'a ShardedSamples,
    weights: Option<&'a [f64]>,
    threads: usize,
    total_weight: f64,
    pool: Option<WorkerPool>,
}

impl<'a> ShardedDmcpObjective<'a> {
    /// Build an objective over shard blocks.
    ///
    /// # Panics
    /// Panics if there are zero samples, or `weights` (when given) has the
    /// wrong length or a negative entry.
    pub fn new(samples: &'a ShardedSamples, weights: Option<&'a [f64]>) -> Self {
        assert!(
            samples.total_samples > 0,
            "cannot build an objective over zero samples"
        );
        if let Some(w) = weights {
            assert_eq!(w.len(), samples.total_samples, "weights length mismatch");
            assert!(w.iter().all(|&x| x >= 0.0), "weights must be non-negative");
        }
        let total_weight = match weights {
            Some(w) => w.iter().sum::<f64>().max(1e-12),
            None => samples.total_samples as f64,
        };
        Self {
            samples,
            weights,
            threads: 1,
            total_weight,
            pool: None,
        }
    }

    /// Shard loss/gradient accumulation over `threads` worker threads, with
    /// the same semantics as [`DmcpObjective::with_threads`](crate::loss::DmcpObjective::with_threads) (same chunk
    /// boundaries, same pool-width cap, same determinism contract).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = pfp_math::parallel::resolve_threads(threads);
        let workers = self.threads.min(self.samples.total_samples);
        self.pool = (workers > 1).then(|| WorkerPool::new(workers));
        self
    }

    /// Number of output columns `C + D`.
    pub fn num_outputs(&self) -> usize {
        self.samples.num_cus + self.samples.num_durations
    }

    /// Fold the fused kernel over the shard blocks a global chunk crosses,
    /// carrying the loss accumulator so the chunk is bitwise-equal to an
    /// un-segmented evaluation of the same sample range.
    fn fold_chunk(&self, theta: &Matrix, chunk: Range<usize>, grad: &mut Matrix) -> f64 {
        let mut loss = 0.0;
        let first = self.samples.first_shard_overlapping(chunk.start);
        for shard in &self.samples.shards[first..] {
            if shard.start >= chunk.end {
                break;
            }
            let overlap = intersect_ranges(&chunk, &shard.range());
            if overlap.is_empty() {
                continue;
            }
            let local = overlap.start - shard.start..overlap.end - shard.start;
            let base = shard.start;
            fused_csr_block(
                &shard.csr,
                theta,
                local,
                self.samples.num_cus,
                self.samples.num_durations,
                self.total_weight,
                |i| {
                    (
                        shard.cu_labels[i] as usize,
                        shard.duration_labels[i] as usize,
                    )
                },
                |i| self.weights.map(|w| w[base + i]).unwrap_or(1.0),
                grad,
                &mut loss,
            );
        }
        loss
    }

    /// The per-thread global sample chunks — the same pure function of
    /// `(total_samples, threads)` the materialized objective uses.
    fn chunks(&self) -> Vec<Range<usize>> {
        chunk_ranges(self.samples.total_samples, self.threads)
    }

    fn run_sharded<T, F>(&self, chunks: Vec<Range<usize>>, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> T + Sync,
    {
        match &self.pool {
            Some(pool) => {
                let task = &task;
                pool.run(chunks.into_iter().map(|r| move || task(r)).collect())
            }
            None => chunks.into_iter().map(task).collect(),
        }
    }

    /// Fused fold shared by all three trait entry points: the fused kernel's
    /// loss is bitwise-identical to the separate value pass and its gradient
    /// to the separate gradient pass (established for [`DmcpObjective`](crate::loss::DmcpObjective) by
    /// the `parallel_equivalence` suite), so one fold serves `value`,
    /// `gradient` and `value_and_gradient` alike.
    fn fold(&self, theta: &Matrix, grad: &mut Matrix) -> f64 {
        let chunks = self.chunks();
        if chunks.len() <= 1 {
            grad.fill(0.0);
            let loss = self.fold_chunk(theta, 0..self.samples.total_samples, grad);
            return loss / self.total_weight;
        }
        let (rows, cols) = grad.shape();
        let partials = self.run_sharded(chunks, |chunk| {
            let mut partial = Matrix::zeros(rows, cols);
            let loss = self.fold_chunk(theta, chunk, &mut partial);
            (loss, partial)
        });
        let (losses, grads): (Vec<f64>, Vec<Matrix>) = partials.into_iter().unzip();
        *grad = tree_reduce_matrices(grads).expect("at least one gradient chunk");
        tree_reduce_sums(losses) / self.total_weight
    }
}

impl SmoothObjective for ShardedDmcpObjective<'_> {
    fn value(&self, theta: &Matrix) -> f64 {
        let mut scratch = Matrix::zeros(self.samples.num_features, self.num_outputs());
        self.fold(theta, &mut scratch)
    }

    fn gradient(&self, theta: &Matrix, grad: &mut Matrix) {
        self.fold(theta, grad);
    }

    fn value_and_gradient(&self, theta: &Matrix, grad: &mut Matrix) -> f64 {
        self.fold(theta, grad)
    }

    fn shape(&self) -> (usize, usize) {
        (self.samples.num_features, self.num_outputs())
    }

    fn row_curvature_bounds(&self) -> Option<Vec<f64>> {
        // Same accumulation order as the materialized objective: samples in
        // global order, each row's nonzeros in storage order.
        let mut sums = vec![0.0; self.samples.num_features];
        for shard in &self.samples.shards {
            for local in 0..shard.len() {
                let w = self.weights.map(|w| w[shard.start + local]).unwrap_or(1.0);
                let (indices, values) = shard.csr.row(local);
                for (&idx, &v) in indices.iter().zip(values) {
                    sums[idx as usize] += w * v * v;
                }
            }
        }
        let norm = self.total_weight;
        Some(sums.into_iter().map(|s| 0.5 * s / norm).collect())
    }
}

/// Streaming pre-pass for the paper-default feature map: the cohort mean
/// dwell time summed in exactly [`pfp_ehr::stats::mean_dwell_days`]' order
/// (patients in id order, stays in chronological order), one patient shard
/// in memory at a time.
fn default_mcp_kind_streaming(config: &CohortConfig, shard_size: usize) -> FeatureMapKind {
    let mut sum = 0.0f64;
    let mut count = 0usize;
    for shard in CohortShards::new(config, shard_size) {
        for p in &shard.patients {
            for s in &p.stays {
                sum += s.dwell_days;
                count += 1;
            }
        }
    }
    let mean = if count == 0 { 1.0 } else { sum / count as f64 };
    FeatureMapKind::MutuallyCorrecting {
        sigma: mean.max(0.5),
    }
}

/// The out-of-core DMCP objective: regenerates and re-featurizes the cohort
/// from its seed on **every** evaluation, patient by patient, retaining only an
/// 8-byte-per-patient sample-offset index between evaluations.
///
/// Peak memory is independent of the cohort size: an evaluation holds one
/// patient and one patient's scratch CSR rows per worker thread, reused via
/// [`CsrMatrix::clear_rows`]; `shard_size` bounds only the construction
/// pre-passes (σ, the sample-offset index, the curvature bounds), which hold
/// one patient shard at a time.  The price is
/// one cohort generation + featurization per evaluation; this is the
/// memory-bound end of the trade-off, [`ShardedDmcpObjective`] (retained CSR
/// blocks) the speed-bound end.  Results are bitwise-identical to both (same
/// chunks, same segmented fused kernel, same reductions; segment boundaries —
/// here at patient granularity — do not change the operation order).
///
/// Per-sample weights are not supported (they would require a per-evaluation
/// streaming re-count); train with [`ImbalanceStrategy::None`].
pub struct StreamingDmcpObjective {
    config: CohortConfig,
    featurizer: HistoryFeaturizer,
    kind: FeatureMapKind,
    shard_size: usize,
    /// `sample_offsets[p]` = number of samples contributed by patients
    /// `0..p`; length `num_patients + 1`.  The only retained per-patient
    /// state.
    sample_offsets: Vec<usize>,
    num_features: usize,
    num_cus: usize,
    num_durations: usize,
    threads: usize,
    total_weight: f64,
    pool: Option<WorkerPool>,
    profile_dim: usize,
    service_dim: usize,
}

impl StreamingDmcpObjective {
    /// Build the objective for the cohort of `config`, streaming two
    /// pre-passes (σ, then the sample-offset index) with at most
    /// `shard_size` patients in memory at a time.  `shard_size` bounds only
    /// these pre-passes and the curvature-bound pass; evaluations hold one
    /// patient at a time.
    ///
    /// `kind` overrides the feature map; `None` selects the paper default.
    ///
    /// # Panics
    /// Panics if the cohort yields zero transition samples or
    /// `shard_size == 0`.
    pub fn new(config: &CohortConfig, kind: Option<FeatureMapKind>, shard_size: usize) -> Self {
        assert!(shard_size > 0, "shard_size must be positive");
        let kind = kind.unwrap_or_else(|| default_mcp_kind_streaming(config, shard_size));
        let profile_dim = config.features.profile;
        let service_dim = config.features.time_varying_dim();
        let featurizer = HistoryFeaturizer::new(kind, profile_dim, service_dim);
        let mut sample_offsets = Vec::with_capacity(config.num_patients + 1);
        sample_offsets.push(0);
        let mut total = 0usize;
        for shard in CohortShards::new(config, shard_size) {
            for p in &shard.patients {
                total += p.num_transitions();
                sample_offsets.push(total);
            }
        }
        assert!(
            total > 0,
            "cannot build an objective over zero samples (cohort has no transitions)"
        );
        Self {
            config: config.clone(),
            featurizer,
            kind,
            shard_size,
            sample_offsets,
            num_features: profile_dim + service_dim,
            num_cus: NUM_CARE_UNITS,
            num_durations: NUM_DURATION_CLASSES,
            threads: 1,
            total_weight: total as f64,
            pool: None,
            profile_dim,
            service_dim,
        }
    }

    /// Shard accumulation over `threads` workers (same contract as
    /// [`DmcpObjective::with_threads`](crate::loss::DmcpObjective::with_threads)).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = pfp_math::parallel::resolve_threads(threads);
        let workers = self.threads.min(self.total_samples());
        self.pool = (workers > 1).then(|| WorkerPool::new(workers));
        self
    }

    /// Total number of transition samples in the cohort.
    pub fn total_samples(&self) -> usize {
        *self.sample_offsets.last().expect("non-empty offsets")
    }

    /// The feature map in use (needed to build the matching [`DmcpModel`]).
    pub fn kind(&self) -> FeatureMapKind {
        self.kind
    }

    /// Number of output columns `C + D`.
    pub fn num_outputs(&self) -> usize {
        self.num_cus + self.num_durations
    }

    /// Regenerate, featurize and fold one global sample chunk, one patient at
    /// a time: each patient's rows are packed into a reused scratch CSR block
    /// and flushed through the fused kernel before the next patient is
    /// generated, so the scratch (and the kernel's score block) never holds
    /// more than one patient's samples.
    fn fold_chunk(&self, theta: &Matrix, chunk: Range<usize>, grad: &mut Matrix) -> f64 {
        let mut loss = 0.0;
        let mut csr = CsrMatrix::with_dim(self.num_features);
        let mut cu_labels: Vec<u32> = Vec::new();
        let mut duration_labels: Vec<u32> = Vec::new();
        // First patient whose sample range ends after the chunk starts.
        let first = self.sample_offsets[1..].partition_point(|&end| end <= chunk.start);
        for p in first..self.config.num_patients {
            let p_range = self.sample_offsets[p]..self.sample_offsets[p + 1];
            if p_range.start >= chunk.end {
                break;
            }
            let overlap = intersect_ranges(&chunk, &p_range);
            if overlap.is_empty() {
                continue;
            }
            let (record, _) = pfp_ehr::generate_patient_record(&self.config, p);
            let mut s_idx = p_range.start;
            for_each_patient_sample(&record, &self.featurizer, |features, cu, dur| {
                if overlap.contains(&s_idx) {
                    csr.push_row(&features);
                    cu_labels.push(cu as u32);
                    duration_labels.push(dur as u32);
                }
                s_idx += 1;
            });
            fused_csr_block(
                &csr,
                theta,
                0..csr.rows(),
                self.num_cus,
                self.num_durations,
                self.total_weight,
                |i| (cu_labels[i] as usize, duration_labels[i] as usize),
                |_| 1.0,
                grad,
                &mut loss,
            );
            csr.clear_rows();
            cu_labels.clear();
            duration_labels.clear();
        }
        loss
    }

    fn fold(&self, theta: &Matrix, grad: &mut Matrix) -> f64 {
        let chunks = chunk_ranges(self.total_samples(), self.threads);
        if chunks.len() <= 1 {
            grad.fill(0.0);
            let loss = self.fold_chunk(theta, 0..self.total_samples(), grad);
            return loss / self.total_weight;
        }
        let (rows, cols) = grad.shape();
        let partials = match &self.pool {
            Some(pool) => {
                let task = |chunk: Range<usize>| {
                    let mut partial = Matrix::zeros(rows, cols);
                    let loss = self.fold_chunk(theta, chunk, &mut partial);
                    (loss, partial)
                };
                let task = &task;
                pool.run(chunks.into_iter().map(|r| move || task(r)).collect())
            }
            None => chunks
                .into_iter()
                .map(|chunk| {
                    let mut partial = Matrix::zeros(rows, cols);
                    let loss = self.fold_chunk(theta, chunk, &mut partial);
                    (loss, partial)
                })
                .collect(),
        };
        let (losses, grads): (Vec<f64>, Vec<Matrix>) = partials.into_iter().unzip();
        *grad = tree_reduce_matrices(grads).expect("at least one gradient chunk");
        tree_reduce_sums(losses) / self.total_weight
    }
}

impl SmoothObjective for StreamingDmcpObjective {
    fn value(&self, theta: &Matrix) -> f64 {
        let mut scratch = Matrix::zeros(self.num_features, self.num_outputs());
        self.fold(theta, &mut scratch)
    }

    fn gradient(&self, theta: &Matrix, grad: &mut Matrix) {
        self.fold(theta, grad);
    }

    fn value_and_gradient(&self, theta: &Matrix, grad: &mut Matrix) -> f64 {
        self.fold(theta, grad)
    }

    fn shape(&self) -> (usize, usize) {
        (self.num_features, self.num_outputs())
    }

    fn row_curvature_bounds(&self) -> Option<Vec<f64>> {
        // One more streaming pass, same accumulation order as the
        // materialized objective.
        let mut sums = vec![0.0; self.num_features];
        for shard in CohortShards::new(&self.config, self.shard_size) {
            for p in &shard.patients {
                for_each_patient_sample(p, &self.featurizer, |features, _, _| {
                    for (idx, v) in features.iter() {
                        sums[idx as usize] += v * v;
                    }
                });
            }
        }
        let norm = self.total_weight;
        Some(sums.into_iter().map(|s| 0.5 * s / norm).collect())
    }
}

/// Train a [`DmcpModel`] over pre-built shard blocks.
///
/// Reproduces [`crate::train::train`] bitwise for the same samples (same
/// θ₀ initialisation, same solver config, same objective values — see
/// `tests/admm_convergence.rs`).  Supports [`ImbalanceStrategy::None`] and
/// [`ImbalanceStrategy::Weighted`] (weights streamed from the shard labels);
/// `Synthetic` requires materialized samples and panics.
///
/// # Panics
/// Panics on zero samples, a missing feature-map kind (build the shards with
/// [`ShardedSamples::stream_cohort`] or set `config.feature_map`), or the
/// synthetic imbalance strategy.
pub fn train_sharded(samples: &ShardedSamples, config: &TrainConfig) -> DmcpModel {
    train_sharded_warm(samples, config, None)
        .expect("cold start cannot fail")
        .model
}

/// [`train_sharded`] with an optional carried [`WarmStart`], returning the
/// full [`TrainReport`] — the rolling-retrain entry point: retrain on
/// yesterday's shards plus today's, seeded from yesterday's exit state.
pub fn train_sharded_warm(
    samples: &ShardedSamples,
    config: &TrainConfig,
    warm: Option<&WarmStart>,
) -> Result<TrainReport, WarmStartError> {
    let kind = config
        .feature_map
        .or(samples.kind)
        .expect("feature-map kind unknown: stream the shards or set config.feature_map");
    let weights = match config.imbalance {
        ImbalanceStrategy::None => None,
        ImbalanceStrategy::Weighted => Some(samples.sample_weights()),
        ImbalanceStrategy::Synthetic { .. } => {
            panic!("synthetic imbalance requires materialized samples")
        }
    };
    let objective =
        ShardedDmcpObjective::new(samples, weights.as_deref()).with_threads(config.threads);
    let result = solve_for_train(&objective, config, warm)?;
    Ok(TrainReport::from_solve(result, |theta, selection| {
        DmcpModel {
            theta,
            selection,
            kind,
            profile_dim: samples.profile_dim,
            service_dim: samples.service_dim,
            num_cus: samples.num_cus,
            num_durations: samples.num_durations,
        }
    }))
}

/// Train a [`DmcpModel`] fully out-of-core: the cohort of `cohort_config`
/// never exists in memory, only `shard_size`-patient windows of it during
/// the pre-passes and single patients during evaluations.
///
/// Reproduces `train(&Dataset::from_cohort(&generate_cohort(cohort_config)),
/// config)` bitwise at a fixed thread count.
///
/// # Panics
/// Panics if `config.imbalance` is not [`ImbalanceStrategy::None`] (weighted
/// and synthetic strategies need materialized samples or retained labels —
/// use [`train_sharded`] for weighted) or the cohort has no transitions.
pub fn train_streamed(
    cohort_config: &CohortConfig,
    config: &TrainConfig,
    shard_size: usize,
) -> DmcpModel {
    train_streamed_warm(cohort_config, config, shard_size, None)
        .expect("cold start cannot fail")
        .model
}

/// [`train_streamed`] with an optional carried [`WarmStart`], returning the
/// full [`TrainReport`].
///
/// # Panics
/// Same conditions as [`train_streamed`].
pub fn train_streamed_warm(
    cohort_config: &CohortConfig,
    config: &TrainConfig,
    shard_size: usize,
    warm: Option<&WarmStart>,
) -> Result<TrainReport, WarmStartError> {
    assert!(
        config.imbalance == ImbalanceStrategy::None,
        "out-of-core training supports ImbalanceStrategy::None only"
    );
    let objective = StreamingDmcpObjective::new(cohort_config, config.feature_map, shard_size)
        .with_threads(config.threads);
    let kind = objective.kind();
    let result = solve_for_train(&objective, config, warm)?;
    Ok(TrainReport::from_solve(result, |theta, selection| {
        DmcpModel {
            theta,
            selection,
            kind,
            profile_dim: objective.profile_dim,
            service_dim: objective.service_dim,
            num_cus: objective.num_cus,
            num_durations: objective.num_durations,
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::loss::DmcpObjective;
    use pfp_ehr::generate_cohort;

    fn fixture() -> (Dataset, Vec<Sample>) {
        let cohort = generate_cohort(&CohortConfig::tiny(17));
        let ds = Dataset::from_cohort(&cohort);
        let samples = ds.featurize(ds.default_mcp_kind());
        (ds, samples)
    }

    #[test]
    fn streamed_features_match_materialized_featurization_bitwise() {
        let cohort = generate_cohort(&CohortConfig::tiny(17));
        let ds = Dataset::from_cohort(&cohort);
        let kind = ds.default_mcp_kind();
        let materialized = ds.featurize(kind);
        let featurizer = ds.featurizer(kind);
        let mut streamed = Vec::new();
        for p in &cohort.patients {
            for_each_patient_sample(p, &featurizer, |features, cu, dur| {
                streamed.push((features, cu, dur));
            });
        }
        assert_eq!(streamed.len(), materialized.len());
        for ((f, cu, dur), m) in streamed.iter().zip(&materialized) {
            assert_eq!(f, &m.features, "features must match bitwise");
            assert_eq!((*cu, *dur), (m.cu_label, m.duration_label));
        }
    }

    #[test]
    fn stream_cohort_matches_from_samples_packing() {
        let (ds, samples) = fixture();
        let streamed = ShardedSamples::stream_cohort(&CohortConfig::tiny(17), None, 40);
        assert_eq!(streamed.total_samples(), samples.len());
        assert_eq!(streamed.num_features(), ds.total_feature_dim());
        // Same σ as the materialized dataset pre-pass.
        assert_eq!(streamed.kind(), Some(ds.default_mcp_kind()));
        // Row-for-row identical content (shard boundaries differ: stream
        // shards are per-patient, from_samples shards are per-sample).
        let mut global = 0usize;
        for shard in streamed.shards() {
            assert_eq!(shard.start, global);
            for local in 0..shard.len() {
                let s = &samples[global];
                let (idx, val) = shard.csr.row(local);
                assert_eq!(idx, s.features.indices());
                assert_eq!(val, s.features.values());
                assert_eq!(shard.cu_labels[local] as usize, s.cu_label);
                assert_eq!(shard.duration_labels[local] as usize, s.duration_label);
                global += 1;
            }
        }
        assert_eq!(global, samples.len());
    }

    #[test]
    fn sharded_objective_matches_materialized_bitwise_in_serial() {
        let (ds, samples) = fixture();
        let m = ds.total_feature_dim();
        let reference = DmcpObjective::new(&samples, None, m, ds.num_cus, ds.num_durations);
        let theta = Matrix::from_fn(m, ds.num_cus + ds.num_durations, |r, c| {
            0.01 * ((r % 13) as f64) - 0.02 * (c as f64)
        });
        let mut grad_ref = Matrix::zeros(m, ds.num_cus + ds.num_durations);
        let value_ref = reference.value_and_gradient(&theta, &mut grad_ref);
        for shard_size in [1usize, 7, samples.len(), samples.len() + 1] {
            let sharded =
                ShardedSamples::from_samples(&samples, shard_size, m, ds.num_cus, ds.num_durations);
            let obj = ShardedDmcpObjective::new(&sharded, None);
            let mut grad = Matrix::zeros(m, ds.num_cus + ds.num_durations);
            let value = obj.value_and_gradient(&theta, &mut grad);
            assert_eq!(value.to_bits(), value_ref.to_bits(), "shard={shard_size}");
            assert_eq!(grad, grad_ref, "shard={shard_size}");
            assert_eq!(value.to_bits(), obj.value(&theta).to_bits());
            let mut grad_only = Matrix::zeros(m, ds.num_cus + ds.num_durations);
            obj.gradient(&theta, &mut grad_only);
            assert_eq!(grad_only, grad_ref);
            assert_eq!(
                obj.row_curvature_bounds(),
                reference.row_curvature_bounds(),
                "shard={shard_size}"
            );
        }
    }

    #[test]
    fn streaming_objective_matches_materialized_bitwise_in_serial() {
        let cohort_config = CohortConfig::tiny(17);
        let (ds, samples) = fixture();
        let m = ds.total_feature_dim();
        let reference = DmcpObjective::new(&samples, None, m, ds.num_cus, ds.num_durations);
        let theta = Matrix::from_fn(m, ds.num_cus + ds.num_durations, |r, c| {
            0.015 * ((r % 11) as f64) - 0.01 * (c as f64)
        });
        let mut grad_ref = Matrix::zeros(m, ds.num_cus + ds.num_durations);
        let value_ref = reference.value_and_gradient(&theta, &mut grad_ref);
        for shard_size in [1usize, 32, 1000] {
            let obj = StreamingDmcpObjective::new(&cohort_config, None, shard_size);
            assert_eq!(obj.total_samples(), samples.len());
            let mut grad = Matrix::zeros(m, ds.num_cus + ds.num_durations);
            let value = obj.value_and_gradient(&theta, &mut grad);
            assert_eq!(value.to_bits(), value_ref.to_bits(), "shard={shard_size}");
            assert_eq!(grad, grad_ref, "shard={shard_size}");
            assert_eq!(
                obj.row_curvature_bounds(),
                reference.row_curvature_bounds(),
                "shard={shard_size}"
            );
        }
    }

    #[test]
    fn sharded_weights_match_imbalance_module() {
        let (ds, samples) = fixture();
        let m = ds.total_feature_dim();
        let sharded = ShardedSamples::from_samples(&samples, 7, m, ds.num_cus, ds.num_durations);
        let expected = crate::imbalance::sample_weights(&samples, ds.num_cus, ds.num_durations);
        let got = sharded.sample_weights();
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.to_bits(), e.to_bits());
        }
        assert_eq!(
            sharded.joint_class_counts(),
            crate::imbalance::joint_class_counts(&samples, ds.num_cus, ds.num_durations)
        );
    }

    #[test]
    fn empty_sample_shards_are_skipped_in_the_fold() {
        // Hand-build shards with an empty block in the middle (a patient
        // shard of single-stay patients).
        let (ds, samples) = fixture();
        let m = ds.total_feature_dim();
        let mut sharded =
            ShardedSamples::from_samples(&samples, samples.len(), m, ds.num_cus, ds.num_durations);
        // Split shard 0 into [0..k), an empty shard, [k..n).
        let only = sharded.shards.remove(0);
        let k = samples.len() / 2;
        let mut first = SampleShard {
            start: 0,
            csr: CsrMatrix::with_dim(m),
            cu_labels: Vec::new(),
            duration_labels: Vec::new(),
        };
        let mut second = SampleShard {
            start: k,
            csr: CsrMatrix::with_dim(m),
            cu_labels: Vec::new(),
            duration_labels: Vec::new(),
        };
        for (i, s) in samples.iter().enumerate().take(only.len()) {
            let target = if i < k { &mut first } else { &mut second };
            target.csr.push_row(&s.features);
            target.cu_labels.push(only.cu_labels[i]);
            target.duration_labels.push(only.duration_labels[i]);
        }
        let empty = SampleShard {
            start: k,
            csr: CsrMatrix::with_dim(m),
            cu_labels: Vec::new(),
            duration_labels: Vec::new(),
        };
        sharded.shards = vec![first, empty, second];
        let obj = ShardedDmcpObjective::new(&sharded, None);
        let reference = DmcpObjective::new(&samples, None, m, ds.num_cus, ds.num_durations);
        let theta = Matrix::from_fn(m, ds.num_cus + ds.num_durations, |r, c| {
            0.01 * (r as f64 % 7.0) + 0.005 * (c as f64)
        });
        let mut grad = Matrix::zeros(m, ds.num_cus + ds.num_durations);
        let mut grad_ref = Matrix::zeros(m, ds.num_cus + ds.num_durations);
        let value = obj.value_and_gradient(&theta, &mut grad);
        let value_ref = reference.value_and_gradient(&theta, &mut grad_ref);
        assert_eq!(value.to_bits(), value_ref.to_bits());
        assert_eq!(grad, grad_ref);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn sharded_objective_rejects_zero_samples() {
        let sharded = ShardedSamples::from_samples(&[], 4, 3, 2, 2);
        let _ = ShardedDmcpObjective::new(&sharded, None);
    }

    #[test]
    #[should_panic(expected = "out-of-core training supports")]
    fn train_streamed_rejects_weighted_imbalance() {
        let _ = train_streamed(
            &CohortConfig::tiny(1),
            &TrainConfig::fast().with_imbalance(ImbalanceStrategy::Weighted),
            64,
        );
    }
}
