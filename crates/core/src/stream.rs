//! Sharded and out-of-core training over streaming cohort shards.
//!
//! The materialized path ([`crate::dataset::Dataset`] → [`DmcpObjective`](crate::loss::DmcpObjective))
//! holds the whole cohort several times over: `Vec<PatientRecord>`, the raw
//! samples (each with its own cloned history), the featurized samples, *and*
//! the CSR packing.  At paper scale and beyond that is the memory ceiling.
//! This module supplies the two bounded-memory [`SampleSource`]s of the one
//! DMCP [`Objective`], fed by the seeded, resumable [`CohortShards`]
//! generator:
//!
//! * [`ShardedSamples`] / [`ShardedDmcpObjective`] — the cohort's featurized
//!   samples packed into per-shard [`CsrMatrix`] blocks plus label vectors,
//!   built by streaming patients through the featurizer (peak transient:
//!   one patient shard).  The retained state is the CSR blocks only, not the
//!   patients or sparse-vector samples.
//! * [`CohortStream`] / [`StreamingDmcpObjective`] — true out-of-core:
//!   retains **no** sample data at all, only an 8-byte-per-patient
//!   sample-offset index.  Every evaluation regenerates and re-featurizes the
//!   cohort one patient at a time into a reused scratch CSR block
//!   ([`CsrMatrix::clear_rows`] + `push_row`), so peak memory is independent
//!   of the cohort size, at the cost of regenerating the cohort per
//!   evaluation.
//!
//! Both reproduce the materialized objective **bitwise at a fixed thread
//! count** and to ≤1e-12 across thread counts, for *any* shard size: shard
//! size changes where a chunk is segmented, never a floating-point operation.
//! The argument is the determinism contract on [`Objective`]; the proof by
//! test is `tests/shard_equivalence.rs`.

use std::ops::Range;

use pfp_ehr::departments::{NUM_CARE_UNITS, NUM_DURATION_CLASSES};
use pfp_ehr::{CohortConfig, CohortShards, PatientRecord};
use pfp_math::parallel::intersect_ranges;
use pfp_math::{CsrMatrix, SparseVec};
use pfp_optim::admm::{WarmStart, WarmStartError};

use crate::dataset::Sample;
use crate::features::{FeatureMapKind, HistoryFeaturizer, HistoryStay, EVAL_OFFSET_DAYS};
use crate::imbalance::ImbalanceStrategy;
use crate::loss::{Objective, SampleSource};
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

/// One block of featurized samples: a CSR block plus their labels.  Row `i`
/// of `csr` is global sample `start + i`.
///
/// This is the unit every [`SampleSource`] hands the objective: a retained
/// shard of [`ShardedSamples`], the streamed per-patient scratch of
/// [`CohortStream`], or — as a source on its own, starting at sample 0 —
/// the whole materialized cohort of [`DmcpObjective`](crate::loss::DmcpObjective).
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
    /// Pack featurized samples into one block whose first row is global
    /// sample `start`.
    ///
    /// # Panics
    /// Panics if a label is out of range or a feature vector has the wrong
    /// dimension.
    pub(crate) fn pack(
        start: usize,
        samples: &[Sample],
        num_features: usize,
        num_cus: usize,
        num_durations: usize,
    ) -> Self {
        assert!(
            num_cus >= 1 && num_durations >= 1,
            "need at least one class per head"
        );
        for s in samples {
            assert_eq!(s.features.dim(), num_features, "feature dimension mismatch");
            assert!(s.cu_label < num_cus, "destination label out of range");
            assert!(
                s.duration_label < num_durations,
                "duration label out of range"
            );
        }
        Self {
            start,
            csr: CsrMatrix::from_rows(num_features, samples.iter().map(|s| &s.features)),
            cu_labels: samples.iter().map(|s| s.cu_label as u32).collect(),
            duration_labels: samples.iter().map(|s| s.duration_label as u32).collect(),
        }
    }

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

    fn clear(&mut self) {
        self.csr.clear_rows();
        self.cu_labels.clear();
        self.duration_labels.clear();
    }
}

/// One retained block starting at sample 0: the materialized objective's
/// source.
impl SampleSource for SampleShard {
    fn total_samples(&self) -> usize {
        self.len()
    }

    fn for_each_segment(
        &self,
        range: Range<usize>,
        mut visit: impl FnMut(&SampleShard, Range<usize>),
    ) {
        visit(self, range.start - self.start..range.end - self.start);
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
    /// samples.  The features were built with a `profile_dim`-wide profile
    /// block and a `service_dim`-wide time-varying block (`M` is their sum),
    /// recorded so [`train_sharded`] builds a model of the right layout.
    ///
    /// # Panics
    /// Panics if `shard_size == 0`, a label is out of range, or a feature
    /// vector has the wrong dimension.
    pub fn from_samples(
        samples: &[Sample],
        shard_size: usize,
        profile_dim: usize,
        service_dim: usize,
        num_cus: usize,
        num_durations: usize,
    ) -> Self {
        assert!(shard_size > 0, "shard_size must be positive");
        let shards = samples
            .chunks(shard_size)
            .enumerate()
            .map(|(block_idx, block)| {
                SampleShard::pack(
                    block_idx * shard_size,
                    block,
                    profile_dim + service_dim,
                    num_cus,
                    num_durations,
                )
            })
            .collect();
        Self {
            shards,
            num_cus,
            num_durations,
            total_samples: samples.len(),
            kind: None,
            profile_dim,
            service_dim,
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
        self.profile_dim + self.service_dim
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
}

/// Retained shard blocks, walked in sample order.
impl SampleSource for ShardedSamples {
    fn total_samples(&self) -> usize {
        self.total_samples
    }

    fn for_each_segment(
        &self,
        range: Range<usize>,
        mut visit: impl FnMut(&SampleShard, Range<usize>),
    ) {
        // Skip to the first shard whose sample range ends after the range
        // starts.
        let first = self
            .shards
            .partition_point(|s| s.range().end <= range.start);
        for shard in &self.shards[first..] {
            if shard.start >= range.end {
                break;
            }
            let overlap = intersect_ranges(&range, &shard.range());
            if !overlap.is_empty() {
                shard.for_each_segment(overlap, &mut visit);
            }
        }
    }
}

/// The DMCP [`Objective`] folded over [`ShardedSamples`] blocks: a drop-in
/// replacement for [`DmcpObjective`](crate::loss::DmcpObjective) on the solver
/// side that reproduces it bitwise at a fixed thread count for any shard size
/// (see [`Objective`] for the contract).
pub type ShardedDmcpObjective<'a> = Objective<'a, &'a ShardedSamples>;

impl<'a> ShardedDmcpObjective<'a> {
    /// Build an objective over shard blocks.
    ///
    /// # Panics
    /// Panics if there are zero samples, or `weights` (when given) has the
    /// wrong length or a negative entry.
    pub fn new(samples: &'a ShardedSamples, weights: Option<&'a [f64]>) -> Self {
        Objective::from_source(
            samples,
            weights,
            samples.num_features(),
            samples.num_cus,
            samples.num_durations,
        )
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

/// The regenerated sample source: the cohort of a [`CohortConfig`],
/// regenerated from its seed and re-featurized on every walk, patient by
/// patient, retaining only an 8-byte-per-patient sample-offset index.
///
/// A walk holds one patient and that patient's rows in a reused scratch CSR
/// block ([`CsrMatrix::clear_rows`]), flushing them through the visitor
/// before the next patient is generated.
pub struct CohortStream {
    config: CohortConfig,
    featurizer: HistoryFeaturizer,
    kind: FeatureMapKind,
    /// `sample_offsets[p]` = number of samples contributed by patients
    /// `0..p`; length `num_patients + 1`.  The only retained per-patient
    /// state.
    sample_offsets: Vec<usize>,
    profile_dim: usize,
    service_dim: usize,
}

impl SampleSource for CohortStream {
    /// Every walk regenerates and re-featurizes the cohort.
    const REGENERATES_ROWS: bool = true;

    fn total_samples(&self) -> usize {
        *self.sample_offsets.last().expect("non-empty offsets")
    }

    fn for_each_segment(
        &self,
        range: Range<usize>,
        mut visit: impl FnMut(&SampleShard, Range<usize>),
    ) {
        let mut block = SampleShard {
            start: range.start,
            csr: CsrMatrix::with_dim(self.profile_dim + self.service_dim),
            cu_labels: Vec::new(),
            duration_labels: Vec::new(),
        };
        // First patient whose sample range ends after the range starts.
        let first = self.sample_offsets[1..].partition_point(|&end| end <= range.start);
        for p in first..self.config.num_patients {
            let p_range = self.sample_offsets[p]..self.sample_offsets[p + 1];
            if p_range.start >= range.end {
                break;
            }
            let overlap = intersect_ranges(&range, &p_range);
            if overlap.is_empty() {
                continue;
            }
            let (record, _) = pfp_ehr::generate_patient_record(&self.config, p);
            let mut s_idx = p_range.start;
            for_each_patient_sample(&record, &self.featurizer, |features, cu, dur| {
                if overlap.contains(&s_idx) {
                    block.csr.push_row(&features);
                    block.cu_labels.push(cu as u32);
                    block.duration_labels.push(dur as u32);
                }
                s_idx += 1;
            });
            block.start = overlap.start;
            visit(&block, 0..block.len());
            block.clear();
        }
    }
}

/// The out-of-core DMCP [`Objective`]: regenerates and re-featurizes the
/// cohort from its seed on **every** evaluation ([`CohortStream`]).
///
/// Peak memory is independent of the cohort size: an evaluation holds one
/// patient and one patient's scratch CSR rows per worker thread.  The price is
/// one cohort generation + featurization per evaluation; this is the
/// memory-bound end of the trade-off, [`ShardedDmcpObjective`] (retained CSR
/// blocks) the speed-bound end.  Results are bitwise-identical to both (see
/// [`Objective`] for the contract; segment boundaries — here at patient
/// granularity — do not change the operation order).
///
/// Per-sample weights are not supported (they would require a per-evaluation
/// streaming re-count); train with [`ImbalanceStrategy::None`].
pub type StreamingDmcpObjective = Objective<'static, CohortStream>;

impl StreamingDmcpObjective {
    /// Build the objective for the cohort of `config`, streaming two
    /// pre-passes (σ, then the sample-offset index) with at most
    /// `shard_size` patients in memory at a time.  `shard_size` bounds only
    /// these pre-passes; evaluations and the curvature pass hold one patient
    /// at a time.
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
        let mut sample_offsets = Vec::with_capacity(config.num_patients + 1);
        sample_offsets.push(0);
        let mut total = 0usize;
        for shard in CohortShards::new(config, shard_size) {
            for p in &shard.patients {
                total += p.num_transitions();
                sample_offsets.push(total);
            }
        }
        let source = CohortStream {
            config: config.clone(),
            featurizer: HistoryFeaturizer::new(kind, profile_dim, service_dim),
            kind,
            sample_offsets,
            profile_dim,
            service_dim,
        };
        Objective::from_source(
            source,
            None,
            profile_dim + service_dim,
            NUM_CARE_UNITS,
            NUM_DURATION_CLASSES,
        )
    }

    /// The feature map in use (needed to build the matching [`DmcpModel`]).
    pub fn kind(&self) -> FeatureMapKind {
        self.source.kind
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
    let result = solve_for_train(&objective, config, warm)?;
    let source = &objective.source;
    Ok(TrainReport::from_solve(result, |theta, selection| {
        DmcpModel {
            theta,
            selection,
            kind: source.kind,
            profile_dim: source.profile_dim,
            service_dim: source.service_dim,
            num_cus: NUM_CARE_UNITS,
            num_durations: NUM_DURATION_CLASSES,
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::loss::DmcpObjective;
    use pfp_ehr::generate_cohort;
    use pfp_math::Matrix;
    use pfp_optim::SmoothObjective;

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
            let sharded = ShardedSamples::from_samples(
                &samples,
                shard_size,
                ds.profile_dim,
                ds.service_dim,
                ds.num_cus,
                ds.num_durations,
            );
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
        let sharded = ShardedSamples::from_samples(
            &samples,
            7,
            ds.profile_dim,
            ds.service_dim,
            ds.num_cus,
            ds.num_durations,
        );
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
        let mut sharded = ShardedSamples::from_samples(
            &samples,
            samples.len(),
            ds.profile_dim,
            ds.service_dim,
            ds.num_cus,
            ds.num_durations,
        );
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
    fn models_trained_on_from_samples_shards_predict() {
        // `from_samples` must record the profile/service split, or the
        // trained model reports zero features and the first predict panics.
        let (ds, samples) = fixture();
        let sharded = ShardedSamples::from_samples(
            &samples,
            7,
            ds.profile_dim,
            ds.service_dim,
            ds.num_cus,
            ds.num_durations,
        );
        let config = TrainConfig::fast().with_feature_map(ds.default_mcp_kind());
        let model = train_sharded(&sharded, &config);
        assert_eq!(model.num_features(), ds.total_feature_dim());
        assert_eq!(model.theta.rows(), model.num_features());
        for s in &samples {
            let (cu, dur) = model.predict(&s.features);
            assert!(cu < ds.num_cus && dur < ds.num_durations);
        }
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn sharded_objective_rejects_zero_samples() {
        let sharded = ShardedSamples::from_samples(&[], 4, 3, 0, 2, 2);
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
