//! The bounded-memory sample sources of the one DMCP [`Objective`], fed by
//! the seeded, resumable [`CohortShards`] generator.
//!
//! The materialized path ([`crate::dataset::Dataset`] →
//! [`DmcpObjective`](crate::loss::DmcpObjective)) holds the cohort several
//! times over: the patient records, the raw samples (each with its own cloned
//! history), the featurized samples and the CSR packing.  At paper scale and
//! beyond that is the memory ceiling.  The sources here hold less:
//!
//! * [`ShardedSamples`] retains only the featurized per-shard [`CsrMatrix`]
//!   blocks and labels, built one patient shard at a time.
//! * [`CohortStream`] retains only an 8-byte-per-patient sample-offset index
//!   and regenerates and re-featurizes the cohort, one patient at a time, on
//!   every evaluation, so peak memory is independent of the cohort size.
//!
//! Both reproduce the materialized objective **bitwise at a fixed thread
//! count** and to ≤1e-12 across thread counts, for *any* shard size: shard
//! size changes where a chunk is segmented, never a floating-point operation
//! (the determinism contract on [`Objective`]; `tests/shard_equivalence.rs`).
//! Both train through [`train`](crate::train::train), as
//! [`TrainSource::Shards`](crate::train::TrainSource::Shards) and
//! [`TrainSource::Stream`](crate::train::TrainSource::Stream).

use std::ops::Range;

use pfp_ehr::departments::{NUM_CARE_UNITS, NUM_DURATION_CLASSES};
use pfp_ehr::{CohortConfig, CohortShards, PatientRecord};
use pfp_math::parallel::intersect_ranges;
use pfp_math::{CsrMatrix, SparseVec};

use crate::dataset::Sample;
use crate::features::{FeatureMapKind, HistoryFeaturizer, HistoryStay, EVAL_OFFSET_DAYS};
use crate::loss::{Objective, SampleSource};
use crate::train::ModelLayout;

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

    /// An empty block of `num_features`-wide rows starting at sample `start`.
    fn empty(start: usize, num_features: usize) -> Self {
        Self {
            start,
            csr: CsrMatrix::with_dim(num_features),
            cu_labels: Vec::new(),
            duration_labels: Vec::new(),
        }
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

/// A cohort's featurized samples as shard blocks, with the feature map and
/// layout they were featurized under.  Built from featurized samples
/// ([`from_samples`](Self::from_samples)) or streamed from a cohort config
/// without materializing patients or samples ([`stream_cohort`](Self::stream_cohort)).
#[derive(Debug, Clone)]
pub struct ShardedSamples {
    shards: Vec<SampleShard>,
    pub(crate) layout: ModelLayout,
}

impl ShardedSamples {
    /// Pack samples featurized under `kind`, with a `profile_dim`-wide profile
    /// block and a `service_dim`-wide time-varying block, into shard blocks
    /// of at most `shard_size` samples.
    ///
    /// # Panics
    /// Panics if `shard_size == 0`, a label is out of range, or a feature
    /// vector has the wrong dimension.
    pub fn from_samples(
        samples: &[Sample],
        shard_size: usize,
        kind: FeatureMapKind,
        profile_dim: usize,
        service_dim: usize,
        num_cus: usize,
        num_durations: usize,
    ) -> Self {
        assert!(shard_size > 0, "shard_size must be positive");
        let layout = ModelLayout {
            kind,
            profile_dim,
            service_dim,
            num_cus,
            num_durations,
        };
        let m = layout.num_features();
        let shards = samples
            .chunks(shard_size)
            .enumerate()
            .map(|(block_idx, block)| {
                SampleShard::pack(block_idx * shard_size, block, m, num_cus, num_durations)
            })
            .collect();
        Self { shards, layout }
    }

    /// Stream the cohort of `config` into featurized shard blocks of the
    /// samples of (at most) `shard_size` patients each, holding one patient
    /// shard in memory at a time.  `kind` overrides the feature map; `None`
    /// selects the paper default, whose σ — and so every feature — matches
    /// the materialized [`Dataset`](crate::dataset::Dataset) path bitwise.
    pub fn stream_cohort(
        config: &CohortConfig,
        kind: Option<FeatureMapKind>,
        shard_size: usize,
    ) -> Self {
        let layout = cohort_layout(config, kind, shard_size);
        let featurizer =
            HistoryFeaturizer::new(layout.kind, layout.profile_dim, layout.service_dim);
        let mut shards = Vec::new();
        let mut total_samples = 0usize;
        for patient_shard in CohortShards::new(config, shard_size) {
            let mut shard = SampleShard::empty(total_samples, layout.num_features());
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
        Self { shards, layout }
    }

    /// Total number of samples across all shards.
    pub fn total_samples(&self) -> usize {
        self.shards.last().map_or(0, |s| s.range().end)
    }

    /// The shard blocks, in sample order.
    pub fn shards(&self) -> &[SampleShard] {
        &self.shards
    }

    /// Feature dimension `M`.
    pub fn num_features(&self) -> usize {
        self.layout.num_features()
    }

    /// Number of destination classes `C`.
    pub fn num_cus(&self) -> usize {
        self.layout.num_cus
    }

    /// Number of duration classes `D`.
    pub fn num_durations(&self) -> usize {
        self.layout.num_durations
    }

    /// The feature map the samples were featurized under.
    pub fn kind(&self) -> FeatureMapKind {
        self.layout.kind
    }

    /// Per-joint-class `(c, d)` sample counts, streamed over the shard
    /// labels.  Same counts as
    /// [`crate::imbalance::joint_class_counts`] on the materialized samples.
    pub fn joint_class_counts(&self) -> Vec<usize> {
        let num_durations = self.layout.num_durations;
        let mut counts = vec![0usize; self.layout.num_cus * num_durations];
        for shard in &self.shards {
            for (&c, &d) in shard.cu_labels.iter().zip(&shard.duration_labels) {
                counts[c as usize * num_durations + d as usize] += 1;
            }
        }
        counts
    }

    /// The weighted-data (WDMCP) per-sample weights, `w_i = 1 / ln(1 +
    /// #{(c_i, d_i)})`, in global sample order — bitwise the same values as
    /// [`crate::imbalance::sample_weights`] on the materialized samples.
    pub fn sample_weights(&self) -> Vec<f64> {
        let counts = self.joint_class_counts();
        let mut weights = Vec::with_capacity(self.total_samples());
        for shard in &self.shards {
            for (&c, &d) in shard.cu_labels.iter().zip(&shard.duration_labels) {
                let n = counts[c as usize * self.layout.num_durations + d as usize].max(1);
                weights.push(1.0 / (1.0 + n as f64).ln());
            }
        }
        weights
    }
}

/// Retained shard blocks, walked in sample order.
impl SampleSource for ShardedSamples {
    fn total_samples(&self) -> usize {
        self.total_samples()
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
            samples.num_cus(),
            samples.num_durations(),
        )
    }
}

/// The layout of the cohort of `config` under `kind`.  `None` selects the
/// paper default, whose σ a streaming pre-pass sums in exactly
/// [`pfp_ehr::stats::mean_dwell_days`]' order (patients in id order, stays
/// in chronological order), so σ matches the materialized path bitwise.
fn cohort_layout(
    config: &CohortConfig,
    kind: Option<FeatureMapKind>,
    shard_size: usize,
) -> ModelLayout {
    let kind = kind.unwrap_or_else(|| {
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
    });
    ModelLayout {
        kind,
        profile_dim: config.features.profile,
        service_dim: config.features.time_varying_dim(),
        num_cus: NUM_CARE_UNITS,
        num_durations: NUM_DURATION_CLASSES,
    }
}

/// The regenerated sample source: the cohort of a [`CohortConfig`],
/// regenerated from its seed and re-featurized on every walk, retaining only
/// an 8-byte-per-patient sample-offset index.  A walk holds one patient and
/// its rows in a reused scratch CSR block ([`CsrMatrix::clear_rows`]) per
/// worker thread, flushing them through the visitor before the next patient.
pub struct CohortStream {
    config: CohortConfig,
    featurizer: HistoryFeaturizer,
    /// `sample_offsets[p]` = number of samples contributed by patients
    /// `0..p`; length `num_patients + 1`.  The only retained per-patient
    /// state.
    sample_offsets: Vec<usize>,
    pub(crate) layout: ModelLayout,
}

impl CohortStream {
    /// The source behind [`StreamingDmcpObjective::new`].
    pub(crate) fn new(
        config: &CohortConfig,
        kind: Option<FeatureMapKind>,
        shard_size: usize,
    ) -> Self {
        assert!(shard_size > 0, "shard_size must be positive");
        let layout = cohort_layout(config, kind, shard_size);
        let mut sample_offsets = Vec::with_capacity(config.num_patients + 1);
        sample_offsets.push(0);
        let mut total = 0usize;
        for shard in CohortShards::new(config, shard_size) {
            for p in &shard.patients {
                total += p.num_transitions();
                sample_offsets.push(total);
            }
        }
        Self {
            config: config.clone(),
            featurizer: HistoryFeaturizer::new(layout.kind, layout.profile_dim, layout.service_dim),
            sample_offsets,
            layout,
        }
    }
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
        let mut block = SampleShard::empty(range.start, self.layout.num_features());
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

/// The out-of-core DMCP [`Objective`] over a [`CohortStream`]: the
/// memory-bound end of the trade-off, paying one cohort generation and
/// featurization per evaluation, where [`ShardedDmcpObjective`] (retained CSR
/// blocks) is the speed-bound end.  Both are bitwise-identical to the
/// materialized objective (segment boundaries, here at patient granularity, do
/// not change the operation order).  Per-sample weights are not supported:
/// they would need a per-evaluation streaming re-count.
pub type StreamingDmcpObjective = Objective<'static, CohortStream>;

impl StreamingDmcpObjective {
    /// Build the objective for the cohort of `config` under `kind` (`None`:
    /// the paper default), with `shard_size` patients per streaming pre-pass
    /// (σ, then the sample-offset index).
    ///
    /// # Panics
    /// Panics if the cohort yields zero transition samples or
    /// `shard_size == 0`.
    pub fn new(config: &CohortConfig, kind: Option<FeatureMapKind>, shard_size: usize) -> Self {
        let source = CohortStream::new(config, kind, shard_size);
        let m = source.layout.num_features();
        Objective::from_source(source, None, m, NUM_CARE_UNITS, NUM_DURATION_CLASSES)
    }

    /// The feature map in use (needed to build the matching
    /// [`DmcpModel`](crate::model::DmcpModel)).
    pub fn kind(&self) -> FeatureMapKind {
        self.source.layout.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::imbalance::ImbalanceStrategy;
    use crate::loss::DmcpObjective;
    use crate::train::{train, TrainConfig, TrainError, TrainSource};
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
        assert_eq!(streamed.kind(), ds.default_mcp_kind());
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
                ds.default_mcp_kind(),
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
            ds.default_mcp_kind(),
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
            ds.default_mcp_kind(),
            ds.profile_dim,
            ds.service_dim,
            ds.num_cus,
            ds.num_durations,
        );
        // Split shard 0 into [0..k), an empty shard, [k..n).
        let only = sharded.shards.remove(0);
        let k = samples.len() / 2;
        let mut first = SampleShard::empty(0, m);
        let mut second = SampleShard::empty(k, m);
        for (i, s) in samples.iter().enumerate().take(only.len()) {
            let target = if i < k { &mut first } else { &mut second };
            target.csr.push_row(&s.features);
            target.cu_labels.push(only.cu_labels[i]);
            target.duration_labels.push(only.duration_labels[i]);
        }
        sharded.shards = vec![first, SampleShard::empty(k, m), second];
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
            ds.default_mcp_kind(),
            ds.profile_dim,
            ds.service_dim,
            ds.num_cus,
            ds.num_durations,
        );
        let model = train(&sharded, &TrainConfig::fast(), None).unwrap().model;
        assert_eq!(model.kind, ds.default_mcp_kind());
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
        let sharded = ShardedSamples::from_samples(&[], 4, FeatureMapKind::CurrentOnly, 3, 0, 2, 2);
        let _ = ShardedDmcpObjective::new(&sharded, None);
    }

    fn stream(cohort: &CohortConfig) -> TrainSource<'_> {
        TrainSource::Stream {
            cohort,
            shard_size: 64,
        }
    }

    #[test]
    fn train_streamed_rejects_weighted_imbalance() {
        let config = TrainConfig::fast().with_imbalance(ImbalanceStrategy::Weighted);
        assert_eq!(
            train(stream(&CohortConfig::tiny(1)), &config, None).unwrap_err(),
            TrainError::UnsupportedImbalance {
                source: "stream",
                strategy: ImbalanceStrategy::Weighted,
            }
        );
    }

    #[test]
    fn the_stream_source_rejects_synthetic_imbalance() {
        let strategy = ImbalanceStrategy::synthetic();
        let config = TrainConfig::fast().with_imbalance(strategy);
        assert_eq!(
            train(stream(&CohortConfig::tiny(1)), &config, None).unwrap_err(),
            TrainError::UnsupportedImbalance {
                source: "stream",
                strategy,
            }
        );
    }

    #[test]
    fn the_shards_source_rejects_synthetic_imbalance() {
        let (ds, samples) = fixture();
        let sharded = ShardedSamples::from_samples(
            &samples,
            7,
            ds.default_mcp_kind(),
            ds.profile_dim,
            ds.service_dim,
            ds.num_cus,
            ds.num_durations,
        );
        let strategy = ImbalanceStrategy::synthetic();
        let err = train(
            &sharded,
            &TrainConfig::fast().with_imbalance(strategy),
            None,
        )
        .unwrap_err();
        assert_eq!(
            err,
            TrainError::UnsupportedImbalance {
                source: "shards",
                strategy,
            }
        );
        assert!(err.to_string().contains("Synthetic"), "{err}");
    }

    #[test]
    fn empty_shards_and_an_empty_cohort_stream_are_rejected() {
        let empty = ShardedSamples::from_samples(&[], 4, FeatureMapKind::CurrentOnly, 3, 0, 2, 2);
        let config = TrainConfig::fast();
        assert_eq!(
            train(&empty, &config, None).unwrap_err(),
            TrainError::NoSamples
        );
        let weighted = config.with_imbalance(ImbalanceStrategy::Weighted);
        assert_eq!(
            train(&empty, &weighted, None).unwrap_err(),
            TrainError::NoSamples
        );
        let no_patients = CohortConfig {
            num_patients: 0,
            ..CohortConfig::tiny(1)
        };
        assert_eq!(
            train(stream(&no_patients), &config, None).unwrap_err(),
            TrainError::NoSamples
        );
    }

    #[test]
    fn shards_train_only_under_the_feature_map_they_were_featurized_under() {
        // Before shards carried their map, the config's map relabelled the
        // model, whose featurizer then no longer matched its Θ.
        let cohort = CohortConfig::tiny(17);
        let shards = ShardedSamples::stream_cohort(&cohort, None, 40);
        let config = TrainConfig::fast().with_feature_map(FeatureMapKind::CurrentOnly);
        assert_eq!(
            train(&shards, &config, None).unwrap_err(),
            TrainError::FeatureMapMismatch {
                source: shards.kind(),
                config: FeatureMapKind::CurrentOnly,
            }
        );
    }
}
