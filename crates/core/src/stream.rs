//! The bounded-memory sample sources of the one DMCP [`Objective`], fed by
//! the seeded cohort generator, which draws any patient alone
//! ([`generate_patient_services_into`]).
//!
//! The materialized path ([`crate::dataset::Dataset`] →
//! [`DmcpObjective`](crate::loss::DmcpObjective)) holds the cohort several
//! times over: the patient records, the raw samples (each with its own cloned
//! history), the featurized samples and the CSR packing.  At paper scale and
//! beyond that is the memory ceiling.  The sources here hold less:
//!
//! * [`ShardedSamples`] retains only the featurized per-shard [`CsrMatrix`]
//!   blocks and labels, built one patient at a time.
//! * [`CohortStream`] retains only an 8-byte-per-patient sample-offset index
//!   and regenerates and re-featurizes the cohort on every evaluation, so
//!   peak memory is independent of the cohort size.  A walk regenerates each
//!   patient into one reused record, drawing only the service vectors its
//!   rows read, merges its rows from the record's own stays straight into
//!   one reused CSR block, and hands the kernel that block every
//!   [`ROW_BLOCK`] rows, so it does not allocate per patient.
//!
//! Both reproduce the materialized objective **bitwise at a fixed thread
//! count** and to ≤1e-12 across thread counts, for *any* shard size: shard
//! size changes where a chunk is segmented, never a floating-point operation
//! (the determinism contract on [`Objective`]; `tests/shard_equivalence.rs`).
//! Both train through [`train`](crate::train::train), as
//! [`TrainSource::Shards`](crate::train::TrainSource::Shards) and
//! [`TrainSource::Stream`](crate::train::TrainSource::Stream).

use std::ops::Range;
use std::sync::Arc;

use pfp_ehr::departments::{NUM_CARE_UNITS, NUM_DURATION_CLASSES};
use pfp_ehr::patient::Stay;
use pfp_ehr::{generate_patient_services_into, CohortConfig, PatientRecord};
use pfp_math::parallel::intersect_ranges;
use pfp_math::{CsrMatrix, SparseVec};

use crate::dataset::{RawSample, Sample};
use crate::features::{FeatureMapKind, HistoryFeaturizer, EVAL_OFFSET_DAYS};
use crate::imbalance::{label_counts, label_weights};
use crate::loss::{Objective, SampleSource};
use crate::train::{ModelLayout, TrainError};

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

/// How sample `index` falls outside a layout of `num_cus` × `num_durations`
/// classes, if it does: its features do not fit (`dims_fit` false), or a
/// label is out of range.
fn check_sample(
    index: usize,
    dims_fit: bool,
    (cu_label, duration_label): (usize, usize),
    num_cus: usize,
    num_durations: usize,
) -> Result<(), TrainError> {
    let fault = if !dims_fit {
        "feature dimension mismatch"
    } else if cu_label >= num_cus {
        "destination label out of range"
    } else if duration_label >= num_durations {
        "duration label out of range"
    } else {
        return Ok(());
    };
    Err(TrainError::SampleOutsideLayout { index, fault })
}

/// Check that every sample fits a layout of `num_features` features and
/// `num_cus` × `num_durations` classes, as [`SampleShard::pack`] requires.
///
/// # Errors
/// [`TrainError::SampleOutsideLayout`] for the first sample that does not.
pub(crate) fn check_samples(
    samples: &[Sample],
    num_features: usize,
    num_cus: usize,
    num_durations: usize,
) -> Result<(), TrainError> {
    samples.iter().enumerate().try_for_each(|(index, s)| {
        let dims_fit = s.features.dim() == num_features;
        let labels = (s.cu_label, s.duration_label);
        check_sample(index, dims_fit, labels, num_cus, num_durations)
    })
}

impl SampleShard {
    /// Pack featurized samples into one block whose first row is global
    /// sample `start`.  The samples must pass [`check_samples`] for the
    /// same layout.
    pub(crate) fn pack(start: usize, samples: &[Sample], num_features: usize) -> Self {
        Self {
            start,
            csr: CsrMatrix::from_rows(num_features, samples.iter().map(|s| &s.features)),
            cu_labels: samples.iter().map(|s| s.cu_label as u32).collect(),
            duration_labels: samples.iter().map(|s| s.duration_label as u32).collect(),
        }
    }

    /// Pack raw samples into one block starting at sample 0, featurizing
    /// each under `layout`'s map straight into the CSR block
    /// ([`HistoryFeaturizer::featurize_into`]) from its own profile,
    /// history and times: the rows [`SampleShard::pack`] packs from the
    /// samples [`Dataset::featurize`] makes, bit for bit, with no feature
    /// vector per sample in between.
    ///
    /// # Errors
    /// [`TrainError::SampleOutsideLayout`] for the first sample whose profile
    /// or service vectors are not the layout's width or whose label is out of
    /// range, as [`check_samples`] names it for the featurized sample.
    ///
    /// [`Dataset::featurize`]: crate::dataset::Dataset::featurize
    pub(crate) fn pack_raw(
        samples: &[Arc<RawSample>],
        layout: &ModelLayout,
    ) -> Result<Self, TrainError> {
        let featurizer = layout.featurizer();
        let mut block = Self::empty(0, layout.num_features());
        block.cu_labels.reserve_exact(samples.len());
        block.duration_labels.reserve_exact(samples.len());
        for (index, raw) in samples.iter().enumerate() {
            let dims_fit = raw.profile.dim() == layout.profile_dim
                && raw
                    .history
                    .iter()
                    .all(|s| s.services.dim() == layout.service_dim);
            let labels = (raw.cu_label, raw.duration_label);
            check_sample(
                index,
                dims_fit,
                labels,
                layout.num_cus,
                layout.num_durations,
            )?;
            block.push_row(
                &featurizer,
                &raw.profile,
                &raw.history,
                (raw.t_eval, raw.t_prev),
                labels,
            );
        }
        Ok(block)
    }

    /// The samples' `(c, d)` labels, in order.
    pub(crate) fn labels(&self) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
        let labels = self.cu_labels.iter().zip(&self.duration_labels);
        labels.map(|(&c, &d)| (c as usize, d as usize))
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

    /// Append transition `i` of `patient` (the transfer out of its stay `i`)
    /// as the next sample: its features under `featurizer`, merged from the
    /// record's own stays straight into the CSR block, and its two labels.
    ///
    /// The row is the one [`Dataset::from_cohort`]'s sample of that
    /// transition featurizes to under [`HistoryFeaturizer::featurize`]: the
    /// same history prefix, the same evaluation and previous-transfer times,
    /// so streamed features match the materialized ones bitwise.
    ///
    /// [`Dataset::from_cohort`]: crate::dataset::Dataset::from_cohort
    pub(crate) fn push_transition(
        &mut self,
        featurizer: &HistoryFeaturizer,
        patient: &PatientRecord,
        i: usize,
    ) {
        let stays = &patient.stays;
        let t_prev = if i == 0 { 0.0 } else { stays[i - 1].entry_time };
        let t_eval = stays[i].entry_time + EVAL_OFFSET_DAYS;
        let labels = (stays[i + 1].cu, stays[i].duration_class());
        self.push_row(
            featurizer,
            &patient.profile,
            &stays[..=i],
            (t_eval, t_prev),
            labels,
        );
    }

    /// Append one sample: the row `featurizer` merges from `profile` and
    /// `history` at times `(t_eval, t_prev)` into the CSR block, and its
    /// `(c, d)` labels.
    fn push_row(
        &mut self,
        featurizer: &HistoryFeaturizer,
        profile: &SparseVec,
        history: &[Stay],
        (t_eval, t_prev): (f64, f64),
        (cu, duration): (usize, usize),
    ) {
        featurizer.featurize_into(profile, history, t_eval, t_prev, &mut self.csr);
        self.cu_labels.push(cu as u32);
        self.duration_labels.push(duration as u32);
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
        check_samples(samples, m, num_cus, num_durations).unwrap_or_else(|err| panic!("{err}"));
        let shards = samples
            .chunks(shard_size)
            .enumerate()
            .map(|(block_idx, block)| SampleShard::pack(block_idx * shard_size, block, m))
            .collect();
        Self { shards, layout }
    }

    /// Stream the cohort of `config` into featurized shard blocks of the
    /// samples of (at most) `shard_size` patients each, regenerating one
    /// patient at a time into one reused record.  `kind` overrides the
    /// feature map; `None` selects the paper default, whose σ — and so every
    /// feature — matches the materialized [`Dataset`](crate::dataset::Dataset)
    /// path bitwise.  A pre-pass over the patients' timelines sums σ and
    /// counts each patient's transitions, so the main pass draws every stay's
    /// service vector but the last's, which no row reads.
    ///
    /// # Panics
    /// Panics if `shard_size == 0`.
    pub fn stream_cohort(
        config: &CohortConfig,
        kind: Option<FeatureMapKind>,
        shard_size: usize,
    ) -> Self {
        assert!(shard_size > 0, "shard_size must be positive");
        // The pre-pass runs for an explicit `kind` too: the last stays'
        // service vectors it saves cost more than the timelines it walks.
        let mut dwell = DwellSum::default();
        let mut transitions = Vec::with_capacity(config.num_patients);
        for_each_timeline(config, |p| {
            dwell.add(p);
            transitions.push(p.num_transitions());
        });
        let kind = kind.unwrap_or_else(|| dwell.paper_default_kind());
        let layout = cohort_layout(config, kind);
        let featurizer = layout.featurizer();
        let mut record = PatientRecord::default();
        let mut shards = Vec::new();
        let mut total_samples = 0usize;
        for (first, block) in (0..)
            .step_by(shard_size)
            .zip(transitions.chunks(shard_size))
        {
            let mut shard = SampleShard::empty(total_samples, layout.num_features());
            for (id, &services) in (first..).zip(block) {
                // Transition `i` reads the services of stays `..=i`: one
                // per transition, all but the last stay's.
                generate_patient_services_into(config, id, services, &mut record);
                for i in 0..record.num_transitions() {
                    shard.push_transition(&featurizer, &record, i);
                }
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
        let (c, d) = (self.layout.num_cus, self.layout.num_durations);
        label_counts(self.labels(), c, d)
    }

    /// The weighted-data (WDMCP) per-sample weights, `w_i = 1 / ln(1 +
    /// #{(c_i, d_i)})`, in global sample order — bitwise the same values as
    /// [`crate::imbalance::sample_weights`] on the materialized samples.
    pub fn sample_weights(&self) -> Vec<f64> {
        let (c, d) = (self.layout.num_cus, self.layout.num_durations);
        label_weights(self.labels(), c, d)
    }

    /// Every shard's labels, in global sample order.
    fn labels(&self) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
        self.shards.iter().flat_map(SampleShard::labels)
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

/// The layout of the cohort of `config` under `kind`.
fn cohort_layout(config: &CohortConfig, kind: FeatureMapKind) -> ModelLayout {
    ModelLayout {
        kind,
        profile_dim: config.features.profile,
        service_dim: config.features.time_varying_dim(),
        num_cus: NUM_CARE_UNITS,
        num_durations: NUM_DURATION_CLASSES,
    }
}

/// Regenerate the timeline of every patient of `config` into one reused
/// record, in id order, and hand each to `visit`: care units and dwell times
/// only, no service or profile vector ([`generate_patient_services_into`]
/// asked for none).
fn for_each_timeline(config: &CohortConfig, mut visit: impl FnMut(&PatientRecord)) {
    let mut record = PatientRecord::default();
    for id in 0..config.num_patients {
        generate_patient_services_into(config, id, 0, &mut record);
        visit(&record);
    }
}

/// A streamed cohort's dwell-time sum, added in exactly
/// [`pfp_ehr::stats::mean_dwell_days`]' order (patients in id order, stays in
/// chronological order), so the paper-default σ matches the materialized
/// path bitwise.
#[derive(Default)]
struct DwellSum {
    sum: f64,
    count: usize,
}

impl DwellSum {
    fn add(&mut self, patient: &PatientRecord) {
        for s in &patient.stays {
            self.sum += s.dwell_days;
            self.count += 1;
        }
    }

    /// The paper default: the mutually-correcting map with σ the mean dwell
    /// time (1 for an empty cohort), at least half a day.
    fn paper_default_kind(&self) -> FeatureMapKind {
        let mean = if self.count == 0 {
            1.0
        } else {
            self.sum / self.count as f64
        };
        FeatureMapKind::MutuallyCorrecting {
            sigma: mean.max(0.5),
        }
    }
}

/// Rows a [`CohortStream`] walk hands the kernel per block: enough to spread
/// the kernel's per-call cost, few enough that the block's `rows × (C+D)`
/// score rows (8 KiB at 16 outputs) stay in L1.
pub const ROW_BLOCK: usize = 64;

/// The regenerated sample source: the cohort of a [`CohortConfig`],
/// regenerated from its seed and re-featurized on every walk, retaining only
/// an 8-byte-per-patient sample-offset index.
///
/// A walk regenerates each patient into one reused [`PatientRecord`],
/// merges each wanted transition's row from the record's own stays straight
/// into a reused CSR block, and hands the objective that block every
/// [`ROW_BLOCK`] rows (and once more for the rest), so past its first
/// patients a walk allocates nothing.  It regenerates only what those rows
/// read ([`generate_patient_services_into`]): the row of transition `i`
/// reads the services of stays `..=i` and only the care unit of stay
/// `i + 1`, so a walk over a patient's transitions `..k` draws `k` stays'
/// services, and a whole patient all but its last stay's.
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
    /// The source behind [`StreamingDmcpObjective::new`]: one construction
    /// walk over the patients' timelines, generated into one reused record,
    /// builds the sample-offset index and, when `kind` is `None`, sums the
    /// paper-default σ on the way.  `shard_size` is only checked: the walk
    /// holds one patient whatever its value.
    pub(crate) fn new(
        config: &CohortConfig,
        kind: Option<FeatureMapKind>,
        shard_size: usize,
    ) -> Self {
        assert!(shard_size > 0, "shard_size must be positive");
        let mut sample_offsets = Vec::with_capacity(config.num_patients + 1);
        sample_offsets.push(0);
        let mut total = 0usize;
        let mut dwell = DwellSum::default();
        for_each_timeline(config, |p| {
            dwell.add(p);
            total += p.num_transitions();
            sample_offsets.push(total);
        });
        let layout = cohort_layout(config, kind.unwrap_or_else(|| dwell.paper_default_kind()));
        Self {
            config: config.clone(),
            featurizer: layout.featurizer(),
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
        let mut record = PatientRecord::default();
        // First patient whose sample range ends after the range starts.
        let first = self.sample_offsets[1..].partition_point(|&end| end <= range.start);
        for p in first..self.config.num_patients {
            let p_start = self.sample_offsets[p];
            if p_start >= range.end {
                break;
            }
            let overlap = intersect_ranges(&range, &(p_start..self.sample_offsets[p + 1]));
            if overlap.is_empty() {
                continue;
            }
            // The last transition of the overlap reads the most stays.
            let services = overlap.end - p_start;
            generate_patient_services_into(&self.config, p, services, &mut record);
            for sample in overlap {
                block.push_transition(&self.featurizer, &record, sample - p_start);
                if block.len() == ROW_BLOCK {
                    visit(&block, 0..ROW_BLOCK);
                    block.start += ROW_BLOCK;
                    block.clear();
                }
            }
        }
        if !block.is_empty() {
            visit(&block, 0..block.len());
        }
    }
}

/// The out-of-core DMCP [`Objective`] over a [`CohortStream`]: the
/// memory-bound end of the trade-off, paying one cohort generation and
/// featurization per evaluation, where [`ShardedDmcpObjective`] (retained CSR
/// blocks) is the speed-bound end.  Both are bitwise-identical to the
/// materialized objective (segment boundaries, here every [`ROW_BLOCK`] rows,
/// do not change the operation order).  Per-sample weights are not supported:
/// they would need a per-evaluation streaming re-count.
pub type StreamingDmcpObjective = Objective<'static, CohortStream>;

impl StreamingDmcpObjective {
    /// Build the objective for the cohort of `config` under `kind` (`None`:
    /// the paper default).  One construction walk over the patients'
    /// timelines builds the sample-offset index and, for the paper default,
    /// σ; `shard_size` is only checked.
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
        let mut streamed = SampleShard::empty(0, featurizer.total_dim());
        for p in &cohort.patients {
            for i in 0..p.num_transitions() {
                streamed.push_transition(&featurizer, p, i);
            }
        }
        assert_eq!(streamed.len(), materialized.len());
        for (row, m) in materialized.iter().enumerate() {
            let bits = |entries: Vec<(u32, f64)>| {
                entries
                    .into_iter()
                    .map(|(i, v)| (i, v.to_bits()))
                    .collect::<Vec<_>>()
            };
            let streamed_row = streamed.csr.row_entries(row).collect();
            assert_eq!(
                bits(streamed_row),
                bits(m.features.iter().collect()),
                "row {row}"
            );
            let labels = (streamed.cu_labels[row], streamed.duration_labels[row]);
            assert_eq!(labels, (m.cu_label as u32, m.duration_label as u32));
        }
    }

    #[test]
    fn stream_cohort_matches_from_samples_packing() {
        // The materialized samples come from every stay's services, the last
        // stay's included; the stream draws all but those, to the same bits.
        let configs = [
            CohortConfig::tiny(17),
            CohortConfig::small(5),
            CohortConfig::scaled(0.05, 42),
        ];
        let bits = |entries: &mut dyn Iterator<Item = (u32, f64)>| {
            entries.map(|(j, v)| (j, v.to_bits())).collect::<Vec<_>>()
        };
        for config in configs {
            let ds = Dataset::from_cohort(&generate_cohort(&config));
            for kind in [None, Some(FeatureMapKind::ModulatedPoisson)] {
                let samples = ds.featurize(kind.unwrap_or_else(|| ds.default_mcp_kind()));
                let streamed = ShardedSamples::stream_cohort(&config, kind, 40);
                assert_eq!(streamed.total_samples(), samples.len());
                assert_eq!(streamed.num_features(), ds.total_feature_dim());
                // Same σ as the materialized dataset pre-pass.
                if kind.is_none() {
                    assert_eq!(streamed.kind(), ds.default_mcp_kind());
                }
                // Row-for-row identical content (shard boundaries differ:
                // stream shards are per-patient, from_samples shards are
                // per-sample).
                let mut global = 0usize;
                for shard in streamed.shards() {
                    assert_eq!(shard.start, global);
                    for local in 0..shard.len() {
                        let s = &samples[global];
                        assert_eq!(
                            bits(&mut shard.csr.row_entries(local)),
                            bits(&mut s.features.iter())
                        );
                        assert_eq!(shard.cu_labels[local] as usize, s.cu_label);
                        assert_eq!(shard.duration_labels[local] as usize, s.duration_label);
                        global += 1;
                    }
                }
                assert_eq!(global, samples.len());
            }
        }
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
