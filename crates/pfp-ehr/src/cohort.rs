//! Synthetic cohort generation.
//!
//! The generator replaces the access-controlled MIMIC-II extract with a
//! statistically faithful synthetic cohort (see `DESIGN.md` for the full
//! substitution argument).  Each patient is drawn as follows:
//!
//! 1. A clinical **archetype** (neonatal, cardiac-surgical, medical, trauma,
//!    obstetric, elective-recovery, general) is sampled with probabilities
//!    tuned so the per-department patient counts approximate Table 1's heavy
//!    imbalance (GW dominant, ACU/TSICU rare).
//! 2. A stay sequence is rolled out with a **mutually-correcting** transition
//!    rule: each archetype has an affinity vector over departments, and the
//!    probability of re-entering a recently visited department is suppressed
//!    while downstream departments (e.g. CSRU after CCU) are boosted — the
//!    discrete-choice analogue of the paper's mutually-correcting intensity.
//! 3. Dwell times are sampled per department around the Table 1 means,
//!    scaled by a patient-level severity factor, which also (weakly) couples
//!    durations to destinations, reproducing the ≈0.2 correlation of Fig. 2.
//! 4. Stay features are planted with department / next-destination /
//!    duration signatures plus noise, with per-domain budgets following the
//!    Table 2 proportions, so the features carry recoverable signal for the
//!    learners while remaining sparse and high-dimensional.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

use pfp_math::rng::{bernoulli, derive_seed, sample_categorical, seeded_rng};
use pfp_math::SparseVec;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::departments::{CareUnit, NUM_CARE_UNITS, NUM_DURATION_CLASSES};
use crate::features::{FeatureDictionary, FeatureDomain};
use crate::patient::{PatientRecord, Stay};

/// Clinical archetypes used to induce the department imbalance of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Archetype {
    /// Premature/newborn intensive care: NICU → GW, long NICU stays.
    Neonatal,
    /// Coronary disease with surgery: CCU → (ACU) → CSRU → GW.
    CardiacSurgical,
    /// Elective cardiac surgery recovery: CSRU → GW.
    ElectiveRecovery,
    /// Obstetric / fetal intensive care: (ACU) → FICU → GW.
    Obstetric,
    /// General medical intensive care: MICU → GW.
    Medical,
    /// Trauma surgery: TSICU → (MICU) → GW.
    Trauma,
    /// Ward-only admission.
    General,
}

impl Archetype {
    /// All archetypes with their sampling probabilities (sum to 1).
    pub const MIXTURE: [(Archetype, f64); 7] = [
        (Archetype::Neonatal, 0.24),
        (Archetype::CardiacSurgical, 0.20),
        (Archetype::ElectiveRecovery, 0.10),
        (Archetype::Obstetric, 0.11),
        (Archetype::Medical, 0.22),
        (Archetype::Trauma, 0.05),
        (Archetype::General, 0.08),
    ];

    /// Dense index used for signature feature keys.
    pub fn index(self) -> usize {
        match self {
            Archetype::Neonatal => 0,
            Archetype::CardiacSurgical => 1,
            Archetype::ElectiveRecovery => 2,
            Archetype::Obstetric => 3,
            Archetype::Medical => 4,
            Archetype::Trauma => 5,
            Archetype::General => 6,
        }
    }

    /// Department affinity (unnormalised propensity of *entering* each CU).
    ///
    /// Order: CCU, ACU, FICU, CSRU, MICU, TSICU, NICU, GW.
    fn affinity(self) -> [f64; NUM_CARE_UNITS] {
        match self {
            Archetype::Neonatal => [0.00, 0.00, 0.02, 0.00, 0.01, 0.00, 1.00, 0.60],
            Archetype::CardiacSurgical => [1.00, 0.08, 0.00, 0.85, 0.05, 0.00, 0.00, 0.80],
            Archetype::ElectiveRecovery => [0.05, 0.05, 0.00, 1.00, 0.02, 0.00, 0.00, 0.90],
            Archetype::Obstetric => [0.00, 0.10, 1.00, 0.00, 0.05, 0.00, 0.15, 0.80],
            Archetype::Medical => [0.04, 0.00, 0.00, 0.00, 1.00, 0.02, 0.00, 0.85],
            Archetype::Trauma => [0.00, 0.03, 0.00, 0.02, 0.20, 1.00, 0.00, 0.75],
            Archetype::General => [0.01, 0.00, 0.00, 0.00, 0.02, 0.00, 0.00, 1.00],
        }
    }

    /// The department where the trajectory usually starts.
    fn entry_unit(self, rng: &mut StdRng) -> usize {
        let preferred = match self {
            Archetype::Neonatal => CareUnit::Nicu,
            Archetype::CardiacSurgical => CareUnit::Ccu,
            Archetype::ElectiveRecovery => CareUnit::Csru,
            Archetype::Obstetric => CareUnit::Ficu,
            Archetype::Medical => CareUnit::Micu,
            Archetype::Trauma => CareUnit::Tsicu,
            Archetype::General => CareUnit::Gw,
        };
        // A small fraction of admissions start on the ward before escalating.
        if !matches!(self, Archetype::General) && bernoulli(rng, 0.08) {
            CareUnit::Gw.index()
        } else {
            preferred.index()
        }
    }

    /// Downstream boost: staying in `from` raises the propensity of these
    /// follow-up departments (the "mutually-correcting" cross-excitation).
    // Every arm follows the same `if from == ...` shape; collapsing the
    // single-branch arms into match guards would break the symmetry.
    #[allow(clippy::collapsible_match)]
    fn downstream_boost(self, from: usize) -> [f64; NUM_CARE_UNITS] {
        let mut boost = [0.0; NUM_CARE_UNITS];
        let gw = CareUnit::Gw.index();
        boost[gw] += 1.2; // everything eventually flows to the ward
        match self {
            Archetype::CardiacSurgical => {
                if from == CareUnit::Ccu.index() {
                    boost[CareUnit::Acu.index()] += 0.25;
                    boost[CareUnit::Csru.index()] += 2.2;
                }
                if from == CareUnit::Acu.index() {
                    boost[CareUnit::Csru.index()] += 4.0;
                }
                if from == CareUnit::Csru.index() {
                    boost[gw] += 2.0;
                }
            }
            Archetype::Trauma => {
                if from == CareUnit::Tsicu.index() {
                    boost[CareUnit::Micu.index()] += 0.6;
                }
            }
            Archetype::Obstetric => {
                if from == CareUnit::Acu.index() {
                    boost[CareUnit::Ficu.index()] += 3.0;
                }
                if from == CareUnit::Ficu.index() {
                    boost[CareUnit::Nicu.index()] += 0.25;
                }
            }
            _ => {}
        }
        boost
    }

    /// Mean number of transitions (stays − 1) for this archetype.
    fn mean_transitions(self) -> f64 {
        match self {
            Archetype::Neonatal => 1.1,
            Archetype::CardiacSurgical => 2.4,
            Archetype::ElectiveRecovery => 1.4,
            Archetype::Obstetric => 1.6,
            Archetype::Medical => 1.3,
            Archetype::Trauma => 1.6,
            Archetype::General => 0.6,
        }
    }
}

/// Per-department mean dwell times used by the generator (days).
///
/// These are the Table 1 means; actual sampled durations are modulated by a
/// per-patient severity factor and truncated to at least half a day.
const MEAN_DWELL_DAYS: [f64; NUM_CARE_UNITS] = [3.32, 2.38, 4.46, 3.96, 3.83, 3.21, 9.01, 4.15];

/// Configuration of the synthetic cohort.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CohortConfig {
    /// Number of patients to generate.
    pub num_patients: usize,
    /// Feature dictionary sizes.
    pub features: FeatureDictionary,
    /// RNG seed (every patient derives its own stream from this).
    pub seed: u64,
    /// Number of profile features activated per patient (before scaling by
    /// the archetype-specific profile richness).
    pub profile_actives: usize,
    /// Base number of service features activated per stay.
    pub stay_actives: usize,
}

impl CohortConfig {
    /// A cohort matching the paper's scale (30,685 patients, full feature
    /// dictionary).
    pub fn paper_scale(seed: u64) -> Self {
        Self {
            num_patients: crate::departments::PAPER_NUM_PATIENTS,
            features: FeatureDictionary::paper_full(),
            seed,
            profile_actives: 24,
            stay_actives: 40,
        }
    }

    /// A scaled-down cohort: `scale` shrinks both the patient count and the
    /// feature dictionary (floor of 50 patients).
    pub fn scaled(scale: f64, seed: u64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        Self {
            num_patients: ((crate::departments::PAPER_NUM_PATIENTS as f64 * scale) as usize)
                .max(50),
            features: FeatureDictionary::scaled(scale.max(0.01)),
            seed,
            profile_actives: 16,
            stay_actives: 24,
        }
    }

    /// A small cohort for integration tests and examples (~1,200 patients).
    pub fn small(seed: u64) -> Self {
        Self {
            num_patients: 1_200,
            features: FeatureDictionary::scaled(0.02),
            seed,
            profile_actives: 10,
            stay_actives: 16,
        }
    }

    /// A tiny cohort for unit tests and doctests (~150 patients).
    pub fn tiny(seed: u64) -> Self {
        Self {
            num_patients: 150,
            features: FeatureDictionary::tiny(),
            seed,
            profile_actives: 6,
            stay_actives: 10,
        }
    }
}

/// A generated cohort: the patients plus the configuration that produced them.
///
/// Each record is shared behind an [`Arc`] from the moment it is generated,
/// so a dataset built from the cohort, and its splits, hold the same records
/// rather than copies; `Clone` copies only the pointers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cohort {
    /// Generator configuration (kept for provenance and feature layout).
    pub config: CohortConfig,
    /// Patient records, each shared.
    pub patients: Vec<Arc<PatientRecord>>,
    /// Archetype assigned to each patient (parallel to `patients`).
    pub archetypes: Vec<Archetype>,
}

impl Cohort {
    /// Total number of transition events in the cohort.
    pub fn total_transitions(&self) -> usize {
        self.patients.iter().map(|p| p.num_transitions()).sum()
    }

    /// The feature dictionary used to generate the cohort.
    pub fn features(&self) -> &FeatureDictionary {
        &self.config.features
    }
}

/// Generate a synthetic cohort.
pub fn generate_cohort(config: &CohortConfig) -> Cohort {
    let mut patients = Vec::with_capacity(config.num_patients);
    let mut archetypes = Vec::with_capacity(config.num_patients);
    for id in 0..config.num_patients {
        let (record, archetype) = generate_patient_record(config, id);
        patients.push(record);
        archetypes.push(archetype);
    }
    Cohort {
        config: config.clone(),
        patients,
        archetypes,
    }
}

/// Generate the single patient `id` of the cohort described by `config`.
///
/// Every patient derives an independent RNG stream from
/// `derive_seed(config.seed, id)`, so any patient can be generated without
/// generating its predecessors — the property that makes [`CohortShards`]
/// resumable from an arbitrary shard.  [`generate_cohort`] is exactly this
/// call in a loop, so streamed and materialized cohorts are identical.  It is
/// [`generate_patient_into`] on a fresh record, which is then put behind an
/// [`Arc`] so every holder of the patient shares it.
pub fn generate_patient_record(
    config: &CohortConfig,
    id: usize,
) -> (Arc<PatientRecord>, Archetype) {
    let mut record = PatientRecord::default();
    let archetype = generate_patient_into(config, id, &mut record);
    (Arc::new(record), archetype)
}

/// Generate patient `id` of the cohort described by `config` into `record`,
/// overwriting whatever patient it held, and return the patient's archetype.
///
/// The result equals [`generate_patient_record`]'s bit for bit, but the
/// record's buffers are reused: its stays vector, its profile vector and
/// each stay's service vector keep their capacity, and the service vectors
/// of stays a shorter patient drops are kept per thread for the next longer
/// one.  A pass that regenerates a cohort patient by patient into one record
/// therefore stops allocating once the record has held its largest patient.
/// It is [`generate_patient_services_into`] with the services of every stay.
pub fn generate_patient_into(
    config: &CohortConfig,
    id: usize,
    record: &mut PatientRecord,
) -> Archetype {
    generate_patient_services_into(config, id, usize::MAX, record)
}

/// [`generate_patient_into`] for a reader of only the first `services`
/// stays' service vectors (all of them when `services` is at least the
/// patient's stay count).
///
/// Every field but the service vectors of stays `services..` is filled, and
/// filled with the bits [`generate_patient_into`] gives: the id, each stay's
/// care unit, entry and dwell times, the first `services` stays' service
/// vectors and, when `services > 0`, the profile.  The other stays' service
/// vectors are left as the record held them, as is the profile when
/// `services == 0` (the timeline alone).  A stay whose services are not
/// wanted still advances the patient's RNG exactly as drawing them would,
/// so every later draw is unchanged; with `services == 0` the profile, the
/// last draw of a patient, is skipped.
///
/// A transition sample reads its profile, the services of its own stay and
/// of those before it, and only the care unit of the next stay, so a walk
/// over a patient's transitions `..k` asks for `k` stays' services, and a
/// walk over every transition leaves out the last stay's.
pub fn generate_patient_services_into(
    config: &CohortConfig,
    id: usize,
    services: usize,
    record: &mut PatientRecord,
) -> Archetype {
    let mut rng = seeded_rng(derive_seed(config.seed, id as u64));
    let archetype = sample_archetype(&mut rng);
    GENERATOR.with(|generator| {
        generator
            .borrow_mut()
            .generate(id, archetype, config, services, &mut rng, record)
    });
    record.validate();
    archetype
}

/// One block of consecutively-numbered patients produced by [`CohortShards`].
#[derive(Debug, Clone)]
pub struct CohortShard {
    /// Id of the first patient in the shard (`patients[k].id == start_id + k`).
    pub start_id: usize,
    /// Patient records (at most `shard_size` of them), each shared as
    /// [`Cohort::patients`] shares them.
    pub patients: Vec<Arc<PatientRecord>>,
    /// Archetype assigned to each patient (parallel to `patients`).
    pub archetypes: Vec<Archetype>,
}

impl CohortShard {
    /// Number of patients in this shard.
    pub fn len(&self) -> usize {
        self.patients.len()
    }

    /// Whether the shard holds no patients.
    pub fn is_empty(&self) -> bool {
        self.patients.is_empty()
    }
}

/// Streaming cohort generator: yields the cohort of `config` as consecutive
/// [`CohortShard`] blocks of at most `shard_size` patients, generating each
/// patient on demand.
///
/// Peak memory is bounded by one shard (the iterator itself holds only the
/// config and a cursor); consuming shard `k+1` after dropping shard `k` never
/// holds more than `shard_size` patients live.  The stream is
///
/// - **seeded**: patient `id` is always `generate_patient_record(config, id)`,
///   so the concatenation of all shards equals [`generate_cohort`]'s
///   `patients` exactly, for any `shard_size`;
/// - **resumable**: [`resume_from`](Self::resume_from) starts at shard `k`
///   without generating shards `0..k`.
#[derive(Debug, Clone)]
pub struct CohortShards {
    config: CohortConfig,
    shard_size: usize,
    next_id: usize,
}

impl CohortShards {
    /// Stream the cohort of `config` in blocks of `shard_size` patients.
    ///
    /// # Panics
    /// Panics if `shard_size == 0`.
    pub fn new(config: &CohortConfig, shard_size: usize) -> Self {
        assert!(shard_size > 0, "shard_size must be positive");
        Self {
            config: config.clone(),
            shard_size,
            next_id: 0,
        }
    }

    /// Resume the stream at shard `shard_index` (0-based): the first shard
    /// yielded is the same block that a fresh stream would yield as its
    /// `shard_index`-th item.  An index at or past the end yields nothing.
    pub fn resume_from(config: &CohortConfig, shard_size: usize, shard_index: usize) -> Self {
        let mut shards = Self::new(config, shard_size);
        shards.next_id = shard_index
            .saturating_mul(shard_size)
            .min(config.num_patients);
        shards
    }

    /// Total number of shards the full stream yields (0 for an empty cohort).
    pub fn num_shards(&self) -> usize {
        self.config.num_patients.div_ceil(self.shard_size)
    }

    /// The configured shard size.
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// The cohort configuration driving the stream.
    pub fn config(&self) -> &CohortConfig {
        &self.config
    }
}

impl Iterator for CohortShards {
    type Item = CohortShard;

    fn next(&mut self) -> Option<CohortShard> {
        if self.next_id >= self.config.num_patients {
            return None;
        }
        let start_id = self.next_id;
        let end_id = (start_id + self.shard_size).min(self.config.num_patients);
        let mut patients = Vec::with_capacity(end_id - start_id);
        let mut archetypes = Vec::with_capacity(end_id - start_id);
        for id in start_id..end_id {
            let (record, archetype) = generate_patient_record(&self.config, id);
            patients.push(record);
            archetypes.push(archetype);
        }
        self.next_id = end_id;
        Some(CohortShard {
            start_id,
            patients,
            archetypes,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self
            .config
            .num_patients
            .saturating_sub(self.next_id)
            .div_ceil(self.shard_size);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for CohortShards {}

/// The sampling weights of [`Archetype::MIXTURE`], in the same order.
const MIXTURE_WEIGHTS: [f64; Archetype::MIXTURE.len()] = {
    let mut weights = [0.0; Archetype::MIXTURE.len()];
    let mut k = 0;
    while k < weights.len() {
        weights[k] = Archetype::MIXTURE[k].1;
        k += 1;
    }
    weights
};

fn sample_archetype(rng: &mut StdRng) -> Archetype {
    Archetype::MIXTURE[sample_categorical(rng, &MIXTURE_WEIGHTS)].0
}

/// Most stays one patient has: the entry unit plus at most six transitions
/// ([`sample_transition_count`] caps them).
const MAX_STAYS: usize = 7;

/// Number of [`Archetype`]s.
const NUM_ARCHETYPES: usize = Archetype::MIXTURE.len();

/// The slots of a [`SignatureTable`].  For a fixed config every planted
/// signature's `(domain, key, count)` is a function of a few small indices
/// (archetype, care unit, next care unit, duration class), so the signatures
/// are numbered densely by those indices, one block per call site.
mod slot {
    use super::NUM_ARCHETYPES;
    use crate::departments::{NUM_CARE_UNITS, NUM_DURATION_CLASSES};

    /// Profile block of each archetype.
    pub(super) const PROFILE: usize = 0;
    /// The severity marker block.
    pub(super) const SEVERITY: usize = PROFILE + NUM_ARCHETYPES;
    /// Treatment, nursing and medication signatures of each care unit.
    pub(super) const DEPARTMENT: usize = SEVERITY + 1;
    /// Treatment signature of each (care unit, next care unit) transfer.
    pub(super) const DESTINATION_TREATMENT: usize = DEPARTMENT + 3 * NUM_CARE_UNITS;
    /// Nursing signature of each next care unit, sized by the current one.
    pub(super) const DESTINATION_NURSING: usize =
        DESTINATION_TREATMENT + NUM_CARE_UNITS * NUM_CARE_UNITS;
    /// Nursing signature of each duration class, sized by the care unit.
    pub(super) const DURATION_NURSING: usize =
        DESTINATION_NURSING + NUM_CARE_UNITS * NUM_CARE_UNITS;
    /// Medication signature of each duration class.
    pub(super) const DURATION_MEDICATION: usize =
        DURATION_NURSING + NUM_CARE_UNITS * NUM_DURATION_CLASSES;
    /// Therapy signature of each archetype, sized by the care unit.
    pub(super) const THERAPY: usize = DURATION_MEDICATION + NUM_DURATION_CLASSES;
    /// Number of slots.
    pub(super) const COUNT: usize = THERAPY + NUM_CARE_UNITS * NUM_ARCHETYPES;
}

/// The template numbers of a [`SignatureTable`].  A stay's planted
/// signatures are fixed by its archetype, care unit, next care unit (or none)
/// and duration class, a profile's by its archetype and whether the patient
/// is severe, so each combination is numbered densely.
mod template {
    use super::NUM_ARCHETYPES;
    use crate::departments::{NUM_CARE_UNITS, NUM_DURATION_CLASSES};

    /// Next-unit choices of a stay: each care unit, or none for the last.
    const NEXT_UNITS: usize = NUM_CARE_UNITS + 1;
    /// Number of stay templates.
    const STAYS: usize = NUM_ARCHETYPES * NUM_CARE_UNITS * NEXT_UNITS * NUM_DURATION_CLASSES;
    /// Number of templates.
    pub(super) const COUNT: usize = STAYS + 2 * NUM_ARCHETYPES;

    /// The template of a stay.
    pub(super) fn stay(
        archetype: usize,
        cu: usize,
        next_cu: Option<usize>,
        dur_class: usize,
    ) -> usize {
        let next = next_cu.unwrap_or(NUM_CARE_UNITS);
        ((archetype * NUM_CARE_UNITS + cu) * NEXT_UNITS + next) * NUM_DURATION_CLASSES + dur_class
    }

    /// The template of a profile.
    pub(super) fn profile(archetype: usize, severe: bool) -> usize {
        STAYS + 2 * archetype + usize::from(severe)
    }
}

/// `(domain, key, count)` of one signature set.
type SignatureKey = (FeatureDomain, u64, usize);

/// A planted signature: its slot, its key, and the probability that each of
/// its indices survives its keep draw.
type Planted = (usize, SignatureKey, f64);

/// Marks a template number whose template is not built yet, and a template
/// with no signature kept without a draw.
const NONE: u16 = u16::MAX;
const _: () = assert!(template::COUNT < NONE as usize);
const _: () = assert!(slot::COUNT < NONE as usize);

/// A range of one of a [`SignatureTable`]'s arenas.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn new(range: Range<usize>) -> Self {
        let offset = |at: usize| u32::try_from(at).expect("table arenas fit u32 offsets");
        Self {
            start: offset(range.start),
            end: offset(range.end),
        }
    }

    fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// One slot of a [`SignatureTable`], once its set is computed: the set's
/// span in the index arena, and the probability that each of its indices
/// survives its keep draw (every use of a slot plants it with the same).
#[derive(Debug, Clone, Copy)]
struct Slot {
    set: Span,
    keep_prob: f64,
}

/// A built template: its entries, the slots whose keep draws decide them in
/// draw order, and the slot kept without a draw ([`NONE`] if none).
#[derive(Debug, Clone, Copy)]
struct Template {
    entries: Span,
    drawn: Span,
    always: u16,
}

/// The planted signature sets of one config, in the form of
/// [`FeatureDictionary::signature_indices`] and
/// [`FeatureDictionary::profile_signature_indices`] and bitwise equal to
/// them, looked up by [`slot`] number: no hashing, no reference count.  And
/// per stay or profile key, the *template* those sets make together.
///
/// Each reference call runs a full Fisher–Yates shuffle of the domain to keep
/// a handful of indices, yet its result depends only on the arguments, and a
/// cohort asks for the same few hundred sets over and over.  A set is
/// computed on its slot's first use and kept in one flat index arena.
///
/// A template is the union of its key's sets, sorted once by index, each
/// entry stored as its position in the index arena: that position also
/// numbers the entry's keep flag, so one `u32` gives both the index and the
/// draw that decides it.  Beside the entries, a template lists its drawn
/// slots in draw order and the slot it keeps without a draw (the severity
/// block).  Drawing a vector writes each drawn slot's keep flags in draw
/// order, then walks the template and keeps the indices whose flags came up,
/// already in order, so only the few noise indices are ever sorted.  A
/// template is built on its number's first use into flat arenas, like the
/// sets.
///
/// The table is thread-local (every pool worker builds its own) and holds a
/// single config, replaced when the dictionary, seed or activation counts
/// change.  [`generator_table_bytes`] reports its size.
struct SignatureTable {
    dict: FeatureDictionary,
    seed: u64,
    profile_actives: usize,
    stay_actives: usize,
    /// Every computed set, back to back.
    indices: Vec<u32>,
    /// Per slot number, once its set is computed.
    slots: Vec<Option<Slot>>,
    /// Per template number: its position in `templates`, or [`NONE`].
    template_ids: Vec<u16>,
    /// Every built template.
    templates: Vec<Template>,
    /// Every built template's entries back to back, each template's sorted
    /// by index: positions in `indices`.
    entries: Vec<u32>,
    /// Every built template's drawn slots back to back, in draw order.
    drawn: Vec<u16>,
    /// Scratch of a template build: its `(index, position)` entries.
    build: Vec<(u32, u32)>,
}

impl SignatureTable {
    fn new(config: &CohortConfig) -> Self {
        Self {
            dict: config.features,
            seed: config.seed,
            profile_actives: config.profile_actives,
            stay_actives: config.stay_actives,
            indices: Vec::new(),
            slots: vec![None; slot::COUNT],
            template_ids: vec![NONE; template::COUNT],
            templates: Vec::new(),
            entries: Vec::new(),
            drawn: Vec::new(),
            build: Vec::new(),
        }
    }

    fn serves(&self, config: &CohortConfig) -> bool {
        self.dict == config.features
            && self.seed == config.seed
            && self.profile_actives == config.profile_actives
            && self.stay_actives == config.stay_actives
    }

    /// The set of `slot`, which is the signature `key` names, planted with
    /// `keep_prob`: its span in `indices`.
    fn set(&mut self, slot: usize, key: SignatureKey, keep_prob: f64) -> Span {
        let keep_prob = keep_prob.clamp(0.0, 1.0);
        if let Some(computed) = self.slots[slot] {
            debug_assert_eq!(computed.keep_prob, keep_prob, "slot {slot} planted alike");
            return computed.set;
        }
        let (domain, key_id, count) = key;
        let set = match domain {
            FeatureDomain::Profile => self
                .dict
                .profile_signature_indices(key_id, count, self.seed),
            _ => self
                .dict
                .signature_indices(domain, key_id, count, self.seed),
        };
        let span = Span::new(self.indices.len()..self.indices.len() + set.len());
        self.indices.extend(set);
        self.slots[slot] = Some(Slot {
            set: span,
            keep_prob,
        });
        span
    }

    /// The template numbered `id`, built on its number's first use from what
    /// `planted` returns: the signatures whose keep draws consume the RNG,
    /// in draw order, and at most one signature kept without a draw.
    fn template<I: IntoIterator<Item = Planted>>(
        &mut self,
        id: usize,
        planted: impl FnOnce() -> (I, Option<(usize, SignatureKey)>),
    ) -> Template {
        if let Some(&built) = self.templates.get(usize::from(self.template_ids[id])) {
            return built;
        }
        let (drawn, always) = planted();
        let mut build = std::mem::take(&mut self.build);
        build.clear();
        let drawn_start = self.drawn.len();
        let mut add = |table: &mut Self, slot: usize, key: SignatureKey, keep_prob: f64| {
            let set = table.set(slot, key, keep_prob).range();
            debug_assert!(build.iter().all(|&(_, at)| !set.contains(&(at as usize))));
            build.extend(set.clone().map(|at| (table.indices[at], at as u32)));
            u16::try_from(slot).expect("below NONE")
        };
        for (slot, key, keep_prob) in drawn {
            let slot = add(self, slot, key, keep_prob);
            self.drawn.push(slot);
        }
        let always = always.map_or(NONE, |(slot, key)| add(self, slot, key, 1.0));
        build.sort_unstable();
        let entries_start = self.entries.len();
        self.entries.extend(build.iter().map(|&(_, at)| at));
        self.build = build;
        let built = Template {
            entries: Span::new(entries_start..self.entries.len()),
            drawn: Span::new(drawn_start..self.drawn.len()),
            always,
        };
        self.template_ids[id] = u16::try_from(self.templates.len()).expect("below NONE");
        self.templates.push(built);
        built
    }

    /// Heap bytes the table holds, from its buffers' capacities.
    fn heap_bytes(&self) -> usize {
        capacity_bytes(&self.indices)
            + capacity_bytes(&self.slots)
            + capacity_bytes(&self.template_ids)
            + capacity_bytes(&self.templates)
            + capacity_bytes(&self.entries)
            + capacity_bytes(&self.drawn)
            + capacity_bytes(&self.build)
    }
}

/// Heap bytes of a vector's buffer.
fn capacity_bytes<T>(buffer: &Vec<T>) -> usize {
    buffer.capacity() * std::mem::size_of::<T>()
}

/// The buffers one vector's draw goes through: the keep flags, one per
/// position of the table's index arena, the template indices they keep, and
/// the noise indices.
struct Scratch {
    flags: Vec<u8>,
    kept: Vec<u32>,
    noise: Vec<u32>,
}

impl Scratch {
    const fn new() -> Self {
        Self {
            flags: Vec::new(),
            kept: Vec::new(),
            noise: Vec::new(),
        }
    }

    /// Refill `out` with one draw of `template` plus `noise` uniform indices
    /// below `dim`, consuming the RNG in the order of drawing each signature
    /// index's keep bit, signature after signature, then the noise: one
    /// uniform draw per index, kept when below its slot's `keep_prob` — the
    /// test [`bernoulli`] makes.
    ///
    /// The walk over the sorted template writes every entry but advances
    /// past it only when its flag is set, so an unpredictable draw costs no
    /// mispredicted branch, and the kept indices come out sorted.  Only the
    /// noise is sorted before both merge into `out`, an index listed `k`
    /// times storing `k` as [`SparseVec::binary`] does.
    fn draw(
        &mut self,
        table: &SignatureTable,
        template: Template,
        noise: usize,
        dim: usize,
        rng: &mut StdRng,
        out: &mut SparseVec,
    ) {
        let flags = &mut self.flags;
        flags.resize(table.indices.len(), 0);
        let slot = |slot: u16| table.slots[usize::from(slot)].expect("template slots are set");
        for &drawn in &table.drawn[template.drawn.range()] {
            let Slot { set, keep_prob } = slot(drawn);
            for flag in &mut flags[set.range()] {
                *flag = u8::from(rng.gen::<f64>() < keep_prob);
            }
        }
        if template.always != NONE {
            flags[slot(template.always).set.range()].fill(1);
        }

        let entries = &table.entries[template.entries.range()];
        let kept = &mut self.kept;
        kept.resize(entries.len(), 0);
        let mut len = 0;
        for &at in entries {
            kept[len] = table.indices[at as usize];
            len += usize::from(flags[at as usize]);
        }
        kept.truncate(len);

        let noise_indices = &mut self.noise;
        noise_indices.clear();
        noise_indices.extend((0..noise).map(|_| rng.gen_range(0..dim) as u32));
        noise_indices.sort_unstable();
        out.refill_binary_merged(dim, kept, noise_indices);
    }

    /// Advance the RNG exactly as [`draw`](Self::draw) with the same
    /// arguments does, writing nothing: one uniform draw per element of each
    /// drawn slot's set, in the template's draw order, then `noise` uniform
    /// indices below `dim`.
    fn burn(
        table: &SignatureTable,
        template: Template,
        noise: usize,
        dim: usize,
        rng: &mut StdRng,
    ) {
        let slot = |slot: u16| table.slots[usize::from(slot)].expect("template slots are set");
        for &drawn in &table.drawn[template.drawn.range()] {
            for _ in slot(drawn).set.range() {
                rng.gen::<f64>();
            }
        }
        for _ in 0..noise {
            rng.gen_range(0..dim);
        }
    }

    /// Heap bytes the buffers hold, from their capacities.
    fn heap_bytes(&self) -> usize {
        capacity_bytes(&self.flags) + capacity_bytes(&self.kept) + capacity_bytes(&self.noise)
    }
}

/// Per-thread generator state: the signature table of the config generated
/// last, the draw buffers, and the service vectors of stays a reused record
/// dropped, kept for the next record that grows (at most [`MAX_STAYS`] of
/// them).
struct Generator {
    table: Option<SignatureTable>,
    scratch: Scratch,
    spare_services: Vec<SparseVec>,
}

thread_local! {
    static GENERATOR: RefCell<Generator> = const {
        RefCell::new(Generator {
            table: None,
            scratch: Scratch::new(),
            spare_services: Vec::new(),
        })
    };
}

/// Heap bytes the calling thread's generator holds in its signature table
/// and draw buffers, computed from their capacities: a noise-free gauge of
/// what generation keeps per thread (the records it fills are the caller's).
/// Zero on a thread that has generated no patient.
pub fn generator_table_bytes() -> usize {
    GENERATOR.with(|generator| {
        let generator = generator.borrow();
        generator
            .table
            .as_ref()
            .map_or(0, SignatureTable::heap_bytes)
            + generator.scratch.heap_bytes()
    })
}

impl Generator {
    /// Fill `record` with patient `id`, reusing its buffers, drawing the
    /// services of the first `services` stays only (and the profile only
    /// when `services > 0`); see [`generate_patient_services_into`].
    fn generate(
        &mut self,
        id: usize,
        archetype: Archetype,
        config: &CohortConfig,
        services: usize,
        rng: &mut StdRng,
        record: &mut PatientRecord,
    ) {
        if !self.table.as_ref().is_some_and(|t| t.serves(config)) {
            self.table = Some(SignatureTable::new(config));
        }
        let table = self.table.as_mut().expect("table set above");
        let scratch = &mut self.scratch;

        // Severity in [0.5, 2.0]: scales dwell times and couples (weakly) with
        // the downstream destinations through longer ICU chains.
        let severity = 0.5 + 1.5 * rng.gen::<f64>();

        // --- stay sequence ---------------------------------------------------
        let target_transitions = sample_transition_count(archetype, rng);
        let mut cus = [0usize; MAX_STAYS];
        let mut len = 1;
        cus[0] = archetype.entry_unit(rng);
        let mut visit_counts = [0usize; NUM_CARE_UNITS];
        visit_counts[cus[0]] += 1;
        while len < target_transitions + 1 {
            let next = sample_next_unit(archetype, cus[len - 1], &visit_counts, severity, rng);
            visit_counts[next] += 1;
            cus[len] = next;
            len += 1;
            // Once on the ward, most trajectories terminate.
            if next == CareUnit::Gw.index() && bernoulli(rng, 0.75) {
                break;
            }
        }
        let cus = &cus[..len];

        // --- dwell times -------------------------------------------------------
        record.id = id;
        while record.stays.len() > cus.len() {
            let dropped = record.stays.pop().expect("longer than the new patient");
            if self.spare_services.len() < MAX_STAYS {
                self.spare_services.push(dropped.services);
            }
        }
        record.stays.reserve_exact(cus.len() - record.stays.len());
        let time_varying_dim = config.features.time_varying_dim();
        let mut t = 0.0;
        for (i, &cu) in cus.iter().enumerate() {
            let dwell = sample_dwell_days(cu, severity, rng);
            if i == record.stays.len() {
                let services = self.spare_services.pop().unwrap_or_default();
                record.stays.push(Stay {
                    cu,
                    entry_time: t,
                    dwell_days: dwell,
                    services,
                });
            }
            let stay = &mut record.stays[i];
            stay.cu = cu;
            stay.entry_time = t;
            stay.dwell_days = dwell;
            let next_cu = cus.get(i + 1).copied();
            let (template, noise) = stay_template(table, config, archetype, cu, next_cu, dwell);
            if i < services {
                scratch.draw(
                    table,
                    template,
                    noise,
                    time_varying_dim,
                    rng,
                    &mut stay.services,
                );
            } else {
                Scratch::burn(table, template, noise, time_varying_dim, rng);
            }
            t += dwell;
        }

        // --- profile features ----------------------------------------------------
        if services == 0 {
            return;
        }
        let (template, noise) = profile_template(table, config, archetype, severity);
        let (dim, profile) = (config.features.profile, Arc::make_mut(&mut record.profile));
        scratch.draw(table, template, noise, dim, rng, profile);
    }
}

fn sample_transition_count(archetype: Archetype, rng: &mut StdRng) -> usize {
    // Geometric-ish around the archetype mean, capped to keep sequences short.
    let mean = archetype.mean_transitions();
    let mut n = 0usize;
    let continue_p = mean / (1.0 + mean);
    while n < MAX_STAYS - 1 && bernoulli(rng, continue_p) {
        n += 1;
    }
    n
}

/// The mutually-correcting discrete-choice transition rule.
fn sample_next_unit(
    archetype: Archetype,
    current: usize,
    visit_counts: &[usize; NUM_CARE_UNITS],
    severity: f64,
    rng: &mut StdRng,
) -> usize {
    let affinity = archetype.affinity();
    let boost = archetype.downstream_boost(current);
    let gw = CareUnit::Gw.index();
    let mut weights = [0.0; NUM_CARE_UNITS];
    for (k, w) in weights.iter_mut().enumerate() {
        let mut propensity = affinity[k] + boost[k];
        // Self-correction: visiting a unit suppresses an immediate return
        // (except the ward, which can absorb repeated visits).
        if k != gw {
            propensity /= 1.0 + 2.5 * visit_counts[k] as f64;
        }
        if k == current {
            propensity *= 0.05;
        }
        // Sicker patients are pulled back into ICU-type units a bit more.
        if k != gw {
            propensity *= 0.6 + 0.4 * severity;
        }
        *w = propensity.max(0.0);
    }
    sample_categorical(rng, &weights)
}

fn sample_dwell_days(cu: usize, severity: f64, rng: &mut StdRng) -> f64 {
    // Severity rescaling is centred so the population mean stays at the
    // Table 1 target; the exponential-plus-floor mixture keeps the "1 day"
    // class well populated while allowing long tails.
    let mean = MEAN_DWELL_DAYS[cu] * (0.5 + 0.4 * severity);
    let u: f64 = rng.gen::<f64>().max(1e-12);
    let d = -mean * u.ln() * 0.68 + 0.26 * mean;
    d.clamp(0.3, 60.0)
}

/// Size of an archetype's profile block (zero for the thinnest profiles).
fn profile_count(config: &CohortConfig, archetype: Archetype) -> usize {
    // Profile richness differs per archetype so the per-department Table 2
    // domain proportions come out imbalanced the same way as the paper:
    // trauma and ward-only patients have very thin profiles.
    let richness: f64 = match archetype {
        Archetype::Trauma | Archetype::General => 0.05,
        Archetype::Neonatal => 2.2,
        Archetype::Medical | Archetype::Obstetric => 1.5,
        _ => 1.0,
    };
    ((config.profile_actives as f64) * richness).round() as usize
}

/// The profile template of a patient, and how many noise indices its draw
/// adds.
fn profile_template(
    table: &mut SignatureTable,
    config: &CohortConfig,
    archetype: Archetype,
    severity: f64,
) -> (Template, usize) {
    let count = profile_count(config, archetype);
    // A little noise.
    let noise = (count / 5).max(1);
    let a = archetype.index();
    let severe = severity > 1.4;
    let template = table.template(template::profile(a, severe), || {
        // Archetype signature block: deterministic indices keyed by the
        // archetype.
        let block = (
            slot::PROFILE + a,
            (FeatureDomain::Profile, a as u64, count.max(1)),
            0.85,
        );
        // Severity marker block (shared across archetypes), always kept.
        let severity_block = severe.then_some((slot::SEVERITY, (FeatureDomain::Profile, 100, 4)));
        ([block], severity_block)
    });
    (template, noise)
}

/// The template of a stay, and how many noise indices its draw adds.
fn stay_template(
    table: &mut SignatureTable,
    config: &CohortConfig,
    archetype: Archetype,
    cu: usize,
    next_cu: Option<usize>,
    dwell_days: f64,
) -> (Template, usize) {
    let dur_class = crate::departments::duration_class(dwell_days);
    let id = template::stay(archetype.index(), cu, next_cu, dur_class);
    let template = table.template(id, || {
        (
            stay_signatures(config, archetype, cu, next_cu, dur_class),
            None,
        )
    });
    // Unstructured noise spread across the whole time-varying vector.
    (template, (config.stay_actives / 4).max(1))
}

/// Every signature planted in a stay, in the order its keep draws consume
/// the RNG.
fn stay_signatures(
    config: &CohortConfig,
    archetype: Archetype,
    cu: usize,
    next_cu: Option<usize>,
    dur_class: usize,
) -> impl Iterator<Item = Planted> {
    let table2 = crate::departments::paper_table2()[cu];
    // Per-domain budgets proportional to the Table 2 targets for this CU,
    // excluding the profile share (handled at the patient level).
    let service_share = table2[1] + table2[2] + table2[3];
    let base = config.stay_actives as f64;
    let budget = |share: f64| ((base * share / service_share.max(1e-6)).round() as usize).max(1);
    let treat_budget = budget(table2[1]);
    let nurse_budget = budget(table2[2]);
    let med_budget = budget(table2[3]);

    let department = [
        // Department signature (what care in this unit looks like).
        (
            slot::DEPARTMENT + 3 * cu,
            (
                FeatureDomain::Treatment,
                1000 + cu as u64,
                treat_budget / 2 + 1,
            ),
            0.9,
        ),
        (
            slot::DEPARTMENT + 3 * cu + 1,
            (
                FeatureDomain::Nursing,
                2000 + cu as u64,
                nurse_budget / 2 + 1,
            ),
            0.85,
        ),
        (
            slot::DEPARTMENT + 3 * cu + 2,
            (FeatureDomain::Medication, 3000 + cu as u64, med_budget),
            0.8,
        ),
    ];
    // Next-destination signal: services ordered in preparation of the transfer
    // (e.g. pre-operative work-up before cardiac surgery).  This is the signal
    // the discriminative learners are supposed to pick up.
    let destination = next_cu.map(|next| {
        let transfer = cu * NUM_CARE_UNITS + next;
        [
            (
                slot::DESTINATION_TREATMENT + transfer,
                (
                    FeatureDomain::Treatment,
                    5000 + transfer as u64,
                    treat_budget / 2 + 1,
                ),
                0.85,
            ),
            (
                slot::DESTINATION_NURSING + transfer,
                (
                    FeatureDomain::Nursing,
                    9000 + next as u64,
                    (nurse_budget / 3).max(1),
                ),
                0.7,
            ),
        ]
    });
    let rest = [
        // Duration signal: long stays accumulate characteristic nursing items.
        (
            slot::DURATION_NURSING + cu * NUM_DURATION_CLASSES + dur_class,
            (
                FeatureDomain::Nursing,
                7000 + dur_class as u64,
                (nurse_budget / 2).max(1),
            ),
            0.8,
        ),
        (
            slot::DURATION_MEDICATION + dur_class,
            (FeatureDomain::Medication, 8000 + dur_class as u64, 1),
            0.6,
        ),
        // Archetype-wide therapy signature.
        (
            slot::THERAPY + cu * NUM_ARCHETYPES + archetype.index(),
            (
                FeatureDomain::Treatment,
                400 + archetype.index() as u64,
                (treat_budget / 3).max(1),
            ),
            0.75,
        ),
    ];
    department
        .into_iter()
        .chain(destination.into_iter().flatten())
        .chain(rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::departments::{paper_table1, CareUnit};

    #[test]
    fn tiny_cohort_has_requested_size_and_valid_records() {
        let cohort = generate_cohort(&CohortConfig::tiny(7));
        assert_eq!(cohort.patients.len(), 150);
        assert_eq!(cohort.archetypes.len(), 150);
        for p in &cohort.patients {
            p.validate();
        }
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = generate_cohort(&CohortConfig::tiny(3));
        let b = generate_cohort(&CohortConfig::tiny(3));
        assert_eq!(a.patients.len(), b.patients.len());
        for (pa, pb) in a.patients.iter().zip(b.patients.iter()) {
            assert_eq!(pa.stays.len(), pb.stays.len());
            assert_eq!(pa.profile, pb.profile);
            for (sa, sb) in pa.stays.iter().zip(pb.stays.iter()) {
                assert_eq!(sa.cu, sb.cu);
                assert!((sa.dwell_days - sb.dwell_days).abs() < 1e-12);
                assert_eq!(sa.services, sb.services);
            }
        }
    }

    #[test]
    fn different_seeds_give_different_cohorts() {
        let a = generate_cohort(&CohortConfig::tiny(1));
        let b = generate_cohort(&CohortConfig::tiny(2));
        let same = a
            .patients
            .iter()
            .zip(b.patients.iter())
            .all(|(x, y)| x.stays.len() == y.stays.len() && x.profile == y.profile);
        assert!(!same);
    }

    #[test]
    fn ward_dominates_and_rare_units_are_rare() {
        let cohort = generate_cohort(&CohortConfig::small(11));
        let mut patients_per_cu = [0usize; NUM_CARE_UNITS];
        for p in &cohort.patients {
            for (cu, count) in patients_per_cu.iter_mut().enumerate() {
                if p.visited(cu) {
                    *count += 1;
                }
            }
        }
        let n = cohort.patients.len() as f64;
        let gw_share = patients_per_cu[CareUnit::Gw.index()] as f64 / n;
        let acu_share = patients_per_cu[CareUnit::Acu.index()] as f64 / n;
        let tsicu_share = patients_per_cu[CareUnit::Tsicu.index()] as f64 / n;
        assert!(gw_share > 0.6, "GW share = {gw_share}");
        assert!(acu_share < 0.08, "ACU share = {acu_share}");
        assert!(tsicu_share < 0.12, "TSICU share = {tsicu_share}");
        // Imbalance direction matches the paper: GW >> CSRU-ish > ACU.
        assert!(patients_per_cu[CareUnit::Csru.index()] > patients_per_cu[CareUnit::Acu.index()]);
    }

    #[test]
    fn department_patient_shares_track_table1_ordering() {
        let cohort = generate_cohort(&CohortConfig::small(5));
        let mut shares = [0.0f64; NUM_CARE_UNITS];
        for p in &cohort.patients {
            for (cu, share) in shares.iter_mut().enumerate() {
                if p.visited(cu) {
                    *share += 1.0;
                }
            }
        }
        let paper = paper_table1();
        // Spearman-style check: the two most common and two rarest departments
        // should agree with the paper.
        let mut ours: Vec<usize> = (0..NUM_CARE_UNITS).collect();
        ours.sort_by(|&a, &b| shares[b].partial_cmp(&shares[a]).unwrap());
        let mut theirs: Vec<usize> = (0..NUM_CARE_UNITS).collect();
        theirs.sort_by_key(|&k| std::cmp::Reverse(paper[k].patients));
        assert_eq!(ours[0], theirs[0], "most common department should be GW");
        assert_eq!(
            ours[NUM_CARE_UNITS - 1],
            theirs[NUM_CARE_UNITS - 1],
            "rarest should be ACU"
        );
    }

    #[test]
    fn nicu_stays_are_longest_on_average() {
        let cohort = generate_cohort(&CohortConfig::small(13));
        let mut sum = [0.0f64; NUM_CARE_UNITS];
        let mut cnt = [0usize; NUM_CARE_UNITS];
        for p in &cohort.patients {
            for s in &p.stays {
                sum[s.cu] += s.dwell_days;
                cnt[s.cu] += 1;
            }
        }
        let mean = |cu: CareUnit| sum[cu.index()] / cnt[cu.index()].max(1) as f64;
        assert!(mean(CareUnit::Nicu) > mean(CareUnit::Ccu));
        assert!(mean(CareUnit::Nicu) > mean(CareUnit::Gw));
    }

    #[test]
    fn stay_features_are_sparse_and_in_range() {
        let config = CohortConfig::tiny(9);
        let cohort = generate_cohort(&config);
        let dim = config.features.time_varying_dim();
        for p in &cohort.patients {
            assert!(p.profile.dim() == config.features.profile);
            for s in &p.stays {
                assert_eq!(s.services.dim(), dim);
                assert!(s.services.nnz() > 0, "every stay should have some services");
                assert!(s.services.nnz() < dim / 2, "features must stay sparse");
            }
        }
    }

    #[test]
    fn total_transitions_is_sum_over_patients() {
        let cohort = generate_cohort(&CohortConfig::tiny(4));
        let manual: usize = cohort.patients.iter().map(|p| p.num_transitions()).sum();
        assert_eq!(cohort.total_transitions(), manual);
        assert!(manual > 0);
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn scaled_config_rejects_bad_scale() {
        let _ = CohortConfig::scaled(1.5, 1);
    }

    #[test]
    fn shards_concatenate_to_the_materialized_cohort() {
        let config = CohortConfig::tiny(21);
        let cohort = generate_cohort(&config);
        // 150 patients / 64 per shard → 3 shards (64, 64, 22).
        let shards = CohortShards::new(&config, 64);
        assert_eq!(shards.num_shards(), 3);
        assert_eq!(shards.len(), 3);
        let mut next_id = 0usize;
        let mut seen = 0usize;
        for shard in shards {
            assert_eq!(shard.start_id, next_id);
            assert!(shard.len() <= 64 && !shard.is_empty());
            assert_eq!(shard.patients.len(), shard.archetypes.len());
            for (k, (p, a)) in shard.patients.iter().zip(&shard.archetypes).enumerate() {
                let id = shard.start_id + k;
                assert_eq!(p.id, id);
                assert_eq!(p.profile, cohort.patients[id].profile);
                assert_eq!(p.stays.len(), cohort.patients[id].stays.len());
                assert_eq!(*a, cohort.archetypes[id]);
            }
            next_id += shard.len();
            seen += shard.len();
        }
        assert_eq!(seen, config.num_patients);
    }

    #[test]
    fn resumed_stream_skips_exactly_the_first_shards() {
        let config = CohortConfig::tiny(22);
        let full: Vec<CohortShard> = CohortShards::new(&config, 40).collect();
        let resumed: Vec<CohortShard> = CohortShards::resume_from(&config, 40, 2).collect();
        assert_eq!(resumed.len(), full.len() - 2);
        for (r, f) in resumed.iter().zip(&full[2..]) {
            assert_eq!(r.start_id, f.start_id);
            assert_eq!(r.patients.len(), f.patients.len());
        }
        // Resuming at or past the end yields nothing.
        assert_eq!(CohortShards::resume_from(&config, 40, 99).count(), 0);
    }

    #[test]
    fn empty_cohort_streams_zero_shards() {
        let mut config = CohortConfig::tiny(1);
        config.num_patients = 0;
        let mut shards = CohortShards::new(&config, 8);
        assert_eq!(shards.num_shards(), 0);
        assert_eq!(shards.size_hint(), (0, Some(0)));
        assert!(shards.next().is_none());
    }

    /// Every bit of two records: ids, profiles, and each stay's unit, times
    /// and services.
    fn assert_records_identical(got: &PatientRecord, expected: &PatientRecord) {
        let bits = |v: &SparseVec| v.values().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.id, expected.id);
        assert_eq!(got.profile.dim(), expected.profile.dim());
        assert_eq!(got.profile.indices(), expected.profile.indices());
        assert_eq!(bits(&got.profile), bits(&expected.profile));
        assert_eq!(got.stays.len(), expected.stays.len(), "patient {}", got.id);
        for (g, e) in got.stays.iter().zip(&expected.stays) {
            assert_eq!(g.cu, e.cu);
            assert_eq!(g.entry_time.to_bits(), e.entry_time.to_bits());
            assert_eq!(g.dwell_days.to_bits(), e.dwell_days.to_bits());
            assert_eq!(g.services.dim(), e.services.dim());
            assert_eq!(g.services.indices(), e.services.indices());
            assert_eq!(bits(&g.services), bits(&e.services));
        }
    }

    /// A record reused for another patient — left dirty by one with more
    /// stays and longer vectors, or by the previous patient of a walk —
    /// holds exactly the fresh record of the patient generated into it.
    #[test]
    fn generating_into_a_dirty_record_matches_a_fresh_record_bitwise() {
        for config in [
            CohortConfig::tiny(3),
            CohortConfig::tiny(8),
            CohortConfig::scaled(0.01, 3),
            CohortConfig::scaled(0.01, 8),
        ] {
            let fresh: Vec<(Arc<PatientRecord>, Archetype)> = (0..config.num_patients)
                .map(|id| generate_patient_record(&config, id))
                .collect();
            // The two largest patients: most stays, then most entries.
            let size = |p: &PatientRecord| {
                let entries: usize = p.stays.iter().map(|s| s.services.nnz()).sum();
                (p.stays.len(), entries + p.profile.nnz())
            };
            let mut by_size: Vec<usize> = (0..fresh.len()).collect();
            by_size.sort_by_key(|&id| std::cmp::Reverse(size(&fresh[id].0)));
            assert!(fresh[by_size[1]].0.stays.len() >= 4, "two long patients");
            let mut walked = PatientRecord::default();
            let mut dirty = PatientRecord::default();
            for (id, (expected, archetype)) in fresh.iter().enumerate() {
                let big = if id == by_size[0] {
                    by_size[1]
                } else {
                    by_size[0]
                };
                generate_patient_into(&config, big, &mut dirty);
                assert_eq!(generate_patient_into(&config, id, &mut dirty), *archetype);
                assert_records_identical(&dirty, expected);
                assert_eq!(generate_patient_into(&config, id, &mut walked), *archetype);
                assert_records_identical(&walked, expected);
            }
        }
    }

    /// Generation asked for the services of the first `n` stays only fills
    /// every field it promises with full generation's bits, for every `n`
    /// from the timeline alone (0) past the stay count: care units, entry
    /// and dwell times after each skipped stay, the first `n` stays'
    /// services, and the profile, drawn after every stay, when `n > 0`.  So
    /// a skipped stay advances the RNG exactly as drawing it would.  The
    /// record is dirtied by the config's largest patient before each call.
    #[test]
    fn generating_the_first_services_matches_full_generation_bitwise() {
        let bits = |v: &SparseVec| v.values().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (config, patients) in [
            (CohortConfig::tiny(3), 150),
            (CohortConfig::scaled(0.01, 5), 306),
            (CohortConfig::paper_scale(8), 120),
        ] {
            let fresh: Vec<(Arc<PatientRecord>, Archetype)> = (0..patients)
                .map(|id| generate_patient_record(&config, id))
                .collect();
            let size = |p: &PatientRecord| {
                let entries: usize = p.stays.iter().map(|s| s.services.nnz()).sum();
                (p.stays.len(), entries + p.profile.nnz())
            };
            let largest = (0..patients)
                .max_by_key(|&id| size(&fresh[id].0))
                .expect("patients");
            assert!(fresh[largest].0.stays.len() >= 4, "a long largest patient");
            let mut record = PatientRecord::default();
            let mut skipped_stays = 0usize;
            for (id, (expected, archetype)) in fresh.iter().enumerate() {
                let stays = expected.stays.len();
                for n in 0..=stays + 1 {
                    generate_patient_into(&config, largest, &mut record);
                    let got = generate_patient_services_into(&config, id, n, &mut record);
                    assert_eq!(got, *archetype);
                    assert_eq!(record.id, id);
                    assert_eq!(record.stays.len(), stays, "patient {id} n {n}");
                    for (i, (g, e)) in record.stays.iter().zip(&expected.stays).enumerate() {
                        assert_eq!(g.cu, e.cu);
                        assert_eq!(g.entry_time.to_bits(), e.entry_time.to_bits());
                        assert_eq!(g.dwell_days.to_bits(), e.dwell_days.to_bits());
                        if i < n {
                            assert_eq!(g.services.dim(), e.services.dim());
                            assert_eq!(g.services.indices(), e.services.indices());
                            assert_eq!(bits(&g.services), bits(&e.services));
                        }
                    }
                    if n > 0 {
                        assert_eq!(record.profile.dim(), expected.profile.dim());
                        assert_eq!(record.profile.indices(), expected.profile.indices());
                        assert_eq!(bits(&record.profile), bits(&expected.profile));
                    }
                    skipped_stays += stays.saturating_sub(n);
                }
            }
            assert!(skipped_stays > patients, "{skipped_stays} skipped stays");
        }
    }

    /// Push each index of `signature` that survives its keep draw onto
    /// `active`: one uniform draw per index, in order, kept when below
    /// `keep_prob`.
    fn push_kept(active: &mut Vec<u32>, signature: &[u32], keep_prob: f64, rng: &mut StdRng) {
        let keep_prob = keep_prob.clamp(0.0, 1.0);
        let mut kept = active.len();
        active.resize(kept + signature.len(), 0);
        for &idx in signature {
            active[kept] = idx;
            kept += usize::from(rng.gen::<f64>() < keep_prob);
        }
        active.truncate(kept);
    }

    /// The generator as it drew every vector before templates: each kept
    /// signature index pushed as its draw comes up, signature after
    /// signature, then the noise, and one sort of the lot
    /// ([`SparseVec::binary`]) into a fresh vector.  The signature sets come
    /// from the dictionary's reference functions, memoized by their
    /// arguments.
    struct Oracle {
        config: CohortConfig,
        sets: std::collections::HashMap<SignatureKey, Vec<u32>>,
    }

    impl Oracle {
        fn new(config: &CohortConfig) -> Self {
            Self {
                config: config.clone(),
                sets: std::collections::HashMap::new(),
            }
        }

        /// Push the set `key` names onto `active`: the indices that survive
        /// their keep draws, or all of them when `keep_prob` is `None`.
        fn push(
            &mut self,
            active: &mut Vec<u32>,
            key: SignatureKey,
            keep_prob: Option<f64>,
            rng: &mut StdRng,
        ) {
            let (dict, seed) = (self.config.features, self.config.seed);
            let set = self.sets.entry(key).or_insert_with(|| match key.0 {
                FeatureDomain::Profile => dict.profile_signature_indices(key.1, key.2, seed),
                domain => dict.signature_indices(domain, key.1, key.2, seed),
            });
            match keep_prob {
                Some(keep_prob) => push_kept(active, set, keep_prob, rng),
                None => active.extend_from_slice(set),
            }
        }

        /// Patient `id`, its archetype, and whether its profile holds the
        /// severity block.
        fn patient(&mut self, id: usize) -> (PatientRecord, Archetype, bool) {
            let config = self.config.clone();
            let mut rng = seeded_rng(derive_seed(config.seed, id as u64));
            let rng = &mut rng;
            let archetype = sample_archetype(rng);
            let severity = 0.5 + 1.5 * rng.gen::<f64>();
            let target_transitions = sample_transition_count(archetype, rng);
            let mut cus = vec![archetype.entry_unit(rng)];
            let mut visit_counts = [0usize; NUM_CARE_UNITS];
            visit_counts[cus[0]] += 1;
            while cus.len() < target_transitions + 1 {
                let current = cus[cus.len() - 1];
                let next = sample_next_unit(archetype, current, &visit_counts, severity, rng);
                visit_counts[next] += 1;
                cus.push(next);
                if next == CareUnit::Gw.index() && bernoulli(rng, 0.75) {
                    break;
                }
            }
            let dim = config.features.time_varying_dim();
            let mut stays = Vec::new();
            let mut t = 0.0;
            for (i, &cu) in cus.iter().enumerate() {
                let dwell = sample_dwell_days(cu, severity, rng);
                let dur_class = crate::departments::duration_class(dwell);
                let next_cu = cus.get(i + 1).copied();
                let planted: Vec<Planted> =
                    stay_signatures(&config, archetype, cu, next_cu, dur_class).collect();
                let mut active = Vec::new();
                for (_, key, keep_prob) in planted {
                    self.push(&mut active, key, Some(keep_prob), rng);
                }
                for _ in 0..(config.stay_actives / 4).max(1) {
                    active.push(rng.gen_range(0..dim) as u32);
                }
                stays.push(Stay {
                    cu,
                    entry_time: t,
                    dwell_days: dwell,
                    services: SparseVec::binary(dim, active),
                });
                t += dwell;
            }
            let count = profile_count(&config, archetype);
            let a = archetype.index() as u64;
            let severe = severity > 1.4;
            let mut active = Vec::new();
            let block = (FeatureDomain::Profile, a, count.max(1));
            self.push(&mut active, block, Some(0.85), rng);
            if severe {
                self.push(&mut active, (FeatureDomain::Profile, 100, 4), None, rng);
            }
            for _ in 0..(count / 5).max(1) {
                active.push(rng.gen_range(0..config.features.profile) as u32);
            }
            let profile = SparseVec::binary(config.features.profile, active).into();
            (PatientRecord { id, profile, stays }, archetype, severe)
        }
    }

    /// Template generation draws exactly the vectors of the sorting path it
    /// replaced, stays and profiles, into records reused dirty: along a walk,
    /// and after the cohort's last patient for every other id.  The configs
    /// span the test dictionaries, prefixes of the scaled ones and the paper
    /// scale, and one whose signatures hit the domain caps and overlap, so
    /// that planted indices repeat and store values of 2 and more.  Every
    /// config draws profiles of both templates, severe and not.
    #[test]
    fn template_generation_matches_the_sorting_oracle_bitwise() {
        let mut overlap = CohortConfig::tiny(5);
        overlap.stay_actives = 400;
        overlap.profile_actives = 40;
        let cases = [
            (CohortConfig::tiny(3), 150),
            (CohortConfig::small(4), 400),
            (CohortConfig::scaled(0.01, 5), 300),
            (CohortConfig::scaled(0.05, 6), 300),
            (CohortConfig::scaled(1.0, 7), 150),
            (CohortConfig::paper_scale(8), 150),
            (overlap.clone(), 150),
        ];
        for (config, patients) in cases {
            let mut oracle = Oracle::new(&config);
            let mut record = PatientRecord::default();
            let mut severe = [0usize; 2];
            let (mut repeated_services, mut repeated_profiles) = (0usize, 0usize);
            for id in 0..patients {
                if id % 2 == 1 {
                    generate_patient_into(&config, config.num_patients - 1, &mut record);
                }
                let (expected, archetype, is_severe) = oracle.patient(id);
                assert_eq!(generate_patient_into(&config, id, &mut record), archetype);
                assert_records_identical(&record, &expected);
                severe[usize::from(is_severe)] += 1;
                let repeats = |v: &SparseVec| v.values().iter().filter(|&&x| x >= 2.0).count();
                repeated_services += record
                    .stays
                    .iter()
                    .map(|s| repeats(&s.services))
                    .sum::<usize>();
                repeated_profiles += repeats(&record.profile);
            }
            assert!(
                severe.iter().all(|&n| n > 0),
                "both profile templates drawn: {severe:?}"
            );
            if config.stay_actives == overlap.stay_actives {
                assert!(repeated_services > patients, "{repeated_services} repeats");
                assert!(repeated_profiles > 0, "{repeated_profiles} repeats");
            }
        }
    }

    /// What the generator keeps per thread, from capacities, on a fresh
    /// thread after a walk over `patients` patients of `config`.
    fn table_bytes_after(config: CohortConfig, patients: usize) -> usize {
        std::thread::spawn(move || {
            assert_eq!(generator_table_bytes(), 0, "a fresh thread holds no table");
            let mut record = PatientRecord::default();
            for id in 0..patients {
                generate_patient_into(&config, id, &mut record);
            }
            generator_table_bytes()
        })
        .join()
        .expect("generator thread")
    }

    /// The per-thread generator table is a noise-free memory gate: its
    /// signature sets, templates and draw buffers hold 93,556 B after a
    /// scale-0.05 cohort (1,534 patients, seed 1) and 213,524 B after the
    /// first 4,000 paper-scale patients (seed 1), each walked on a fresh
    /// thread.  Templates of 8-byte `(index, draw)` entries with one
    /// `(length, keep_prob)` record per draw group held 203,112 B and
    /// 424,680 B; the sets alone, before templates, ~18 KiB and ~22 KiB.
    #[test]
    fn generator_table_stays_small() {
        let scaled = CohortConfig::scaled(0.05, 1);
        let scaled_bytes = table_bytes_after(scaled.clone(), scaled.num_patients);
        let paper_bytes = table_bytes_after(CohortConfig::paper_scale(1), 4_000);
        eprintln!(
            "generator table: {scaled_bytes} B at scale 0.05, {paper_bytes} B at paper scale"
        );
        assert!(scaled_bytes <= 100 * 1024, "{scaled_bytes} B at scale 0.05");
        assert!(paper_bytes <= 224 * 1024, "{paper_bytes} B at paper scale");
    }

    #[test]
    #[should_panic(expected = "shard_size must be positive")]
    fn zero_shard_size_is_rejected() {
        let _ = CohortShards::new(&CohortConfig::tiny(1), 0);
    }
}
