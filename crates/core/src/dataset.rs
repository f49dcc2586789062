//! Feature/label samples extracted from a cohort.
//!
//! Each transition event of each patient yields one *raw* sample: the
//! patient's profile, the stays observed up to (and including) the current
//! stay, the evaluation time, and the two labels `(c, d)` — destination care
//! unit and duration class.  Raw samples are featurized on demand under any
//! [`FeatureMapKind`], so every discriminative method in the comparison sees
//! exactly the same underlying information.
//!
//! Splitting (hold-out and k-fold) is done **by patient** so that no patient
//! contributes samples to both the training and test sides, and so the
//! census-simulation experiment can replay whole held-out trajectories.

use pfp_ehr::departments::{NUM_CARE_UNITS, NUM_DURATION_CLASSES};
use pfp_ehr::{Cohort, PatientRecord};
use pfp_math::rng::{seeded_rng, shuffled_indices};
use pfp_math::SparseVec;
use serde::{Deserialize, Serialize};

use crate::features::{FeatureMapKind, HistoryFeaturizer, HistoryStay, EVAL_OFFSET_DAYS};

/// One transition event with everything needed to featurize it later.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RawSample {
    /// Patient identifier.
    pub patient_id: usize,
    /// Time-invariant profile features of the patient.
    pub profile: SparseVec,
    /// Stays observed up to and including the current stay (oldest first).
    pub history: Vec<HistoryStay>,
    /// Care unit of each stay in `history` (parallel vector), used by the
    /// sequence baselines (MC / VAR / CTMC / HP).
    pub cu_history: Vec<usize>,
    /// Duration class of the *previous* stay, `None` for the first stay —
    /// the paper's `d = NULL` convention for the first event.
    pub prev_duration_class: Option<usize>,
    /// Evaluation time of the prediction.
    pub t_eval: f64,
    /// Entry time of the previous stay (`t_I`), 0 for the first stay.
    pub t_prev: f64,
    /// Destination care unit label `c`.
    pub cu_label: usize,
    /// Duration-class label `d`.
    pub duration_label: usize,
}

/// A featurized sample: combined sparse feature vector plus the two labels.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sample {
    /// Patient identifier (kept for grouping / diagnostics).
    pub patient_id: usize,
    /// Combined feature vector `f_t` of dimension `M`.
    pub features: SparseVec,
    /// Destination care unit label `c`.
    pub cu_label: usize,
    /// Duration-class label `d`.
    pub duration_label: usize,
}

/// The raw dataset: per-patient transition samples plus the patient records
/// themselves (needed by the sequence baselines and the census simulation).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// All raw samples across the cohort.
    pub samples: Vec<RawSample>,
    /// Patient records backing the samples.
    pub patients: Vec<PatientRecord>,
    /// Profile feature dimension (`M_p`).
    pub profile_dim: usize,
    /// Time-varying feature dimension (`M_treat + M_nurse + M_med`).
    pub service_dim: usize,
    /// Number of destination classes `C`.
    pub num_cus: usize,
    /// Number of duration classes `D`.
    pub num_durations: usize,
    /// Mean dwell time of the underlying cohort (the paper's σ).
    pub mean_dwell_days: f64,
}

impl Dataset {
    /// Extract raw samples from a cohort.
    pub fn from_cohort(cohort: &Cohort) -> Self {
        let mut samples = Vec::new();
        for patient in &cohort.patients {
            samples.extend(extract_patient_samples(patient));
        }
        Dataset {
            samples,
            patients: cohort.patients.clone(),
            profile_dim: cohort.features().profile,
            service_dim: cohort.features().time_varying_dim(),
            num_cus: NUM_CARE_UNITS,
            num_durations: NUM_DURATION_CLASSES,
            mean_dwell_days: pfp_ehr::stats::mean_dwell_days(cohort),
        }
    }

    /// Total combined feature dimension `M`.
    pub fn total_feature_dim(&self) -> usize {
        self.profile_dim + self.service_dim
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The featurizer for a given feature-map kind on this dataset's layout.
    pub fn featurizer(&self, kind: FeatureMapKind) -> HistoryFeaturizer {
        HistoryFeaturizer::new(kind, self.profile_dim, self.service_dim)
    }

    /// The paper's default mutually-correcting kind (σ = mean dwell time).
    pub fn default_mcp_kind(&self) -> FeatureMapKind {
        FeatureMapKind::MutuallyCorrecting {
            sigma: self.mean_dwell_days.max(0.5),
        }
    }

    /// Featurize every sample under `kind`.
    pub fn featurize(&self, kind: FeatureMapKind) -> Vec<Sample> {
        let featurizer = self.featurizer(kind);
        self.samples
            .iter()
            .map(|raw| Sample {
                patient_id: raw.patient_id,
                features: featurizer.featurize(&raw.profile, &raw.history, raw.t_eval, raw.t_prev),
                cu_label: raw.cu_label,
                duration_label: raw.duration_label,
            })
            .collect()
    }

    /// Split into `(train, test)` by patient; `test_fraction` of patients go
    /// to the test side (at least one patient on each side when possible).
    ///
    /// # Panics
    /// Panics if `test_fraction` is outside `[0, 1)`.
    pub fn split_holdout(&self, test_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        assert!(
            (0.0..1.0).contains(&test_fraction),
            "test fraction must be in [0, 1)"
        );
        let n = self.patients.len();
        let mut rng = seeded_rng(seed);
        let order = shuffled_indices(&mut rng, n);
        let n_test = ((n as f64 * test_fraction).round() as usize)
            .clamp(usize::from(n > 1), n.saturating_sub(1));
        let test_ids: std::collections::HashSet<usize> = order[..n_test]
            .iter()
            .map(|&i| self.patients[i].id)
            .collect();
        let in_test = |pid: usize| test_ids.contains(&pid);
        (
            self.filter_by_patient(|pid| !in_test(pid)),
            self.filter_by_patient(in_test),
        )
    }

    /// Split into `k` folds by patient; returns per-fold `(train, validation)`.
    ///
    /// # Panics
    /// Panics if `k < 2` or there are fewer patients than folds.
    pub fn k_folds(&self, k: usize, seed: u64) -> Vec<(Dataset, Dataset)> {
        assert!(k >= 2, "need at least two folds");
        let n = self.patients.len();
        assert!(n >= k, "need at least as many patients as folds");
        let mut rng = seeded_rng(seed);
        let order = shuffled_indices(&mut rng, n);
        let mut folds = Vec::with_capacity(k);
        for fold in 0..k {
            let val_ids: std::collections::HashSet<usize> = order
                .iter()
                .enumerate()
                .filter(|(pos, _)| pos % k == fold)
                .map(|(_, &i)| self.patients[i].id)
                .collect();
            let in_val = |pid: usize| val_ids.contains(&pid);
            folds.push((
                self.filter_by_patient(|pid| !in_val(pid)),
                self.filter_by_patient(in_val),
            ));
        }
        folds
    }

    /// Keep only the samples (and patients) whose patient id satisfies `keep`.
    pub fn filter_by_patient(&self, keep: impl Fn(usize) -> bool) -> Dataset {
        Dataset {
            samples: self
                .samples
                .iter()
                .filter(|s| keep(s.patient_id))
                .cloned()
                .collect(),
            patients: self
                .patients
                .iter()
                .filter(|p| keep(p.id))
                .cloned()
                .collect(),
            profile_dim: self.profile_dim,
            service_dim: self.service_dim,
            num_cus: self.num_cus,
            num_durations: self.num_durations,
            mean_dwell_days: self.mean_dwell_days,
        }
    }

    /// Per-class counts of `(destination, duration)` labels.
    pub fn label_counts(&self) -> (Vec<usize>, Vec<usize>) {
        let mut cu = vec![0usize; self.num_cus];
        let mut dur = vec![0usize; self.num_durations];
        for s in &self.samples {
            cu[s.cu_label] += 1;
            dur[s.duration_label] += 1;
        }
        (cu, dur)
    }
}

/// Extract the raw samples of one patient (one per transition).
pub fn extract_patient_samples(patient: &PatientRecord) -> Vec<RawSample> {
    let transitions = patient.transitions();
    let mut samples = Vec::with_capacity(transitions.len());
    for t in &transitions {
        let current_stay = t.from_stay;
        let history: Vec<HistoryStay> = patient.stays[..=current_stay]
            .iter()
            .map(|s| HistoryStay {
                entry_time: s.entry_time,
                services: s.services.clone(),
            })
            .collect();
        let cu_history: Vec<usize> = patient.stays[..=current_stay]
            .iter()
            .map(|s| s.cu)
            .collect();
        let prev_duration_class = if current_stay == 0 {
            None
        } else {
            Some(patient.stays[current_stay - 1].duration_class())
        };
        let t_prev = if current_stay == 0 {
            0.0
        } else {
            patient.stays[current_stay - 1].entry_time
        };
        let t_eval = patient.stays[current_stay].entry_time + EVAL_OFFSET_DAYS;
        samples.push(RawSample {
            patient_id: patient.id,
            profile: patient.profile.clone(),
            history,
            cu_history,
            prev_duration_class,
            t_eval,
            t_prev,
            cu_label: t.destination,
            duration_label: t.duration_class,
        });
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfp_ehr::{generate_cohort, CohortConfig};

    fn dataset() -> Dataset {
        Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(23)))
    }

    #[test]
    fn sample_count_matches_total_transitions() {
        let cohort = generate_cohort(&CohortConfig::tiny(23));
        let ds = Dataset::from_cohort(&cohort);
        assert_eq!(ds.len(), cohort.total_transitions());
        assert!(!ds.is_empty());
    }

    #[test]
    fn samples_only_use_history_up_to_current_stay() {
        let ds = dataset();
        for raw in &ds.samples {
            for stay in &raw.history {
                assert!(stay.entry_time <= raw.t_eval + 1e-9);
            }
            assert!(raw.t_prev <= raw.t_eval);
            assert!(raw.cu_label < ds.num_cus);
            assert!(raw.duration_label < ds.num_durations);
            assert_eq!(raw.cu_history.len(), raw.history.len());
            assert!(raw.cu_history.iter().all(|&cu| cu < ds.num_cus));
            if raw.history.len() == 1 {
                assert!(raw.prev_duration_class.is_none());
            } else {
                assert!(raw.prev_duration_class.unwrap() < ds.num_durations);
            }
        }
    }

    #[test]
    fn featurize_produces_vectors_of_total_dimension() {
        let ds = dataset();
        let samples = ds.featurize(ds.default_mcp_kind());
        assert_eq!(samples.len(), ds.len());
        for s in &samples {
            assert_eq!(s.features.dim(), ds.total_feature_dim());
        }
    }

    #[test]
    fn lr_features_are_sparser_than_mpp_features() {
        let ds = dataset();
        let lr: usize = ds
            .featurize(FeatureMapKind::CurrentOnly)
            .iter()
            .map(|s| s.features.nnz())
            .sum();
        let mpp: usize = ds
            .featurize(FeatureMapKind::ModulatedPoisson)
            .iter()
            .map(|s| s.features.nnz())
            .sum();
        assert!(lr <= mpp);
    }

    #[test]
    fn holdout_split_partitions_patients() {
        let ds = dataset();
        let (train, test) = ds.split_holdout(0.25, 3);
        assert_eq!(
            train.patients.len() + test.patients.len(),
            ds.patients.len()
        );
        assert_eq!(train.len() + test.len(), ds.len());
        let train_ids: std::collections::HashSet<_> = train.patients.iter().map(|p| p.id).collect();
        assert!(test.patients.iter().all(|p| !train_ids.contains(&p.id)));
        assert!(!test.patients.is_empty());
        assert!(train.patients.len() > test.patients.len());
    }

    #[test]
    fn k_folds_cover_every_patient_exactly_once_as_validation() {
        let ds = dataset();
        let folds = ds.k_folds(5, 7);
        assert_eq!(folds.len(), 5);
        let mut seen = std::collections::HashSet::new();
        for (train, val) in &folds {
            assert_eq!(train.patients.len() + val.patients.len(), ds.patients.len());
            for p in &val.patients {
                assert!(
                    seen.insert(p.id),
                    "patient {} appeared in two validation folds",
                    p.id
                );
            }
        }
        assert_eq!(seen.len(), ds.patients.len());
    }

    #[test]
    fn label_counts_sum_to_sample_count() {
        let ds = dataset();
        let (cu, dur) = ds.label_counts();
        assert_eq!(cu.iter().sum::<usize>(), ds.len());
        assert_eq!(dur.iter().sum::<usize>(), ds.len());
    }

    #[test]
    #[should_panic(expected = "at least two folds")]
    fn k_folds_requires_k_of_two_or_more() {
        let _ = dataset().k_folds(1, 1);
    }

    #[test]
    fn default_mcp_kind_uses_mean_dwell_as_sigma() {
        let ds = dataset();
        match ds.default_mcp_kind() {
            FeatureMapKind::MutuallyCorrecting { sigma } => {
                assert!((sigma - ds.mean_dwell_days).abs() < 1e-12 || sigma == 0.5);
                assert!(sigma > 0.0);
            }
            _ => panic!("expected MCP kind"),
        }
    }
}
