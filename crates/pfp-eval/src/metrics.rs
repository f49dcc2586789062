//! Prediction-accuracy metrics (Section 4.1 of the paper).
//!
//! * `AC_c` — per-department accuracy: correct predictions among transitions
//!   whose true destination is department `c`.
//! * `AC_C` — overall destination accuracy (the class-share-weighted sum of
//!   the `AC_c`, which equals plain accuracy).
//! * `AC_d` / `AC_D` — the same for duration classes.

use pfp_baselines::{DmcpPredictor, FlowPredictor, MethodId};
use pfp_core::{Dataset, DmcpModel};
use serde::{Deserialize, Serialize};

/// Per-class and overall accuracies for both heads, plus confusion matrices.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// `AC_c` for every department (NaN-free: departments with no test
    /// transitions report 0).
    pub per_cu: Vec<f64>,
    /// Overall destination accuracy `AC_C`.
    pub overall_cu: f64,
    /// `AC_d` for every duration class.
    pub per_duration: Vec<f64>,
    /// Overall duration accuracy `AC_D`.
    pub overall_duration: f64,
    /// Destination confusion matrix: `confusion_cu[true][predicted]`.
    pub confusion_cu: Vec<Vec<usize>>,
    /// Duration confusion matrix: `confusion_duration[true][predicted]`.
    pub confusion_duration: Vec<Vec<usize>>,
    /// Number of evaluated samples.
    pub num_samples: usize,
}

/// Evaluate a trained predictor on the samples of a (test) dataset.
pub fn evaluate(predictor: &dyn FlowPredictor, test: &Dataset) -> AccuracyReport {
    let num_cus = test.num_cus;
    let num_durations = test.num_durations;
    let mut confusion_cu = vec![vec![0usize; num_cus]; num_cus];
    let mut confusion_duration = vec![vec![0usize; num_durations]; num_durations];
    for raw in &test.samples {
        let pred = predictor.predict_sample(raw);
        confusion_cu[raw.cu_label][pred.cu] += 1;
        confusion_duration[raw.duration_label][pred.duration] += 1;
    }
    report_from_confusions(confusion_cu, confusion_duration, test.len())
}

fn report_from_confusions(
    confusion_cu: Vec<Vec<usize>>,
    confusion_duration: Vec<Vec<usize>>,
    num_samples: usize,
) -> AccuracyReport {
    let per_class = |confusion: &Vec<Vec<usize>>| -> (Vec<f64>, f64) {
        let mut per = Vec::with_capacity(confusion.len());
        let mut correct_total = 0usize;
        let mut total = 0usize;
        for (true_class, row) in confusion.iter().enumerate() {
            let class_total: usize = row.iter().sum();
            let correct = row[true_class];
            per.push(if class_total == 0 {
                0.0
            } else {
                correct as f64 / class_total as f64
            });
            correct_total += correct;
            total += class_total;
        }
        let overall = if total == 0 {
            0.0
        } else {
            correct_total as f64 / total as f64
        };
        (per, overall)
    };
    let (per_cu, overall_cu) = per_class(&confusion_cu);
    let (per_duration, overall_duration) = per_class(&confusion_duration);
    AccuracyReport {
        per_cu,
        overall_cu,
        per_duration,
        overall_duration,
        confusion_cu,
        confusion_duration,
        num_samples,
    }
}

/// Convenience: overall destination accuracy of a bare [`DmcpModel`] on a test
/// dataset (used by the quickstart).
pub fn overall_cu_accuracy(model: &DmcpModel, test: &Dataset) -> f64 {
    let predictor = DmcpPredictor::from_model(model.clone(), MethodId::Dmcp);
    evaluate(&predictor, test).overall_cu
}

/// Convenience: overall duration accuracy of a bare [`DmcpModel`].
pub fn overall_duration_accuracy(model: &DmcpModel, test: &Dataset) -> f64 {
    let predictor = DmcpPredictor::from_model(model.clone(), MethodId::Dmcp);
    evaluate(&predictor, test).overall_duration
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfp_baselines::Prediction;
    use pfp_core::dataset::RawSample;
    use pfp_ehr::{generate_cohort, CohortConfig};
    use std::sync::Arc;

    /// A predictor that always answers with a fixed pair.
    struct Constant(usize, usize);

    impl FlowPredictor for Constant {
        fn method(&self) -> MethodId {
            MethodId::Mc
        }
        fn predict_sample(&self, _sample: &RawSample) -> Prediction {
            Prediction {
                cu: self.0,
                duration: self.1,
            }
        }
    }

    /// A predictor that echoes the true labels (oracle).
    struct Oracle;

    impl FlowPredictor for Oracle {
        fn method(&self) -> MethodId {
            MethodId::Dmcp
        }
        fn predict_sample(&self, sample: &RawSample) -> Prediction {
            Prediction {
                cu: sample.cu_label,
                duration: sample.duration_label,
            }
        }
    }

    fn dataset() -> Dataset {
        Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(121)))
    }

    #[test]
    fn oracle_scores_one_everywhere_it_has_samples() {
        let ds = dataset();
        let report = evaluate(&Oracle, &ds);
        assert!((report.overall_cu - 1.0).abs() < 1e-12);
        assert!((report.overall_duration - 1.0).abs() < 1e-12);
        let (cu_counts, _) = ds.label_counts();
        for (c, &count) in cu_counts.iter().enumerate() {
            if count > 0 {
                assert!((report.per_cu[c] - 1.0).abs() < 1e-12);
            } else {
                assert_eq!(report.per_cu[c], 0.0);
            }
        }
    }

    #[test]
    fn constant_predictor_overall_accuracy_equals_class_share() {
        let ds = dataset();
        let gw = pfp_ehr::departments::CareUnit::Gw.index();
        let report = evaluate(&Constant(gw, 0), &ds);
        let (cu_counts, dur_counts) = ds.label_counts();
        let gw_share = cu_counts[gw] as f64 / ds.len() as f64;
        let d0_share = dur_counts[0] as f64 / ds.len() as f64;
        assert!((report.overall_cu - gw_share).abs() < 1e-12);
        assert!((report.overall_duration - d0_share).abs() < 1e-12);
        assert!((report.per_cu[gw] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn confusion_matrices_sum_to_sample_count() {
        let ds = dataset();
        let report = evaluate(&Constant(0, 0), &ds);
        let total: usize = report.confusion_cu.iter().flatten().sum();
        assert_eq!(total, ds.len());
        assert_eq!(report.num_samples, ds.len());
    }

    #[test]
    fn dmcp_model_convenience_wrappers_return_valid_accuracies() {
        let ds = dataset();
        let (train, test) = ds.split_holdout(0.3, 5);
        let model = DmcpModel::train(&train, &pfp_core::TrainConfig::fast());
        let acc_cu = overall_cu_accuracy(&model, &test);
        let acc_dur = overall_duration_accuracy(&model, &test);
        assert!((0.0..=1.0).contains(&acc_cu));
        assert!((0.0..=1.0).contains(&acc_dur));
    }

    // --- degenerate inputs: metrics must stay finite and panic-free ---

    fn empty_dataset() -> Dataset {
        Dataset {
            samples: vec![],
            patients: vec![],
            profile_dim: 2,
            service_dim: 3,
            num_cus: 4,
            num_durations: 3,
            mean_dwell_days: 1.0,
        }
    }

    /// A dataset whose samples all carry the same `(cu, duration)` label.
    fn single_class_dataset(label: usize) -> Dataset {
        let mut ds = dataset();
        for s in &mut ds.samples {
            let s = Arc::make_mut(s);
            s.cu_label = label;
            s.duration_label = 0;
        }
        ds
    }

    fn assert_finite_report(report: &AccuracyReport) {
        assert!(report.overall_cu.is_finite());
        assert!(report.overall_duration.is_finite());
        assert!(report.per_cu.iter().all(|v| v.is_finite()));
        assert!(report.per_duration.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_test_set_yields_zero_not_nan() {
        let ds = empty_dataset();
        let report = evaluate(&Constant(0, 0), &ds);
        assert_eq!(report.num_samples, 0);
        assert_eq!(report.overall_cu, 0.0);
        assert_eq!(report.overall_duration, 0.0);
        assert_finite_report(&report);
    }

    #[test]
    fn single_class_cohort_yields_finite_scores_for_matching_predictor() {
        let ds = single_class_dataset(2);
        let report = evaluate(&Constant(2, 0), &ds);
        assert!((report.overall_cu - 1.0).abs() < 1e-12);
        assert!((report.per_cu[2] - 1.0).abs() < 1e-12);
        // Absent classes: no samples, no predictions — 0, not NaN.
        assert_eq!(report.per_cu[0], 0.0);
        assert_finite_report(&report);
    }

    #[test]
    fn single_class_cohort_yields_finite_scores_for_mismatching_predictor() {
        let ds = single_class_dataset(2);
        // Predicts a class that never occurs: every class scores 0, not NaN.
        let report = evaluate(&Constant(0, 1), &ds);
        assert_eq!(report.overall_cu, 0.0);
        assert!(report.per_cu.iter().all(|&v| v == 0.0));
        assert_finite_report(&report);
    }
}
