//! Imbalance pre-processing strategies (Section 3.3 of the paper).
//!
//! The synthetic cohort inherits the paper's heavy class imbalance: almost
//! every trajectory passes through the general ward while ACU / TSICU
//! transitions are rare.  Three counter-measures are implemented:
//!
//! * **Weighted data (WDMCP)** — per-sample weights
//!   `w_i = 1 / log(1 + #{(c_i, d_i)})` re-balance the loss.
//! * **Synthetic data (SDMCP)** — minority `(c, d)` classes are topped up with
//!   auxiliary samples whose feature dimensions are drawn independently from
//!   the class-conditional empirical distribution (the paper's proposal).
//! * **Hierarchical data (HDMCP)** — a cascade of binary classifiers trained
//!   majority-vs-rest on progressively smaller remainders; implemented as its
//!   own model type because it changes the classifier structure, not just the
//!   training data.

use pfp_math::rng::{bernoulli, seeded_rng};
use pfp_math::softmax::argmax;
use pfp_math::{Matrix, SparseVec};
use pfp_optim::admm::solve_group_lasso;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::dataset::Sample;
use crate::loss::DmcpObjective;
use crate::train::TrainConfig;

/// Which imbalance pre-processing to apply before training.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum ImbalanceStrategy {
    /// Use the data as-is (plain DMCP).
    #[default]
    None,
    /// Weight each sample by `1 / log(1 + #{(c, d)})` (WDMCP).
    Weighted,
    /// Synthesize auxiliary samples for minority classes until every observed
    /// `(c, d)` class has `min(max_count, cap)` samples (SDMCP).
    Synthetic {
        /// Upper bound on the per-class sample count after augmentation.
        cap_per_class: usize,
    },
}

impl ImbalanceStrategy {
    /// Default synthetic strategy with a generous cap.
    pub fn synthetic() -> Self {
        ImbalanceStrategy::Synthetic {
            cap_per_class: 5_000,
        }
    }

    /// Apply the strategy: returns possibly-augmented samples and optional
    /// per-sample weights.
    pub fn apply(
        &self,
        samples: Vec<Sample>,
        num_cus: usize,
        num_durations: usize,
        seed: u64,
    ) -> (Vec<Sample>, Option<Vec<f64>>) {
        match *self {
            ImbalanceStrategy::None => (samples, None),
            ImbalanceStrategy::Weighted => {
                let weights = sample_weights(&samples, num_cus, num_durations);
                (samples, Some(weights))
            }
            ImbalanceStrategy::Synthetic { cap_per_class } => {
                let augmented = synthesize_minority_samples(
                    samples,
                    num_cus,
                    num_durations,
                    cap_per_class,
                    seed,
                );
                (augmented, None)
            }
        }
    }

    /// Report label used by the experiment harness.
    pub fn label(&self) -> &'static str {
        match self {
            ImbalanceStrategy::None => "none",
            ImbalanceStrategy::Weighted => "weighted",
            ImbalanceStrategy::Synthetic { .. } => "synthetic",
        }
    }
}

/// Per-sample weights `w_i = 1 / log(1 + #{(c_i, d_i)})`.
pub fn sample_weights(samples: &[Sample], num_cus: usize, num_durations: usize) -> Vec<f64> {
    label_weights(sample_labels(samples), num_cus, num_durations)
}

/// Counts of each joint `(c, d)` class.
pub fn joint_class_counts(samples: &[Sample], num_cus: usize, num_durations: usize) -> Vec<usize> {
    label_counts(sample_labels(samples), num_cus, num_durations)
}

/// The `(c, d)` labels of `samples`, in order.
fn sample_labels(samples: &[Sample]) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
    samples.iter().map(|s| (s.cu_label, s.duration_label))
}

/// The weights of [`sample_weights`] from the samples' `(c, d)` labels alone,
/// in their order: one pass counts the joint classes, a second weighs each
/// sample.  Every weighted source computes its weights here, so they agree
/// bitwise.
pub(crate) fn label_weights(
    labels: impl Iterator<Item = (usize, usize)> + Clone,
    num_cus: usize,
    num_durations: usize,
) -> Vec<f64> {
    let counts = label_counts(labels.clone(), num_cus, num_durations);
    let mut weights = Vec::with_capacity(counts.iter().sum());
    weights.extend(labels.map(|(c, d)| {
        let n = counts[c * num_durations + d].max(1);
        1.0 / (1.0 + n as f64).ln()
    }));
    weights
}

/// Counts of each joint `(c, d)` class among `labels`.
pub(crate) fn label_counts(
    labels: impl Iterator<Item = (usize, usize)>,
    num_cus: usize,
    num_durations: usize,
) -> Vec<usize> {
    let mut counts = vec![0usize; num_cus * num_durations];
    for (c, d) in labels {
        counts[c * num_durations + d] += 1;
    }
    counts
}

/// The paper's data-synthesis pre-processing: every observed `(c, d)` class is
/// topped up to `min(max observed class count, cap)` by sampling each feature
/// dimension independently from the class-conditional empirical distribution.
pub fn synthesize_minority_samples(
    mut samples: Vec<Sample>,
    num_cus: usize,
    num_durations: usize,
    cap_per_class: usize,
    seed: u64,
) -> Vec<Sample> {
    let counts = joint_class_counts(&samples, num_cus, num_durations);
    let max_count = counts.iter().copied().max().unwrap_or(0);
    let target = max_count.min(cap_per_class.max(1));
    if target == 0 {
        return samples;
    }

    // Group sample indices by class.
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); num_cus * num_durations];
    for (i, s) in samples.iter().enumerate() {
        by_class[s.cu_label * num_durations + s.duration_label].push(i);
    }

    let mut rng = seeded_rng(seed);
    let mut synthetic = Vec::new();
    for (class, members) in by_class.iter().enumerate() {
        if members.is_empty() || members.len() >= target {
            continue;
        }
        let cu_label = class / num_durations;
        let duration_label = class % num_durations;
        // Class-conditional per-dimension statistics: activation probability
        // and mean nonzero value.
        let dim = samples[members[0]].features.dim();
        // BTreeMap, not HashMap: the Bernoulli draws below are consumed in
        // iteration order, and HashMap's per-process hash seed would make the
        // synthetic samples — and every model trained on them — differ from
        // run to run despite the fixed seed.
        let mut active_counts: std::collections::BTreeMap<u32, (usize, f64)> =
            std::collections::BTreeMap::new();
        for &i in members {
            for (idx, v) in samples[i].features.iter() {
                let e = active_counts.entry(idx).or_insert((0, 0.0));
                e.0 += 1;
                e.1 += v;
            }
        }
        let n_members = members.len() as f64;
        let need = target - members.len();
        for k in 0..need {
            let mut pairs = Vec::new();
            for (&idx, &(cnt, sum)) in &active_counts {
                let p = cnt as f64 / n_members;
                if bernoulli(&mut rng, p) {
                    pairs.push((idx, sum / cnt as f64));
                }
            }
            // Guarantee at least one active dimension by borrowing from a
            // random existing member when the Bernoulli draw comes up empty.
            if pairs.is_empty() {
                let donor = members[rng.gen_range(0..members.len())];
                pairs = samples[donor].features.iter().collect();
            }
            synthetic.push(Sample {
                patient_id: usize::MAX - class * 10_000 - k, // synthetic marker ids
                features: SparseVec::from_pairs(dim, pairs),
                cu_label,
                duration_label,
            });
        }
    }
    samples.extend(synthetic);
    samples
}

/// One stage of the hierarchical cascade: a binary classifier separating the
/// stage's majority class from everything that remains.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CascadeStage {
    class: usize,
    theta: Matrix,
}

/// The hierarchical (HDMCP) classifier for one head (destination or duration).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HierarchicalHead {
    stages: Vec<CascadeStage>,
    fallback_class: usize,
    num_features: usize,
}

impl HierarchicalHead {
    /// Feature dimension the cascade was trained with.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Train the cascade on featurized samples using `label_of` to pick the
    /// head's label from a sample.
    ///
    /// # Panics
    /// Panics if `samples` is empty or a label is at least `num_classes`.
    pub fn train(
        samples: &[Sample],
        num_classes: usize,
        num_features: usize,
        label_of: impl Fn(&Sample) -> usize,
        config: &TrainConfig,
    ) -> Self {
        assert!(
            !samples.is_empty(),
            "cannot train a cascade on zero samples"
        );
        let mut remaining: Vec<&Sample> = samples.iter().collect();
        let mut stages = Vec::new();
        let mut remaining_classes: Vec<usize> = {
            let mut counts = vec![0usize; num_classes];
            for s in &remaining {
                counts[label_of(s)] += 1;
            }
            let mut cls: Vec<usize> = (0..num_classes).filter(|&c| counts[c] > 0).collect();
            cls.sort_by_key(|&c| std::cmp::Reverse(counts[c]));
            cls
        };

        while remaining_classes.len() > 1 {
            let majority = remaining_classes[0];
            // Binary problem: majority (label 0) vs rest (label 1).
            let binary: Vec<Sample> = remaining
                .iter()
                .map(|s| Sample {
                    patient_id: s.patient_id,
                    features: s.features.clone(),
                    cu_label: usize::from(label_of(s) != majority),
                    duration_label: 0,
                })
                .collect();
            let objective = DmcpObjective::new(&binary, None, num_features, 2, 1);
            let theta0 = Matrix::zeros(num_features, 3);
            let res = solve_group_lasso(&objective, theta0, &config.admm_config());
            stages.push(CascadeStage {
                class: majority,
                theta: res.theta,
            });
            remaining.retain(|s| label_of(s) != majority);
            remaining_classes.remove(0);
            if remaining.is_empty() {
                break;
            }
        }
        let fallback_class = remaining_classes.first().copied().unwrap_or(0);
        Self {
            stages,
            fallback_class,
            num_features,
        }
    }

    /// Walk the cascade and return the predicted class.
    pub fn predict(&self, features: &SparseVec) -> usize {
        for stage in &self.stages {
            let mut scores = vec![0.0; 3];
            features.accumulate_scores(&stage.theta, &mut scores);
            if argmax(&scores[..2]) == 0 {
                return stage.class;
            }
        }
        self.fallback_class
    }

    /// Number of binary stages in the cascade.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }
}

/// The full hierarchical model: one cascade per head.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HierarchicalModel {
    /// Cascade predicting the destination care unit.
    pub cu_head: HierarchicalHead,
    /// Cascade predicting the duration class.
    pub duration_head: HierarchicalHead,
}

impl HierarchicalModel {
    /// Train both cascades on featurized samples.
    pub fn train(
        samples: &[Sample],
        num_features: usize,
        num_cus: usize,
        num_durations: usize,
        config: &TrainConfig,
    ) -> Self {
        let cu_head =
            HierarchicalHead::train(samples, num_cus, num_features, |s| s.cu_label, config);
        let duration_head = HierarchicalHead::train(
            samples,
            num_durations,
            num_features,
            |s| s.duration_label,
            config,
        );
        Self {
            cu_head,
            duration_head,
        }
    }

    /// Predict `(ĉ, d̂)` for a featurized sample.
    pub fn predict(&self, features: &SparseVec) -> (usize, usize) {
        (
            self.cu_head.predict(features),
            self.duration_head.predict(features),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn imbalanced_samples() -> Vec<Sample> {
        let mut samples = Vec::new();
        // 30 samples of class (0,0) with feature 0, 3 samples of class (1,1) with feature 1.
        for i in 0..30 {
            samples.push(Sample {
                patient_id: i,
                features: SparseVec::binary(4, vec![0]),
                cu_label: 0,
                duration_label: 0,
            });
        }
        for i in 0..3 {
            samples.push(Sample {
                patient_id: 100 + i,
                features: SparseVec::binary(4, vec![1, 2]),
                cu_label: 1,
                duration_label: 1,
            });
        }
        samples
    }

    #[test]
    fn weights_favour_minority_classes() {
        let samples = imbalanced_samples();
        let w = sample_weights(&samples, 2, 2);
        assert_eq!(w.len(), samples.len());
        let majority_w = w[0];
        let minority_w = w[31];
        assert!(
            minority_w > majority_w,
            "{minority_w} should exceed {majority_w}"
        );
    }

    #[test]
    fn synthesize_tops_up_minority_class() {
        let samples = imbalanced_samples();
        let augmented = synthesize_minority_samples(samples, 2, 2, 1_000, 5);
        let counts = joint_class_counts(&augmented, 2, 2);
        assert_eq!(counts[0], 30);
        assert_eq!(
            counts[3], 30,
            "minority class should be topped up to the majority count"
        );
        // Synthetic samples stay on the minority class's support.
        for s in augmented.iter().filter(|s| s.patient_id > 1_000) {
            for (idx, _) in s.features.iter() {
                assert!(
                    idx == 1 || idx == 2,
                    "synthetic features must come from the class distribution"
                );
            }
            assert!(s.features.nnz() >= 1);
        }
    }

    #[test]
    fn synthesize_is_deterministic_at_a_fixed_seed() {
        // Regression: the per-class feature statistics used to live in a
        // HashMap, whose per-instance hash keys made the Bernoulli draws —
        // and therefore the synthetic samples and every model trained on
        // them — differ between runs at the same seed.  Two independent
        // calls must agree bitwise.
        let a = synthesize_minority_samples(imbalanced_samples(), 2, 2, 1_000, 5);
        let b = synthesize_minority_samples(imbalanced_samples(), 2, 2, 1_000, 5);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.patient_id, y.patient_id);
            assert_eq!(x.cu_label, y.cu_label);
            assert_eq!(x.duration_label, y.duration_label);
            let (xf, yf): (Vec<_>, Vec<_>) =
                (x.features.iter().collect(), y.features.iter().collect());
            assert_eq!(xf, yf, "synthetic features must reproduce bitwise");
        }
    }

    #[test]
    fn synthesize_respects_cap() {
        let samples = imbalanced_samples();
        let augmented = synthesize_minority_samples(samples, 2, 2, 10, 5);
        let counts = joint_class_counts(&augmented, 2, 2);
        assert_eq!(counts[3], 10);
    }

    #[test]
    fn strategy_apply_dispatches() {
        let samples = imbalanced_samples();
        let n = samples.len();
        let (s, w) = ImbalanceStrategy::None.apply(samples.clone(), 2, 2, 1);
        assert_eq!(s.len(), n);
        assert!(w.is_none());
        let (s, w) = ImbalanceStrategy::Weighted.apply(samples.clone(), 2, 2, 1);
        assert_eq!(s.len(), n);
        assert_eq!(w.unwrap().len(), n);
        let (s, w) = ImbalanceStrategy::synthetic().apply(samples, 2, 2, 1);
        assert!(s.len() > n);
        assert!(w.is_none());
    }

    #[test]
    fn hierarchical_cascade_learns_the_toy_separation() {
        let samples = imbalanced_samples();
        let config = TrainConfig::fast();
        let model = HierarchicalModel::train(&samples, 4, 2, 2, &config);
        assert!(model.cu_head.num_stages() >= 1);
        let (c0, d0) = model.predict(&SparseVec::binary(4, vec![0]));
        assert_eq!((c0, d0), (0, 0));
        let (c1, d1) = model.predict(&SparseVec::binary(4, vec![1, 2]));
        assert_eq!((c1, d1), (1, 1));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ImbalanceStrategy::None.label(), "none");
        assert_eq!(ImbalanceStrategy::Weighted.label(), "weighted");
        assert_eq!(ImbalanceStrategy::synthetic().label(), "synthetic");
    }
}
