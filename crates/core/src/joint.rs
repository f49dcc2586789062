//! The joint `(c, d)` classifier over `C·D` classes.
//!
//! Section 4.1 of the paper reports that learning `p(c, d | t, H_t)` directly
//! (one softmax over all `C·D = 64` label pairs) overfits badly — accuracy no
//! better than 0.31 — which motivates the decoupled two-head model.  This
//! module implements that straw man so the comparison can be reproduced
//! (`repro joint-overfit`).

use pfp_math::softmax::argmax;
use pfp_math::SparseVec;
use serde::{Deserialize, Serialize};

use crate::dataset::{Dataset, Sample};
use crate::features::FeatureMapKind;
use crate::model::DmcpModel;
use crate::train::{train, TrainConfig, TrainSource};

/// A single softmax over all `(c, d)` pairs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JointLabelModel {
    inner: DmcpModel,
    num_cus: usize,
    num_durations: usize,
}

impl JointLabelModel {
    /// Number of destination classes `C` (the joint head has `C·D` outputs).
    pub fn num_cus(&self) -> usize {
        self.num_cus
    }

    /// Train the joint classifier on a raw dataset.
    ///
    /// # Panics
    /// Panics with the [`TrainError`](crate::train::TrainError)'s message if
    /// training refuses the input.
    pub fn train(dataset: &Dataset, config: &TrainConfig) -> Self {
        let kind = config.feature_map.unwrap_or(dataset.default_mcp_kind());
        let source = TrainSource::Featurized {
            samples: dataset
                .featurize(kind)
                .into_iter()
                .map(|s| Sample {
                    patient_id: s.patient_id,
                    cu_label: s.cu_label * dataset.num_durations + s.duration_label,
                    duration_label: 0,
                    features: s.features,
                })
                .collect(),
            kind,
            profile_dim: dataset.profile_dim,
            service_dim: dataset.service_dim,
            num_cus: dataset.num_cus * dataset.num_durations,
            num_durations: 1,
        };
        let inner = train(source, config, None)
            .unwrap_or_else(|err| panic!("{err}"))
            .model;
        Self {
            inner,
            num_cus: dataset.num_cus,
            num_durations: dataset.num_durations,
        }
    }

    /// Predict `(ĉ, d̂)` by taking the argmax over the joint classes.
    pub fn predict(&self, features: &SparseVec) -> (usize, usize) {
        let (scores, _) = self.inner.scores(features);
        let joint = argmax(&scores);
        (joint / self.num_durations, joint % self.num_durations)
    }

    /// The feature map the model was trained with.
    pub fn kind(&self) -> FeatureMapKind {
        self.inner.kind
    }

    /// Number of parameters (for the over-fitting discussion: `O(C·D)` columns
    /// versus the decoupled model's `O(C + D)`).
    pub fn num_parameters(&self) -> usize {
        self.inner.theta.rows() * self.inner.theta.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use pfp_ehr::{generate_cohort, CohortConfig};

    #[test]
    fn joint_model_trains_and_predicts_valid_labels() {
        let ds = Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(41)));
        let model = JointLabelModel::train(&ds, &TrainConfig::fast());
        let samples = ds.featurize(model.kind());
        for s in samples.iter().take(50) {
            let (c, d) = model.predict(&s.features);
            assert!(c < ds.num_cus);
            assert!(d < ds.num_durations);
        }
    }

    #[test]
    fn joint_model_has_many_more_output_columns_than_decoupled() {
        let ds = Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(42)));
        let joint = JointLabelModel::train(&ds, &TrainConfig::fast());
        let decoupled = DmcpModel::train(&ds, &TrainConfig::fast());
        let decoupled_params = decoupled.theta.rows() * decoupled.theta.cols();
        assert!(joint.num_parameters() > 3 * decoupled_params);
    }
}
