//! The common prediction interface shared by every method in the comparison.

use pfp_core::dataset::RawSample;
use pfp_core::features::FeatureMapKind;
use pfp_core::imbalance::{HierarchicalModel, ImbalanceStrategy};
use pfp_core::{Dataset, DmcpModel, TrainConfig};
use serde::{Deserialize, Serialize};

/// Identifier of a method column in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MethodId {
    /// First-order Markov chains.
    Mc,
    /// Vector auto-regression.
    Var,
    /// Continuous-time Markov chain.
    Ctmc,
    /// Multinomial logistic regression on current features only.
    Lr,
    /// Generatively-trained Hawkes process.
    Hp,
    /// Modulated-Poisson discriminative model.
    Mpp,
    /// Self-correcting discriminative model.
    Scp,
    /// Discriminative mutually-correcting process (the paper's method).
    Dmcp,
    /// SCP with synthetic-data pre-processing.
    Sscp,
    /// DMCP with weighted-data pre-processing.
    Wdmcp,
    /// DMCP with hierarchical binary cascade.
    Hdmcp,
    /// DMCP with synthetic-data pre-processing (the paper's best method).
    Sdmcp,
}

impl MethodId {
    /// Every method, in the column order of Tables 4–6.
    pub const ALL: [MethodId; 12] = [
        MethodId::Mc,
        MethodId::Var,
        MethodId::Ctmc,
        MethodId::Lr,
        MethodId::Hp,
        MethodId::Mpp,
        MethodId::Scp,
        MethodId::Dmcp,
        MethodId::Sscp,
        MethodId::Wdmcp,
        MethodId::Hdmcp,
        MethodId::Sdmcp,
    ];

    /// Table column label.
    pub fn label(&self) -> &'static str {
        match self {
            MethodId::Mc => "MC",
            MethodId::Var => "VAR",
            MethodId::Ctmc => "CTMC",
            MethodId::Lr => "LR",
            MethodId::Hp => "HP",
            MethodId::Mpp => "MPP",
            MethodId::Scp => "SCP",
            MethodId::Dmcp => "DMCP",
            MethodId::Sscp => "SSCP",
            MethodId::Wdmcp => "WDMCP",
            MethodId::Hdmcp => "HDMCP",
            MethodId::Sdmcp => "SDMCP",
        }
    }
}

/// A joint prediction `(ĉ, d̂)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted destination care unit.
    pub cu: usize,
    /// Predicted duration class.
    pub duration: usize,
}

/// A trained patient-flow predictor.
pub trait FlowPredictor {
    /// Which method this predictor implements.
    fn method(&self) -> MethodId;
    /// Predict the next transition of a raw sample.
    fn predict_sample(&self, sample: &RawSample) -> Prediction;
}

/// A predictor that exposes its full predictive distributions, not just the
/// argmax.  The closed-loop census forecaster (`pfp-eval::scenario`) needs
/// this: rolling a patient forward generatively means *sampling*
/// `(destination, duration)` from `(p(c | ·), p(d | ·))` so that Monte-Carlo
/// rollouts carry the model's own uncertainty, and a what-if unit closure
/// means renormalising the destination distribution over the open units.
pub trait GenerativePredictor: FlowPredictor {
    /// The `(p(c | sample), p(d | sample))` predictive distributions; each
    /// vector is a probability distribution over `num_cus` / `num_durations`.
    fn predict_distribution(&self, sample: &RawSample) -> (Vec<f64>, Vec<f64>);
}

/// Adapter exposing [`DmcpModel`] (and its LR / MPP / SCP / imbalance
/// variants) through the [`FlowPredictor`] trait.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DmcpPredictor {
    model: DmcpModel,
    method: MethodId,
}

impl DmcpPredictor {
    /// Wrap an already-trained model.
    pub fn from_model(model: DmcpModel, method: MethodId) -> Self {
        Self { model, method }
    }

    /// Train the variant identified by `method` on the dataset.
    ///
    /// * `Lr` / `Mpp` / `Scp` use the corresponding feature map with the group
    ///   lasso disabled (γ = 0), matching the paper's description.
    /// * `Dmcp` / `Wdmcp` / `Sdmcp` / `Sscp` use the configured γ and the
    ///   corresponding imbalance strategy.
    ///
    /// # Panics
    /// Panics if `method` is not a DMCP-family method, or with the
    /// [`TrainError`](pfp_core::TrainError)'s message if training refuses the
    /// input (see [`DmcpModel::train`]).
    pub fn train(dataset: &Dataset, base: &TrainConfig, method: MethodId) -> Self {
        let config = match method {
            MethodId::Lr => base
                .with_feature_map(FeatureMapKind::CurrentOnly)
                .with_gamma(0.0),
            MethodId::Mpp => base
                .with_feature_map(FeatureMapKind::ModulatedPoisson)
                .with_gamma(0.0),
            MethodId::Scp => base
                .with_feature_map(FeatureMapKind::SelfCorrecting)
                .with_gamma(0.0),
            MethodId::Sscp => base
                .with_feature_map(FeatureMapKind::SelfCorrecting)
                .with_gamma(0.0)
                .with_imbalance(ImbalanceStrategy::synthetic()),
            MethodId::Dmcp => *base,
            MethodId::Wdmcp => base.with_imbalance(ImbalanceStrategy::Weighted),
            MethodId::Sdmcp => base.with_imbalance(ImbalanceStrategy::synthetic()),
            other => panic!("{other:?} is not a DMCP-family method"),
        };
        Self {
            model: DmcpModel::train(dataset, &config),
            method,
        }
    }

    /// Access the wrapped model (e.g. for feature-selection analysis).
    pub fn model(&self) -> &DmcpModel {
        &self.model
    }
}

impl FlowPredictor for DmcpPredictor {
    fn method(&self) -> MethodId {
        self.method
    }

    fn predict_sample(&self, sample: &RawSample) -> Prediction {
        let (cu, duration) = self.model.predict_raw(
            &sample.profile,
            &sample.history,
            sample.t_eval,
            sample.t_prev,
        );
        Prediction { cu, duration }
    }
}

impl GenerativePredictor for DmcpPredictor {
    fn predict_distribution(&self, sample: &RawSample) -> (Vec<f64>, Vec<f64>) {
        self.model.probabilities_raw(
            &sample.profile,
            &sample.history,
            sample.t_eval,
            sample.t_prev,
        )
    }
}

/// Adapter for the hierarchical (HDMCP) cascade.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HierarchicalPredictor {
    model: HierarchicalModel,
    kind: FeatureMapKind,
    profile_dim: usize,
    service_dim: usize,
}

impl HierarchicalPredictor {
    /// Train the cascade with the DMCP feature map.
    pub fn train(dataset: &Dataset, base: &TrainConfig) -> Self {
        let kind = base
            .feature_map
            .unwrap_or_else(|| dataset.default_mcp_kind());
        let samples = dataset.featurize(kind);
        let model = HierarchicalModel::train(
            &samples,
            dataset.total_feature_dim(),
            dataset.num_cus,
            dataset.num_durations,
            base,
        );
        Self {
            model,
            kind,
            profile_dim: dataset.profile_dim,
            service_dim: dataset.service_dim,
        }
    }
}

impl FlowPredictor for HierarchicalPredictor {
    fn method(&self) -> MethodId {
        MethodId::Hdmcp
    }

    fn predict_sample(&self, sample: &RawSample) -> Prediction {
        let featurizer = pfp_core::features::HistoryFeaturizer::new(
            self.kind,
            self.profile_dim,
            self.service_dim,
        );
        let f = featurizer.featurize(
            &sample.profile,
            &sample.history,
            sample.t_eval,
            sample.t_prev,
        );
        let (cu, duration) = self.model.predict(&f);
        Prediction { cu, duration }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfp_ehr::{generate_cohort, CohortConfig};

    fn dataset() -> Dataset {
        Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(51)))
    }

    #[test]
    fn method_labels_are_unique_and_cover_all() {
        let labels: std::collections::HashSet<_> =
            MethodId::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), MethodId::ALL.len());
    }

    #[test]
    fn dmcp_predictor_produces_valid_predictions() {
        let ds = dataset();
        let p = DmcpPredictor::train(&ds, &TrainConfig::fast(), MethodId::Dmcp);
        assert_eq!(p.method(), MethodId::Dmcp);
        for raw in ds.samples.iter().take(20) {
            let pred = p.predict_sample(raw);
            assert!(pred.cu < ds.num_cus);
            assert!(pred.duration < ds.num_durations);
        }
    }

    #[test]
    fn dmcp_distribution_is_normalised_and_matches_the_argmax() {
        let ds = dataset();
        let p = DmcpPredictor::train(&ds, &TrainConfig::fast(), MethodId::Dmcp);
        for raw in ds.samples.iter().take(10) {
            let (pc, pd) = p.predict_distribution(raw);
            assert_eq!(pc.len(), ds.num_cus);
            assert_eq!(pd.len(), ds.num_durations);
            assert!((pc.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!((pd.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            let pred = p.predict_sample(raw);
            assert_eq!(pfp_math::softmax::argmax(&pc), pred.cu);
            assert_eq!(pfp_math::softmax::argmax(&pd), pred.duration);
        }
    }

    #[test]
    fn lr_variant_uses_current_only_features() {
        let ds = dataset();
        let p = DmcpPredictor::train(&ds, &TrainConfig::fast(), MethodId::Lr);
        assert_eq!(p.model().kind, FeatureMapKind::CurrentOnly);
        assert_eq!(p.method(), MethodId::Lr);
    }

    #[test]
    #[should_panic(expected = "not a DMCP-family method")]
    fn sequence_methods_cannot_be_trained_through_the_adapter() {
        let ds = dataset();
        let _ = DmcpPredictor::train(&ds, &TrainConfig::fast(), MethodId::Mc);
    }

    #[test]
    fn hierarchical_predictor_trains_and_predicts() {
        let ds = dataset();
        let p = HierarchicalPredictor::train(&ds, &TrainConfig::fast());
        assert_eq!(p.method(), MethodId::Hdmcp);
        let pred = p.predict_sample(&ds.samples[0]);
        assert!(pred.cu < ds.num_cus);
        assert!(pred.duration < ds.num_durations);
    }
}
