//! The modulated-Poisson (MPP) and self-correcting (SCP) discriminative
//! baselines.
//!
//! Both use exactly the same discriminative softmax learner as DMCP but with
//! the feature maps of Table 3 (`g = 1, h = 1` for MPP; `g = t, h = 1` for
//! SCP) and without the group lasso — isolating the contribution of the
//! mutually-correcting kernel and of the joint feature selection.  Train one
//! with [`DmcpPredictor::train`] and `MethodId::{Mpp, Scp, Sscp}` (SSCP is
//! SCP with synthetic-data pre-processing).

use crate::predictor::DmcpPredictor;

/// The MPP baseline (alias of the shared adapter).
pub type ModulatedPoissonPredictor = DmcpPredictor;

/// The SCP baseline (alias of the shared adapter).
pub type SelfCorrectingPredictor = DmcpPredictor;

#[cfg(test)]
mod tests {
    use crate::predictor::{DmcpPredictor, FlowPredictor, MethodId};
    use pfp_core::features::FeatureMapKind;
    use pfp_core::{Dataset, TrainConfig};
    use pfp_ehr::{generate_cohort, CohortConfig};

    #[test]
    fn mpp_and_scp_use_their_feature_maps() {
        let ds = Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(111)));
        let mpp = DmcpPredictor::train(&ds, &TrainConfig::fast(), MethodId::Mpp);
        let scp = DmcpPredictor::train(&ds, &TrainConfig::fast(), MethodId::Scp);
        assert_eq!(mpp.model().kind, FeatureMapKind::ModulatedPoisson);
        assert_eq!(scp.model().kind, FeatureMapKind::SelfCorrecting);
        assert_eq!(mpp.method(), MethodId::Mpp);
        assert_eq!(scp.method(), MethodId::Scp);
    }

    #[test]
    fn sscp_combines_scp_with_synthetic_preprocessing() {
        let ds = Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(112)));
        let sscp = DmcpPredictor::train(&ds, &TrainConfig::fast(), MethodId::Sscp);
        assert_eq!(sscp.method(), MethodId::Sscp);
        assert_eq!(sscp.model().kind, FeatureMapKind::SelfCorrecting);
    }
}
