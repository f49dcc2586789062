//! Algorithm 1: discriminative learning of mutually-correcting processes.
//!
//! Training proceeds exactly as in the paper:
//!
//! 1. featurize every transition sample under the chosen feature map,
//! 2. apply the imbalance pre-processing (none / weighted / synthetic),
//! 3. minimise the two-head cross-entropy plus the row-wise group lasso with
//!    ADMM (an accelerated line-search gradient solve for the Θ-update, group
//!    soft-threshold for the X-update, dual ascent for Y).

use pfp_math::rng::seeded_rng;
use pfp_math::Matrix;
use pfp_optim::admm::{
    solve_group_lasso, solve_group_lasso_warm, AdmmConfig, AdmmResult, PlateauStop, WarmStart,
    WarmStartError,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::dataset::{Dataset, Sample};
use crate::features::FeatureMapKind;
use crate::imbalance::ImbalanceStrategy;
use crate::loss::DmcpObjective;
use crate::model::DmcpModel;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Feature map; `None` selects the mutually-correcting map with
    /// σ = cohort mean dwell time (the paper's default).
    pub feature_map: Option<FeatureMapKind>,
    /// Group-lasso weight γ (on the per-sample-mean loss scale).
    pub gamma: f64,
    /// ADMM augmented-Lagrangian weight ρ.
    pub rho: f64,
    /// Maximum inner (Θ-update) iterations per outer iteration.
    pub max_inner_iters: usize,
    /// Maximum outer ADMM iterations.
    pub max_outer_iters: usize,
    /// Convergence tolerance ε, mapped to the relative residual tolerance
    /// `eps_rel` of the ADMM solve (see [`TrainConfig::admm_config`]).
    pub tolerance: f64,
    /// Imbalance pre-processing strategy.
    pub imbalance: ImbalanceStrategy,
    /// Seed for parameter initialisation and synthetic-data generation.
    pub seed: u64,
    /// Scale of the random parameter initialisation.
    pub init_scale: f64,
    /// Worker threads for sharded loss/gradient accumulation over samples.
    ///
    /// `1` (the default) runs the serial path; `0` uses all available
    /// parallelism; any other value is taken literally.  A sharded run
    /// spawns one persistent [`pfp_math::parallel::WorkerPool`] per `train`
    /// call and reuses it for every evaluation of the ADMM solve.  Training is
    /// bitwise-deterministic for a fixed thread count, and results across
    /// thread counts agree to floating-point rounding (≲1e-12) — see the
    /// determinism contract in [`crate::loss`].  When an outer harness
    /// already parallelises (e.g. CV folds), pass the inner share of a
    /// thread budget (`pfp_eval::cv::ThreadBudget`) down here instead of `0`
    /// to avoid oversubscription.
    pub threads: usize,
    /// Objective-plateau stopping criterion (`None` — the default — keeps the
    /// solver on residual stopping alone).  Sweep and CV drivers turn it on:
    /// in the weakly-determined small-γ regime residual stopping rarely fires
    /// and the tail of each solve buys accuracy the downstream metric cannot
    /// see.
    pub plateau: Option<PlateauStop>,
}

impl TrainConfig {
    /// Defaults following Section 4.4 of the paper (γ = ρ = 1 on the paper's
    /// sum-loss scale ≈ γ = 1e-3 on the mean-loss scale used here).
    pub fn paper_default() -> Self {
        Self {
            feature_map: None,
            gamma: 1e-3,
            rho: 1.0,
            max_inner_iters: 40,
            max_outer_iters: 30,
            tolerance: 1e-2,
            imbalance: ImbalanceStrategy::None,
            seed: 0,
            init_scale: 1e-3,
            threads: 1,
            plateau: None,
        }
    }

    /// A cheaper configuration for unit tests, examples and doctests.
    pub fn fast() -> Self {
        Self {
            max_inner_iters: 25,
            max_outer_iters: 8,
            ..Self::paper_default()
        }
    }

    /// Switch the imbalance strategy, keeping everything else.
    pub fn with_imbalance(mut self, strategy: ImbalanceStrategy) -> Self {
        self.imbalance = strategy;
        self
    }

    /// Switch the feature map, keeping everything else.
    pub fn with_feature_map(mut self, kind: FeatureMapKind) -> Self {
        self.feature_map = Some(kind);
        self
    }

    /// Switch the group-lasso weight, keeping everything else.
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Switch the ADMM penalty ρ, keeping everything else.
    pub fn with_rho(mut self, rho: f64) -> Self {
        self.rho = rho;
        self
    }

    /// Switch the accumulation thread count, keeping everything else
    /// (`0` = all available parallelism, `1` = serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Switch the objective-plateau stopping criterion, keeping everything
    /// else (`None` disables it).
    pub fn with_plateau(mut self, plateau: Option<PlateauStop>) -> Self {
        self.plateau = plateau;
        self
    }

    /// The equivalent [`AdmmConfig`]: `tolerance` becomes the relative
    /// residual tolerance `eps_rel`.
    pub fn admm_config(&self) -> AdmmConfig {
        AdmmConfig {
            gamma: self.gamma,
            rho: self.rho,
            max_inner_iters: self.max_inner_iters,
            max_outer_iters: self.max_outer_iters,
            eps_abs: 1e-8,
            // The paper's ε is a relative-change tolerance; the residual
            // criteria are stricter per unit, so map it one decade down —
            // tuned so the solve reaches (and slightly beats) the
            // fixed-budget solver's final objective before stopping.
            eps_rel: 0.1 * self.tolerance,
            plateau: self.plateau,
        }
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A trained model plus the solver state a caller needs to chain solves
/// (warm starts) and to account for the work done.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// The trained model.
    pub model: DmcpModel,
    /// The solve's exit dual Y (its Θ is `model.theta`).
    y: Matrix,
    /// The solve's exit penalty weight ρ.
    rho: f64,
    /// The solve's exit accelerated-Θ-update step.
    step: f64,
    /// Total objective evaluations of the solve (fused + separate passes).
    pub evaluations: usize,
    /// Outer ADMM iterations performed.
    pub outer_iterations: usize,
    /// Whether a stopping criterion fired before the outer cap.
    pub converged: bool,
    /// Whether the plateau criterion (not residual stopping) ended the solve.
    pub plateau_stopped: bool,
    /// Final value of the regularised objective `L(Θ) + γ‖X‖_{1,2}`.
    pub final_objective: f64,
}

impl TrainReport {
    /// The solve's exit state, for seeding the next related solve (next
    /// fold, next γ, next day's retrain).  Θ is stored once, as
    /// `model.theta`, and copied here.
    pub fn warm_start(&self) -> WarmStart {
        WarmStart {
            theta: self.model.theta.clone(),
            y: self.y.clone(),
            rho: self.rho,
            step: self.step,
        }
    }

    pub(crate) fn from_solve(
        result: AdmmResult,
        make_model: impl FnOnce(Matrix, Matrix) -> DmcpModel,
    ) -> Self {
        let final_objective = *result
            .objective_trace
            .last()
            .expect("trace holds at least the starting entry");
        Self {
            model: make_model(result.theta, result.x),
            y: result.y,
            rho: result.final_rho,
            step: result.final_step,
            evaluations: result.evaluations,
            outer_iterations: result.outer_iterations,
            converged: result.converged,
            plateau_stopped: result.plateau_stopped,
            final_objective,
        }
    }
}

/// The trainer's θ₀ initialisation: a seeded uniform draw in
/// `±init_scale/2`, derived from `config.seed` (shared bit-for-bit by the
/// materialized, sharded and streaming trainers).  Public so benches and
/// tests that drive [`pfp_optim::admm::solve_group_lasso`] directly can
/// reproduce the trainer's cold start.
pub fn initial_theta(num_features: usize, num_outputs: usize, config: &TrainConfig) -> Matrix {
    let mut rng = seeded_rng(config.seed ^ 0x007A_1E55);
    Matrix::from_fn(num_features, num_outputs, |_, _| {
        config.init_scale * (rng.gen::<f64>() - 0.5)
    })
}

/// Run the ADMM solve, cold (seeded θ₀, zero dual) or warm (carried state).
pub(crate) fn solve_for_train<O: pfp_optim::SmoothObjective>(
    objective: &O,
    config: &TrainConfig,
    warm: Option<&WarmStart>,
) -> Result<AdmmResult, WarmStartError> {
    match warm {
        Some(w) => solve_group_lasso_warm(objective, &config.admm_config(), w),
        None => {
            let (rows, cols) = objective.shape();
            let theta0 = initial_theta(rows, cols, config);
            Ok(solve_group_lasso(objective, theta0, &config.admm_config()))
        }
    }
}

/// Train a [`DmcpModel`] on a raw dataset.
///
/// # Panics
/// Panics if the dataset contains no samples.
pub fn train(dataset: &Dataset, config: &TrainConfig) -> DmcpModel {
    train_warm(dataset, config, None)
        .expect("cold start cannot fail")
        .model
}

/// [`train`] with an optional [`WarmStart`] carried from a previous related
/// solve, returning the full [`TrainReport`] (model + exit state + pass
/// accounting).  With `warm == None` this is exactly `train` (the seeded
/// cold θ₀ is drawn only on the cold path, so cold results are unchanged).
///
/// # Panics
/// Panics if the dataset contains no samples.
pub fn train_warm(
    dataset: &Dataset,
    config: &TrainConfig,
    warm: Option<&WarmStart>,
) -> Result<TrainReport, WarmStartError> {
    assert!(!dataset.is_empty(), "cannot train on an empty dataset");
    let kind = config
        .feature_map
        .unwrap_or_else(|| dataset.default_mcp_kind());
    let samples = dataset.featurize(kind);
    train_featurized_warm(
        samples,
        kind,
        dataset.profile_dim,
        dataset.service_dim,
        dataset.num_cus,
        dataset.num_durations,
        config,
        warm,
    )
}

/// Train on already-featurized samples (used by the cross-validation harness,
/// the hierarchical cascade and the joint-label ablation).
pub fn train_featurized(
    samples: Vec<Sample>,
    kind: FeatureMapKind,
    profile_dim: usize,
    service_dim: usize,
    num_cus: usize,
    num_durations: usize,
    config: &TrainConfig,
) -> DmcpModel {
    train_featurized_warm(
        samples,
        kind,
        profile_dim,
        service_dim,
        num_cus,
        num_durations,
        config,
        None,
    )
    .expect("cold start cannot fail")
    .model
}

/// [`train_featurized`] with an optional carried [`WarmStart`], returning
/// the full [`TrainReport`].  The γ-continuation driver and warm CV chain
/// through this entry point.
#[allow(clippy::too_many_arguments)]
pub fn train_featurized_warm(
    samples: Vec<Sample>,
    kind: FeatureMapKind,
    profile_dim: usize,
    service_dim: usize,
    num_cus: usize,
    num_durations: usize,
    config: &TrainConfig,
    warm: Option<&WarmStart>,
) -> Result<TrainReport, WarmStartError> {
    assert!(!samples.is_empty(), "cannot train on an empty sample set");
    let num_features = profile_dim + service_dim;
    let (samples, weights) = config
        .imbalance
        .apply(samples, num_cus, num_durations, config.seed);
    let objective = DmcpObjective::new(
        &samples,
        weights.as_deref(),
        num_features,
        num_cus,
        num_durations,
    )
    .with_threads(config.threads);

    let result = solve_for_train(&objective, config, warm)?;

    Ok(TrainReport::from_solve(result, |theta, selection| {
        DmcpModel {
            theta,
            selection,
            kind,
            profile_dim,
            service_dim,
            num_cus,
            num_durations,
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfp_ehr::{generate_cohort, CohortConfig};
    use pfp_math::SparseVec;

    fn dataset() -> Dataset {
        Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(31)))
    }

    #[test]
    fn training_produces_a_model_with_matching_dimensions() {
        let ds = dataset();
        let model = train(&ds, &TrainConfig::fast());
        assert_eq!(model.num_features(), ds.total_feature_dim());
        assert_eq!(model.num_cus, ds.num_cus);
        assert_eq!(model.num_durations, ds.num_durations);
        assert!(model.theta.is_finite());
    }

    #[test]
    fn training_beats_a_random_untrained_model_on_training_data() {
        let ds = dataset();
        let config = TrainConfig::fast();
        let model = train(&ds, &config);
        let samples = ds.featurize(model.kind);
        let acc = |m: &DmcpModel| {
            let correct = samples
                .iter()
                .filter(|s| m.predict(&s.features).0 == s.cu_label)
                .count();
            correct as f64 / samples.len() as f64
        };
        let trained_acc = acc(&model);
        let untrained = DmcpModel {
            theta: Matrix::zeros(model.num_features(), model.num_cus + model.num_durations),
            selection: Matrix::zeros(model.num_features(), model.num_cus + model.num_durations),
            ..model.clone()
        };
        let majority_share = {
            let (cu_counts, _) = ds.label_counts();
            *cu_counts.iter().max().unwrap() as f64 / ds.len() as f64
        };
        let untrained_acc = acc(&untrained);
        assert!(
            trained_acc >= majority_share.max(untrained_acc),
            "trained {trained_acc} should beat majority {majority_share} / untrained {untrained_acc}"
        );
    }

    #[test]
    fn training_is_deterministic_given_a_seed() {
        let ds = dataset();
        let a = train(&ds, &TrainConfig::fast());
        let b = train(&ds, &TrainConfig::fast());
        assert!((a.theta.sub(&b.theta)).frobenius_norm() < 1e-12);
    }

    #[test]
    fn parallel_training_is_bitwise_deterministic_for_a_fixed_thread_count() {
        let ds = dataset();
        let config = TrainConfig::fast().with_threads(4);
        let a = train(&ds, &config);
        let b = train(&ds, &config);
        assert_eq!(a.theta, b.theta, "same thread count must reproduce bitwise");
        assert_eq!(a.selection, b.selection);
    }

    #[test]
    fn parallel_training_tracks_the_serial_model() {
        // Per-step gradients agree to ≤1e-12 across thread counts (see the
        // loss-module tests); over a whole ADMM solve the rounding differences
        // compound, so the end-to-end bound is looser but still tight.
        let ds = dataset();
        let serial = train(&ds, &TrainConfig::fast());
        let parallel = train(&ds, &TrainConfig::fast().with_threads(4));
        let diff = serial.theta.sub(&parallel.theta).frobenius_norm();
        let scale = serial.theta.frobenius_norm().max(1e-12);
        assert!(
            diff / scale < 1e-9,
            "relative theta drift {} too large",
            diff / scale
        );
    }

    #[test]
    fn stronger_gamma_selects_fewer_features() {
        let ds = dataset();
        let weak = train(&ds, &TrainConfig::fast().with_gamma(1e-5));
        let strong = train(&ds, &TrainConfig::fast().with_gamma(5e-2));
        assert!(
            strong.num_selected() <= weak.num_selected(),
            "strong γ kept {} features, weak γ kept {}",
            strong.num_selected(),
            weak.num_selected()
        );
        assert!(strong.num_selected() < strong.num_features());
    }

    #[test]
    fn feature_map_override_is_respected() {
        let ds = dataset();
        let model = train(
            &ds,
            &TrainConfig::fast().with_feature_map(FeatureMapKind::CurrentOnly),
        );
        assert_eq!(model.kind, FeatureMapKind::CurrentOnly);
    }

    #[test]
    fn synthetic_strategy_trains_without_errors_and_predicts_minorities_sometimes() {
        let ds = dataset();
        let model = train(
            &ds,
            &TrainConfig::fast().with_imbalance(ImbalanceStrategy::synthetic()),
        );
        // The model must at least be able to emit a non-majority class for
        // some input (the all-majority predictor is the failure mode the
        // strategy addresses).
        let samples = ds.featurize(model.kind);
        let distinct: std::collections::HashSet<usize> = samples
            .iter()
            .map(|s| model.predict(&s.features).0)
            .collect();
        assert!(distinct.len() > 1, "model collapsed to a single class");
    }

    #[test]
    fn train_featurized_handles_hand_built_samples() {
        let samples = vec![
            Sample {
                patient_id: 0,
                features: SparseVec::binary(3, vec![0]),
                cu_label: 0,
                duration_label: 1,
            },
            Sample {
                patient_id: 1,
                features: SparseVec::binary(3, vec![1]),
                cu_label: 1,
                duration_label: 0,
            },
            Sample {
                patient_id: 2,
                features: SparseVec::binary(3, vec![0]),
                cu_label: 0,
                duration_label: 1,
            },
            Sample {
                patient_id: 3,
                features: SparseVec::binary(3, vec![1]),
                cu_label: 1,
                duration_label: 0,
            },
        ];
        let model = train_featurized(
            samples.clone(),
            FeatureMapKind::ModulatedPoisson,
            1,
            2,
            2,
            2,
            &TrainConfig::fast(),
        );
        for s in &samples {
            assert_eq!(model.predict(&s.features), (s.cu_label, s.duration_label));
        }
    }

    #[test]
    fn train_warm_with_no_state_is_exactly_train() {
        let ds = dataset();
        let config = TrainConfig::fast();
        let model = train(&ds, &config);
        let report = train_warm(&ds, &config, None).unwrap();
        assert_eq!(report.model.theta, model.theta, "cold path must be bitwise");
        assert_eq!(report.model.selection, model.selection);
        assert!(report.evaluations > 0);
        assert!(report.final_objective.is_finite());
    }

    #[test]
    fn warm_retrain_on_the_same_data_is_cheaper_and_never_worse() {
        let ds = dataset();
        // Plateau stopping is the operative criterion in this regime (the
        // near-zero dual makes eps_dual ∝ ρ‖Y‖ unreachably tight, so residual
        // stopping never fires — see the PlateauStop docs).
        let config = TrainConfig {
            gamma: 5e-2,
            max_outer_iters: 300,
            plateau: Some(pfp_optim::PlateauStop::default()),
            ..TrainConfig::paper_default()
        };
        let cold = train_warm(&ds, &config, None).unwrap();
        assert!(cold.plateau_stopped, "fixture must stop on the plateau");
        let warm = train_warm(&ds, &config, Some(&cold.warm_start())).unwrap();
        // Restarting where the cold solve stalled: the plateau re-fires
        // within a handful of outers, at an objective no worse than cold's.
        assert!(
            warm.evaluations * 4 < cold.evaluations,
            "warm {} not ≪ cold {}",
            warm.evaluations,
            cold.evaluations
        );
        assert!(
            warm.final_objective <= cold.final_objective + 1e-6,
            "warm {} worse than cold {}",
            warm.final_objective,
            cold.final_objective
        );
    }

    #[test]
    fn mismatched_warm_start_is_rejected_with_a_typed_error() {
        let ds = dataset();
        let bad = pfp_optim::WarmStart {
            theta: Matrix::zeros(2, 2),
            y: Matrix::zeros(2, 2),
            rho: 1.0,
            step: 0.1,
        };
        let err = train_warm(&ds, &TrainConfig::fast(), Some(&bad)).unwrap_err();
        assert!(matches!(
            err,
            pfp_optim::WarmStartError::ShapeMismatch { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn training_rejects_empty_dataset() {
        let ds = Dataset {
            samples: vec![],
            patients: vec![],
            profile_dim: 1,
            service_dim: 1,
            num_cus: 2,
            num_durations: 2,
            mean_dwell_days: 1.0,
        };
        let _ = train(&ds, &TrainConfig::fast());
    }
}
