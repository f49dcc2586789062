//! Algorithm 1: discriminative learning of mutually-correcting processes.
//!
//! Training proceeds exactly as in the paper:
//!
//! 1. featurize every transition sample under the chosen feature map,
//! 2. apply the imbalance pre-processing (none / weighted / synthetic),
//! 3. minimise the two-head cross-entropy plus the row-wise group lasso with
//!    ADMM (an accelerated line-search gradient solve for the Θ-update, group
//!    soft-threshold for the X-update, dual ascent for Y).

use pfp_ehr::CohortConfig;
use pfp_math::rng::seeded_rng;
use pfp_math::Matrix;
use pfp_optim::admm::{
    solve_group_lasso, solve_group_lasso_warm, AdmmConfig, PlateauStop, WarmStart, WarmStartError,
};
use pfp_optim::SmoothObjective;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::dataset::{Dataset, Sample};
use crate::features::FeatureMapKind;
use crate::imbalance::ImbalanceStrategy;
use crate::loss::{Objective, SampleSource};
use crate::model::DmcpModel;
use crate::stream::{CohortStream, SampleShard, ShardedSamples};

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
    /// spawns one persistent [`pfp_math::parallel::WorkerPool`] per [`train`]
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
}

/// The trainer's θ₀ initialisation: a seeded uniform draw in
/// `±init_scale/2`, derived from `config.seed` (shared bit-for-bit by every
/// [`TrainSource`]).  Public so benches and tests that drive
/// [`pfp_optim::admm::solve_group_lasso`] directly can reproduce the
/// trainer's cold start.
pub fn initial_theta(num_features: usize, num_outputs: usize, config: &TrainConfig) -> Matrix {
    let mut rng = seeded_rng(config.seed ^ 0x007A_1E55);
    Matrix::from_fn(num_features, num_outputs, |_, _| {
        config.init_scale * (rng.gen::<f64>() - 0.5)
    })
}

/// Where [`train`] takes its samples from.  `Dataset` and `Stream` featurize
/// under `config.feature_map` or the paper default; `Featurized` and `Shards`
/// bring their own map, which a set `config.feature_map` must match.
#[derive(Debug, Clone)]
pub enum TrainSource<'a> {
    /// A materialized dataset; accepts every imbalance strategy.
    Dataset(&'a Dataset),
    /// Samples featurized under `kind` into `profile_dim + service_dim`
    /// features; accepts every imbalance strategy.
    Featurized {
        samples: Vec<Sample>,
        kind: FeatureMapKind,
        profile_dim: usize,
        service_dim: usize,
        num_cus: usize,
        num_durations: usize,
    },
    /// Retained shard blocks; accepts [`ImbalanceStrategy::None`] and
    /// [`ImbalanceStrategy::Weighted`] (weights streamed from the labels).
    Shards(&'a ShardedSamples),
    /// The cohort regenerated on every evaluation ([`CohortStream`]), with
    /// `shard_size` patients per pre-pass; accepts only [`ImbalanceStrategy::None`].
    Stream {
        cohort: &'a CohortConfig,
        shard_size: usize,
    },
}

impl<'a> From<&'a Dataset> for TrainSource<'a> {
    fn from(dataset: &'a Dataset) -> Self {
        TrainSource::Dataset(dataset)
    }
}

impl<'a> From<&'a ShardedSamples> for TrainSource<'a> {
    fn from(shards: &'a ShardedSamples) -> Self {
        TrainSource::Shards(shards)
    }
}

/// Why [`train`] refused its input.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The source holds no transition samples.
    NoSamples,
    /// The named source (`"shards"` or `"stream"`) cannot apply `strategy`.
    UnsupportedImbalance {
        source: &'static str,
        strategy: ImbalanceStrategy,
    },
    /// A pre-featurized source's map differs from `config.feature_map`.
    FeatureMapMismatch {
        source: FeatureMapKind,
        config: FeatureMapKind,
    },
    /// The carried warm start does not fit the objective.
    WarmStart(WarmStartError),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::NoSamples => write!(f, "cannot train on zero samples"),
            TrainError::UnsupportedImbalance { source, strategy } => {
                write!(f, "the {source} source cannot apply {strategy:?} imbalance")
            }
            TrainError::FeatureMapMismatch { source, config } => {
                write!(f, "featurized under {source:?}, config wants {config:?}")
            }
            TrainError::WarmStart(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::WarmStart(err) => Some(err),
            _ => None,
        }
    }
}

impl From<WarmStartError> for TrainError {
    fn from(err: WarmStartError) -> Self {
        TrainError::WarmStart(err)
    }
}

/// Algorithm 1: train a [`DmcpModel`] on `source`, cold (seeded θ₀, zero
/// dual) or from a [`WarmStart`] carried from a previous related solve.  All
/// four sources give bitwise-identical reports for the same cohort at a fixed
/// thread count.
///
/// # Errors
/// A [`TrainError`] if the source holds no samples or cannot apply
/// `config.imbalance`, a pre-featurized source's map differs from
/// `config.feature_map`, or `warm` does not fit the objective.
///
/// # Panics
/// Panics if a `Featurized` sample has a label or feature dimension outside
/// the declared layout, or a `Stream` source's `shard_size` is zero.
pub fn train<'a>(
    source: impl Into<TrainSource<'a>>,
    config: &TrainConfig,
    warm: Option<&WarmStart>,
) -> Result<TrainReport, TrainError> {
    let unsupported = |source| TrainError::UnsupportedImbalance {
        source,
        strategy: config.imbalance,
    };
    match source.into() {
        TrainSource::Dataset(dataset) => {
            let kind = config.feature_map.unwrap_or(dataset.default_mcp_kind());
            let source = TrainSource::Featurized {
                samples: dataset.featurize(kind),
                kind,
                profile_dim: dataset.profile_dim,
                service_dim: dataset.service_dim,
                num_cus: dataset.num_cus,
                num_durations: dataset.num_durations,
            };
            train(source, config, warm)
        }
        TrainSource::Featurized {
            samples,
            kind,
            profile_dim,
            service_dim,
            num_cus,
            num_durations,
        } => {
            let layout = ModelLayout {
                kind,
                profile_dim,
                service_dim,
                num_cus,
                num_durations,
            };
            let (samples, weights) =
                config
                    .imbalance
                    .apply(samples, num_cus, num_durations, config.seed);
            let block =
                SampleShard::pack(0, &samples, layout.num_features(), num_cus, num_durations);
            solve(layout, block, weights.as_deref(), config, warm)
        }
        TrainSource::Shards(shards) => {
            let weights = match config.imbalance {
                ImbalanceStrategy::None => None,
                ImbalanceStrategy::Weighted => Some(shards.sample_weights()),
                ImbalanceStrategy::Synthetic { .. } => return Err(unsupported("shards")),
            };
            solve(shards.layout, shards, weights.as_deref(), config, warm)
        }
        TrainSource::Stream { cohort, shard_size } => {
            if config.imbalance != ImbalanceStrategy::None {
                return Err(unsupported("stream"));
            }
            let stream = CohortStream::new(cohort, config.feature_map, shard_size);
            solve(stream.layout, stream, None, config, warm)
        }
    }
}

/// [`train`] on a [`TrainSource::Stream`], kept for the `perfbench` package
/// only: the next benchmark change moves it to [`train`] and deletes this.
///
/// # Errors
/// As [`train`].
pub fn train_streamed_warm(
    cohort: &CohortConfig,
    config: &TrainConfig,
    shard_size: usize,
    warm: Option<&WarmStart>,
) -> Result<TrainReport, TrainError> {
    train(TrainSource::Stream { cohort, shard_size }, config, warm)
}

/// Everything a trained [`DmcpModel`] records besides Θ and X, known from
/// the sample source before the solve.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ModelLayout {
    pub(crate) kind: FeatureMapKind,
    pub(crate) profile_dim: usize,
    pub(crate) service_dim: usize,
    pub(crate) num_cus: usize,
    pub(crate) num_durations: usize,
}

impl ModelLayout {
    pub(crate) fn num_features(&self) -> usize {
        self.profile_dim + self.service_dim
    }
}

/// The one solve behind every source: check the source, build the objective,
/// run the ADMM solve cold or warm and assemble the model.
fn solve<S: SampleSource>(
    layout: ModelLayout,
    source: S,
    weights: Option<&[f64]>,
    config: &TrainConfig,
    warm: Option<&WarmStart>,
) -> Result<TrainReport, TrainError> {
    if let Some(config_kind) = config.feature_map.filter(|&k| k != layout.kind) {
        let (source, config) = (layout.kind, config_kind);
        return Err(TrainError::FeatureMapMismatch { source, config });
    }
    if source.total_samples() == 0 {
        return Err(TrainError::NoSamples);
    }
    let (m, c, d) = (layout.num_features(), layout.num_cus, layout.num_durations);
    let objective = Objective::from_source(source, weights, m, c, d).with_threads(config.threads);
    let admm = config.admm_config();
    let result = match warm {
        Some(w) => solve_group_lasso_warm(&objective, &admm, w)?,
        None => {
            let (rows, cols) = objective.shape();
            solve_group_lasso(&objective, initial_theta(rows, cols, config), &admm)
        }
    };
    Ok(TrainReport {
        model: DmcpModel {
            theta: result.theta,
            selection: result.x,
            kind: layout.kind,
            profile_dim: layout.profile_dim,
            service_dim: layout.service_dim,
            num_cus: layout.num_cus,
            num_durations: layout.num_durations,
        },
        y: result.y,
        rho: result.final_rho,
        step: result.final_step,
        evaluations: result.evaluations,
        outer_iterations: result.outer_iterations,
        converged: result.converged,
        plateau_stopped: result.plateau_stopped,
        final_objective: *result
            .objective_trace
            .last()
            .expect("trace holds at least the starting entry"),
    })
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
        let model = DmcpModel::train(&ds, &TrainConfig::fast());
        assert_eq!(model.num_features(), ds.total_feature_dim());
        assert_eq!(model.num_cus, ds.num_cus);
        assert_eq!(model.num_durations, ds.num_durations);
        assert!(model.theta.is_finite());
    }

    #[test]
    fn training_beats_a_random_untrained_model_on_training_data() {
        let ds = dataset();
        let config = TrainConfig::fast();
        let model = DmcpModel::train(&ds, &config);
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
        let a = DmcpModel::train(&ds, &TrainConfig::fast());
        let b = DmcpModel::train(&ds, &TrainConfig::fast());
        assert!((a.theta.sub(&b.theta)).frobenius_norm() < 1e-12);
    }

    #[test]
    fn parallel_training_is_bitwise_deterministic_for_a_fixed_thread_count() {
        let ds = dataset();
        let config = TrainConfig::fast().with_threads(4);
        let a = DmcpModel::train(&ds, &config);
        let b = DmcpModel::train(&ds, &config);
        assert_eq!(a.theta, b.theta, "same thread count must reproduce bitwise");
        assert_eq!(a.selection, b.selection);
    }

    #[test]
    fn parallel_training_tracks_the_serial_model() {
        // Per-step gradients agree to ≤1e-12 across thread counts (see the
        // loss-module tests); over a whole ADMM solve the rounding differences
        // compound, so the end-to-end bound is looser but still tight.
        let ds = dataset();
        let serial = DmcpModel::train(&ds, &TrainConfig::fast());
        let parallel = DmcpModel::train(&ds, &TrainConfig::fast().with_threads(4));
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
        let weak = DmcpModel::train(&ds, &TrainConfig::fast().with_gamma(1e-5));
        let strong = DmcpModel::train(&ds, &TrainConfig::fast().with_gamma(5e-2));
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
        let model = DmcpModel::train(
            &ds,
            &TrainConfig::fast().with_feature_map(FeatureMapKind::CurrentOnly),
        );
        assert_eq!(model.kind, FeatureMapKind::CurrentOnly);
    }

    #[test]
    fn synthetic_strategy_trains_without_errors_and_predicts_minorities_sometimes() {
        let ds = dataset();
        let model = DmcpModel::train(
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
    fn featurized_source_handles_hand_built_samples() {
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
        let source = TrainSource::Featurized {
            samples: samples.clone(),
            kind: FeatureMapKind::ModulatedPoisson,
            profile_dim: 1,
            service_dim: 2,
            num_cus: 2,
            num_durations: 2,
        };
        let model = train(source, &TrainConfig::fast(), None).unwrap().model;
        for s in &samples {
            assert_eq!(model.predict(&s.features), (s.cu_label, s.duration_label));
        }
    }

    #[test]
    fn train_warm_with_no_state_is_exactly_train() {
        let ds = dataset();
        let config = TrainConfig::fast();
        let model = DmcpModel::train(&ds, &config);
        let report = train(&ds, &config, None).unwrap();
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
        let cold = train(&ds, &config, None).unwrap();
        assert!(cold.plateau_stopped, "fixture must stop on the plateau");
        let warm = train(&ds, &config, Some(&cold.warm_start())).unwrap();
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
        let err = train(&ds, &TrainConfig::fast(), Some(&bad)).unwrap_err();
        assert!(matches!(
            err,
            TrainError::WarmStart(WarmStartError::ShapeMismatch { .. })
        ));
    }

    #[test]
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
        let err = train(&ds, &TrainConfig::fast(), None).unwrap_err();
        assert_eq!(err, TrainError::NoSamples);
        assert!(err.to_string().contains("zero samples"), "{err}");
    }

    #[test]
    fn training_rejects_an_empty_featurized_sample_set() {
        let source = TrainSource::Featurized {
            samples: vec![],
            kind: FeatureMapKind::CurrentOnly,
            profile_dim: 1,
            service_dim: 2,
            num_cus: 2,
            num_durations: 2,
        };
        // The synthetic strategy adds nothing to an empty set.
        let config = TrainConfig::fast().with_imbalance(ImbalanceStrategy::synthetic());
        assert_eq!(
            train(source, &config, None).unwrap_err(),
            TrainError::NoSamples
        );
    }

    #[test]
    fn featurized_samples_train_only_under_their_own_feature_map() {
        let ds = dataset();
        let kind = ds.default_mcp_kind();
        let source = || TrainSource::Featurized {
            samples: ds.featurize(kind),
            kind,
            profile_dim: ds.profile_dim,
            service_dim: ds.service_dim,
            num_cus: ds.num_cus,
            num_durations: ds.num_durations,
        };
        let config = TrainConfig::fast().with_feature_map(FeatureMapKind::CurrentOnly);
        assert_eq!(
            train(source(), &config, None).unwrap_err(),
            TrainError::FeatureMapMismatch {
                source: kind,
                config: FeatureMapKind::CurrentOnly,
            }
        );
        let same = TrainConfig::fast().with_feature_map(kind);
        assert_eq!(train(source(), &same, None).unwrap().model.kind, kind);
    }

    #[test]
    fn warm_start_errors_are_wrapped_with_their_source() {
        use std::error::Error;
        let ds = dataset();
        let config = TrainConfig::fast();
        let mut bad_step = train(&ds, &config, None).unwrap().warm_start();
        bad_step.step = -1.0;
        let err = train(&ds, &config, Some(&bad_step)).unwrap_err();
        assert_eq!(
            err,
            TrainError::WarmStart(WarmStartError::InvalidStep(-1.0))
        );
        assert_eq!(
            err.to_string(),
            WarmStartError::InvalidStep(-1.0).to_string()
        );
        assert!(err.source().is_some());
        assert!(TrainError::NoSamples.source().is_none());
    }
}
