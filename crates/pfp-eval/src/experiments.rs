//! Experiment runners: one function per table / figure of the paper.
//!
//! Every function returns a plain serialisable report struct; the
//! `pfp-bench` `repro` binary calls these and renders the results as text
//! tables next to the paper's published numbers.

use pfp_baselines::predictor::HierarchicalPredictor;
use pfp_baselines::{
    CtmcPredictor, DmcpPredictor, FlowPredictor, HawkesPredictor, MarkovPredictor, MethodId,
    VarPredictor,
};
use pfp_core::joint::JointLabelModel;
use pfp_core::{Dataset, PlateauStop, TrainConfig, TrainSource, WarmStart};
use pfp_ehr::departments::{paper_table1, paper_table2};
use pfp_ehr::features::{FeatureDictionary, FeatureDomain};
use pfp_ehr::stats::{duration_histogram, table1, table2, DurationHistogram, Table1Row, Table2Row};
use pfp_ehr::Cohort;
use pfp_point_process::hawkes::HawkesFitConfig;
use pfp_point_process::{Event, KernelKind, ParametricIntensity};
use serde::{Deserialize, Serialize};

use crate::census::{simulate_census, CensusResult};
use crate::metrics::{evaluate, AccuracyReport};

/// Table 1 reproduction: measured rows next to the paper's targets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Report {
    /// Measured statistics of the synthetic cohort.
    pub measured: Vec<Table1Row>,
    /// Published MIMIC-II statistics.
    pub paper: Vec<(usize, usize, f64)>,
    /// Number of patients in the synthetic cohort.
    pub num_patients: usize,
}

/// Reproduce Table 1.
pub fn table1_report(cohort: &Cohort) -> Table1Report {
    Table1Report {
        measured: table1(cohort),
        paper: paper_table1()
            .iter()
            .map(|r| (r.patients, r.transitions, r.mean_duration_days))
            .collect(),
        num_patients: cohort.patients.len(),
    }
}

/// Table 2 reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Report {
    /// Measured feature-domain proportions per department.
    pub measured: Vec<Table2Row>,
    /// Published proportions.
    pub paper: Vec<[f64; 4]>,
}

/// Reproduce Table 2.
pub fn table2_report(cohort: &Cohort) -> Table2Report {
    Table2Report {
        measured: table2(cohort),
        paper: paper_table2().to_vec(),
    }
}

/// Reproduce Figure 2 (duration histogram per CU + correlation).
pub fn fig2_report(cohort: &Cohort) -> DurationHistogram {
    duration_histogram(cohort)
}

/// Figure 3 reproduction: conditional intensity traces of the four point
/// process families on one shared event sequence.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Report {
    /// Evaluation grid (days).
    pub times: Vec<f64>,
    /// `(model label, intensity at every grid point)`.
    pub series: Vec<(String, Vec<f64>)>,
    /// The shared event times.
    pub event_times: Vec<f64>,
}

/// Reproduce Figure 3.
pub fn fig3_report(grid_points: usize) -> Fig3Report {
    assert!(grid_points >= 10, "need a reasonable evaluation grid");
    // A fixed 1-D event sequence similar in spirit to the paper's Fig. 3
    // (irregular bursts over ~70 days).
    let event_times = vec![
        3.0, 5.0, 6.0, 14.0, 21.0, 22.5, 24.0, 36.0, 45.0, 47.0, 48.0, 60.0, 66.0,
    ];
    let horizon = 70.0;
    let events: Vec<Event> = event_times.iter().map(|&t| Event::new(t, 0)).collect();

    let models: Vec<(&str, ParametricIntensity)> = vec![
        (
            "Modulated Poisson",
            ParametricIntensity::scalar(KernelKind::ModulatedPoisson, 2.0, -1.0),
        ),
        (
            "Hawkes",
            ParametricIntensity::scalar(KernelKind::Hawkes { decay: 0.8 }, 2.0, -3.0),
        ),
        (
            "Self-correcting",
            ParametricIntensity::scalar(KernelKind::SelfCorrecting, 0.12, 0.35),
        ),
        (
            "Mutually-correcting",
            ParametricIntensity::scalar(KernelKind::MutuallyCorrecting { sigma: 3.0 }, 0.35, -1.2),
        ),
    ];

    let times: Vec<f64> = (0..grid_points)
        .map(|i| horizon * i as f64 / (grid_points - 1) as f64)
        .collect();
    let series = models
        .into_iter()
        .map(|(label, model)| {
            let values = times
                .iter()
                .map(|&t| {
                    let history: Vec<Event> =
                        events.iter().copied().filter(|e| e.time < t).collect();
                    model.intensity(0, t.max(1e-6), &history)
                })
                .collect();
            (label.to_string(), values)
        })
        .collect();

    Fig3Report {
        times,
        series,
        event_times,
    }
}

/// Hyper-parameters of a full method comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComparisonConfig {
    /// Base training configuration for the discriminative methods.
    pub train: TrainConfig,
    /// Hawkes-baseline fit configuration.
    pub hawkes: HawkesFitConfig,
    /// Fraction of patients held out for testing.
    pub test_fraction: f64,
    /// Split seed.
    pub seed: u64,
}

impl ComparisonConfig {
    /// A configuration suitable for the reproduction binaries.
    pub fn standard(seed: u64) -> Self {
        Self {
            train: TrainConfig::paper_default(),
            hawkes: HawkesFitConfig::default(),
            test_fraction: 0.1,
            seed,
        }
    }

    /// A cheap configuration for tests.
    pub fn fast(seed: u64) -> Self {
        Self {
            train: TrainConfig::fast(),
            hawkes: HawkesFitConfig {
                max_iters: 20,
                ..Default::default()
            },
            test_fraction: 0.2,
            seed,
        }
    }
}

/// Result of training and evaluating one method.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodResult {
    /// Which method.
    pub method: MethodId,
    /// Accuracy metrics on the held-out patients (Tables 4–5, Fig. 5).
    pub accuracy: AccuracyReport,
    /// Census-simulation errors on the held-out patients (Table 6, Fig. 6).
    pub census: CensusResult,
}

/// Train one method on the training split.
pub fn train_method(
    train: &Dataset,
    config: &ComparisonConfig,
    method: MethodId,
) -> Box<dyn FlowPredictor> {
    match method {
        MethodId::Mc => Box::new(MarkovPredictor::train(train)),
        MethodId::Var => Box::new(VarPredictor::train(train, 1.0)),
        MethodId::Ctmc => Box::new(CtmcPredictor::train(train)),
        MethodId::Hp => Box::new(HawkesPredictor::train(train, &config.hawkes)),
        MethodId::Hdmcp => Box::new(HierarchicalPredictor::train(train, &config.train)),
        other => Box::new(DmcpPredictor::train(train, &config.train, other)),
    }
}

/// Run the full comparison (Tables 4, 5 and 6 in one pass): train every
/// requested method on the same training split and evaluate accuracy and
/// census error on the same held-out patients.
pub fn method_comparison(
    dataset: &Dataset,
    methods: &[MethodId],
    config: &ComparisonConfig,
) -> Vec<MethodResult> {
    let (train, test) = dataset.split_holdout(config.test_fraction, config.seed);
    methods
        .iter()
        .map(|&method| {
            let predictor = train_method(&train, config, method);
            MethodResult {
                method,
                accuracy: evaluate(predictor.as_ref(), &test),
                census: simulate_census(predictor.as_ref(), &test),
            }
        })
        .collect()
}

/// Figure 7 reproduction: magnitude of learned coefficients per feature domain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Report {
    /// Per-domain summary: `(domain label, #features, #selected, mean |Θ_m|, max |Θ_m|)`.
    pub domains: Vec<(String, usize, usize, f64, f64)>,
    /// Overall fraction of suppressed feature dimensions.
    pub sparsity: f64,
}

/// Reproduce Figure 7 by training SDMCP and summarising the coefficient rows
/// per feature domain.
pub fn fig7_report(
    dataset: &Dataset,
    config: &TrainConfig,
    dict: &FeatureDictionary,
) -> Fig7Report {
    let sdmcp = DmcpPredictor::train(dataset, config, MethodId::Sdmcp);
    let model = sdmcp.model();
    let magnitudes = model.feature_magnitudes();
    let selected: std::collections::HashSet<usize> =
        model.selected_features().into_iter().collect();

    let mut domains = Vec::new();
    for domain in FeatureDomain::ALL {
        let indices: Vec<usize> = (0..dict.total_dim())
            .filter(|&i| dict.domain_of_combined(i) == domain)
            .collect();
        let count = indices.len();
        let sel = indices.iter().filter(|i| selected.contains(i)).count();
        let mags: Vec<f64> = indices.iter().map(|&i| magnitudes[i]).collect();
        let mean = pfp_math::stats::mean(&mags);
        let max = mags.iter().copied().fold(0.0_f64, f64::max);
        domains.push((domain.label().to_string(), count, sel, mean, max));
    }
    Fig7Report {
        domains,
        sparsity: model.sparsity(),
    }
}

/// Figure 8 reproduction: overall accuracies as γ and ρ vary on a log grid.
///
/// Both sweeps are reported in ascending multiplier order regardless of the
/// order the grid was passed in, so the report is a function of the grid as a
/// *set* and the γ-continuation below always walks a monotone path.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Report {
    /// `(γ multiplier, AC_C, AC_D)` with ρ fixed at its default, ascending.
    pub gamma_sweep: Vec<(f64, f64, f64)>,
    /// `(ρ value, AC_C, AC_D)` with γ fixed at its default, ascending.
    pub rho_sweep: Vec<(f64, f64, f64)>,
}

/// One point of a γ-continuation path: the accuracy of the model trained at
/// `gamma`, plus what the (warm-started) solve cost.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContinuationPoint {
    /// Multiplier applied to the base γ.
    pub multiplier: f64,
    /// The resulting regularisation weight γ.
    pub gamma: f64,
    /// Overall destination accuracy on the test split.
    pub overall_cu: f64,
    /// Overall duration accuracy on the test split.
    pub overall_duration: f64,
    /// Objective evaluations the solve spent (fused + separate passes).
    pub evaluations: usize,
    /// Whether the plateau criterion (not residual stopping) ended the solve.
    pub plateau_stopped: bool,
}

/// Train DMCP along a γ-continuation path: multipliers are walked in
/// ascending order and each solve is seeded with the previous solve's ADMM
/// exit state ([`WarmStart`]), replacing the per-multiplier cold retrains.
/// The training split is featurized once and shared by every point.
///
/// Neighbouring γ values have neighbouring solutions, so the carried
/// `(Θ, Y, ρ, step)` is already near the next optimum; warm-starting changes
/// how many passes each solve takes, not what it converges to (the X block
/// is re-derived from the new γ's prox, never carried).
pub fn gamma_continuation(
    train: &Dataset,
    test: &Dataset,
    base: &TrainConfig,
    multipliers: &[f64],
) -> Vec<ContinuationPoint> {
    let mut ms = multipliers.to_vec();
    ms.sort_by(f64::total_cmp);
    let kind = base.feature_map.unwrap_or_else(|| train.default_mcp_kind());
    let samples = train.featurize(kind);
    let base_gamma = base.gamma;

    let mut carry: Option<WarmStart> = None;
    let mut points = Vec::with_capacity(ms.len());
    for &m in &ms {
        let cfg = base.with_gamma(base_gamma * m);
        let source = TrainSource::Featurized {
            samples: samples.clone(),
            kind,
            profile_dim: train.profile_dim,
            service_dim: train.service_dim,
            num_cus: train.num_cus,
            num_durations: train.num_durations,
        };
        let report = pfp_core::train(source, &cfg, carry.as_ref())
            .expect("carried state always matches the shared featurization");
        carry = Some(report.warm_start());
        let accuracy = evaluate(
            &DmcpPredictor::from_model(report.model, MethodId::Dmcp),
            test,
        );
        points.push(ContinuationPoint {
            multiplier: m,
            gamma: cfg.gamma,
            overall_cu: accuracy.overall_cu,
            overall_duration: accuracy.overall_duration,
            evaluations: report.evaluations,
            plateau_stopped: report.plateau_stopped,
        });
    }
    points
}

/// Reproduce Figure 8.  `multipliers` is the log-spaced grid (the paper uses
/// `10^{-2} .. 10^{2}` around the defaults γ = ρ = 1); it is sorted
/// ascending before sweeping.
///
/// The γ sweep runs as a warm-started continuation path
/// ([`gamma_continuation`]); the ρ sweep stays cold on purpose — the carried
/// dual is scaled for one ρ, and seeding across ρ values would blur exactly
/// the sensitivity the sweep measures.  Unless the caller configured one,
/// both sweeps train with the default [`PlateauStop`]: the small-γ points
/// are weakly determined, where the dual residual tolerance
/// (`∝ ρ‖Y‖ ≈ 0`) never fires and objective-plateau is the operative
/// stopping rule.
pub fn fig8_report(
    dataset: &Dataset,
    config: &ComparisonConfig,
    multipliers: &[f64],
) -> Fig8Report {
    let (train, test) = dataset.split_holdout(config.test_fraction, config.seed);
    let sweep_train = TrainConfig {
        plateau: config.train.plateau.or(Some(PlateauStop::default())),
        ..config.train
    };

    let gamma_sweep = gamma_continuation(&train, &test, &sweep_train, multipliers)
        .into_iter()
        .map(|p| (p.multiplier, p.overall_cu, p.overall_duration))
        .collect();

    let mut ms = multipliers.to_vec();
    ms.sort_by(f64::total_cmp);
    let mut rho_sweep = Vec::with_capacity(ms.len());
    for &m in &ms {
        let cfg = sweep_train.with_rho(m);
        let predictor = DmcpPredictor::train(&train, &cfg, MethodId::Dmcp);
        let report = evaluate(&predictor, &test);
        rho_sweep.push((m, report.overall_cu, report.overall_duration));
    }

    Fig8Report {
        gamma_sweep,
        rho_sweep,
    }
}

/// The joint-classifier over-fitting comparison discussed in Section 4.1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JointOverfitReport {
    /// Accuracy of predicting the exact `(c, d)` pair with the joint model.
    pub joint_pair_accuracy: f64,
    /// Accuracy of predicting the exact `(c, d)` pair with the decoupled model.
    pub decoupled_pair_accuracy: f64,
    /// Number of parameters of each model.
    pub joint_parameters: usize,
    /// Number of parameters of the decoupled model.
    pub decoupled_parameters: usize,
}

/// Reproduce the joint-vs-decoupled comparison.
pub fn joint_overfit_report(dataset: &Dataset, config: &ComparisonConfig) -> JointOverfitReport {
    let (train, test) = dataset.split_holdout(config.test_fraction, config.seed);
    let joint = JointLabelModel::train(&train, &config.train);
    let decoupled = DmcpPredictor::train(&train, &config.train, MethodId::Dmcp);

    // Featurize the test split with the *trained* feature map: both models
    // resolved their kind (and in particular σ) from the train split, and
    // evaluating on features built with the test split's own σ would hand
    // the models history weights they never saw.
    let test_samples = test.featurize(decoupled.model().kind);
    let mut joint_correct = 0usize;
    let mut decoupled_correct = 0usize;
    for s in &test_samples {
        let (jc, jd) = joint.predict(&s.features);
        if jc == s.cu_label && jd == s.duration_label {
            joint_correct += 1;
        }
        let (dc, dd) = decoupled.model().predict(&s.features);
        if dc == s.cu_label && dd == s.duration_label {
            decoupled_correct += 1;
        }
    }
    let n = test_samples.len().max(1) as f64;
    JointOverfitReport {
        joint_pair_accuracy: joint_correct as f64 / n,
        decoupled_pair_accuracy: decoupled_correct as f64 / n,
        joint_parameters: joint.num_parameters(),
        decoupled_parameters: decoupled.model().theta.rows() * decoupled.model().theta.cols(),
    }
}

/// Accuracy of the DMCP feature map against the MPP / SCP / LR maps under
/// identical training budgets (checked by `tests/method_ordering.rs`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationReport {
    /// `(method, AC_C, AC_D)` rows.
    pub rows: Vec<(MethodId, f64, f64)>,
}

/// Run the feature-map ablation (LR vs MPP vs SCP vs DMCP).
pub fn feature_map_ablation(dataset: &Dataset, config: &ComparisonConfig) -> AblationReport {
    let (train, test) = dataset.split_holdout(config.test_fraction, config.seed);
    let rows = [MethodId::Lr, MethodId::Mpp, MethodId::Scp, MethodId::Dmcp]
        .iter()
        .map(|&m| {
            let p = DmcpPredictor::train(&train, &config.train, m);
            let r = evaluate(&p, &test);
            (m, r.overall_cu, r.overall_duration)
        })
        .collect();
    AblationReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfp_ehr::departments::NUM_CARE_UNITS;
    use pfp_ehr::{generate_cohort, CohortConfig};

    fn cohort() -> Cohort {
        generate_cohort(&CohortConfig::tiny(151))
    }

    #[test]
    fn table_reports_have_eight_departments() {
        let c = cohort();
        let t1 = table1_report(&c);
        let t2 = table2_report(&c);
        assert_eq!(t1.measured.len(), NUM_CARE_UNITS);
        assert_eq!(t1.paper.len(), NUM_CARE_UNITS);
        assert_eq!(t2.measured.len(), NUM_CARE_UNITS);
        assert_eq!(t1.num_patients, c.patients.len());
    }

    #[test]
    fn fig3_series_cover_all_four_models_and_stay_positive() {
        let r = fig3_report(100);
        assert_eq!(r.series.len(), 4);
        assert_eq!(r.times.len(), 100);
        for (label, values) in &r.series {
            assert_eq!(values.len(), 100);
            assert!(
                values.iter().all(|&v| v >= 0.0 && v.is_finite()),
                "negative intensity in {label}"
            );
        }
        // The self-correcting intensity should generally grow over the window.
        let sc = &r
            .series
            .iter()
            .find(|(l, _)| l == "Self-correcting")
            .unwrap()
            .1;
        assert!(sc.last().unwrap() > sc.first().unwrap());
    }

    #[test]
    fn method_comparison_produces_one_result_per_method() {
        let ds = Dataset::from_cohort(&cohort());
        let cfg = ComparisonConfig::fast(3);
        let methods = [MethodId::Mc, MethodId::Lr, MethodId::Dmcp];
        let results = method_comparison(&ds, &methods, &cfg);
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!((0.0..=1.0).contains(&r.accuracy.overall_cu));
            assert!(r.census.overall_error.is_finite());
        }
    }

    #[test]
    fn discriminative_methods_beat_the_markov_chain_on_destination_accuracy() {
        let ds = Dataset::from_cohort(&generate_cohort(&CohortConfig::small(152)));
        let cfg = ComparisonConfig::fast(5);
        let results = method_comparison(&ds, &[MethodId::Mc, MethodId::Dmcp], &cfg);
        let mc = results.iter().find(|r| r.method == MethodId::Mc).unwrap();
        let dmcp = results.iter().find(|r| r.method == MethodId::Dmcp).unwrap();
        assert!(
            dmcp.accuracy.overall_cu >= mc.accuracy.overall_cu,
            "DMCP ({}) should not lose to MC ({})",
            dmcp.accuracy.overall_cu,
            mc.accuracy.overall_cu
        );
    }

    #[test]
    fn fig7_report_covers_all_four_domains() {
        let c = cohort();
        let ds = Dataset::from_cohort(&c);
        let r = fig7_report(&ds, &TrainConfig::fast(), c.features());
        assert_eq!(r.domains.len(), 4);
        let total: usize = r.domains.iter().map(|d| d.1).sum();
        assert_eq!(total, ds.total_feature_dim());
        assert!((0.0..=1.0).contains(&r.sparsity));
    }

    #[test]
    fn fig8_sweeps_have_one_row_per_multiplier() {
        let ds = Dataset::from_cohort(&cohort());
        let cfg = ComparisonConfig::fast(7);
        let r = fig8_report(&ds, &cfg, &[0.1, 1.0, 10.0]);
        assert_eq!(r.gamma_sweep.len(), 3);
        assert_eq!(r.rho_sweep.len(), 3);
        for &(_, a, b) in r.gamma_sweep.iter().chain(r.rho_sweep.iter()) {
            assert!((0.0..=1.0).contains(&a));
            assert!((0.0..=1.0).contains(&b));
        }
    }

    #[test]
    fn fig8_report_is_independent_of_multiplier_order() {
        let ds = Dataset::from_cohort(&cohort());
        let cfg = ComparisonConfig::fast(7);
        let sorted = fig8_report(&ds, &cfg, &[0.1, 1.0, 10.0]);
        let shuffled = fig8_report(&ds, &cfg, &[10.0, 0.1, 1.0]);
        assert_eq!(sorted.gamma_sweep, shuffled.gamma_sweep);
        assert_eq!(sorted.rho_sweep, shuffled.rho_sweep);
        let ms: Vec<f64> = sorted.gamma_sweep.iter().map(|r| r.0).collect();
        assert_eq!(ms, vec![0.1, 1.0, 10.0], "rows come out ascending");
    }

    #[test]
    fn gamma_continuation_walks_the_grid_in_ascending_gamma_order() {
        let ds = Dataset::from_cohort(&cohort());
        let cfg = ComparisonConfig::fast(7);
        let (train, test) = ds.split_holdout(cfg.test_fraction, cfg.seed);
        let points = gamma_continuation(&train, &test, &cfg.train, &[10.0, 0.1, 1.0]);
        assert_eq!(points.len(), 3);
        for pair in points.windows(2) {
            assert!(pair[0].gamma < pair[1].gamma);
        }
        for p in &points {
            assert!((0.0..=1.0).contains(&p.overall_cu));
            assert!((0.0..=1.0).contains(&p.overall_duration));
            assert!(p.evaluations > 0);
            assert!((p.gamma - cfg.train.gamma * p.multiplier).abs() < 1e-15);
        }
    }

    #[test]
    fn joint_overfit_report_compares_parameter_counts() {
        let ds = Dataset::from_cohort(&cohort());
        let cfg = ComparisonConfig::fast(9);
        let r = joint_overfit_report(&ds, &cfg);
        assert!(r.joint_parameters > r.decoupled_parameters);
        assert!((0.0..=1.0).contains(&r.joint_pair_accuracy));
        assert!((0.0..=1.0).contains(&r.decoupled_pair_accuracy));
    }

    #[test]
    fn feature_map_ablation_has_four_rows() {
        let ds = Dataset::from_cohort(&cohort());
        let cfg = ComparisonConfig::fast(11);
        let r = feature_map_ablation(&ds, &cfg);
        assert_eq!(r.rows.len(), 4);
    }
}
