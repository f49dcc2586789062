//! End-to-end integration tests spanning every crate: cohort generation →
//! dataset extraction → training → prediction → evaluation → census
//! simulation and closed-loop what-if forecasting.

use patient_flow::baselines::{
    DmcpPredictor, FlowPredictor, GenerativePredictor, MarkovPredictor, MethodId,
};
use patient_flow::core::{DmcpModel, TrainConfig};
use patient_flow::ehr::departments::CareUnit;
use patient_flow::ehr::{generate_cohort, CohortConfig};
use patient_flow::eval::census::{census_errors_f64, simulate_census, CENSUS_DAYS};
use patient_flow::eval::dataset::build_dataset;
use patient_flow::eval::metrics::{evaluate, overall_cu_accuracy};
use patient_flow::eval::scenario::{
    actual_census, evaluate_scenarios, forecast_census, AdmissionModel, ForecastConfig,
    Perturbation, Scenario,
};

#[test]
fn full_pipeline_beats_the_majority_class_baseline() {
    let cohort = generate_cohort(&CohortConfig::small(201));
    let dataset = build_dataset(&cohort);
    let (train, test) = dataset.split_holdout(0.2, 201);

    let model = DmcpModel::train(&train, &TrainConfig::fast());
    let acc = overall_cu_accuracy(&model, &test);

    // Majority-class share of the test labels.
    let (cu_counts, _) = test.label_counts();
    let majority_share = *cu_counts.iter().max().unwrap() as f64 / test.len() as f64;

    assert!(
        acc >= majority_share - 0.02,
        "DMCP accuracy {acc:.3} should not fall meaningfully below the majority share {majority_share:.3}"
    );
    assert!(acc > 0.4, "absolute accuracy {acc:.3} unexpectedly low");
}

#[test]
fn pipeline_is_fully_deterministic_for_a_fixed_seed() {
    let run = || {
        let cohort = generate_cohort(&CohortConfig::tiny(202));
        let dataset = build_dataset(&cohort);
        let (train, test) = dataset.split_holdout(0.2, 5);
        let model = DmcpModel::train(&train, &TrainConfig::fast());
        overall_cu_accuracy(&model, &test)
    };
    assert_eq!(run(), run());
}

#[test]
fn dmcp_recovers_rare_unit_signal_better_than_markov() {
    // The cohort plants next-destination signatures in the stay features, so a
    // feature-aware model must beat the feature-free Markov chain on the
    // rarely visited units (which MC essentially never predicts).
    let cohort = generate_cohort(&CohortConfig::small(203));
    let dataset = build_dataset(&cohort);
    let (train, test) = dataset.split_holdout(0.2, 203);

    let dmcp = DmcpPredictor::train(&train, &TrainConfig::fast(), MethodId::Sdmcp);
    let markov = MarkovPredictor::train(&train);

    let dmcp_report = evaluate(&dmcp, &test);
    let mc_report = evaluate(&markov, &test);

    let rare = [
        CareUnit::Ficu.index(),
        CareUnit::Csru.index(),
        CareUnit::Micu.index(),
    ];
    let rare_sum = |report: &patient_flow::eval::metrics::AccuracyReport| {
        rare.iter().map(|&c| report.per_cu[c]).sum::<f64>()
    };
    assert!(
        rare_sum(&dmcp_report) > rare_sum(&mc_report),
        "SDMCP should recover non-ward units better than MC ({:.3} vs {:.3})",
        rare_sum(&dmcp_report),
        rare_sum(&mc_report)
    );
    assert!(dmcp_report.overall_cu >= mc_report.overall_cu - 0.02);
}

#[test]
fn census_simulation_runs_for_trained_and_count_based_models() {
    let cohort = generate_cohort(&CohortConfig::tiny(204));
    let dataset = build_dataset(&cohort);
    let (train, test) = dataset.split_holdout(0.3, 204);

    let dmcp = DmcpPredictor::train(&train, &TrainConfig::fast(), MethodId::Dmcp);
    let markov = MarkovPredictor::train(&train);

    for predictor in [&dmcp as &dyn FlowPredictor, &markov as &dyn FlowPredictor] {
        let census = simulate_census(predictor, &test);
        assert!(census.overall_error.is_finite());
        assert!(census
            .per_cu_error
            .iter()
            .all(|e| e.is_finite() && *e >= 0.0));
        // The simulated totals never exceed the number of held-out patients.
        for day in 0..patient_flow::eval::census::CENSUS_DAYS {
            let total: usize = (0..8).map(|cu| census.simulated[cu][day]).sum();
            assert!(total <= test.patients.len());
        }
    }
}

#[test]
fn closed_loop_census_beats_markov_and_the_what_if_suite_is_deterministic() {
    let cohort = generate_cohort(&CohortConfig::scaled(0.01, 42));
    let dataset = build_dataset(&cohort);
    let (train, test) = dataset.split_holdout(0.2, 42);
    let config = TrainConfig {
        seed: 42,
        ..TrainConfig::fast()
    };
    let dmcp = DmcpPredictor::train(&train, &config, MethodId::Sdmcp);
    let markov = MarkovPredictor::train(&train);

    // Forecast skill: replay the held-out admissions (the paper's census
    // setting) and score against the actual census.
    let replay = ForecastConfig {
        rollouts: 8,
        seed: 42,
        ..ForecastConfig::default()
    };
    let actual: Vec<Vec<f64>> = actual_census(&test, CENSUS_DAYS)
        .iter()
        .map(|row| row.iter().map(|&v| v as f64).collect())
        .collect();
    let err_c = |p: &dyn GenerativePredictor| {
        let forecast = forecast_census(p, &test, &Scenario::baseline(), &replay);
        census_errors_f64(&actual, &forecast.mean).1
    };
    let (err_dmcp, err_markov) = (err_c(&dmcp), err_c(&markov));
    assert!(
        err_dmcp < err_markov,
        "SDMCP baseline Err_C {err_dmcp:.3} must beat Markov's {err_markov:.3}"
    );

    // The what-if suite, with a Hawkes admission stream so surges have
    // something to scale, reproduces exactly at a fixed seed.
    let suite = [
        Scenario::named("surge-2x").with(Perturbation::AdmissionSurge { scale: 2.0 }),
        Scenario::named("micu-closed").with(Perturbation::UnitClosure {
            cu: CareUnit::Micu.index(),
        }),
        Scenario::named("nicu-slow-discharge").with(Perturbation::LosShift {
            cu: CareUnit::Nicu.index(),
            factor: 1.5,
        }),
        Scenario::named("winter-crunch")
            .with(Perturbation::AdmissionSurge { scale: 1.5 })
            .with(Perturbation::UnitClosure {
                cu: CareUnit::Ccu.index(),
            })
            .with(Perturbation::LosShift {
                cu: CareUnit::Gw.index(),
                factor: 1.25,
            }),
    ];
    let with_admissions = ForecastConfig {
        admissions: Some(AdmissionModel::for_cohort(test.patients.len(), CENSUS_DAYS)),
        ..replay
    };
    let run = || evaluate_scenarios(&dmcp, &test, &suite, &with_admissions);
    let report = run();
    assert_eq!(report.scenarios.len(), suite.len());
    assert!(report == run(), "what-if suite differs across two runs");
}

#[test]
fn group_lasso_reports_shared_feature_selection() {
    let cohort = generate_cohort(&CohortConfig::tiny(205));
    let dataset = build_dataset(&cohort);
    let strong = DmcpModel::train(&dataset, &TrainConfig::fast().with_gamma(0.05));
    assert!(strong.num_selected() < strong.num_features());
    assert!(strong.sparsity() > 0.0);
    // Selected features index into the combined feature space.
    for idx in strong.selected_features() {
        assert!(idx < strong.num_features());
    }
}
