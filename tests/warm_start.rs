//! Warm-start property suite: carrying ADMM exit state across folds,
//! γ-steps and retrains must change how much work the solver does, never
//! what it converges to.
//!
//! Counting assertions use the exact [`CountingObjective`] decorator: every
//! claimed pass count is the observed number of fused objective calls, and
//! the warm paths must stay on the fused entry point.
//!
//! Objective-matching assertions use the reach formulation: plateau-stopped
//! exits are path-dependent (warm and cold stop at slightly different points
//! of the same flat valley), so the 1e-6 claim is that the warm trajectory
//! *reaches* the cold solve's final objective within 1e-6, not that the two
//! stopping points coincide.  Warm solves therefore run as un-plateaued
//! probes and the cost claim is the pass count at which the probe's trace
//! first reaches the cold final.

use patient_flow::core::loss::DmcpObjective;
use patient_flow::core::{
    initial_theta, train, Dataset, DmcpModel, FeatureMapKind, PlateauStop, TrainConfig, TrainError,
    WarmStart, WarmStartError,
};
use patient_flow::ehr::{generate_cohort, CohortConfig};
use patient_flow::eval::metrics::overall_cu_accuracy;
use patient_flow::math::Matrix;
use patient_flow::optim::admm::{solve_group_lasso, solve_group_lasso_warm, AdmmResult};
use pfp_bench::CountingObjective;

/// The weakly-determined-regime configuration the sweep/CV drivers use:
/// plateau stopping on, outer cap high enough that the plateau (not the cap)
/// ends the solve, γ at the upper end of the Fig. 8 grid where the optimum
/// is well determined.
fn chain_config() -> TrainConfig {
    // Paper defaults rather than `fast()`, matching the configuration the
    // warm-start consumers run under.
    // A looser plateau than the production default (1e-3 vs 1e-4) keeps the
    // unoptimized test binary fast; the properties under test are invariant
    // to where exactly the plateau fires.
    let mut cfg = TrainConfig::paper_default()
        .with_gamma(5e-2)
        .with_plateau(Some(PlateauStop {
            window: 5,
            rel_tol: 1e-3,
        }));
    cfg.max_outer_iters = 300;
    cfg
}

/// Fused passes until the trace first reached `target`.
fn passes_to_reach(result: &AdmmResult, target: f64) -> Option<usize> {
    let mut cumulative = 1usize;
    if result.objective_trace[0] <= target {
        return Some(cumulative);
    }
    for (outer, evals) in result.evaluations_by_outer.iter().enumerate() {
        cumulative += evals;
        if result.objective_trace[outer + 1] <= target {
            return Some(cumulative);
        }
    }
    None
}

/// Overall CU accuracy on `val` of the model a solve on `train` exited with.
fn solve_accuracy(
    result: &AdmmResult,
    kind: FeatureMapKind,
    train: &Dataset,
    val: &Dataset,
) -> f64 {
    let model = DmcpModel {
        theta: result.theta.clone(),
        selection: result.x.clone(),
        kind,
        profile_dim: train.profile_dim,
        service_dim: train.service_dim,
        num_cus: train.num_cus,
        num_durations: train.num_durations,
    };
    overall_cu_accuracy(&model, val)
}

#[test]
fn warm_chain_across_folds_uses_strictly_fewer_passes_per_fold() {
    let dataset = Dataset::from_cohort(&generate_cohort(&CohortConfig::scaled(0.01, 61)));
    let config = chain_config();
    // k = 5 so consecutive training sets share 3/4 of their patients — the
    // regime the CV warm chain is built for (disjoint-looking optima at very
    // small overlap give a warm start nothing to carry).
    let folds = dataset.k_folds(5, 17);

    // Chain the first three folds: the full 5-fold chain doubles this
    // test's unoptimized run time.
    let mut carry: Option<WarmStart> = None;
    for (i, (train, val)) in folds.iter().take(3).enumerate() {
        let kind = train.default_mcp_kind();
        let samples = train.featurize(kind);
        let rows = train.total_feature_dim();
        let cols = train.num_cus + train.num_durations;
        let admm = config.admm_config();

        let cold_counting = CountingObjective::new(
            DmcpObjective::new(&samples, None, rows, train.num_cus, train.num_durations)
                .with_threads(4),
        );
        let cold = solve_group_lasso(&cold_counting, initial_theta(rows, cols, &config), &admm);
        let cold_passes = cold_counting.passes();
        assert_eq!(cold_passes, cold.evaluations);
        assert_eq!(
            cold_counting.value_calls() + cold_counting.gradient_calls(),
            0,
            "the accelerated path must go through the fused entry point only"
        );
        let cold_final = *cold.objective_trace.last().unwrap();

        if let Some(w) = carry.as_ref() {
            // Folds 2..k: the warm trajectory must reach the cold solve's
            // final objective within 1e-6 after strictly fewer fused passes
            // than the cold solve executed.  The warm solve runs un-plateaued
            // (a probe): plateau exit points are path-dependent, so comparing
            // executed-pass totals of two plateau-stopped runs would measure
            // where each stopping rule happened to fire, not solver work.
            // Granting the probe exactly the cold solve's outer budget keeps
            // the comparison equal-budget (and the test binary fast).
            let mut probe = admm;
            probe.plateau = None;
            probe.max_outer_iters = cold.evaluations_by_outer.len();
            let warm_counting = CountingObjective::new(
                DmcpObjective::new(&samples, None, rows, train.num_cus, train.num_durations)
                    .with_threads(4),
            );
            let warm = solve_group_lasso_warm(&warm_counting, &probe, w)
                .expect("carried state matches the fold's shape");
            assert_eq!(warm_counting.passes(), warm.evaluations);
            assert_eq!(
                warm_counting.value_calls() + warm_counting.gradient_calls(),
                0
            );
            let reach = passes_to_reach(&warm, cold_final + 1e-6)
                .unwrap_or_else(|| panic!("fold {}: warm trace never reached cold", i + 1));
            assert!(
                reach < cold_passes,
                "fold {}: warm reached cold's objective in {reach} of cold's {cold_passes}",
                i + 1
            );
            // Accuracy is quantized at 1/n_validation, so near-tie argmaxes
            // may flip between two models at the same objective level; a
            // handful of flips is tolerated, a different model is not.
            let cold_cu = solve_accuracy(&cold, kind, train, val);
            let warm_cu = solve_accuracy(&warm, kind, train, val);
            assert!(
                (warm_cu - cold_cu).abs() <= 0.05,
                "fold {}: warm AC_C {warm_cu:.4} vs cold {cold_cu:.4}",
                i + 1
            );
            carry = Some(warm.warm_start());
        } else {
            carry = Some(cold.warm_start());
        }
    }
}

#[test]
fn warm_retrain_makes_the_same_predictions_as_cold() {
    let dataset = Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(62)));
    let config = chain_config();

    let cold = train(&dataset, &config, None).expect("cold start cannot fail");
    let warm = train(&dataset, &config, Some(&cold.warm_start()))
        .expect("state from the same data always matches");

    // Retraining from the exit state must land at (or below) the cold
    // objective and cost far fewer passes.
    assert!(
        warm.final_objective <= cold.final_objective + 1e-6,
        "warm {} vs cold {}",
        warm.final_objective,
        cold.final_objective
    );
    assert!(
        warm.evaluations * 4 < cold.evaluations,
        "warm retrain {} passes vs cold {}",
        warm.evaluations,
        cold.evaluations
    );

    // Predictions must agree on almost every sample.  Accuracy-style metrics
    // are quantized (one argmax flip = 1/n), and the two solves stop at
    // different points of the same flat valley, so near-tie samples may
    // flip; demand ≥ 95% exact label agreement rather than bitwise-equal Θ.
    let samples = dataset.featurize(cold.model.kind);
    let agreeing = samples
        .iter()
        .filter(|s| cold.model.predict(&s.features) == warm.model.predict(&s.features))
        .count();
    assert!(
        agreeing * 20 >= samples.len() * 19,
        "only {agreeing} of {} predictions agree",
        samples.len()
    );
}

#[test]
fn warm_step_along_the_gamma_path_reaches_the_cold_objective_cheaper() {
    let dataset = Dataset::from_cohort(&generate_cohort(&CohortConfig::scaled(0.01, 63)));
    // Walk the grid upward: the previous point is one decade below the
    // well-determined γ = 5e-2 target (at tiny cohort scale the decade
    // *above* it is so strongly regularised that a cold solve converges
    // near-instantly, leaving no work for a warm start to save).
    let next_gamma = chain_config();
    let mut config = next_gamma.with_gamma(next_gamma.gamma / 10.0);
    // The seed solve only has to produce a plausible exit state for the next
    // γ-point, not converge: a tight outer cap keeps the test cheap (at this
    // small γ the plateau fires late).
    config.max_outer_iters = 40;

    // Previous γ-point's exit state.
    let at_low_gamma = train(&dataset, &config, None).expect("cold start cannot fail");

    let kind = dataset.default_mcp_kind();
    let samples = dataset.featurize(kind);
    let rows = dataset.total_feature_dim();
    let cols = dataset.num_cus + dataset.num_durations;
    let admm = next_gamma.admm_config();

    let cold_counting = CountingObjective::new(
        DmcpObjective::new(&samples, None, rows, dataset.num_cus, dataset.num_durations)
            .with_threads(4),
    );
    let cold = solve_group_lasso(
        &cold_counting,
        initial_theta(rows, cols, &next_gamma),
        &admm,
    );
    let cold_final = *cold.objective_trace.last().unwrap();

    // Un-plateaued probe (see the fold-chain test for why).  Twice the cold
    // outer budget: coming from the smaller γ the warm trajectory spends
    // fewer passes per outer than the cold solve, so it crosses the cold
    // final later in outer terms even though it gets there in fewer passes.
    let mut probe = admm;
    probe.plateau = None;
    probe.max_outer_iters = 2 * cold.evaluations_by_outer.len();
    let warm_counting = CountingObjective::new(
        DmcpObjective::new(&samples, None, rows, dataset.num_cus, dataset.num_durations)
            .with_threads(4),
    );
    let warm = solve_group_lasso_warm(&warm_counting, &probe, &at_low_gamma.warm_start())
        .expect("same data, same shape");
    let reach = passes_to_reach(&warm, cold_final + 1e-6)
        .expect("the warm trace must reach the cold γ-point's objective");
    assert!(
        reach < cold_counting.passes(),
        "warm reached the next γ's cold objective in {reach} of {} passes",
        cold_counting.passes()
    );
}

#[test]
fn mismatched_warm_start_is_a_typed_error_not_a_panic() {
    let dataset = Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(64)));
    let config = chain_config();
    let report = train(&dataset, &config, None).expect("cold start cannot fail");

    // Wrong θ shape: one feature row too many.
    let mut wrong_shape = report.warm_start();
    wrong_shape.theta = Matrix::zeros(wrong_shape.theta.rows() + 1, wrong_shape.theta.cols());
    match train(&dataset, &config, Some(&wrong_shape)) {
        Err(TrainError::WarmStart(WarmStartError::ShapeMismatch { field, .. })) => {
            assert_eq!(field, "theta")
        }
        other => panic!("expected a theta shape mismatch, got {other:?}"),
    }

    // Wrong dual shape.
    let mut wrong_dual = report.warm_start();
    wrong_dual.y = Matrix::zeros(1, 1);
    match train(&dataset, &config, Some(&wrong_dual)) {
        Err(TrainError::WarmStart(WarmStartError::ShapeMismatch { field, .. })) => {
            assert_eq!(field, "y")
        }
        other => panic!("expected a dual shape mismatch, got {other:?}"),
    }

    // Non-positive ρ.
    let mut bad_rho = report.warm_start();
    bad_rho.rho = 0.0;
    assert!(matches!(
        train(&dataset, &config, Some(&bad_rho)),
        Err(TrainError::WarmStart(WarmStartError::InvalidRho(_)))
    ));

    // Non-finite carried state.
    let mut bad_theta = report.warm_start();
    bad_theta.theta.set(0, 0, f64::NAN);
    assert!(matches!(
        train(&dataset, &config, Some(&bad_theta)),
        Err(TrainError::WarmStart(WarmStartError::NonFinite { .. }))
    ));

    // The error is a proper std error with a readable message.
    let err = train(&dataset, &config, Some(&bad_rho)).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("rho"), "unhelpful message: {msg}");
    let _: &dyn std::error::Error = &err;
}
