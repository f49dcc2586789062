//! Counting regression tests for the time-to-tolerance ADMM solver: the
//! adaptive configuration must do strictly less evaluation work than the
//! fixed-budget schedule it replaced while reaching at least the same final
//! objective, and the early-stop paths must never skip the per-outer trace
//! bookkeeping.

use patient_flow::core::loss::DmcpObjective;
use patient_flow::core::stream::{train_streamed, ShardedDmcpObjective, ShardedSamples};
use patient_flow::core::{train, Dataset, SolverMode, TrainConfig};
use patient_flow::ehr::{generate_cohort, CohortConfig};
use patient_flow::math::Matrix;
use patient_flow::optim::admm::solve_group_lasso;
use patient_flow::optim::SmoothObjective;
use pfp_bench::CountingObjective;

fn fixture() -> (Dataset, Vec<patient_flow::core::Sample>) {
    let cohort = generate_cohort(&CohortConfig::tiny(42));
    let dataset = Dataset::from_cohort(&cohort);
    let kind = dataset.default_mcp_kind();
    let samples = dataset.featurize(kind);
    (dataset, samples)
}

#[test]
fn adaptive_solve_uses_strictly_fewer_fused_evaluations_while_matching_objective() {
    let (dataset, samples) = fixture();
    let rows = dataset.total_feature_dim();
    let cols = dataset.num_cus + dataset.num_durations;
    let theta0 = Matrix::zeros(rows, cols);

    let run = |config: TrainConfig| {
        let counting = CountingObjective::new(DmcpObjective::new(
            &samples,
            None,
            rows,
            dataset.num_cus,
            dataset.num_durations,
        ));
        let result = solve_group_lasso(&counting, theta0.clone(), &config.admm_config());
        let passes = counting.passes();
        assert_eq!(
            passes, result.evaluations,
            "driver accounting must match observed calls"
        );
        (result, passes)
    };

    let (fixed, fixed_passes) = run(TrainConfig::fast().with_solver(SolverMode::FixedBudget));
    let (adaptive, adaptive_passes) = run(TrainConfig::fast());

    assert!(
        adaptive_passes < fixed_passes,
        "adaptive passes {adaptive_passes} must be strictly fewer than fixed {fixed_passes}"
    );
    // The adaptive solve must *reach* the fixed-budget objective — within
    // 1e-6 above it; landing below it (a better optimum) is the whole point.
    let fixed_final = *fixed.objective_trace.last().unwrap();
    let adaptive_final = *adaptive.objective_trace.last().unwrap();
    assert!(
        adaptive_final <= fixed_final + 1e-6,
        "adaptive final {adaptive_final} must match fixed final {fixed_final} within 1e-6"
    );
}

#[test]
fn early_stop_paths_never_skip_the_trailing_trace_evaluation() {
    let (dataset, samples) = fixture();
    let rows = dataset.total_feature_dim();
    let cols = dataset.num_cus + dataset.num_durations;

    // A well-regularised problem (γ big enough that the optimum is near) with
    // loose residual tolerances: the solver must stop well before the cap.
    // (At the paper's tiny γ the cross-entropy optimum drifts far out and the
    // dual residual decays slowly, so the cap is what usually fires there.)
    let mut config = TrainConfig::fast().with_gamma(0.05);
    config.tolerance = 0.5;
    config.max_outer_iters = 100;
    let objective =
        DmcpObjective::new(&samples, None, rows, dataset.num_cus, dataset.num_durations);
    let result = solve_group_lasso(&objective, Matrix::zeros(rows, cols), &config.admm_config());

    assert!(
        result.converged,
        "fixture must exercise the early-stop path"
    );
    assert!(
        result.outer_iterations < 100,
        "stopped at {} outers",
        result.outer_iterations
    );
    assert_eq!(
        result.objective_trace.len(),
        result.outer_iterations + 1,
        "every outer iteration (early-stopped ones included) must extend the trace"
    );
    // The carried trace entry is exactly what a fresh evaluation at the final
    // iterate yields: the smooth value rides along with the last fused
    // evaluation instead of being skipped on early exits.
    let fresh = objective.value(&result.theta) + config.gamma * result.x.l12_norm();
    let last = *result.objective_trace.last().unwrap();
    assert!(
        (last - fresh).abs() <= 1e-12,
        "carried trace value {last} must match fresh evaluation {fresh}"
    );
}

#[test]
fn fixed_budget_mode_reproduces_the_legacy_call_pattern() {
    let (dataset, samples) = fixture();
    let rows = dataset.total_feature_dim();
    let cols = dataset.num_cus + dataset.num_durations;

    let mut config = TrainConfig::fast().with_solver(SolverMode::FixedBudget);
    config.tolerance = 0.0; // exact counts: no early stopping anywhere
    let counting = CountingObjective::new(DmcpObjective::new(
        &samples,
        None,
        rows,
        dataset.num_cus,
        dataset.num_durations,
    ));
    let result = solve_group_lasso(&counting, Matrix::zeros(rows, cols), &config.admm_config());

    let outers = config.max_outer_iters;
    let inners = config.max_inner_iters;
    assert_eq!(result.outer_iterations, outers);
    assert_eq!(counting.fused_calls(), outers + 1);
    assert_eq!(counting.gradient_calls(), outers * (inners - 1));
    assert_eq!(counting.value_calls(), 0);
}

/// Solving over shard blocks must retrace the materialized solve exactly —
/// same per-outer objective trace (to the bit), same iterate, same selection
/// matrix, same iteration counts — for every shard size, on both the default
/// adaptive configuration and the loosely-toleranced early-stop fixture
/// (adaptive ρ and the residual-based stop must see identical numbers, so
/// they must make identical decisions).
#[test]
fn sharded_solve_retraces_the_materialized_solve_bitwise() {
    let (dataset, samples) = fixture();
    let rows = dataset.total_feature_dim();
    let cols = dataset.num_cus + dataset.num_durations;
    let theta0 = Matrix::zeros(rows, cols);

    let mut early_stop = TrainConfig::fast().with_gamma(0.05);
    early_stop.tolerance = 0.5;
    early_stop.max_outer_iters = 100;
    let configs = [TrainConfig::fast(), early_stop];

    for config in &configs {
        let reference =
            DmcpObjective::new(&samples, None, rows, dataset.num_cus, dataset.num_durations);
        let expected = solve_group_lasso(&reference, theta0.clone(), &config.admm_config());

        for shard_size in [1usize, 7, samples.len(), samples.len() + 1] {
            let sharded = ShardedSamples::from_samples(
                &samples,
                shard_size,
                dataset.profile_dim,
                dataset.service_dim,
                dataset.num_cus,
                dataset.num_durations,
            );
            let objective = ShardedDmcpObjective::new(&sharded, None);
            let result = solve_group_lasso(&objective, theta0.clone(), &config.admm_config());

            assert_eq!(result.outer_iterations, expected.outer_iterations);
            assert_eq!(result.converged, expected.converged);
            assert_eq!(result.inner_iterations, expected.inner_iterations);
            assert_eq!(result.objective_trace.len(), expected.objective_trace.len());
            for (a, b) in result.objective_trace.iter().zip(&expected.objective_trace) {
                assert_eq!(a.to_bits(), b.to_bits(), "shard={shard_size}");
            }
            assert_eq!(result.theta, expected.theta, "shard={shard_size}");
            assert_eq!(result.x, expected.x, "shard={shard_size}");
            assert_eq!(result.final_rho.to_bits(), expected.final_rho.to_bits());
        }
    }
}

/// End-to-end out-of-core training — the cohort regenerated from its seed on
/// every evaluation, never materialized — must produce the *same model* as
/// the classic generate → featurize → train pipeline, bit for bit.
#[test]
fn out_of_core_training_reproduces_materialized_training_bitwise() {
    let cohort_config = CohortConfig::tiny(42);
    let train_config = TrainConfig::fast();

    let dataset = Dataset::from_cohort(&generate_cohort(&cohort_config));
    let materialized = train(&dataset, &train_config);

    for shard_size in [13usize, cohort_config.num_patients + 1] {
        let streamed = train_streamed(&cohort_config, &train_config, shard_size);
        assert_eq!(streamed.kind, materialized.kind, "shard={shard_size}");
        assert_eq!(streamed.theta, materialized.theta, "shard={shard_size}");
        assert_eq!(streamed.selection, materialized.selection);
        assert_eq!(streamed.profile_dim, materialized.profile_dim);
        assert_eq!(streamed.service_dim, materialized.service_dim);
    }
}
