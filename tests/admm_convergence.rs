//! Counting regression tests for the time-to-tolerance ADMM solver: it must
//! do strictly less evaluation work than the fixed-budget schedule it
//! replaced (kept here, as a private reference, only for that comparison)
//! while reaching at least the same final objective, the early-stop paths
//! must never skip the per-outer trace bookkeeping, and the default
//! trajectory is pinned to literals across commits.

use patient_flow::core::loss::DmcpObjective;
use patient_flow::core::stream::{train_streamed, ShardedDmcpObjective, ShardedSamples};
use patient_flow::core::{train, train_warm, Dataset, TrainConfig, TrainReport};
use patient_flow::ehr::{generate_cohort, CohortConfig};
use patient_flow::math::Matrix;
use patient_flow::optim::admm::solve_group_lasso;
use patient_flow::optim::prox::prox_group_lasso_in_place;
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
    let config = TrainConfig::fast();
    let counting = || {
        CountingObjective::new(DmcpObjective::new(
            &samples,
            None,
            rows,
            dataset.num_cus,
            dataset.num_durations,
        ))
    };

    let fixed_objective = counting();
    let fixed_trace = fixed_step_admm(&fixed_objective, theta0.clone(), &config, FIXED_STEP_LR);
    let fixed_passes = fixed_objective.passes();

    let adaptive_objective = counting();
    let adaptive = solve_group_lasso(&adaptive_objective, theta0, &config.admm_config());
    let adaptive_passes = adaptive_objective.passes();
    assert_eq!(
        adaptive_passes, adaptive.evaluations,
        "driver accounting must match observed calls"
    );

    assert!(
        adaptive_passes < fixed_passes,
        "adaptive passes {adaptive_passes} must be strictly fewer than fixed {fixed_passes}"
    );
    // The adaptive solve must *reach* the fixed-budget objective — within
    // 1e-6 above it; landing below it (a better optimum) is the whole point.
    let fixed_final = *fixed_trace.last().unwrap();
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

/// FNV-1a over the bit patterns of a trained model's Θ and selection X.
fn model_hash(report: &TrainReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for m in [&report.model.theta, &report.model.selection] {
        for v in m.as_slice() {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Golden pin of the default solver trajectory across commits: every other
/// bitwise suite compares two paths of the same build, so only literals
/// catch a change in what the solver computes.  Pinned: cold `fast()` and
/// `paper_default()` trains and one warm-started `fast()` retrain, serial.
#[test]
fn default_solver_trajectory_is_pinned() {
    let dataset = Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(42)));
    let fast = TrainConfig::fast().with_threads(1);
    let paper = TrainConfig::paper_default().with_threads(1);
    let cold_fast = train_warm(&dataset, &fast, None).unwrap();
    let cold_paper = train_warm(&dataset, &paper, None).unwrap();
    let warm_fast = train_warm(&dataset, &fast, Some(&cold_fast.warm_start())).unwrap();

    // (evaluations, outer iterations, converged, final objective bits, model hash)
    let pinned = [
        (
            "cold fast",
            &cold_fast,
            (91, 8, false, 0x3ff1_09dd_4c08_359b, 0x0882_98d3_a15a_3b6a),
        ),
        (
            "cold paper",
            &cold_paper,
            (271, 30, false, 0x3fdc_26c5_1d02_b4a1, 0xdc1f_4033_ca08_bb47),
        ),
        (
            "warm fast",
            &warm_fast,
            (71, 8, false, 0x3fe5_dff2_4c5b_981e, 0x3106_b22a_674b_ea59),
        ),
    ];
    for (name, report, expected) in pinned {
        let got = (
            report.evaluations,
            report.outer_iterations,
            report.converged,
            report.final_objective.to_bits(),
            model_hash(report),
        );
        assert_eq!(got, expected, "{name}: solver trajectory moved");
    }
}

/// Constant inner step of the fixed-step reference.
const FIXED_STEP_LR: f64 = 0.5;

/// A fixed-budget ADMM, kept only as this file's baseline:
/// static ρ, no over-relaxation (α = 1), a constant inner step capped per
/// row at `1 / (L_r + ρ)`, and relative-change stops on the inner and the
/// outer loop.  The first inner step of every outer reuses the gradient of
/// the trailing fused evaluation; later inner steps pay one gradient pass
/// each.  Returns the objective trace.
fn fixed_step_admm<O: SmoothObjective>(
    objective: &O,
    mut theta: Matrix,
    config: &TrainConfig,
    lr: f64,
) -> Vec<f64> {
    let (rows, cols) = objective.shape();
    let (gamma, rho, tol) = (config.gamma, config.rho, config.tolerance);
    let caps: Vec<f64> = objective
        .row_curvature_bounds()
        .expect("the DMCP objective bounds its row curvature")
        .iter()
        .map(|l| 1.0 / (l + rho))
        .collect();
    let mut x = theta.clone();
    let mut y = Matrix::zeros(rows, cols);
    let mut grad = Matrix::zeros(rows, cols);
    let smooth = objective.value_and_gradient(&theta, &mut grad);
    let mut trace = vec![smooth + gamma * x.l12_norm()];
    for _ in 0..config.max_outer_iters {
        let theta_prev_outer = theta.clone();
        let mut inner_prev = theta.clone();
        for inner in 0..config.max_inner_iters {
            if inner > 0 {
                objective.gradient(&theta, &mut grad);
            }
            for (r, &cap) in caps.iter().enumerate() {
                let step = lr.min(cap);
                for c in 0..cols {
                    let aug = rho * (theta.get(r, c) - x.get(r, c) + y.get(r, c));
                    theta.add_at(r, c, -step * (grad.get(r, c) + aug));
                }
            }
            if theta.relative_change(&inner_prev) < tol {
                break;
            }
            inner_prev.copy_from(&theta);
        }
        // X-update: prox of Θ + Y; Y-update: dual ascent on Θ − X.
        for ((xv, &t), &yv) in x
            .as_mut_slice()
            .iter_mut()
            .zip(theta.as_slice())
            .zip(y.as_slice())
        {
            *xv = t + yv;
        }
        prox_group_lasso_in_place(&mut x, gamma / rho);
        for ((yv, &t), &xv) in y
            .as_mut_slice()
            .iter_mut()
            .zip(theta.as_slice())
            .zip(x.as_slice())
        {
            *yv += t - xv;
        }
        // Trailing fused evaluation: extends the trace and seeds the next
        // outer's first inner step.
        let smooth = objective.value_and_gradient(&theta, &mut grad);
        trace.push(smooth + gamma * x.l12_norm());
        if theta.relative_change(&theta_prev_outer) < tol {
            break;
        }
    }
    trace
}
