//! The value-first evaluation contract: `value_then_gradient` scatters a
//! gradient only for accepted line-search trials, and changes no bit.
//!
//! * Per evaluation: for the materialized, sharded and streamed sources at 1
//!   and 3 threads, over random Θ and both `accept` outcomes, the value (and
//!   the one value handed to `accept`) is bitwise `value_and_gradient`'s,
//!   and an accepted trial's gradient is bitwise the fused gradient.
//! * Per solve: ADMM through a wrapper that hides the override, so every
//!   trial takes the trait's fused default, retraces the deferred solve
//!   bitwise, serially and pooled.
//! * The number of rejected trials of the default solve is pinned to
//!   literals and cross-checked against an exact counting wrapper.

use std::sync::OnceLock;

use proptest::prelude::*;

use patient_flow::core::imbalance::sample_weights;
use patient_flow::core::loss::DmcpObjective;
use patient_flow::core::stream::{ShardedDmcpObjective, ShardedSamples, StreamingDmcpObjective};
use patient_flow::core::{initial_theta, Dataset, Sample, TrainConfig};
use patient_flow::ehr::{generate_cohort, CohortConfig};
use patient_flow::math::Matrix;
use patient_flow::optim::admm::{solve_group_lasso, AdmmResult};
use patient_flow::optim::SmoothObjective;
use pfp_bench::CountingObjective;

struct Fixture {
    cohort: CohortConfig,
    dataset: Dataset,
    samples: Vec<Sample>,
    weights: Vec<f64>,
    sharded: ShardedSamples,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let cohort = CohortConfig::tiny(7);
        let dataset = Dataset::from_cohort(&generate_cohort(&cohort));
        let samples = dataset.featurize(dataset.default_mcp_kind());
        let weights = sample_weights(&samples, dataset.num_cus, dataset.num_durations);
        // Seven samples per shard: every chunk spans several segments, so the
        // kept residual rows are written and read at segment offsets.
        let sharded = ShardedSamples::from_samples(
            &samples,
            7,
            dataset.profile_dim,
            dataset.service_dim,
            dataset.num_cus,
            dataset.num_durations,
        );
        Fixture {
            cohort,
            dataset,
            samples,
            weights,
            sharded,
        }
    })
}

/// A seeded uniform draw in `±scale` per entry (SplitMix64).
fn random_theta(rows: usize, cols: usize, seed: u64, scale: f64) -> Matrix {
    let mut state = seed;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        scale * (2.0 * (z >> 11) as f64 / (1u64 << 53) as f64 - 1.0)
    })
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `value_then_gradient` against `value_and_gradient` at `theta`, for both
/// `accept` outcomes, starting each call from a poisoned gradient buffer.
fn check_value_first<O: SmoothObjective>(
    objective: &O,
    theta: &Matrix,
) -> Result<(), TestCaseError> {
    let (rows, cols) = objective.shape();
    let mut fused = Matrix::zeros(rows, cols);
    let value = objective.value_and_gradient(theta, &mut fused);
    prop_assert_eq!(objective.value(theta).to_bits(), value.to_bits());
    for accept in [false, true] {
        let mut grad = Matrix::from_fn(rows, cols, |_, _| f64::NAN);
        let mut offered = Vec::new();
        let (got, accepted) = objective.value_then_gradient(theta, &mut grad, &mut |v| {
            offered.push(v.to_bits());
            accept
        });
        prop_assert_eq!(got.to_bits(), value.to_bits());
        prop_assert_eq!(offered, vec![value.to_bits()]);
        prop_assert_eq!(accepted, accept);
        if accepted {
            prop_assert_eq!(bits(&grad), bits(&fused));
        }
    }
    Ok(())
}

proptest! {
    /// Every source, at 1 and 3 threads, weighted or not (the streamed source
    /// takes no weights): the value-first evaluation is bitwise the fused one.
    #[test]
    fn value_first_evaluation_matches_the_fused_one_bitwise(
        source in 0usize..3,
        threads_idx in 0usize..2,
        weighted in 0usize..2,
        seed in 0u64..1_000_000,
        scale in 0.001f64..3.0,
    ) {
        let f = fixture();
        let threads = [1usize, 3][threads_idx];
        let weights = (weighted == 1).then_some(&f.weights[..]);
        let (rows, cols) = (
            f.dataset.total_feature_dim(),
            f.dataset.num_cus + f.dataset.num_durations,
        );
        let theta = random_theta(rows, cols, seed, scale);
        match source {
            0 => check_value_first(
                &DmcpObjective::new(
                    &f.samples,
                    weights,
                    rows,
                    f.dataset.num_cus,
                    f.dataset.num_durations,
                )
                .with_threads(threads),
                &theta,
            )?,
            1 => check_value_first(
                &ShardedDmcpObjective::new(&f.sharded, weights).with_threads(threads),
                &theta,
            )?,
            _ => check_value_first(
                &StreamingDmcpObjective::new(&f.cohort, None, 32).with_threads(threads),
                &theta,
            )?,
        }
    }
}

/// Forwards everything but `value_then_gradient`, so the solver's trials
/// take the trait's default: the fused evaluation, then `accept`.
struct FusedOnly<'a, O>(&'a O);

impl<O: SmoothObjective> SmoothObjective for FusedOnly<'_, O> {
    fn value(&self, theta: &Matrix) -> f64 {
        self.0.value(theta)
    }
    fn gradient(&self, theta: &Matrix, grad: &mut Matrix) {
        self.0.gradient(theta, grad)
    }
    fn value_and_gradient(&self, theta: &Matrix, grad: &mut Matrix) -> f64 {
        self.0.value_and_gradient(theta, grad)
    }
    fn shape(&self) -> (usize, usize) {
        self.0.shape()
    }
    fn row_curvature_bounds(&self) -> Option<Vec<f64>> {
        self.0.row_curvature_bounds()
    }
}

fn assert_same_solve(deferred: &AdmmResult, fused: &AdmmResult, what: &str) {
    assert_eq!(bits(&deferred.theta), bits(&fused.theta), "{what}: Θ");
    assert_eq!(bits(&deferred.x), bits(&fused.x), "{what}: X");
    assert_eq!(bits(&deferred.y), bits(&fused.y), "{what}: Y");
    let trace =
        |r: &AdmmResult| -> Vec<u64> { r.objective_trace.iter().map(|v| v.to_bits()).collect() };
    assert_eq!(trace(deferred), trace(fused), "{what}: trace");
    assert_eq!(
        deferred.evaluations, fused.evaluations,
        "{what}: evaluations"
    );
    assert_eq!(
        deferred.evaluations_by_outer, fused.evaluations_by_outer,
        "{what}"
    );
    assert_eq!(deferred.trials_rejected, fused.trials_rejected, "{what}");
    assert_eq!(deferred.inner_iterations, fused.inner_iterations, "{what}");
    assert_eq!(
        deferred.final_rho.to_bits(),
        fused.final_rho.to_bits(),
        "{what}"
    );
    assert_eq!(
        deferred.final_step.to_bits(),
        fused.final_step.to_bits(),
        "{what}"
    );
}

/// A whole ADMM solve with deferred trials retraces the all-fused solve
/// bitwise on the materialized and the sharded source, serially and pooled.
#[test]
fn deferred_solve_retraces_the_fused_solve_bitwise() {
    let f = fixture();
    let (rows, cols) = (
        f.dataset.total_feature_dim(),
        f.dataset.num_cus + f.dataset.num_durations,
    );
    let config = TrainConfig::fast();
    let admm = config.admm_config();
    for threads in [1usize, 3] {
        let materialized = DmcpObjective::new(
            &f.samples,
            None,
            rows,
            f.dataset.num_cus,
            f.dataset.num_durations,
        )
        .with_threads(threads);
        let sharded = ShardedDmcpObjective::new(&f.sharded, None).with_threads(threads);
        let theta0 = initial_theta(rows, cols, &config);
        let deferred = solve_group_lasso(&materialized, theta0.clone(), &admm);
        assert!(
            deferred.trials_rejected > 0,
            "the fixture must reject some trials"
        );
        let fused = solve_group_lasso(&FusedOnly(&materialized), theta0.clone(), &admm);
        assert_same_solve(
            &deferred,
            &fused,
            &format!("materialized, {threads} threads"),
        );
        let deferred_sharded = solve_group_lasso(&sharded, theta0.clone(), &admm);
        let fused_sharded = solve_group_lasso(&FusedOnly(&sharded), theta0, &admm);
        assert_same_solve(
            &deferred_sharded,
            &fused_sharded,
            &format!("sharded, {threads} threads"),
        );
        assert_same_solve(
            &deferred_sharded,
            &deferred,
            &format!("sharded vs materialized, {threads} threads"),
        );
    }
}

/// Rejected trials of the default serial solves on `tiny(42)` — the
/// `fast()` and `paper_default()` cold trains of
/// `admm_convergence::default_solver_trajectory_is_pinned` — pinned to
/// literals, and equal to what an exact counting wrapper observed.
#[test]
fn rejected_trial_count_is_pinned() {
    let dataset = Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(42)));
    let samples = dataset.featurize(dataset.default_mcp_kind());
    let (rows, cols) = (
        dataset.total_feature_dim(),
        dataset.num_cus + dataset.num_durations,
    );
    // (evaluations, rejected trials)
    let pinned = [
        ("cold fast", TrainConfig::fast(), (91, 17)),
        ("cold paper", TrainConfig::paper_default(), (271, 52)),
    ];
    for (name, config, expected) in pinned {
        let counting = CountingObjective::new(DmcpObjective::new(
            &samples,
            None,
            rows,
            dataset.num_cus,
            dataset.num_durations,
        ));
        let result = solve_group_lasso(
            &counting,
            initial_theta(rows, cols, &config),
            &config.admm_config(),
        );
        assert_eq!(
            (result.evaluations, result.trials_rejected),
            expected,
            "{name}"
        );
        assert_eq!(counting.passes(), result.evaluations, "{name}");
        assert_eq!(
            counting.deferred_calls() - counting.accepted_calls(),
            result.trials_rejected,
            "{name}"
        );
        assert_eq!(
            counting.value_calls() + counting.gradient_calls(),
            0,
            "{name}"
        );
    }
}
