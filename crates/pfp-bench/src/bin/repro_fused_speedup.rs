//! Fused-evaluation + time-to-tolerance proof for the ADMM solver.
//!
//! ```text
//! cargo run --release -p pfp-bench --bin repro_fused_speedup -- --scale 0.1 --threads 4
//! ```
//!
//! Four things, in order:
//!
//! 1. **Equivalence** — asserts that the objective's `value`, `gradient` and
//!    fused `value_and_gradient` (one batched fold over the cohort CSR) match
//!    the per-sample oracle `per_sample_value_and_gradient` bitwise in
//!    serial, and to ≤ 1e-12 pooled.
//! 2. **Convergence (before/after)** — runs the legacy fixed-budget solver
//!    and the adaptive time-to-tolerance solver (adaptive ρ, over-relaxation
//!    and the accelerated line-search Θ-update) on the same cohort, printing
//!    a convergence table: outer/inner iterations, total objective passes,
//!    passes-to-reach-the-fixed-budget-objective, solve seconds, final
//!    objective and gap.  **Asserts** the adaptive solve reaches the
//!    fixed-budget final objective (within 1e-6) with strictly fewer passes —
//!    the CI regression gate — and with ≥ 2× fewer passes-to-tolerance on
//!    non-`--fast` runs.
//! 3. **Timings** — the batched fold, serial and pooled, against the
//!    per-sample oracle.
//! 4. **Machine-readable record** — everything above plus the requested
//!    thread count, the host's `available_parallelism` and the CSR kernel
//!    instantiation that ran (`pfp_math::csr::kernel_path`) goes to
//!    `BENCH_admm.json`, so pooled-slower-than-serial numbers from a 1-core
//!    host, or portable-kernel numbers, are attributable from the JSON alone.

use std::time::Instant;

use pfp_bench::{render_table, Args, CountingObjective};
use pfp_core::loss::{per_sample_value_and_gradient, DmcpObjective};
use pfp_core::{Dataset, SolverMode};
use pfp_ehr::generate_cohort;
use pfp_math::Matrix;
use pfp_optim::admm::{solve_group_lasso, AdmmResult, SmoothObjective};
use pfp_optim::gd::minimize_vector;
use pfp_optim::LearningRate;

fn time<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f(); // warm-up
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// Objective passes the adaptive solve needed before its trace first reached
/// `target` (1 initial evaluation + the per-outer evaluation counts).
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

fn main() {
    let args = Args::parse();
    let cohort = generate_cohort(&args.cohort_config());
    let dataset = Dataset::from_cohort(&cohort);
    let kind = dataset.default_mcp_kind();
    let samples = dataset.featurize(kind);
    let rows = dataset.total_feature_dim();
    let cols = dataset.num_cus + dataset.num_durations;
    let theta = Matrix::from_fn(rows, cols, |r, k| 1e-3 * (r as f64) - 1e-2 * (k as f64));
    let pooled_threads = args.resolved_threads();
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel_path = pfp_math::csr::kernel_path();
    let reps = if args.fast { 3 } else { 10 };

    println!(
        "ADMM solver benchmark — {} patients, {} samples, Θ ∈ R^{{{rows}×{cols}}}, \
         pool = {pooled_threads} workers, host parallelism = {available}, \
         CSR kernels = {kernel_path}\n",
        cohort.patients.len(),
        samples.len(),
    );

    // --- 1. Equivalence: the batched fold must match the per-sample oracle. ---
    let oracle = |grad: &mut Matrix| {
        per_sample_value_and_gradient(
            &samples,
            None,
            dataset.num_cus,
            dataset.num_durations,
            &theta,
            grad,
        )
    };
    let mut grad_oracle = Matrix::zeros(rows, cols);
    let value_oracle = oracle(&mut grad_oracle);
    let serial = DmcpObjective::new(&samples, None, rows, dataset.num_cus, dataset.num_durations);
    let mut grad_fused = Matrix::zeros(rows, cols);
    let value_fused = serial.value_and_gradient(&theta, &mut grad_fused);
    assert_eq!(
        grad_fused, grad_oracle,
        "batched CSR gradient must match the per-sample oracle bitwise"
    );
    assert_eq!(value_fused.to_bits(), value_oracle.to_bits());
    let mut grad_only = Matrix::zeros(rows, cols);
    serial.gradient(&theta, &mut grad_only);
    assert_eq!(
        grad_only, grad_oracle,
        "gradient() must match the oracle bitwise"
    );
    assert_eq!(
        serial.value(&theta).to_bits(),
        value_oracle.to_bits(),
        "value() must match the oracle bitwise"
    );
    let pooled = DmcpObjective::new(&samples, None, rows, dataset.num_cus, dataset.num_durations)
        .with_threads(pooled_threads);
    let mut grad_pooled = Matrix::zeros(rows, cols);
    let value_pooled = pooled.value_and_gradient(&theta, &mut grad_pooled);
    let pooled_grad_diff = grad_pooled.sub(&grad_fused).max_abs();
    let pooled_value_diff = (value_pooled - value_fused).abs();
    assert!(
        pooled_grad_diff <= 1e-12 && pooled_value_diff <= 1e-12,
        "pooled fused evaluation diverged: grad {pooled_grad_diff:e}, value {pooled_value_diff:e}"
    );
    println!(
        "Equivalence: value, gradient and fused == per-sample oracle bitwise (serial); \
         pooled fused within {pooled_grad_diff:.1e} of serial.\n"
    );

    // --- 2. Convergence: fixed-budget baseline vs adaptive to-tolerance. ---
    let base_config = args.train_config();
    let fixed_config = base_config.with_solver(SolverMode::FixedBudget);
    let theta0 = Matrix::zeros(rows, cols);

    let fixed_counting = CountingObjective::new(
        DmcpObjective::new(&samples, None, rows, dataset.num_cus, dataset.num_durations)
            .with_threads(pooled_threads),
    );
    let start = Instant::now();
    let fixed = solve_group_lasso(&fixed_counting, theta0.clone(), &fixed_config.admm_config());
    let fixed_secs = start.elapsed().as_secs_f64();
    assert!(fixed.theta.is_finite());
    assert_eq!(
        fixed_counting.value_calls(),
        0,
        "the solver must never evaluate the value alone"
    );
    let fixed_passes = fixed_counting.passes();
    assert_eq!(
        fixed_passes, fixed.evaluations,
        "driver accounting must match the observed calls"
    );
    let fixed_final = *fixed.objective_trace.last().unwrap();

    let adaptive_counting = CountingObjective::new(
        DmcpObjective::new(&samples, None, rows, dataset.num_cus, dataset.num_durations)
            .with_threads(pooled_threads),
    );
    let start = Instant::now();
    let adaptive = solve_group_lasso(&adaptive_counting, theta0, &base_config.admm_config());
    let adaptive_secs = start.elapsed().as_secs_f64();
    assert!(adaptive.theta.is_finite());
    assert_eq!(
        adaptive_counting.value_calls() + adaptive_counting.gradient_calls(),
        0,
        "the accelerated path must go through the fused entry point only"
    );
    let adaptive_passes = adaptive_counting.passes();
    assert_eq!(adaptive_passes, adaptive.evaluations);
    let adaptive_final = *adaptive.objective_trace.last().unwrap();

    let gap = adaptive_final - fixed_final;
    let target = fixed_final + 1e-6;
    assert!(
        adaptive_final <= target,
        "adaptive solve must reach the fixed-budget objective: {adaptive_final} vs {fixed_final}"
    );
    let passes_to_tolerance =
        passes_to_reach(&adaptive, target).expect("trace reached the target objective");
    // CI regression gate: the adaptive solver may never pay more passes than
    // the fixed-budget baseline it replaces.
    assert!(
        adaptive_passes < fixed_passes,
        "adaptive passes {adaptive_passes} must stay below fixed-budget {fixed_passes}"
    );
    let passes_ratio = fixed_passes as f64 / passes_to_tolerance as f64;
    if !args.fast {
        assert!(
            passes_ratio >= 2.0,
            "adaptive solver must reach the fixed-budget objective with ≥2× fewer passes \
             (got {passes_ratio:.2}×: {fixed_passes} vs {passes_to_tolerance})"
        );
    }

    let header: Vec<String> = ["quantity", "fixed budget", "adaptive"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let table = vec![
        vec![
            "outer iterations".to_string(),
            fixed.outer_iterations.to_string(),
            format!(
                "{} ({})",
                adaptive.outer_iterations,
                if adaptive.converged {
                    "converged"
                } else {
                    "cap"
                }
            ),
        ],
        vec![
            "inner steps".to_string(),
            fixed.inner_iterations.to_string(),
            adaptive.inner_iterations.to_string(),
        ],
        vec![
            "objective passes / solve".to_string(),
            fixed_passes.to_string(),
            adaptive_passes.to_string(),
        ],
        vec![
            "passes to fixed-budget objective".to_string(),
            fixed_passes.to_string(),
            format!("{passes_to_tolerance} ({passes_ratio:.1}× fewer)"),
        ],
        vec![
            "solve seconds".to_string(),
            format!("{fixed_secs:.2}"),
            format!("{adaptive_secs:.2}"),
        ],
        vec![
            "final objective".to_string(),
            format!("{fixed_final:.6}"),
            format!("{adaptive_final:.6} (gap {gap:+.2e})"),
        ],
        vec![
            "final rho".to_string(),
            format!("{:.3}", fixed.final_rho),
            format!("{:.3}", adaptive.final_rho),
        ],
    ];
    println!("Convergence (before/after):\n");
    print!("{}", render_table(&header, &table));

    // Plain GD (`minimize_vector`): one fused call per iteration plus start,
    // where the pre-fusion loop made two calls per iteration, each computing
    // both halves (~4 per-sample passes per iteration).
    let mut gd_calls = 0usize;
    let gd = minimize_vector(
        vec![4.0; 8],
        |x| {
            gd_calls += 1;
            let value: f64 = x.iter().map(|v| v * v).sum();
            (value, x.iter().map(|v| 2.0 * v).collect())
        },
        LearningRate::Constant(0.1),
        25,
        0.0,
    );
    assert_eq!(gd_calls, gd.iterations + 1);

    // --- 3. Timings: the batched fold, serial and pooled, vs the oracle. ---
    let mut grad = Matrix::zeros(rows, cols);
    let oracle_serial = time(reps, || {
        std::hint::black_box(oracle(&mut grad));
    });
    let fused_serial = time(reps, || {
        std::hint::black_box(serial.value_and_gradient(&theta, &mut grad));
    });
    let fused_pooled = time(reps, || {
        std::hint::black_box(pooled.value_and_gradient(&theta, &mut grad));
    });
    let header: Vec<String> = [
        "path",
        "value+gradient (ms)",
        "speedup vs per-sample oracle",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let timing_rows: Vec<Vec<String>> = [
        ("per-sample oracle serial", oracle_serial),
        ("fused batched CSR serial", fused_serial),
        ("fused batched CSR pooled", fused_pooled),
    ]
    .iter()
    .map(|(label, secs)| {
        vec![
            label.to_string(),
            format!("{:.2}", secs * 1e3),
            format!("{:.2}x", oracle_serial / secs),
        ]
    })
    .collect();
    println!();
    print!("{}", render_table(&header, &timing_rows));

    // --- 4. Machine-readable record. ---
    let json = format!(
        "{{\n  \"bench\": \"admm_inner\",\n  \"patients\": {},\n  \"samples\": {},\n  \
         \"features\": {rows},\n  \"outputs\": {cols},\n  \
         \"pooled_threads\": {pooled_threads},\n  \
         \"available_parallelism\": {available},\n  \
         \"kernel_path\": \"{kernel_path}\",\n  \
         \"matches_per_sample_oracle_bitwise_serial\": true,\n  \
         \"pooled_max_abs_grad_diff\": {pooled_grad_diff:e},\n  \
         \"eval_ms\": {{\"per_sample_oracle_serial\": {:.4}, \
         \"fused_batched_serial\": {:.4}, \"fused_batched_pooled\": {:.4}}},\n  \
         \"convergence\": {{\n    \
         \"fixed_budget\": {{\"outer_iterations\": {}, \"inner_iterations\": {}, \
         \"passes\": {fixed_passes}, \"solve_seconds\": {fixed_secs:.4}, \
         \"final_objective\": {fixed_final:.9}, \"final_rho\": {:.6}}},\n    \
         \"adaptive\": {{\"outer_iterations\": {}, \"inner_iterations\": {}, \
         \"passes\": {adaptive_passes}, \"passes_to_tolerance\": {passes_to_tolerance}, \
         \"solve_seconds\": {adaptive_secs:.4}, \"final_objective\": {adaptive_final:.9}, \
         \"final_rho\": {:.6}, \"converged\": {}}},\n    \
         \"objective_gap\": {gap:.3e},\n    \"passes_ratio\": {passes_ratio:.4}\n  }}\n}}\n",
        cohort.patients.len(),
        samples.len(),
        oracle_serial * 1e3,
        fused_serial * 1e3,
        fused_pooled * 1e3,
        fixed.outer_iterations,
        fixed.inner_iterations,
        fixed.final_rho,
        adaptive.outer_iterations,
        adaptive.inner_iterations,
        adaptive.final_rho,
        adaptive.converged,
    );
    std::fs::write("BENCH_admm.json", &json).expect("failed to write BENCH_admm.json");
    println!("\nWrote BENCH_admm.json.");
}
