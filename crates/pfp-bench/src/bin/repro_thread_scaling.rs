//! Thread-scaling table for sample-sharded loss-and-gradient accumulation
//! (the README "Performance" section is generated from this output).
//!
//! ```text
//! cargo run -p pfp-bench --bin repro_thread_scaling --release -- --scale 0.1
//! ```
//!
//! For each thread count the binary times repeated full-cohort
//! `value_and_gradient` evaluations — the fused batched CSR path the solver
//! runs — and one short training run, and verifies that the sharded loss and
//! gradient match the serial ones to ≤ 1e-12 (the determinism contract of
//! `pfp_core::loss`).  Speedups are relative to the 1-thread row and are only
//! expected to exceed 1× on hardware that actually has that many cores.

use std::time::Instant;

use pfp_bench::{render_table, Args};
use pfp_core::loss::DmcpObjective;
use pfp_core::{train, Dataset, TrainConfig};
use pfp_ehr::generate_cohort;
use pfp_math::Matrix;
use pfp_optim::SmoothObjective;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const EVAL_REPS: usize = 50;

fn main() {
    let args = Args::parse();
    let cohort = generate_cohort(&args.cohort_config());
    let dataset = Dataset::from_cohort(&cohort);
    let kind = dataset.default_mcp_kind();
    let samples = dataset.featurize(kind);
    let rows = dataset.total_feature_dim();
    let cols = dataset.num_cus + dataset.num_durations;
    let theta = Matrix::from_fn(rows, cols, |r, k| 1e-3 * (r as f64) - 1e-2 * (k as f64));

    let mut quick = TrainConfig::fast();
    quick.max_outer_iters = 2;
    quick.max_inner_iters = 10;
    quick.seed = args.seed;

    println!(
        "Thread scaling — {} patients, {} samples, Θ ∈ R^{{{rows}×{cols}}}, \
         {} value+gradient reps, host parallelism = {}\n",
        cohort.patients.len(),
        samples.len(),
        EVAL_REPS,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let mut grad_serial = Matrix::zeros(rows, cols);
    let value_serial =
        DmcpObjective::new(&samples, None, rows, dataset.num_cus, dataset.num_durations)
            .value_and_gradient(&theta, &mut grad_serial);

    let mut eval_times = Vec::new();
    let mut train_times = Vec::new();
    let mut table_rows = Vec::new();
    for &threads in &THREAD_COUNTS {
        let objective =
            DmcpObjective::new(&samples, None, rows, dataset.num_cus, dataset.num_durations)
                .with_threads(threads);

        let mut grad = Matrix::zeros(rows, cols);
        let mut value = objective.value_and_gradient(&theta, &mut grad); // warm-up
        let start = Instant::now();
        for _ in 0..EVAL_REPS {
            value = objective.value_and_gradient(&theta, &mut grad);
        }
        let eval_secs = start.elapsed().as_secs_f64() / EVAL_REPS as f64;
        eval_times.push(eval_secs);

        let config = quick.with_threads(threads);
        let start = Instant::now();
        let model = train(&dataset, &config);
        let train_secs = start.elapsed().as_secs_f64();
        train_times.push(train_secs);
        assert!(model.theta.is_finite());

        let max_diff = grad.sub(&grad_serial).max_abs();
        assert!(
            max_diff <= 1e-12,
            "sharded gradient diverged from serial: {max_diff:e}"
        );
        let value_diff = (value - value_serial).abs();
        assert!(
            value_diff <= 1e-12,
            "sharded loss diverged from serial: {value_diff:e}"
        );
        table_rows.push(vec![
            threads.to_string(),
            format!("{:.2}", eval_secs * 1e3),
            format!("{:.2}x", eval_times[0] / eval_secs),
            format!("{:.2}", train_secs),
            format!("{:.2}x", train_times[0] / train_secs),
            format!("{max_diff:.1e}"),
        ]);
    }

    let header: Vec<String> = [
        "threads",
        "value+gradient (ms)",
        "speedup",
        "train 2 outer (s)",
        "train speedup",
        "max |Δgrad| vs serial",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    print!("{}", render_table(&header, &table_rows));
    println!("\nAll sharded losses and gradients match the serial path to ≤ 1e-12.");
}
