//! RPS-ramp load harness for the `pfp-serve` prediction service.
//!
//! ```text
//! cargo run --release -p pfp-bench --bin repro_serve_ramp -- \
//!     --initial-rps 200 --increment-rps 200 --target-rps 2000 --step-secs 2
//! ```
//!
//! Four things, in order:
//!
//! 1. **Correctness gate** — asserts that scoring a CSR block of
//!    `k ∈ {0, 1, 2, 7, 64}` requests through the trained model is bitwise
//!    identical to `k` independent single-request scorings (micro-batching
//!    must be invisible except as latency).
//! 2. **RPS ramp** — open-loop-ish load from `--clients` paced client
//!    threads, starting at `--initial-rps` and stepping by
//!    `--increment-rps` until `--target-rps` or saturation (a step is
//!    *sustained* when achieved throughput ≥ 95% of target with zero
//!    errors; the ramp stops at the first unsustained step).  Per step:
//!    p50/p99/max latency and achieved RPS.
//! 3. **Fault injection & recovery** — on a fresh 2-worker service: healthy
//!    requests, then kill both scoring workers and assert the supervisor
//!    heals the pool: after a bounded window of typed per-request errors the
//!    service returns to bitwise-correct answers at full pool strength.
//!    (The dedicated `repro_chaos` harness runs the full fault schedule;
//!    this is the ramp's smoke version.)
//! 4. **Machine-readable record** — everything above to `BENCH_serve.json`.
//!
//! Shared flags (`--scale`, `--seed`, `--fast`, `--threads`) come from
//! `pfp_bench::cli`; the ramp-specific flags are declared as extras through
//! the same parser, so typos are rejected either way.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pfp_bench::cli::{Args, ExtraArgs};
use pfp_bench::render_table;
use pfp_core::{Dataset, DmcpModel, TrainConfig};
use pfp_ehr::generate_cohort;
use pfp_math::{CsrMatrix, SparseVec};
use pfp_serve::{PredictionService, ServeConfig, ServeError};

/// Ramp-specific flags, layered over the shared [`Args`].
#[derive(Debug, Clone, PartialEq)]
struct RampArgs {
    base: Args,
    initial_rps: f64,
    increment_rps: f64,
    target_rps: f64,
    step_secs: f64,
    clients: usize,
    max_batch: usize,
    max_wait_us: u64,
}

const RAMP_VALUE_FLAGS: &[&str] = &[
    "--initial-rps",
    "--increment-rps",
    "--target-rps",
    "--step-secs",
    "--clients",
    "--max-batch",
    "--max-wait-us",
];

impl RampArgs {
    fn from_parsed(base: Args, extras: &ExtraArgs) -> Self {
        let out = RampArgs {
            base,
            initial_rps: extras.get_or("--initial-rps", 200.0),
            increment_rps: extras.get_or("--increment-rps", 200.0),
            target_rps: extras.get_or("--target-rps", 2000.0),
            step_secs: extras.get_or("--step-secs", 2.0),
            clients: extras.get_or("--clients", 4),
            max_batch: extras.get_or("--max-batch", 64),
            max_wait_us: extras.get_or(
                "--max-wait-us",
                ServeConfig::default().max_wait.as_micros() as u64,
            ),
        };
        assert!(out.initial_rps > 0.0, "--initial-rps must be positive");
        assert!(out.increment_rps > 0.0, "--increment-rps must be positive");
        assert!(
            out.target_rps >= out.initial_rps,
            "--target-rps must be at least --initial-rps"
        );
        assert!(out.step_secs > 0.0, "--step-secs must be positive");
        assert!(out.clients >= 1, "--clients must be at least 1");
        out
    }

    fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        let (base, extras) = Args::parse_from_with_extras(args, RAMP_VALUE_FLAGS, &[]);
        Self::from_parsed(base, &extras)
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            max_batch: self.max_batch,
            max_wait: Duration::from_micros(self.max_wait_us),
            threads: self.base.threads,
            ..ServeConfig::default()
        }
    }
}

/// `p`-th percentile (0–100) of already-collected latencies, in microseconds.
/// Nearest-rank on the sorted sample; 0 for an empty set.
fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// One ramp step's outcome.
struct StepResult {
    target_rps: f64,
    achieved_rps: f64,
    requests: usize,
    errors: usize,
    p50_us: u64,
    p99_us: u64,
    max_us: u64,
    sustained: bool,
}

/// Drive `args.clients` paced client threads at `rps` for `step_secs`.
fn run_step(
    service: &PredictionService,
    requests: &Arc<Vec<SparseVec>>,
    rps: f64,
    args: &RampArgs,
) -> StepResult {
    let clients = args.clients;
    let period = Duration::from_secs_f64(clients as f64 / rps);
    let errors = Arc::new(AtomicUsize::new(0));
    let step_start = Instant::now();
    let step_len = Duration::from_secs_f64(args.step_secs);
    let mut handles = Vec::with_capacity(clients);
    for client_id in 0..clients {
        let client = service.client();
        let requests = Arc::clone(requests);
        let errors = Arc::clone(&errors);
        handles.push(std::thread::spawn(move || {
            let mut latencies_us: Vec<u64> = Vec::new();
            let mut next_send = step_start;
            let mut i = client_id; // deskew which sample each client starts on
            while step_start.elapsed() < step_len {
                let now = Instant::now();
                if now < next_send {
                    std::thread::sleep(next_send - now);
                }
                next_send += period;
                let features = requests[i % requests.len()].clone();
                i += clients;
                let sent = Instant::now();
                match client.predict(features) {
                    Ok(_) => latencies_us.push(sent.elapsed().as_micros() as u64),
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            latencies_us
        }));
    }
    let mut latencies: Vec<u64> = Vec::new();
    for handle in handles {
        latencies.extend(handle.join().expect("load client thread panicked"));
    }
    let elapsed = step_start.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let errors = errors.load(Ordering::Relaxed);
    let ok = latencies.len();
    let achieved_rps = ok as f64 / elapsed;
    StepResult {
        target_rps: rps,
        achieved_rps,
        requests: ok + errors,
        errors,
        p50_us: percentile_us(&latencies, 50.0),
        p99_us: percentile_us(&latencies, 99.0),
        max_us: latencies.last().copied().unwrap_or(0),
        sustained: errors == 0 && achieved_rps >= 0.95 * rps,
    }
}

/// Bitwise gate: batched block scoring vs the per-sample walk, for the batch
/// sizes the micro-batcher actually produces (including the 0/1-row edges).
fn assert_batched_matches_single(model: &DmcpModel, requests: &[SparseVec]) {
    for k in [0usize, 1, 2, 7, 64] {
        let rows: Vec<&SparseVec> = (0..k).map(|i| &requests[i % requests.len()]).collect();
        let block = CsrMatrix::from_rows(model.num_features(), rows.iter().copied());
        let batched = model.probabilities_block(&block);
        assert_eq!(batched.len(), k);
        for (row, (bc, bd)) in rows.iter().zip(batched.iter()) {
            let (sc, sd) = model.probabilities(row);
            let exact = sc
                .iter()
                .zip(bc.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits())
                && sd
                    .iter()
                    .zip(bd.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                exact,
                "batched scoring diverged from single-request at k={k}"
            );
        }
    }
}

fn main() {
    let args = RampArgs::parse_from(std::env::args().skip(1));
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());

    // --- Model: train fast on a small synthetic cohort. ---
    let cohort = generate_cohort(&args.base.cohort_config());
    let dataset = Dataset::from_cohort(&cohort);
    let kind = dataset.default_mcp_kind();
    let samples = dataset.featurize(kind);
    assert!(!samples.is_empty(), "cohort produced no serving requests");
    let mut train_config = TrainConfig::fast();
    train_config.seed = args.base.seed;
    train_config.threads = args.base.threads;
    let model = DmcpModel::train(&dataset, &train_config);
    let features = model.num_features();
    let outputs = model.num_cus + model.num_durations;
    let requests: Arc<Vec<SparseVec>> =
        Arc::new(samples.iter().map(|s| s.features.clone()).collect());

    println!(
        "Serve ramp — {} patients, {} distinct requests, Θ ∈ R^{{{features}×{outputs}}}, \
         serve threads = {}, clients = {}, max_batch = {}, max_wait = {}µs, \
         host parallelism = {available}\n",
        cohort.patients.len(),
        requests.len(),
        args.base.threads,
        args.clients,
        args.max_batch,
        args.max_wait_us,
    );

    // --- 1. Correctness gate. ---
    assert_batched_matches_single(&model, &requests);
    println!("Correctness: batched CSR scoring == single-request scoring bitwise (k ∈ {{0,1,2,7,64}}).\n");

    // --- 2. RPS ramp with saturation search. ---
    let service = PredictionService::start(model.clone(), args.serve_config());
    let mut steps: Vec<StepResult> = Vec::new();
    let mut rps = args.initial_rps;
    loop {
        let step = run_step(&service, &requests, rps, &args);
        let sustained = step.sustained;
        steps.push(step);
        if !sustained || rps >= args.target_rps {
            break;
        }
        rps = (rps + args.increment_rps).min(args.target_rps);
    }
    service.shutdown();

    let best = steps.iter().rev().find(|s| s.sustained);
    let max_sustained_rps = best.map_or(0.0, |s| s.target_rps);
    let (best_p50, best_p99) = best.map_or((0, 0), |s| (s.p50_us, s.p99_us));

    let header: Vec<String> = [
        "target rps",
        "achieved rps",
        "requests",
        "errors",
        "p50 (µs)",
        "p99 (µs)",
        "max (µs)",
        "sustained",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let table: Vec<Vec<String>> = steps
        .iter()
        .map(|s| {
            vec![
                format!("{:.0}", s.target_rps),
                format!("{:.0}", s.achieved_rps),
                s.requests.to_string(),
                s.errors.to_string(),
                s.p50_us.to_string(),
                s.p99_us.to_string(),
                s.max_us.to_string(),
                if s.sustained { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    println!(
        "Ramp ({} clients, step {}s):\n",
        args.clients, args.step_secs
    );
    print!("{}", render_table(&header, &table));
    println!("\nMax sustained: {max_sustained_rps:.0} rps (p50 {best_p50}µs, p99 {best_p99}µs).\n");

    // --- 3. Fault injection: worker death must heal, not degrade forever. ---
    let fault_service = PredictionService::start(
        model.clone(),
        ServeConfig {
            threads: 2,
            ..args.serve_config()
        },
    );
    let fault_client = fault_service.client();
    let mut pre_kill_ok = 0usize;
    for i in 0..25 {
        if fault_client
            .predict(requests[i % requests.len()].clone())
            .is_ok()
        {
            pre_kill_ok += 1;
        }
    }
    assert_eq!(pre_kill_ok, 25, "healthy service must answer every request");
    // Kill both scoring workers.  The poison jobs are queued ahead of any
    // later scoring job, so the next batch fails with a typed pool error —
    // and then the supervisor respawns the workers, so within a bounded
    // error window the service is answering (bitwise-correctly) again.
    fault_service.inject_worker_failure();
    fault_service.inject_worker_failure();
    let mut recovery_errors = 0usize;
    let mut recovered = false;
    for i in 0..500 {
        match fault_client.predict(requests[i % requests.len()].clone()) {
            Ok(_) => {
                recovered = true;
                break;
            }
            Err(ServeError::Pool(_)) => recovery_errors += 1,
            Err(other) => panic!("expected a pool error while healing, got {other:?}"),
        }
    }
    assert!(
        recovered,
        "service never recovered after kill-all ({recovery_errors} errors)"
    );
    // The first Ok can arrive while the second respawn is still in a backoff
    // window (a single respawned worker covers the whole batch), so drive
    // batches until the pool is back to full strength before the strict
    // bitwise phase below.
    for _ in 0..500 {
        if fault_service.health().is_full() {
            break;
        }
        let _ = fault_client.predict(requests[0].clone());
    }
    // Post-recovery answers are the DMCP model's, bitwise.
    let mut post_recovery_ok = 0usize;
    for i in 0..25 {
        let features = requests[i % requests.len()].clone();
        let expected = model.probabilities(&features);
        let prediction = fault_client
            .predict(features)
            .expect("post-recovery request failed");
        assert_eq!(
            prediction.cu_probs, expected.0,
            "wrong answer post-recovery"
        );
        assert_eq!(prediction.duration_probs, expected.1);
        assert!(!prediction.degraded);
        post_recovery_ok += 1;
    }
    let health = fault_service.health();
    assert!(
        health.is_full(),
        "pool not back to full strength: {health:?}"
    );
    fault_service.shutdown();
    println!(
        "Fault injection: 25/25 healthy answers, then both workers killed → \
         {recovery_errors} typed errors while the supervisor healed, then \
         {post_recovery_ok}/25 bitwise-correct answers at full pool strength.\n"
    );

    // --- 4. Machine-readable record. ---
    let steps_json: Vec<String> = steps
        .iter()
        .map(|s| {
            format!(
                "    {{\"target_rps\": {:.1}, \"achieved_rps\": {:.1}, \"requests\": {}, \
                 \"errors\": {}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}, \
                 \"sustained\": {}}}",
                s.target_rps,
                s.achieved_rps,
                s.requests,
                s.errors,
                s.p50_us,
                s.p99_us,
                s.max_us,
                s.sustained
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"serve_ramp\",\n  \"patients\": {},\n  \
         \"distinct_requests\": {},\n  \"features\": {features},\n  \
         \"outputs\": {outputs},\n  \"threads\": {},\n  \"clients\": {},\n  \
         \"max_batch\": {},\n  \"max_wait_us\": {},\n  \
         \"available_parallelism\": {available},\n  \
         \"batched_matches_single_bitwise\": true,\n  \
         \"steps\": [\n{}\n  ],\n  \
         \"max_sustained_rps\": {max_sustained_rps:.1},\n  \
         \"p50_us\": {best_p50},\n  \"p99_us\": {best_p99},\n  \
         \"fault_injection\": {{\"pre_kill_ok\": {pre_kill_ok}, \
         \"recovery_error_window\": {recovery_errors}, \"recovered\": {recovered}, \
         \"post_recovery_ok\": {post_recovery_ok}, \"service_survived\": true}}\n}}\n",
        cohort.patients.len(),
        requests.len(),
        args.base.threads,
        args.clients,
        args.max_batch,
        args.max_wait_us,
        steps_json.join(",\n"),
    );
    std::fs::write("BENCH_serve.json", &json).expect("failed to write BENCH_serve.json");
    println!("Wrote BENCH_serve.json.");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_apply_with_no_arguments() {
        let a = RampArgs::parse_from(strings(&[]));
        assert_eq!(a.base, Args::default());
        assert_eq!(a.initial_rps, 200.0);
        assert_eq!(a.target_rps, 2000.0);
        assert_eq!(a.clients, 4);
        assert_eq!(a.max_batch, 64);
        // The harness measures the shipping batcher config unless told not to.
        assert_eq!(a.serve_config().max_wait, ServeConfig::default().max_wait);
    }

    #[test]
    fn ramp_flags_are_parsed_through_the_shared_parser() {
        let a = RampArgs::parse_from(strings(&[
            "--initial-rps",
            "50",
            "--increment-rps",
            "25",
            "--target-rps",
            "100",
            "--step-secs",
            "0.5",
            "--clients",
            "2",
            "--max-batch",
            "8",
            "--max-wait-us",
            "100",
            "--threads",
            "2",
            "--scale",
            "0.01",
            "--seed",
            "3",
        ]));
        assert_eq!(a.initial_rps, 50.0);
        assert_eq!(a.increment_rps, 25.0);
        assert_eq!(a.target_rps, 100.0);
        assert_eq!(a.step_secs, 0.5);
        assert_eq!(a.clients, 2);
        assert_eq!(a.max_batch, 8);
        assert_eq!(a.max_wait_us, 100);
        assert_eq!(a.base.threads, 2);
        assert_eq!(a.base.seed, 3);
        assert!((a.base.scale - 0.01).abs() < 1e-12);
        assert_eq!(a.serve_config().max_wait, Duration::from_micros(100));
        assert_eq!(a.serve_config().threads, 2);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_flags_are_rejected() {
        let _ = RampArgs::parse_from(strings(&["--bogus"]));
    }

    #[test]
    fn percentiles_are_nearest_rank_with_empty_guard() {
        assert_eq!(percentile_us(&[], 50.0), 0);
        assert_eq!(percentile_us(&[10], 50.0), 10);
        assert_eq!(percentile_us(&[10], 99.0), 10);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&v, 50.0), 51);
        assert_eq!(percentile_us(&v, 99.0), 99);
        assert_eq!(percentile_us(&v, 100.0), 100);
        assert_eq!(percentile_us(&v, 0.0), 1);
    }
}
