//! Chaos harness for the self-healing `pfp-serve` stack: drive a seeded
//! fault schedule against a live service under load and *prove* recovery.
//!
//! ```text
//! cargo run --release -p pfp-bench --bin repro_chaos -- \
//!     --rps 400 --clients 4 --phase-secs 1.5 --serve-threads 2
//! ```
//!
//! Phases, in order (the schedule's randomness — storm-kill spacing — is
//! drawn from `pfp_math::rng::seeded_rng`, so a given `--seed` replays the
//! same schedule):
//!
//! 1. **baseline** — paced load, no faults; records the pre-fault p50.
//! 2. **kill_one** — one scoring worker killed mid-load; the supervisor
//!    respawns it.
//! 3. **kill_all_storm** — repeated kill-all rounds at seeded intervals, so
//!    respawned workers keep dying: exercises backoff growth and (with the
//!    Markov fallback configured) degraded-mode answers.
//! 4. **kill_during_batch** — a pipelined submission burst with kills
//!    injected between submissions, landing poison inside an assembling
//!    batch.
//! 5. **overload_burst** — a separate tiny-queue service whose (deliberately
//!    slow) fallback pins the dispatcher, so a tight submission burst
//!    deterministically overflows the bounded queue: proves admission
//!    control sheds with `Overloaded` instead of queueing unboundedly.
//! 6. **deadline_storm** — a burst of zero-budget requests: proves deadline
//!    enforcement fails fast with `DeadlineExceeded`.
//! 7. **post_recovery** — paced load again; p50 must be within 20% of the
//!    baseline (plus a small absolute slack for CI timer noise).
//!
//! After every fault phase the harness polls until the service answers
//! bitwise-correctly at full pool strength (bounded by
//! `--recovery-timeout-secs`), recording the time-to-recovery.
//!
//! Invariants asserted (and recorded in `BENCH_chaos.json` for CI gating):
//! the process never dies (`process_restarts == 0` — no client ever sees
//! `ShutDown` while the service is up), every fault phase recovers
//! (`recovered == true`), zero wrong answers (every non-degraded `Ok`
//! bitwise-matches `model.probabilities`), and post-recovery p50 is within
//! the 20% band.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pfp_baselines::{MarkovFallback, MarkovPredictor};
use pfp_bench::cli::{Args, ExtraArgs};
use pfp_bench::render_table;
use pfp_core::{Dataset, DmcpModel, TrainConfig};
use pfp_ehr::generate_cohort;
use pfp_math::rng::{sample_categorical, seeded_rng};
use pfp_math::supervise::BackoffConfig;
use pfp_math::SparseVec;
use pfp_serve::{FallbackPredictor, PendingPrediction, PredictionService, ServeConfig, ServeError};

/// Chaos-specific flags, layered over the shared [`Args`].  `--threads` (the
/// shared flag) controls *training* threads; `--serve-threads` sizes the
/// service's scoring pool (its width is what the faults target).
#[derive(Debug, Clone, PartialEq)]
struct ChaosArgs {
    base: Args,
    rps: f64,
    clients: usize,
    phase_secs: f64,
    serve_threads: usize,
    max_batch: usize,
    max_wait_us: u64,
    queue_capacity: usize,
    backoff_base_ms: u64,
    backoff_max_ms: u64,
    recovery_timeout_secs: f64,
}

const CHAOS_VALUE_FLAGS: &[&str] = &[
    "--rps",
    "--clients",
    "--phase-secs",
    "--serve-threads",
    "--max-batch",
    "--max-wait-us",
    "--queue-capacity",
    "--backoff-base-ms",
    "--backoff-max-ms",
    "--recovery-timeout-secs",
];

impl ChaosArgs {
    fn from_parsed(base: Args, extras: &ExtraArgs) -> Self {
        let out = ChaosArgs {
            base,
            rps: extras.get_or("--rps", 400.0),
            clients: extras.get_or("--clients", 4),
            phase_secs: extras.get_or("--phase-secs", 1.5),
            serve_threads: extras.get_or("--serve-threads", 2),
            max_batch: extras.get_or("--max-batch", 32),
            max_wait_us: extras.get_or(
                "--max-wait-us",
                ServeConfig::default().max_wait.as_micros() as u64,
            ),
            queue_capacity: extras.get_or("--queue-capacity", 64),
            backoff_base_ms: extras.get_or("--backoff-base-ms", 20),
            backoff_max_ms: extras.get_or("--backoff-max-ms", 200),
            recovery_timeout_secs: extras.get_or("--recovery-timeout-secs", 30.0),
        };
        assert!(out.rps > 0.0, "--rps must be positive");
        assert!(out.clients >= 1, "--clients must be at least 1");
        assert!(out.phase_secs > 0.0, "--phase-secs must be positive");
        assert!(
            out.serve_threads >= 2,
            "--serve-threads must be at least 2 (the faults target a real pool)"
        );
        out
    }

    fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        let (base, extras) = Args::parse_from_with_extras(args, CHAOS_VALUE_FLAGS, &[]);
        Self::from_parsed(base, &extras)
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            max_batch: self.max_batch,
            max_wait: Duration::from_micros(self.max_wait_us),
            threads: self.serve_threads,
            queue_capacity: self.queue_capacity,
            default_deadline: None,
            min_live_fraction: 0.5,
            backoff: BackoffConfig {
                base: Duration::from_millis(self.backoff_base_ms),
                max: Duration::from_millis(self.backoff_max_ms),
                jitter: 0.2,
                seed: self.base.seed,
                reset_after: Duration::from_millis(500),
            },
        }
    }
}

/// Cross-thread outcome counters for one phase.
#[derive(Default)]
struct Counters {
    ok_full: AtomicUsize,
    ok_degraded: AtomicUsize,
    err_pool: AtomicUsize,
    err_overloaded: AtomicUsize,
    err_deadline: AtomicUsize,
    err_shutdown: AtomicUsize,
    wrong_answers: AtomicUsize,
}

/// One phase's recorded outcome.
struct PhaseResult {
    name: &'static str,
    ok_full: usize,
    ok_degraded: usize,
    err_pool: usize,
    err_overloaded: usize,
    err_deadline: usize,
    err_shutdown: usize,
    wrong_answers: usize,
    p50_us: u64,
    /// Time until the service answered bitwise-correctly at full pool
    /// strength again (fault phases only; 0 for non-fault phases).
    recovery_ms: u64,
    recovered: bool,
}

fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The reference answers every non-degraded `Ok` must bitwise-match.
type Expected = Vec<(Vec<f64>, Vec<f64>)>;

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Classify one request outcome into the shared counters, checking
/// non-degraded `Ok` answers bitwise against the reference.
fn record_outcome(
    outcome: &Result<pfp_serve::Prediction, ServeError>,
    expected: &(Vec<f64>, Vec<f64>),
    counters: &Counters,
) {
    match outcome {
        Ok(p) if p.degraded => {
            counters.ok_degraded.fetch_add(1, Ordering::Relaxed);
        }
        Ok(p) => {
            if bitwise_eq(&p.cu_probs, &expected.0) && bitwise_eq(&p.duration_probs, &expected.1) {
                counters.ok_full.fetch_add(1, Ordering::Relaxed);
            } else {
                counters.wrong_answers.fetch_add(1, Ordering::Relaxed);
            }
        }
        Err(ServeError::Pool(_)) => {
            counters.err_pool.fetch_add(1, Ordering::Relaxed);
        }
        Err(ServeError::Overloaded { .. }) => {
            counters.err_overloaded.fetch_add(1, Ordering::Relaxed);
        }
        Err(ServeError::DeadlineExceeded) => {
            counters.err_deadline.fetch_add(1, Ordering::Relaxed);
        }
        Err(ServeError::ShutDown) => {
            counters.err_shutdown.fetch_add(1, Ordering::Relaxed);
        }
        Err(ServeError::FeatureDim { .. }) => {
            panic!("harness submitted a malformed request");
        }
    }
}

/// Drive paced load for `secs` while `fault` runs on the main thread.
/// Returns the phase counters and the sorted ok-full latencies.
fn run_load<F: FnOnce()>(
    service: &PredictionService,
    requests: &Arc<Vec<SparseVec>>,
    expected: &Arc<Expected>,
    args: &ChaosArgs,
    secs: f64,
    fault: F,
) -> (Counters, Vec<u64>) {
    let counters = Arc::new(Counters::default());
    let latencies = Arc::new(Mutex::new(Vec::<u64>::new()));
    let start = Instant::now();
    let len = Duration::from_secs_f64(secs);
    let clients = args.clients;
    let period = Duration::from_secs_f64(clients as f64 / args.rps);
    let mut handles = Vec::with_capacity(clients);
    for client_id in 0..clients {
        let client = service.client();
        let requests = Arc::clone(requests);
        let expected = Arc::clone(expected);
        let counters = Arc::clone(&counters);
        let latencies = Arc::clone(&latencies);
        handles.push(std::thread::spawn(move || {
            let mut next_send = start;
            let mut i = client_id;
            let mut local_lat = Vec::new();
            while start.elapsed() < len {
                let now = Instant::now();
                if now < next_send {
                    std::thread::sleep(next_send - now);
                }
                next_send += period;
                let idx = i % requests.len();
                i += clients;
                let sent = Instant::now();
                let outcome = client.predict(requests[idx].clone());
                if let Ok(p) = &outcome {
                    if !p.degraded {
                        local_lat.push(sent.elapsed().as_micros() as u64);
                    }
                }
                record_outcome(&outcome, &expected[idx], &counters);
            }
            latencies.lock().unwrap().extend(local_lat);
        }));
    }
    fault();
    for handle in handles {
        handle.join().expect("chaos load client panicked");
    }
    let mut lat = Arc::try_unwrap(latencies)
        .map(|m| m.into_inner().unwrap())
        .unwrap_or_default();
    lat.sort_unstable();
    let counters = Arc::try_unwrap(counters).unwrap_or_default();
    (counters, lat)
}

/// Poll until the service answers request 0 bitwise-correctly, non-degraded,
/// at full pool strength — or the timeout passes.
fn await_recovery(
    service: &PredictionService,
    requests: &[SparseVec],
    expected: &Expected,
    timeout: Duration,
) -> (bool, u64) {
    let client = service.client();
    let start = Instant::now();
    while start.elapsed() < timeout {
        if let Ok(p) = client.predict(requests[0].clone()) {
            if !p.degraded
                && bitwise_eq(&p.cu_probs, &expected[0].0)
                && bitwise_eq(&p.duration_probs, &expected[0].1)
                && service.health().is_full()
            {
                return (true, start.elapsed().as_millis() as u64);
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    (false, start.elapsed().as_millis() as u64)
}

fn finish_phase(
    name: &'static str,
    counters: Counters,
    latencies: &[u64],
    recovery: Option<(bool, u64)>,
) -> PhaseResult {
    let (recovered, recovery_ms) = recovery.unwrap_or((true, 0));
    PhaseResult {
        name,
        ok_full: counters.ok_full.into_inner(),
        ok_degraded: counters.ok_degraded.into_inner(),
        err_pool: counters.err_pool.into_inner(),
        err_overloaded: counters.err_overloaded.into_inner(),
        err_deadline: counters.err_deadline.into_inner(),
        err_shutdown: counters.err_shutdown.into_inner(),
        wrong_answers: counters.wrong_answers.into_inner(),
        p50_us: percentile_us(latencies, 50.0),
        recovery_ms,
        recovered,
    }
}

/// A deliberately slow degraded-mode scorer for the overload phase: each
/// answer pins the dispatcher for `delay`, so a tight submission burst
/// deterministically fills the bounded queue.  Stands in for an overloaded
/// downstream; the answers themselves are the Markov marginals.
struct SlowFallback {
    inner: MarkovFallback,
    delay: Duration,
}

impl FallbackPredictor for SlowFallback {
    fn dims(&self) -> (usize, usize) {
        self.inner.dims()
    }

    fn probabilities(&self, features: &SparseVec) -> (Vec<f64>, Vec<f64>) {
        std::thread::sleep(self.delay);
        self.inner.probabilities(features)
    }
}

fn main() {
    let args = ChaosArgs::parse_from(std::env::args().skip(1));
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());

    // The kill schedule works by panicking workers (the pool's poison-job
    // fault injection), which would spray dozens of expected backtraces into
    // the log.  Silence exactly those; real panics still print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("injected worker failure"))
            || info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("injected worker failure"));
        if !injected {
            default_hook(info);
        }
    }));
    let recovery_timeout = Duration::from_secs_f64(args.recovery_timeout_secs);

    // --- Model + fallback: train fast on a small synthetic cohort. ---
    let cohort = generate_cohort(&args.base.cohort_config());
    let dataset = Dataset::from_cohort(&cohort);
    let kind = dataset.default_mcp_kind();
    let samples = dataset.featurize(kind);
    assert!(!samples.is_empty(), "cohort produced no serving requests");
    let mut train_config = TrainConfig::fast();
    train_config.seed = args.base.seed;
    train_config.threads = args.base.threads;
    let model = DmcpModel::train(&dataset, &train_config);
    let markov = MarkovPredictor::train(&dataset);
    let requests: Arc<Vec<SparseVec>> =
        Arc::new(samples.iter().map(|s| s.features.clone()).collect());
    let expected: Arc<Expected> =
        Arc::new(requests.iter().map(|r| model.probabilities(r)).collect());

    println!(
        "Chaos — {} patients, {} distinct requests, serve threads = {}, \
         clients = {}, rps = {}, queue = {}, backoff base/max = {}/{} ms, \
         seed = {}, host parallelism = {available}\n",
        cohort.patients.len(),
        requests.len(),
        args.serve_threads,
        args.clients,
        args.rps,
        args.queue_capacity,
        args.backoff_base_ms,
        args.backoff_max_ms,
        args.base.seed,
    );

    let service = PredictionService::start_with_fallback(
        model.clone(),
        args.serve_config(),
        Some(Box::new(markov.to_fallback())),
    );
    let mut phases: Vec<PhaseResult> = Vec::new();

    // --- 1. baseline ---
    let (counters, lat) = run_load(
        &service,
        &requests,
        &expected,
        &args,
        args.phase_secs,
        || {},
    );
    let pre_fault_p50 = percentile_us(&lat, 50.0);
    phases.push(finish_phase("baseline", counters, &lat, None));

    // --- 2. kill_one ---
    let (counters, lat) = run_load(
        &service,
        &requests,
        &expected,
        &args,
        args.phase_secs,
        || {
            std::thread::sleep(Duration::from_secs_f64(args.phase_secs * 0.25));
            service.inject_worker_failure();
        },
    );
    let recovery = await_recovery(&service, &requests, &expected, recovery_timeout);
    phases.push(finish_phase("kill_one", counters, &lat, Some(recovery)));

    // --- 3. kill_all_storm: repeated kill-alls at seeded intervals, so the
    // supervisor's backoff actually grows and degraded windows appear. ---
    let mut rng = seeded_rng(pfp_math::rng::derive_seed(args.base.seed, 0xC4A0));
    let storm_gaps_ms: [f64; 5] = [20.0, 30.0, 40.0, 50.0, 60.0];
    let uniform = [1.0; 5];
    let mut schedule: Vec<Duration> = Vec::new();
    let mut t = 0.0;
    while t < args.phase_secs * 0.8 {
        let gap = storm_gaps_ms[sample_categorical(&mut rng, &uniform)] / 1000.0;
        t += gap;
        schedule.push(Duration::from_secs_f64(t));
    }
    let storm_rounds = schedule.len();
    let (counters, lat) = run_load(
        &service,
        &requests,
        &expected,
        &args,
        args.phase_secs,
        || {
            let start = Instant::now();
            for at in &schedule {
                let now = start.elapsed();
                if now < *at {
                    std::thread::sleep(*at - now);
                }
                for _ in 0..args.serve_threads {
                    service.inject_worker_failure();
                }
            }
        },
    );
    let recovery = await_recovery(&service, &requests, &expected, recovery_timeout);
    phases.push(finish_phase(
        "kill_all_storm",
        counters,
        &lat,
        Some(recovery),
    ));

    // --- 4. kill_during_batch: pipelined burst with poison landing inside
    // an assembling batch. ---
    let counters = Counters::default();
    let client = service.client();
    let burst = args.max_batch * 4;
    let mut pending: Vec<(usize, PendingPrediction)> = Vec::new();
    for i in 0..burst {
        if i == burst / 3 || i == burst / 2 {
            service.inject_worker_failure();
        }
        match client.submit(requests[i % requests.len()].clone()) {
            Ok(p) => pending.push((i % requests.len(), p)),
            Err(err) => record_outcome(&Err(err), &expected[0], &counters),
        }
    }
    for (idx, p) in pending {
        record_outcome(&p.wait(), &expected[idx], &counters);
    }
    let recovery = await_recovery(&service, &requests, &expected, recovery_timeout);
    phases.push(finish_phase(
        "kill_during_batch",
        counters,
        &[],
        Some(recovery),
    ));

    // --- 5. overload_burst: separate tiny-queue service with the slow
    // fallback pinned into degraded mode (min_live_fraction > 1), so the
    // dispatcher drains far slower than the burst submits. ---
    let overload_service = PredictionService::start_with_fallback(
        model.clone(),
        ServeConfig {
            min_live_fraction: 2.0, // always degraded → every answer is slow
            ..args.serve_config()
        },
        Some(Box::new(SlowFallback {
            inner: markov.to_fallback(),
            delay: Duration::from_millis(5),
        })),
    );
    let counters = Counters::default();
    let overload_client = overload_service.client();
    let burst = args.queue_capacity * 10;
    let mut pending: Vec<(usize, PendingPrediction)> = Vec::new();
    for i in 0..burst {
        let idx = i % requests.len();
        match overload_client.submit(requests[idx].clone()) {
            Ok(p) => pending.push((idx, p)),
            Err(err) => record_outcome(&Err(err), &expected[idx], &counters),
        }
    }
    for (idx, p) in pending {
        record_outcome(&p.wait(), &expected[idx], &counters);
    }
    let shed = counters.err_overloaded.load(Ordering::Relaxed);
    let degraded_answers = counters.ok_degraded.load(Ordering::Relaxed);
    assert!(
        shed > 0,
        "overload burst of {burst} must shed against a {}-slot queue",
        args.queue_capacity
    );
    assert_eq!(
        shed + degraded_answers,
        burst,
        "every burst request must be either shed or answered degraded"
    );
    overload_service.shutdown();
    phases.push(finish_phase("overload_burst", counters, &[], None));

    // --- 6. deadline_storm: zero-budget requests fail fast. ---
    let counters = Counters::default();
    let storm = 200usize;
    let mut pending: Vec<(usize, PendingPrediction)> = Vec::new();
    for i in 0..storm {
        let idx = i % requests.len();
        match client.submit_with_deadline(requests[idx].clone(), Duration::ZERO) {
            Ok(p) => pending.push((idx, p)),
            Err(err) => record_outcome(&Err(err), &expected[idx], &counters),
        }
    }
    for (idx, p) in pending {
        record_outcome(&p.wait(), &expected[idx], &counters);
    }
    let deadline_hits = counters.err_deadline.load(Ordering::Relaxed);
    assert!(
        deadline_hits > 0,
        "zero-budget storm must produce DeadlineExceeded answers"
    );
    phases.push(finish_phase("deadline_storm", counters, &[], None));

    // --- 7. post_recovery: throughput and latency are back. ---
    let recovery = await_recovery(&service, &requests, &expected, recovery_timeout);
    let (counters, lat) = run_load(
        &service,
        &requests,
        &expected,
        &args,
        args.phase_secs,
        || {},
    );
    let post_recovery_p50 = percentile_us(&lat, 50.0);
    phases.push(finish_phase(
        "post_recovery",
        counters,
        &lat,
        Some(recovery),
    ));

    let final_health = service.health();
    service.shutdown();

    // --- Invariants. ---
    let recovered = phases.iter().all(|p| p.recovered) && final_health.is_full();
    let wrong_answers: usize = phases.iter().map(|p| p.wrong_answers).sum();
    let shutdown_seen: usize = phases.iter().map(|p| p.err_shutdown).sum();
    // A client seeing ShutDown while the service is up would mean the
    // dispatcher died — the process-restart condition this harness forbids.
    let process_restarts = usize::from(shutdown_seen > 0);
    // 20% relative band plus a small absolute slack: at micro-batch
    // latencies of a few hundred µs, CI timer jitter alone can exceed 20%.
    let p50_slack_us = 300u64;
    let p50_within_band = post_recovery_p50 <= pre_fault_p50 + pre_fault_p50 / 5 + p50_slack_us;

    let header: Vec<String> = [
        "phase",
        "ok",
        "degraded",
        "pool",
        "shed",
        "deadline",
        "wrong",
        "p50 (µs)",
        "recovery",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let table: Vec<Vec<String>> = phases
        .iter()
        .map(|p| {
            vec![
                p.name.to_string(),
                p.ok_full.to_string(),
                p.ok_degraded.to_string(),
                p.err_pool.to_string(),
                p.err_overloaded.to_string(),
                p.err_deadline.to_string(),
                p.wrong_answers.to_string(),
                p.p50_us.to_string(),
                if p.recovered {
                    format!("{}ms", p.recovery_ms)
                } else {
                    "FAILED".to_string()
                },
            ]
        })
        .collect();
    print!("{}", render_table(&header, &table));
    println!(
        "\nStorm rounds: {storm_rounds}; respawned workers total: {}; \
         p50 pre-fault {pre_fault_p50}µs → post-recovery {post_recovery_p50}µs.\n",
        final_health.respawned_total,
    );

    assert_eq!(
        wrong_answers, 0,
        "non-degraded Ok answers diverged from the model"
    );
    assert_eq!(
        process_restarts, 0,
        "a client saw ShutDown while the service was up"
    );
    assert!(recovered, "service did not return to full strength");
    assert!(
        p50_within_band,
        "post-recovery p50 {post_recovery_p50}µs outside the 20% band of {pre_fault_p50}µs"
    );
    assert!(
        final_health.respawned_total >= args.serve_threads as u64,
        "the storm must have forced respawns"
    );

    // --- Machine-readable record. ---
    let phases_json: Vec<String> = phases
        .iter()
        .map(|p| {
            format!(
                "    {{\"phase\": \"{}\", \"ok_full\": {}, \"ok_degraded\": {}, \
                 \"err_pool\": {}, \"err_overloaded\": {}, \"err_deadline\": {}, \
                 \"err_shutdown\": {}, \"wrong_answers\": {}, \"p50_us\": {}, \
                 \"recovery_ms\": {}, \"recovered\": {}}}",
                p.name,
                p.ok_full,
                p.ok_degraded,
                p.err_pool,
                p.err_overloaded,
                p.err_deadline,
                p.err_shutdown,
                p.wrong_answers,
                p.p50_us,
                p.recovery_ms,
                p.recovered
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"chaos\",\n  \"patients\": {},\n  \
         \"distinct_requests\": {},\n  \"seed\": {},\n  \"rps\": {},\n  \
         \"clients\": {},\n  \"serve_threads\": {},\n  \
         \"queue_capacity\": {},\n  \"backoff_base_ms\": {},\n  \
         \"backoff_max_ms\": {},\n  \"available_parallelism\": {available},\n  \
         \"storm_rounds\": {storm_rounds},\n  \
         \"respawned_total\": {},\n  \
         \"phases\": [\n{}\n  ],\n  \
         \"pre_fault_p50_us\": {pre_fault_p50},\n  \
         \"post_recovery_p50_us\": {post_recovery_p50},\n  \
         \"p50_within_band\": {p50_within_band},\n  \
         \"wrong_answers\": {wrong_answers},\n  \
         \"process_restarts\": {process_restarts},\n  \
         \"recovered\": {recovered}\n}}\n",
        cohort.patients.len(),
        requests.len(),
        args.base.seed,
        args.rps,
        args.clients,
        args.serve_threads,
        args.queue_capacity,
        args.backoff_base_ms,
        args.backoff_max_ms,
        final_health.respawned_total,
        phases_json.join(",\n"),
    );
    std::fs::write("BENCH_chaos.json", &json).expect("failed to write BENCH_chaos.json");
    println!("Wrote BENCH_chaos.json.");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_apply_with_no_arguments() {
        let a = ChaosArgs::parse_from(strings(&[]));
        assert_eq!(a.base, Args::default());
        assert_eq!(a.rps, 400.0);
        assert_eq!(a.serve_threads, 2);
        assert_eq!(a.queue_capacity, 64);
        assert_eq!(a.serve_config().queue_capacity, 64);
        // The harness measures the shipping batcher config unless told not to.
        assert_eq!(a.serve_config().max_wait, ServeConfig::default().max_wait);
        assert_eq!(
            a.serve_config().backoff.base,
            Duration::from_millis(a.backoff_base_ms)
        );
    }

    #[test]
    fn chaos_flags_are_parsed_through_the_shared_parser() {
        let a = ChaosArgs::parse_from(strings(&[
            "--rps",
            "100",
            "--clients",
            "2",
            "--phase-secs",
            "0.4",
            "--serve-threads",
            "3",
            "--queue-capacity",
            "16",
            "--backoff-base-ms",
            "5",
            "--max-wait-us",
            "150",
            "--seed",
            "11",
        ]));
        assert_eq!(a.rps, 100.0);
        assert_eq!(a.clients, 2);
        assert_eq!(a.phase_secs, 0.4);
        assert_eq!(a.serve_threads, 3);
        assert_eq!(a.queue_capacity, 16);
        assert_eq!(a.backoff_base_ms, 5);
        assert_eq!(a.max_wait_us, 150);
        assert_eq!(a.serve_config().max_wait, Duration::from_micros(150));
        assert_eq!(a.base.seed, 11);
        assert_eq!(a.serve_config().backoff.seed, 11);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_flags_are_rejected() {
        let _ = ChaosArgs::parse_from(strings(&["--bogus"]));
    }

    #[test]
    #[should_panic(expected = "--serve-threads must be at least 2")]
    fn single_worker_pools_are_rejected() {
        let _ = ChaosArgs::parse_from(strings(&["--serve-threads", "1"]));
    }

    #[test]
    fn bitwise_eq_is_exact_not_approximate() {
        assert!(bitwise_eq(&[0.1 + 0.2], &[0.1 + 0.2]));
        assert!(!bitwise_eq(&[0.30000000000000004], &[0.3]));
        assert!(!bitwise_eq(&[0.0], &[-0.0]));
        assert!(!bitwise_eq(&[1.0], &[1.0, 2.0]));
    }
}
