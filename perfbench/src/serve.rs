//! `serve-open`: the micro-batched prediction service under open-loop
//! Poisson load, at three fixed rates and then at the highest rate that
//! meets the latency limit.
//!
//! Load generation uses two threads, never more than the host's cores: one
//! sender that sleeps until each request is due and submits it, and one
//! collector that waits on the answers in submission order.  Latency is
//! timed from each request's *scheduled* send time, so a late sender or a
//! stalled service is charged to every request queued behind it.
//!
//! A submission the full queue refuses (`ServeError::Overloaded`) is
//! retried after a short pause, as a client would: a host stall that fills
//! the queue then shows as latency and as a count of refusals, never as a
//! failed request, so the number of failed requests does not depend on the
//! neighbours of the machine.

use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use pfp_core::{Dataset, DmcpModel, TrainConfig};
use pfp_ehr::{generate_cohort, CohortConfig};
use pfp_math::rng::derive_seed;
use pfp_math::SparseVec;
use pfp_serve::{PredictionService, ServeClient, ServeConfig, ServeError};

use crate::probes::{layer_probes, Fixture};
use crate::report::{Metrics, Outcome};
use crate::stats::{median, nearest_rank, poisson_schedule, reported_percentile, sorted};
use crate::trace::{Span, Tracer};
use crate::{costed, setup_median, Ctx};

/// The three fixed offered rates (requests per second).
pub const RATES: [(&str, f64); 3] = [("low", 5_000.0), ("mid", 40_000.0), ("high", 100_000.0)];

/// Traced runs keep the spans of every this-many-th request (a full record
/// of a run's ~170k requests would be ~45 MB of JSON).
const SPAN_EVERY: usize = 8;

/// Full-queue bursts per block, and the blocks per run: one before the
/// fixed-rate steps, one after them and one after the rate search, so the
/// burst median covers the whole run rather than its first second.
const BURSTS: usize = 300;
const BURST_BLOCKS: usize = 3;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// Latency limit on p99, from scheduled send, in microseconds.
const LIMIT_US: f64 = 1_000.0;

/// How long the sender waits before resubmitting a refused request.
const RETRY_PAUSE: Duration = Duration::from_micros(20);

/// What one open-loop step observed.
#[derive(Debug, Default)]
pub struct Step {
    pub rate: f64,
    pub sent: u64,
    /// Submissions refused by the full queue, each retried until accepted.
    pub shed: u64,
    pub deadline: u64,
    pub errors: u64,
    /// Non-degraded answers that differ from `DmcpModel::probabilities`.
    pub wrong: u64,
    /// Latency of every answered request, in submission order, in µs.
    pub latency_us: Vec<f64>,
    /// How late the sender submitted each request, ascending, in µs.
    pub lag_us: Vec<f64>,
    pub submit_ns_total: u64,
    pub batch_rows: Vec<u32>,
}

impl Step {
    /// Requests that got no right answer; refused submissions are retried
    /// and do not count.
    pub fn failed(&self) -> u64 {
        self.deadline + self.errors + self.wrong
    }

    /// The step's latencies cut, in submission order, into windows of at
    /// least 1,000 requests (at most ten windows).
    fn windows(&self) -> std::slice::Chunks<'_, f64> {
        let n = self.latency_us.len();
        let windows = (n / 1_000).clamp(1, 10);
        self.latency_us.chunks(n.div_ceil(windows).max(1))
    }

    /// Percentile `p` of each window, then the median across windows: a
    /// stall of the host moves one window, not the reported figure.
    pub fn windowed(&self, p: f64) -> f64 {
        let per_window: Vec<f64> = self
            .windows()
            .map(|w| nearest_rank(&sorted(w), p))
            .collect();
        median(&per_window)
    }

    /// Meets the limit: nothing failed or refused, windowed p99 within the
    /// limit, and no growing backlog (the last window's median also within
    /// it).
    pub fn meets_limit(&self) -> bool {
        self.failed() == 0
            && self.shed == 0
            && !self.latency_us.is_empty()
            && self.windowed(99.0) <= LIMIT_US
            && self
                .windows()
                .last()
                .is_some_and(|w| nearest_rank(&sorted(w), 50.0) <= LIMIT_US)
    }

    pub fn batch_rows_mean(&self) -> f64 {
        self.batch_rows.iter().map(|&r| r as f64).sum::<f64>() / self.batch_rows.len().max(1) as f64
    }

    pub fn full_batch_frac(&self, max_batch: usize) -> f64 {
        let full = self
            .batch_rows
            .iter()
            .filter(|&&r| r as usize >= max_batch)
            .count();
        full as f64 / self.batch_rows.len().max(1) as f64
    }
}

/// One open-loop step: `n` Poisson arrivals at `rate`, drawn from `seed`,
/// each a request picked (seeded) from `requests`.  Non-degraded answers are
/// compared bitwise with `expected`.  With `spans`, every eighth request
/// gets a submit span and a request span carrying its id, under `parent`.
pub fn run_step(
    client: &ServeClient,
    requests: &[SparseVec],
    expected: &[(Vec<f64>, Vec<f64>)],
    rate: f64,
    n: usize,
    seed: u64,
    spans: Option<(&Tracer, Option<usize>)>,
) -> Step {
    let offsets = poisson_schedule(rate, n, seed);
    let pick_seed = derive_seed(seed, 1);
    let picks: Vec<usize> = (0..n as u64)
        .map(|k| (derive_seed(pick_seed, k) % requests.len() as u64) as usize)
        .collect();
    let (tx, rx) = channel::<(usize, Instant, Result<_, ServeError>)>();
    let start = Instant::now() + Duration::from_millis(2);
    let origin = spans.map(|(tracer, _)| tracer.origin());
    let ns =
        move |t: Instant| origin.map_or(0, |o| t.saturating_duration_since(o).as_nanos() as u64);
    let parent = spans.and_then(|(_, p)| p);
    let traced = spans.is_some();

    std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            let mut step = Step {
                rate,
                ..Step::default()
            };
            let mut done_spans = Vec::new();
            for (k, due, submitted) in rx {
                match submitted.and_then(|pending: pfp_serve::PendingPrediction| pending.wait()) {
                    Ok(prediction) => {
                        let done = Instant::now();
                        step.latency_us
                            .push(done.saturating_duration_since(due).as_nanos() as f64 / 1e3);
                        step.batch_rows.push(prediction.batch_rows as u32);
                        let (cu, dur) = &expected[picks[k]];
                        if !prediction.degraded
                            && (prediction.cu_probs != *cu || prediction.duration_probs != *dur)
                        {
                            step.wrong += 1;
                        }
                        if traced && k % SPAN_EVERY == 0 {
                            done_spans.push(Span {
                                name: "pfp-serve.request".into(),
                                start_ns: ns(due),
                                end_ns: ns(done),
                                parent,
                                request: Some(k as u64),
                            });
                        }
                    }
                    Err(ServeError::DeadlineExceeded) => step.deadline += 1,
                    Err(_) => step.errors += 1,
                }
            }
            (step, done_spans)
        });

        let mut lag_us = Vec::with_capacity(n);
        let mut submit_ns_total = 0u64;
        let mut shed = 0u64;
        let mut submit_spans = Vec::new();
        for (k, &offset) in offsets.iter().enumerate() {
            let due = start + Duration::from_secs_f64(offset);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let t0 = Instant::now();
            lag_us.push(t0.saturating_duration_since(due).as_nanos() as f64 / 1e3);
            let (submitted, t1) = loop {
                let features = requests[picks[k]].clone();
                let a = Instant::now();
                let submitted = client.submit(features);
                let b = Instant::now();
                submit_ns_total += (b - a).as_nanos() as u64;
                match submitted {
                    Err(ServeError::Overloaded { .. }) => {
                        shed += 1;
                        std::thread::sleep(RETRY_PAUSE);
                    }
                    submitted => break (submitted, b),
                }
            };
            if traced && k % SPAN_EVERY == 0 {
                submit_spans.push(Span {
                    name: "pfp-serve.submit".into(),
                    start_ns: ns(t0),
                    end_ns: ns(t1),
                    parent,
                    request: Some(k as u64),
                });
            }
            tx.send((k, due, submitted)).expect("collector alive");
        }
        drop(tx);
        let (mut step, done_spans) = collector.join().expect("collector thread panicked");
        step.sent = n as u64;
        step.shed = shed;
        step.submit_ns_total = submit_ns_total;
        step.lag_us = sorted(&lag_us);
        if let Some((tracer, _)) = spans {
            tracer.extend(submit_spans);
            tracer.extend(done_spans);
        }
        step
    })
}

/// A started service with its request set and the answers it must give.
pub struct Served {
    pub model: DmcpModel,
    pub requests: Vec<SparseVec>,
    pub expected: Vec<(Vec<f64>, Vec<f64>)>,
    pub service: PredictionService,
}

pub fn serve_config() -> ServeConfig {
    ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    }
}

/// Start the service around `model`; the answers to check against are
/// computed here, outside any timed step.
pub fn start(model: DmcpModel, requests: Vec<SparseVec>) -> Served {
    let expected = requests.iter().map(|r| model.probabilities(r)).collect();
    let service = PredictionService::start(model.clone(), serve_config());
    Served {
        model,
        requests,
        expected,
        service,
    }
}

/// The windowed p50 latency of `model` served at the low rate for two
/// seconds, after a fifth of a second of untimed warm-up at that rate, with
/// `test`'s samples as traffic, and whether every answer was right.
pub fn served_p50_us(model: &DmcpModel, test: &Dataset, seed: u64) -> (f64, bool) {
    let requests = test
        .featurize(model.kind)
        .into_iter()
        .map(|s| s.features)
        .collect();
    let served = start(model.clone(), requests);
    let client = served.service.client();
    let (_, rate) = RATES[0];
    let step = |n: f64, seed: u64| {
        run_step(
            &client,
            &served.requests,
            &served.expected,
            rate,
            n as usize,
            seed,
            None,
        )
    };
    let warm_up = step(rate / 5.0, derive_seed(seed, 2));
    let timed = step(2.0 * rate, seed);
    (
        timed.windowed(50.0),
        warm_up.failed() == 0 && timed.failed() == 0,
    )
}

/// Run the three fixed-rate steps, `per_step_s` seconds of arrivals each.
pub fn fixed_rate_steps(
    served: &Served,
    per_step_s: f64,
    seed: u64,
    tracer: &Tracer,
) -> Vec<(&'static str, Step)> {
    let client = served.service.client();
    RATES
        .iter()
        .enumerate()
        .map(|(i, &(label, rate))| {
            let _s = tracer.span(&format!("serve.step.{label}"));
            let spans = tracer.enabled().then(|| (tracer, tracer.current()));
            let n = ((rate * per_step_s) as usize).max(1_000);
            let step = run_step(
                &client,
                &served.requests,
                &served.expected,
                rate,
                n,
                derive_seed(seed, i as u64),
                spans,
            );
            (label, step)
        })
        .collect()
}

/// Serve-layer metrics of a set of fixed-rate steps.
pub fn record_steps(layers: &mut Metrics, steps: &[(&str, Step)]) {
    let max_batch = serve_config().max_batch;
    let mut lag = Vec::new();
    let (mut calls, mut submit_ns) = (0u64, 0u64);
    let (mut shed, mut deadline, mut errors) = (0u64, 0u64, 0u64);
    for (label, s) in steps {
        layers.set(
            &format!("pfp-serve.service.batch_rows_mean_{label}"),
            s.batch_rows_mean(),
        );
        layers.set(
            &format!("pfp-serve.service.full_batch_frac_{label}"),
            s.full_batch_frac(max_batch),
        );
        lag.extend_from_slice(&s.lag_us);
        calls += s.sent + s.shed;
        submit_ns += s.submit_ns_total;
        shed += s.shed;
        deadline += s.deadline;
        errors += s.errors + s.wrong;
    }
    let lag = sorted(&lag);
    // Per call of `submit`, refused calls included.
    layers.set(
        "pfp-serve.service.submit_us",
        submit_ns as f64 / 1e3 / calls as f64,
    );
    layers.set(
        "pfp-serve.service.generator_lag_us_p50",
        nearest_rank(&lag, 50.0),
    );
    layers.set(
        "pfp-serve.service.generator_lag_us_p99",
        nearest_rank(&lag, 99.0),
    );
    layers.set("pfp-serve.service.shed", shed as f64);
    layers.set("pfp-serve.service.deadline", deadline as f64);
    layers.set("pfp-serve.service.errors", errors as f64);
}

/// Wall time of each of `reps` bursts, numbered from `first`: a full queue
/// of requests submitted back to back, from the first submission to the
/// last answer.  Answers are checked after the clock stops; returns the
/// times and the wrong or failed answers.
pub fn bursts(served: &Served, first: usize, reps: usize, seed: u64) -> (Vec<f64>, u64) {
    let client = served.service.client();
    let size = serve_config().queue_capacity;
    let mut bad = 0u64;
    let times = (first as u64..(first + reps) as u64)
        .map(|r| {
            let picks: Vec<usize> = (0..size as u64)
                .map(|k| {
                    (derive_seed(derive_seed(seed, 1_000 + r), k) % served.requests.len() as u64)
                        as usize
                })
                .collect();
            let features: Vec<SparseVec> =
                picks.iter().map(|&i| served.requests[i].clone()).collect();
            let t0 = Instant::now();
            let pending: Vec<_> = features.into_iter().map(|f| client.submit(f)).collect();
            let answers: Vec<_> = pending
                .into_iter()
                .map(|p| p.and_then(|p| p.wait()))
                .collect();
            let dt = t0.elapsed().as_secs_f64();
            for (answer, &i) in answers.iter().zip(&picks) {
                let (cu, dur) = &served.expected[i];
                match answer {
                    Ok(a) if a.degraded || (a.cu_probs == *cu && a.duration_probs == *dur) => {}
                    _ => bad += 1,
                }
            }
            dt
        })
        .collect();
    (times, bad)
}

/// The highest offered rate whose step meets the limit: grow from the
/// highest fixed rate that passed by ×1.25 until a step fails, then bisect
/// (geometrically) three times.  Returns the rate and every probe step.
fn max_rate(
    served: &Served,
    start: f64,
    probe_s: f64,
    seed: u64,
    tracer: &Tracer,
) -> (f64, Vec<Step>) {
    let client = served.service.client();
    let mut probes = Vec::new();
    let mut probe = |rate: f64, i: u64| {
        let _s = tracer.span("serve.search.probe");
        let n = ((rate * probe_s) as usize).max(1_000);
        let step = run_step(
            &client,
            &served.requests,
            &served.expected,
            rate,
            n,
            derive_seed(seed, 100 + i),
            None,
        );
        let ok = step.meets_limit();
        probes.push(step);
        ok
    };
    let mut i = 0;
    let (mut lo, mut hi) = (start, start * 1.25);
    while probe(hi, i) {
        i += 1;
        lo = hi;
        hi *= 1.25;
        if i >= 8 {
            break;
        }
    }
    for _ in 0..3 {
        i += 1;
        let mid = (lo * hi).sqrt();
        if probe(mid, i) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, probes)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let tracer = &ctx.tracer;
    let mut out = Outcome::default();
    let cohort_config = CohortConfig::scaled(0.05, ctx.seed);
    let train_config = TrainConfig {
        seed: ctx.seed,
        threads: crate::train::TRAIN_THREADS,
        ..TrainConfig::fast()
    };

    let setup = || {
        let cohort = {
            let _s = tracer.span("pfp-ehr.generate_cohort");
            generate_cohort(&cohort_config)
        };
        let dataset = {
            let _s = tracer.span("core.dataset.from_cohort");
            Dataset::from_cohort(&cohort)
        };
        let (model, samples, solve) = if tracer.enabled() {
            let (model, stats, samples) =
                crate::train::solve_traced(&dataset, &train_config, tracer);
            (model, samples, Some(stats))
        } else {
            let model = DmcpModel::train(&dataset, &train_config);
            (model.clone(), dataset.featurize(model.kind), None)
        };
        let requests = samples.iter().map(|s| s.features.clone()).collect();
        (start(model, requests), samples, dataset, solve)
    };
    let ((served, samples, dataset, solve), first_setup) = costed(setup);

    // Burst blocks around the fixed steps (~40% of the run) and the search.
    let mut burst_s = Vec::with_capacity(BURSTS * BURST_BLOCKS);
    let (mut burst_bad, mut burst_cpu_s) = (0u64, 0.0);
    let mut burst_block = |block: usize| {
        let _s = tracer.span("serve.bursts");
        let ((times, bad), cost) = costed(|| bursts(&served, block * BURSTS, BURSTS, ctx.seed));
        burst_s.extend(times);
        burst_bad += bad;
        burst_cpu_s += cost.cpu_s;
    };
    burst_block(0);
    let fixed = fixed_rate_steps(&served, 0.12 * ctx.seconds, ctx.seed, tracer);
    burst_block(1);
    // The search below can queue far more requests than the fixed steps;
    // peak memory is read before it.
    out.end_to_end
        .set("peak_rss_mib", crate::host::peak_rss_mib());
    let setup_cost = setup_median(first_setup, SETUPS - 1, setup);
    let start_rate = fixed
        .iter()
        .rev()
        .find(|(_, s)| s.meets_limit())
        .map_or(RATES[0].1 / 2.0, |(_, s)| s.rate);
    let (max_rps, probes) = {
        let _s = tracer.span("serve.search");
        max_rate(&served, start_rate, 0.05 * ctx.seconds, ctx.seed, tracer)
    };
    burst_block(2);

    let sent: u64 = fixed.iter().map(|(_, s)| s.sent).sum();
    let failed: u64 = fixed.iter().map(|(_, s)| s.failed()).sum();
    let shed: u64 = fixed.iter().map(|(_, s)| s.shed).sum();
    let within: u64 = fixed
        .iter()
        .map(|(_, s)| s.latency_us.iter().filter(|&&l| l <= LIMIT_US).count() as u64)
        .sum();
    let wrong: u64 = fixed
        .iter()
        .map(|(_, s)| s.wrong)
        .chain(probes.iter().map(|s| s.wrong))
        .sum();
    out.attempted = sent;
    out.failed = failed;
    out.check(
        "every non-degraded answer equals DmcpModel::probabilities",
        wrong == 0 && burst_bad == 0,
    );
    // Refused submissions are retried, and no request has a deadline: any
    // request without an answer is a fault.
    out.check("every fixed-rate request was answered", failed == 0);

    let burst = serve_config().queue_capacity as f64;
    let e = &mut out.end_to_end;
    e.set("setup_s", setup_cost.wall_s);
    e.set("throughput", burst / median(&burst_s));
    e.set("latency_us", fixed[0].1.windowed(50.0));
    e.set("quality", (sent - failed) as f64 / sent as f64);
    out.detail("setup_cpu_s", setup_cost.cpu_s, "s");
    out.detail(
        "throughput_cpu",
        burst * burst_s.len() as f64 / burst_cpu_s,
        "1/s",
    );
    out.detail("within_1ms_frac", within as f64 / sent as f64, "fraction");
    out.detail("burst_s", median(&burst_s), "s");
    for (i, block) in burst_s.chunks(BURSTS).enumerate() {
        out.detail(&format!("burst_s_block{i}"), median(block), "s");
    }
    out.detail("burst_requests", burst, "count");
    for (label, s) in &fixed {
        let all = sorted(&s.latency_us);
        out.detail(&format!("serve_p50_us_{label}"), s.windowed(50.0), "us");
        out.detail(&format!("serve_p99_us_{label}"), s.windowed(99.0), "us");
        if let Some(p99) = reported_percentile(&all, 99.0) {
            out.detail(&format!("serve_p99_us_{label}_whole_step"), p99, "us");
        }
        out.detail(&format!("serve_samples_{label}"), all.len() as f64, "count");
    }
    out.detail("serve_max_rps", max_rps, "req/s");
    out.detail("serve_fail_frac", failed as f64 / sent as f64, "fraction");
    out.detail("serve_refused_retried", shed as f64, "count");
    out.detail("search_probes", probes.len() as f64, "count");

    if tracer.enabled() {
        record_steps(&mut out.layers, &fixed);
        if let Some(stats) = &solve {
            crate::train::record_solve(&mut out, stats);
        }
        // Tracing overhead: the mid step again, untraced, against its
        // traced run above.
        let untraced = run_step(
            &served.service.client(),
            &served.requests,
            &served.expected,
            RATES[1].1,
            fixed[1].1.sent as usize,
            derive_seed(ctx.seed, 1),
            None,
        );
        out.layers.set(
            "trace.overhead_pct",
            100.0 * (fixed[1].1.windowed(50.0) / untraced.windowed(50.0) - 1.0),
        );
        let fixture = Fixture {
            cohort: &cohort_config,
            train_samples: &samples,
            test: &dataset,
            model: &served.model,
            threads: crate::train::TRAIN_THREADS,
        };
        let high_batch = fixed[2].1.batch_rows_mean();
        crate::probes::score_block_probe(&fixture, high_batch, &mut out.layers);
        layer_probes(ctx, &fixture, &mut out);
    }
    out
}
