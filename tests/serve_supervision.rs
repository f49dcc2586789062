//! Integration tests for the self-healing serve path: supervision and
//! recovery, degraded-mode fallback answers, bounded-queue overload
//! shedding, budgeted retries, and `std::error::Error` composability of the
//! workspace's failure types.

use std::time::{Duration, Instant};

use patient_flow::core::{DmcpModel, FeatureMapKind};
use patient_flow::math::parallel::PoolError;
use patient_flow::math::{Matrix, SparseVec};
use patient_flow::optim::WarmStartError;
use patient_flow::serve::{
    FallbackPredictor, Prediction, PredictionService, RetryPolicy, ServeConfig, ServeError,
};

/// A deterministic non-trivial model: 6 features, 3 CUs, 2 durations.
fn test_model() -> DmcpModel {
    let theta = Matrix::from_fn(6, 5, |r, c| ((r * 5 + c) as f64 * 0.37).sin());
    DmcpModel {
        selection: theta.clone(),
        theta,
        kind: FeatureMapKind::ModulatedPoisson,
        profile_dim: 3,
        service_dim: 3,
        num_cus: 3,
        num_durations: 2,
    }
}

fn request(i: usize) -> SparseVec {
    SparseVec::from_pairs(
        6,
        vec![
            ((i % 6) as u32, 1.0 + i as f64 * 0.25),
            (((i * 2 + 1) % 6) as u32, 0.5),
        ],
    )
}

/// A fixed-distribution fallback standing in for the Markov marginals, with
/// an optional per-answer delay (to pin the dispatcher for overload tests).
struct StubFallback {
    cu: Vec<f64>,
    dur: Vec<f64>,
    delay: Duration,
}

impl StubFallback {
    fn instant() -> Self {
        StubFallback {
            cu: vec![0.5, 0.3, 0.2],
            dur: vec![0.6, 0.4],
            delay: Duration::ZERO,
        }
    }

    fn slow(delay: Duration) -> Self {
        StubFallback {
            delay,
            ..Self::instant()
        }
    }
}

impl FallbackPredictor for StubFallback {
    fn dims(&self) -> (usize, usize) {
        (self.cu.len(), self.dur.len())
    }

    fn probabilities(&self, _features: &SparseVec) -> (Vec<f64>, Vec<f64>) {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        (self.cu.clone(), self.dur.clone())
    }
}

#[test]
fn serve_error_source_chains_to_the_pool_error() {
    let err = ServeError::Pool(PoolError::WorkerLost { missing: 2 });
    let source = std::error::Error::source(&err).expect("ServeError::Pool must expose a source");
    let pool = source
        .downcast_ref::<PoolError>()
        .expect("source must be the PoolError");
    assert_eq!(*pool, PoolError::WorkerLost { missing: 2 });
    // Display stays consistent across the chain: the outer message embeds
    // the inner one, so logging either level tells the same story.
    assert!(err.to_string().contains(&pool.to_string()));
    // Leaf errors have no further source.
    assert!(std::error::Error::source(pool).is_none());
    // Every failure type in the serving/training stack boxes as dyn Error.
    let _: Box<dyn std::error::Error> = Box::new(ServeError::DeadlineExceeded);
    let _: Box<dyn std::error::Error> = Box::new(PoolError::ShutDown);
    let _: Box<dyn std::error::Error> = Box::new(WarmStartError::InvalidRho(-1.0));
    assert!(std::error::Error::source(&ServeError::ShutDown).is_none());
}

#[test]
fn kill_all_heals_back_to_bitwise_correct_answers() {
    let model = test_model();
    let expected = model.probabilities(&request(1));
    let service = PredictionService::start(
        model,
        ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_micros(200),
            threads: 2,
            ..Default::default()
        },
    );
    let client = service.client();
    assert!(client.predict(request(1)).is_ok());
    service.inject_worker_failure();
    service.inject_worker_failure();
    let mut healed = None;
    for _ in 0..200 {
        match client.predict(request(1)) {
            Ok(p) => {
                healed = Some(p);
                break;
            }
            Err(ServeError::Pool(_)) => {}
            Err(other) => panic!("unexpected error while healing: {other:?}"),
        }
    }
    let p = healed.expect("service never healed after kill-all");
    assert_eq!(p.cu_probs, expected.0);
    assert_eq!(p.duration_probs, expected.1);
    assert!(!p.degraded);
    // The first Ok can arrive while the second injected kill is still in
    // flight (a surviving/respawned worker covers the whole batch), so keep
    // driving batches until the supervisor has respawned everything.
    let mut health = service.health();
    for _ in 0..500 {
        if health.is_full() && health.respawned_total >= 2 {
            break;
        }
        let _ = client.predict(request(1));
        health = service.health();
    }
    assert!(health.is_full());
    assert!(health.respawned_total >= 2);
    service.shutdown();
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Under faults every outcome must be the model's exact answer, a tagged
/// degraded answer, or a retryable error; `ShutDown` would mean the
/// dispatcher died while the service was up.
fn check_outcome(outcome: Result<Prediction, ServeError>, expected: &(Vec<f64>, Vec<f64>)) {
    match outcome {
        Ok(p) if p.degraded => {}
        Ok(p) => {
            assert_eq!(bits(&p.cu_probs), bits(&expected.0), "wrong CU answer");
            assert_eq!(
                bits(&p.duration_probs),
                bits(&expected.1),
                "wrong LOS answer"
            );
        }
        Err(ServeError::ShutDown) => panic!("a client saw ShutDown while the service was up"),
        Err(err) => assert!(err.is_retryable(), "unexpected error: {err:?}"),
    }
}

#[test]
fn kill_storms_under_load_never_answer_wrong_and_heal() {
    let model = test_model();
    let requests: Vec<SparseVec> = (0..16).map(request).collect();
    let expected: Vec<_> = requests.iter().map(|r| model.probabilities(r)).collect();
    let service = PredictionService::start_with_fallback(
        model,
        ServeConfig {
            max_batch: 32,
            threads: 2,
            queue_capacity: 64,
            ..Default::default()
        },
        Some(Box::new(StubFallback::instant())),
    );

    // Four closed-loop clients for 300 ms while both workers are killed
    // every 20 ms, so respawned workers keep dying.
    let storm = Duration::from_millis(300);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client_id in 0..4 {
            let client = service.client();
            let (requests, expected) = (&requests, &expected);
            scope.spawn(move || {
                let mut i = client_id;
                while start.elapsed() < storm {
                    let idx = i % requests.len();
                    check_outcome(client.predict(requests[idx].clone()), &expected[idx]);
                    i += 4;
                }
            });
        }
        while start.elapsed() < storm {
            std::thread::sleep(Duration::from_millis(20));
            service.inject_worker_failure();
            service.inject_worker_failure();
        }
    });

    // A pipelined burst with kills landing inside assembling batches.
    let client = service.client();
    let mut pending = Vec::new();
    for i in 0..128 {
        if i == 42 || i == 64 {
            service.inject_worker_failure();
        }
        let idx = i % requests.len();
        match client.submit(requests[idx].clone()) {
            Ok(p) => pending.push((idx, p)),
            Err(err) => check_outcome(Err(err), &expected[idx]),
        }
    }
    for (idx, p) in pending {
        check_outcome(p.wait(), &expected[idx]);
    }

    // The supervisor heals back to exact answers from a full-strength pool.
    let healed_by = Instant::now() + Duration::from_secs(10);
    loop {
        let answer = client.predict(requests[0].clone());
        let exact = matches!(&answer, Ok(p) if !p.degraded);
        check_outcome(answer, &expected[0]);
        if exact && service.health().is_full() {
            break;
        }
        assert!(
            Instant::now() < healed_by,
            "service did not heal within 10 s"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(service.health().respawned_total >= 2);
    service.shutdown();
}

#[test]
fn unhealthy_pool_answers_degraded_from_the_fallback() {
    // min_live_fraction > 1 forces degraded mode even on a healthy pool —
    // the deterministic way to pin the degradation path open.
    let service = PredictionService::start_with_fallback(
        test_model(),
        ServeConfig {
            threads: 2,
            min_live_fraction: 2.0,
            ..Default::default()
        },
        Some(Box::new(StubFallback::instant())),
    );
    let client = service.client();
    let p = client
        .predict(request(0))
        .expect("degraded mode still answers");
    assert!(p.degraded, "fallback answers must carry the degraded tag");
    assert_eq!(p.cu_probs, vec![0.5, 0.3, 0.2]);
    assert_eq!(p.duration_probs, vec![0.6, 0.4]);
    service.shutdown();
}

#[test]
fn fallback_catches_scoring_failures_without_client_errors() {
    // Healthy threshold (0.0 never degrades pre-emptively), but a kill-all
    // makes the batch's scoring pass fail — the fallback answers it instead
    // of surfacing ServeError::Pool.
    let service = PredictionService::start_with_fallback(
        test_model(),
        ServeConfig {
            threads: 2,
            min_live_fraction: 0.0,
            ..Default::default()
        },
        Some(Box::new(StubFallback::instant())),
    );
    let client = service.client();
    assert!(!client.predict(request(0)).unwrap().degraded);
    service.inject_worker_failure();
    service.inject_worker_failure();
    // With a fallback configured, no request errors: each is either the
    // model's answer or a tagged degraded one.
    let mut saw_degraded = false;
    let mut healed = false;
    for _ in 0..200 {
        let p = client
            .predict(request(0))
            .expect("fallback must prevent client-visible pool errors");
        if p.degraded {
            saw_degraded = true;
        } else if saw_degraded {
            healed = true;
            break;
        }
    }
    assert!(saw_degraded, "kill-all must have produced degraded answers");
    assert!(healed, "supervisor must heal back to non-degraded answers");
    service.shutdown();
}

#[test]
fn full_queue_sheds_with_overloaded_instead_of_queueing() {
    // A slow fallback pinned into degraded mode makes the dispatcher drain
    // far slower than a tight submission burst, so the 4-slot queue must
    // overflow deterministically.
    let service = PredictionService::start_with_fallback(
        test_model(),
        ServeConfig {
            max_batch: 2,
            max_wait: Duration::from_micros(50),
            threads: 2,
            queue_capacity: 4,
            min_live_fraction: 2.0,
            ..Default::default()
        },
        Some(Box::new(StubFallback::slow(Duration::from_millis(20)))),
    );
    let client = service.client();
    let mut accepted = Vec::new();
    let mut shed = 0usize;
    for i in 0..64 {
        match client.submit(request(i)) {
            Ok(pending) => accepted.push(pending),
            Err(ServeError::Overloaded { capacity }) => {
                assert_eq!(capacity, 4);
                shed += 1;
            }
            Err(other) => panic!("unexpected submit error: {other:?}"),
        }
    }
    assert!(shed > 0, "a 64-burst against a 4-slot queue must shed");
    // Accepted requests are all answered (degraded), none lost.
    for pending in accepted {
        assert!(pending.wait().expect("accepted request lost").degraded);
    }
    service.shutdown();
}

#[test]
fn retry_rides_out_a_kill_all() {
    let model = test_model();
    let expected = model.probabilities(&request(2));
    let service = PredictionService::start(
        model,
        ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_micros(200),
            threads: 2,
            ..Default::default()
        },
    );
    let client = service.client();
    assert!(client.predict(request(2)).is_ok());
    service.inject_worker_failure();
    service.inject_worker_failure();
    let policy = RetryPolicy {
        max_attempts: 100,
        initial_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(10),
    };
    let p = client
        .predict_with_retry(&request(2), &policy)
        .expect("budgeted retry must outlast the heal window");
    assert_eq!(p.cu_probs, expected.0);
    assert_eq!(p.duration_probs, expected.1);
    service.shutdown();
}

#[test]
fn malformed_requests_are_never_retried() {
    let service = PredictionService::start(test_model(), ServeConfig::default());
    let client = service.client();
    // A backoff long enough that even one retry would be visible in elapsed
    // time: FeatureDim must return immediately instead.
    let policy = RetryPolicy {
        max_attempts: 5,
        initial_backoff: Duration::from_secs(5),
        max_backoff: Duration::from_secs(5),
    };
    let started = Instant::now();
    let err = client
        .predict_with_retry(&SparseVec::binary(3, vec![0]), &policy)
        .unwrap_err();
    assert_eq!(
        err,
        ServeError::FeatureDim {
            expected: 6,
            got: 3
        }
    );
    assert!(!err.is_retryable());
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "non-retryable errors must fail without sleeping the backoff"
    );
    service.shutdown();
}

#[test]
fn retryable_classification_matches_the_failure_semantics_table() {
    // The README's failure-modes table promises exactly this split.
    assert!(ServeError::Pool(PoolError::ShutDown).is_retryable());
    assert!(ServeError::Overloaded { capacity: 1 }.is_retryable());
    assert!(ServeError::DeadlineExceeded.is_retryable());
    assert!(!ServeError::FeatureDim {
        expected: 1,
        got: 2
    }
    .is_retryable());
    assert!(!ServeError::ShutDown.is_retryable());
}
