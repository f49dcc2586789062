//! # pfp-serve
//!
//! A micro-batched prediction service over a trained [`DmcpModel`]: feature
//! vector in, per-unit transfer distribution out.
//!
//! ## Design
//!
//! No async runtime — the service is a thread-per-core + channel design on
//! the workspace's existing [`pfp_math::WorkerPool`]:
//!
//! 1. **Clients** ([`ServeClient`], cheaply cloneable) send requests down a
//!    bounded channel and block on a one-value reply slot: one `Arc` with a
//!    mutex-guarded answer and a condition variable, notified only when the
//!    caller is actually parked.
//! 2. A single **dispatcher** thread takes every request already queued, up
//!    to `max_batch`, and flushes as soon as the queue runs dry
//!    ([`batcher::collect_batch`]; a positive [`ServeConfig::max_wait`]
//!    holds a partial batch open that long for late arrivals).  Batching is
//!    self-clocking: requests that arrive while one batch is scored form the
//!    next, so a lone request never waits on a timer and a backlog still
//!    fills batches.  The dispatcher packs each batch into one reused
//!    [`pfp_math::CsrMatrix`], scores it as a single register-blocked
//!    `CSR × Θ` pass sharded over the pool, and normalizes each shard's
//!    score rows as one block ([`DmcpModel::normalize_scores`]).
//! 3. Results fan back in **submission order**; micro-batching is invisible
//!    to callers except as latency.  Each reply carries the request's
//!    feature vector back, so the caller frees what it allocated.
//!
//! Batched scoring performs the same floating-point operations in the same
//! order as scoring each request alone, and the block normalization gives
//! each head the bits of a per-row softmax, so the returned distributions
//! are **bitwise identical** to [`DmcpModel::probabilities`] — batching is
//! purely a throughput optimisation, never an accuracy trade.
//!
//! ## Failure semantics
//!
//! Errors are per-request, never process aborts, and the serving stack is
//! **self-healing**:
//!
//! * A [`pfp_math::Supervisor`] respawns lost scoring workers with capped
//!   exponential backoff — a killed worker costs at most a batch or two of
//!   [`ServeError::Pool`] errors (or degraded answers, see below) before the
//!   pool returns to full strength.
//! * The request queue is **bounded** ([`ServeConfig::queue_capacity`]):
//!   overload sheds immediately with [`ServeError::Overloaded`] instead of
//!   queueing unboundedly.
//! * Per-request **deadlines** ([`ServeClient::predict_with_deadline`] or
//!   [`ServeConfig::default_deadline`]) fail fast with
//!   [`ServeError::DeadlineExceeded`], checked both at dequeue and again
//!   just before scoring.
//! * With a [`FallbackPredictor`] configured
//!   ([`PredictionService::start_with_fallback`]), an unhealthy pool answers
//!   from the O(1) fallback — tagged [`Prediction::degraded`] — rather than
//!   erroring.  Healthy-path answers stay bitwise identical to
//!   [`DmcpModel::probabilities`].
//! * [`ServeClient::predict_with_retry`] retries transient errors (and only
//!   those — never [`ServeError::FeatureDim`]) on a budgeted doubling
//!   backoff.
//!
//! A malformed request gets [`ServeError::FeatureDim`], and requests after
//! shutdown get [`ServeError::ShutDown`]; both are permanent
//! (`!is_retryable`).
//!
//! ## Example
//!
//! ```
//! use pfp_core::{DmcpModel, FeatureMapKind};
//! use pfp_math::{Matrix, SparseVec};
//! use pfp_serve::{PredictionService, ServeConfig};
//!
//! let model = DmcpModel {
//!     theta: Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64 * 0.1),
//!     selection: Matrix::zeros(4, 4),
//!     kind: FeatureMapKind::ModulatedPoisson,
//!     profile_dim: 2,
//!     service_dim: 2,
//!     num_cus: 2,
//!     num_durations: 2,
//! };
//! let reference = model.probabilities(&SparseVec::binary(4, vec![0, 2]));
//!
//! let service = PredictionService::start(model, ServeConfig::default());
//! let client = service.client();
//! let prediction = client.predict(SparseVec::binary(4, vec![0, 2])).unwrap();
//! assert_eq!(prediction.cu_probs, reference.0);
//! assert_eq!(prediction.duration_probs, reference.1);
//! assert!(!prediction.degraded);
//! service.shutdown();
//! ```

pub mod batcher;
mod reply;
pub mod service;

pub use pfp_core::DmcpModel;
pub use pfp_math::supervise::{BackoffConfig, PoolHealth};
pub use service::{
    FallbackPredictor, PendingPrediction, Prediction, PredictionService, RetryPolicy, ServeClient,
    ServeConfig, ServeError,
};

#[cfg(test)]
mod tests {
    use super::*;
    use pfp_core::FeatureMapKind;
    use pfp_math::{Matrix, PoolError, SparseVec};
    use std::sync::{mpsc, Arc, Barrier};
    use std::time::{Duration, Instant};

    /// A deterministic non-trivial model: 6 features, 3 CUs, 2 durations
    /// (theta is 6×5, exercising the generic-column kernel path).
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

    #[test]
    fn batched_service_answers_match_the_model_bitwise() {
        let model = test_model();
        let expected: Vec<_> = (0..64).map(|i| model.probabilities(&request(i))).collect();
        let service = PredictionService::start(
            model,
            ServeConfig {
                max_batch: 16,
                max_wait: Duration::from_millis(2),
                threads: 2,
                ..Default::default()
            },
        );
        // Submit from several client threads so batches actually form.
        let mut handles = Vec::new();
        for t in 0..4 {
            let client = service.client();
            handles.push(std::thread::spawn(move || {
                (0..16)
                    .map(|j| {
                        let i = t * 16 + j;
                        (i, client.predict(request(i)).unwrap())
                    })
                    .collect::<Vec<_>>()
            }));
        }
        for handle in handles {
            for (i, prediction) in handle.join().unwrap() {
                let (cu, dur) = &expected[i];
                assert_eq!(
                    &prediction.cu_probs, cu,
                    "cu probs diverged for request {i}"
                );
                assert_eq!(
                    &prediction.duration_probs, dur,
                    "duration probs diverged for request {i}"
                );
                assert!(prediction.batch_rows >= 1);
            }
        }
        service.shutdown();
    }

    #[test]
    fn dimension_mismatch_is_a_per_request_error() {
        let service = PredictionService::start(test_model(), ServeConfig::default());
        let client = service.client();
        let err = client.predict(SparseVec::binary(3, vec![0])).unwrap_err();
        assert_eq!(
            err,
            ServeError::FeatureDim {
                expected: 6,
                got: 3
            }
        );
        // The service is still healthy afterwards.
        assert!(client.predict(request(0)).is_ok());
    }

    #[test]
    fn killing_every_worker_self_heals_back_to_bitwise_correct_answers() {
        let model = test_model();
        let expected = model.probabilities(&request(0));
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
        // Healthy first.
        assert!(client.predict(request(0)).is_ok());
        // Kill both workers.  The poison jobs sit ahead of any scoring job in
        // the pool's FIFO queue, so the next batch fails — and the supervisor
        // respawns the workers on the batch after that.
        service.inject_worker_failure();
        service.inject_worker_failure();
        // The health snapshot is refreshed before each batch is scored, so a
        // healed answer can arrive while one worker has yet to eat its
        // poison job.  Keep predicting until the snapshot shows both workers
        // respawned and the pool at full strength.
        let healed = |health: &PoolHealth| health.respawned_total >= 2 && health.is_full();
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut requests = 0usize;
        while !healed(&service.health()) {
            assert!(
                Instant::now() < deadline,
                "service never healed after kill-all: {:?}",
                service.health()
            );
            match client.predict(request(0)) {
                // An answer while healing is the DMCP model's, bitwise — not
                // a fallback.
                Ok(prediction) => {
                    assert_eq!(prediction.cu_probs, expected.0, "request {requests}");
                    assert_eq!(prediction.duration_probs, expected.1);
                    assert!(!prediction.degraded);
                }
                // A bounded window of typed pool errors while healing is the
                // contract; anything else (panic, wrong variant) is a bug.
                Err(ServeError::Pool(PoolError::ShutDown))
                | Err(ServeError::Pool(PoolError::WorkerLost { .. })) => {}
                Err(other) => panic!("request {requests}: expected a pool error, got {other:?}"),
            }
            requests += 1;
        }
        // Recovered answers are the DMCP model's, bitwise — not a fallback.
        let prediction = client.predict(request(0)).expect("a healed pool answers");
        assert_eq!(
            prediction.cu_probs, expected.0,
            "healed after {requests} requests"
        );
        assert_eq!(prediction.duration_probs, expected.1);
        assert!(!prediction.degraded);
        let health = service.health();
        assert!(health.is_full(), "pool not at full strength: {health:?}");
        assert!(health.respawned_total >= 2);
        service.shutdown();
    }

    #[test]
    fn killing_one_of_many_workers_keeps_answers_correct() {
        let model = test_model();
        let expected = model.probabilities(&request(5));
        let service = PredictionService::start(
            model,
            ServeConfig {
                max_batch: 4,
                max_wait: Duration::from_micros(100),
                threads: 4,
                ..Default::default()
            },
        );
        service.inject_worker_failure();
        let client = service.client();
        // One worker dies eating the poison job; the other three keep the
        // pool (and its bitwise scoring) fully functional.  A request may
        // race the poison into the same batch and fail; retry past it.
        let mut ok = 0;
        for _ in 0..50 {
            if let Ok(prediction) = client.predict(request(5)) {
                assert_eq!(prediction.cu_probs, expected.0);
                assert_eq!(prediction.duration_probs, expected.1);
                ok += 1;
            }
        }
        assert!(ok > 0, "no request succeeded after a single-worker failure");
        service.shutdown();
    }

    #[test]
    fn zero_budget_requests_fail_fast_with_deadline_exceeded() {
        let service = PredictionService::start(
            test_model(),
            ServeConfig {
                // A long flush timer so the deadline always expires while the
                // request waits in the batcher.
                max_batch: 64,
                max_wait: Duration::from_millis(20),
                threads: 1,
                ..Default::default()
            },
        );
        let client = service.client();
        assert_eq!(
            client
                .predict_with_deadline(request(0), Duration::ZERO)
                .unwrap_err(),
            ServeError::DeadlineExceeded
        );
        // Deadlines are per-request: an un-budgeted request still succeeds.
        assert!(client.predict(request(0)).is_ok());
        service.shutdown();
    }

    #[test]
    fn default_deadline_applies_to_plain_predict() {
        let service = PredictionService::start(
            test_model(),
            ServeConfig {
                max_batch: 64,
                max_wait: Duration::from_millis(20),
                threads: 1,
                default_deadline: Some(Duration::ZERO),
                ..Default::default()
            },
        );
        let client = service.client();
        assert_eq!(
            client.predict(request(0)).unwrap_err(),
            ServeError::DeadlineExceeded
        );
        service.shutdown();
    }

    #[test]
    fn shutdown_is_graceful_and_later_requests_error() {
        let service = PredictionService::start(test_model(), ServeConfig::default());
        let client = service.client();
        assert!(client.predict(request(1)).is_ok());
        service.shutdown();
        assert_eq!(
            client.predict(request(1)).unwrap_err(),
            ServeError::ShutDown
        );
    }

    #[test]
    fn drop_joins_the_dispatcher() {
        let service = PredictionService::start(test_model(), ServeConfig::default());
        let client = service.client();
        drop(service);
        assert_eq!(
            client.predict(request(2)).unwrap_err(),
            ServeError::ShutDown
        );
    }

    #[test]
    fn dropped_pending_predictions_leave_later_answers_bitwise_correct() {
        let model = test_model();
        let expected: Vec<_> = (0..32).map(|i| model.probabilities(&request(i))).collect();
        let service = PredictionService::start(model, ServeConfig::default());
        let client = service.client();
        // Abandon every other request while it is queued or being scored.
        let pending: Vec<_> = (0..32)
            .map(|i| client.submit(request(i)).unwrap())
            .collect();
        let kept: Vec<_> = pending
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 1)
            .collect();
        for (i, pending) in kept {
            let prediction = pending.wait().unwrap();
            assert_eq!(prediction.cu_probs, expected[i].0, "request {i}");
            assert_eq!(prediction.duration_probs, expected[i].1, "request {i}");
        }
        for (i, (cu, dur)) in expected.iter().enumerate() {
            let prediction = client.predict(request(i)).unwrap();
            assert_eq!(&prediction.cu_probs, cu, "later request {i}");
            assert_eq!(&prediction.duration_probs, dur, "later request {i}");
        }
        service.shutdown();
    }

    #[test]
    fn shutdown_racing_pipelined_submits_answers_each_request_or_shuts_it_down() {
        const CLIENTS: usize = 4;
        const PER_CLIENT: usize = 256;
        let model = test_model();
        let expected: Vec<_> = (0..CLIENTS * PER_CLIENT)
            .map(|i| model.probabilities(&request(i)))
            .collect();
        for round in 0..10 {
            let service = PredictionService::start(
                model.clone(),
                ServeConfig {
                    // Room for every request and the shutdown sentinel, so
                    // none is shed.
                    queue_capacity: CLIENTS * PER_CLIENT + 1,
                    ..Default::default()
                },
            );
            let start = Arc::new(Barrier::new(CLIENTS + 1));
            let (done_tx, done_rx) = mpsc::channel();
            for t in 0..CLIENTS {
                let client = service.client();
                let start = Arc::clone(&start);
                let done_tx = done_tx.clone();
                std::thread::spawn(move || {
                    start.wait();
                    let pending: Vec<_> = (t * PER_CLIENT..(t + 1) * PER_CLIENT)
                        .map(|i| (i, client.submit(request(i))))
                        .collect();
                    let answers: Vec<_> = pending
                        .into_iter()
                        .map(|(i, p)| (i, p.and_then(PendingPrediction::wait)))
                        .collect();
                    let _ = done_tx.send(answers);
                });
            }
            start.wait();
            service.shutdown();
            // Watchdog: a reply that is never sent nor closed hangs its
            // client, which must fail the test rather than stall it.
            let deadline = Instant::now() + Duration::from_secs(10);
            for _ in 0..CLIENTS {
                let answers = done_rx
                    .recv_timeout(deadline.saturating_duration_since(Instant::now()))
                    .unwrap_or_else(|_| panic!("round {round}: a client hung after shutdown"));
                for (i, answer) in answers {
                    match answer {
                        Ok(prediction) => {
                            assert_eq!(prediction.cu_probs, expected[i].0, "request {i}");
                            assert_eq!(prediction.duration_probs, expected[i].1);
                        }
                        Err(ServeError::ShutDown) => {}
                        Err(other) => panic!("round {round}, request {i}: got {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn serial_pool_service_works_end_to_end() {
        let model = test_model();
        let expected = model.probabilities(&request(3));
        let service = PredictionService::start(
            model,
            ServeConfig {
                max_batch: 2,
                max_wait: Duration::from_micros(50),
                threads: 1,
                ..Default::default()
            },
        );
        let client = service.client();
        // Fault injection is a no-op on the serial pool.
        service.inject_worker_failure();
        let prediction = client.predict(request(3)).unwrap();
        assert_eq!(prediction.cu_probs, expected.0);
        assert_eq!(prediction.duration_probs, expected.1);
        service.shutdown();
    }
}
