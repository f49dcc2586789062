//! The prediction service: a dispatcher thread that micro-batches requests,
//! scores each batch as one register-blocked `CSR × Θ` pass, normalizes the
//! score rows as one block ([`DmcpModel::normalize_scores`]: one call of the
//! training objective's softmax kernel over both heads), and fans the
//! distributions back to the callers in submission order.  Each answer's
//! reply slot also carries the request's [`SparseVec`] back, on every path,
//! so the caller's thread frees the buffers it allocated: the dispatcher
//! works batch by batch and frees no request memory.
//!
//! The serving path is *self-healing*: a [`pfp_math::Supervisor`] respawns
//! lost scoring workers (capped exponential backoff, seeded jitter), the
//! request queue is bounded so overload sheds with
//! [`ServeError::Overloaded`] instead of growing without bound, per-request
//! deadlines fail fast with [`ServeError::DeadlineExceeded`], and an optional
//! [`FallbackPredictor`] answers (tagged [`Prediction::degraded`]) while the
//! pool is below its health threshold.

use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pfp_core::DmcpModel;
use pfp_math::parallel::chunk_ranges;
use pfp_math::supervise::{BackoffConfig, PoolHealth, Supervisor};
use pfp_math::{CsrMatrix, PoolError, SparseVec};

use crate::batcher::collect_batch;
use crate::reply::{reply_slot, ReplyReceiver, ReplySender};

/// Tuning knobs for the micro-batcher, the scoring pool, and the service's
/// failure policy.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Flush a batch once it holds this many requests (0 behaves as 1).
    pub max_batch: usize,
    /// How long a partial batch may wait for more requests once the queue
    /// has run dry, measured from its first request.  The default of zero is
    /// *flush-on-idle*: drain whatever is already queued (up to `max_batch`),
    /// then score at once.  Batches still fill under load, because requests
    /// that arrive while a batch is being scored queue up for the next one.
    /// A positive value trades that much extra latency at low load for
    /// larger batches.
    pub max_wait: Duration,
    /// Scoring threads (`WorkerPool` width).  `1` scores inline on the
    /// dispatcher thread; `0` resolves to the machine's core count.
    pub threads: usize,
    /// Bound on the request queue (0 behaves as 1).  When full, submissions
    /// are shed with [`ServeError::Overloaded`] — admission control is
    /// explicit, never silent unbounded growth.
    pub queue_capacity: usize,
    /// Latency budget applied to requests submitted without an explicit
    /// deadline.  `None` means such requests never expire.
    pub default_deadline: Option<Duration>,
    /// Degrade to the fallback predictor (when one is configured) while
    /// `live_workers / workers` is below this fraction.  `0.0` never
    /// degrades pre-emptively (the fallback still catches scoring failures);
    /// values above `1.0` force every answer through the fallback.
    pub min_live_fraction: f64,
    /// Respawn backoff policy for the supervised scoring pool.
    pub backoff: BackoffConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 64,
            max_wait: Duration::ZERO,
            threads: 1,
            queue_capacity: 1024,
            default_deadline: None,
            min_live_fraction: 0.5,
            backoff: BackoffConfig::default(),
        }
    }
}

/// Why a prediction request failed.  The service itself stays up: every
/// variant is a per-request answer, never a process abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request's feature vector does not match the model's dimension.
    FeatureDim { expected: usize, got: usize },
    /// The scoring pool failed mid-batch (a worker thread died) and no
    /// fallback predictor was configured; the request was not scored.
    Pool(PoolError),
    /// The bounded request queue was full at submission; the request was
    /// shed without being enqueued.
    Overloaded { capacity: usize },
    /// The request's deadline passed before it could be scored.
    DeadlineExceeded,
    /// The service has shut down and can no longer accept or answer requests.
    ShutDown,
}

impl ServeError {
    /// Whether retrying the same request can possibly succeed.  Transient
    /// conditions (pool failure mid-heal, overload, a missed deadline) are
    /// retryable; a malformed request ([`ServeError::FeatureDim`]) or a
    /// stopped service ([`ServeError::ShutDown`]) will fail identically every
    /// time and must not be retried.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ServeError::Pool(_) | ServeError::Overloaded { .. } | ServeError::DeadlineExceeded
        )
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::FeatureDim { expected, got } => write!(
                f,
                "feature dimension mismatch: model expects {expected}, request has {got}"
            ),
            ServeError::Pool(err) => write!(f, "scoring pool failure: {err}"),
            ServeError::Overloaded { capacity } => {
                write!(f, "request shed: service queue at capacity ({capacity})")
            }
            ServeError::DeadlineExceeded => {
                write!(f, "request deadline passed before scoring")
            }
            ServeError::ShutDown => write!(f, "prediction service has shut down"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Pool(err) => Some(err),
            _ => None,
        }
    }
}

/// One request's answer: the conditional transfer distribution over care
/// units and the duration-class distribution (Eq. 5 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// `p(c | t, H_t)` over the `C` destination care units.
    pub cu_probs: Vec<f64>,
    /// `p(d | t, H_t)` over the `D` duration classes.
    pub duration_probs: Vec<f64>,
    /// How many rows were in the micro-batch this request was scored with
    /// (observability: 1 means nothing else was queued, or arrived within a
    /// positive `max_wait`, so the request was flushed alone; `max_batch`
    /// means a backlog filled the batch).
    pub batch_rows: usize,
    /// `true` when this answer came from the fallback predictor because the
    /// scoring pool was unhealthy — still a valid distribution pair, but not
    /// the DMCP model's.  `false` answers are bitwise identical to
    /// [`DmcpModel::probabilities`].
    pub degraded: bool,
}

/// A replacement scorer used while the DMCP pool is unhealthy: must be O(1)
/// per request and must never fail.  The Markov marginal baseline in
/// `pfp-baselines` implements this.
pub trait FallbackPredictor: Send {
    /// `(num_cus, num_durations)` — checked against the model at startup.
    fn dims(&self) -> (usize, usize);
    /// Answer one request: `(cu_probs, duration_probs)`.
    fn probabilities(&self, features: &SparseVec) -> (Vec<f64>, Vec<f64>);
}

/// What a reply slot carries back to the caller: the answer, and the
/// request's feature vector for the caller's thread to free.
type Reply = (Result<Prediction, ServeError>, SparseVec);

/// One admitted request.
struct Request {
    features: SparseVec,
    /// Absolute expiry, pre-computed at submission; checked at dequeue and
    /// again immediately before scoring.
    deadline: Option<Instant>,
    reply: ReplySender<Reply>,
}

impl Request {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now > d)
    }

    /// Answer the request, handing its feature vector back with the answer.
    fn answer(self, answer: Result<Prediction, ServeError>) {
        self.reply.send((answer, self.features));
    }
}

enum Msg {
    Predict(Request),
    /// Test/bench hook: kill one scoring worker (fault injection).
    InjectWorkerFailure,
    /// Stop the dispatcher after answering the current batch.  An explicit
    /// sentinel rather than channel closure: outstanding [`ServeClient`]
    /// clones each hold a sender, so the channel alone cannot signal
    /// shutdown while clients are alive.
    Shutdown,
}

/// A running prediction service.  Owns the dispatcher thread; dropping the
/// service (or calling [`PredictionService::shutdown`]) closes the request
/// channel, drains in-flight batches, and joins the dispatcher.
pub struct PredictionService {
    tx: Option<SyncSender<Msg>>,
    dispatcher: Option<JoinHandle<()>>,
    health: Arc<Mutex<PoolHealth>>,
    queue_capacity: usize,
    default_deadline: Option<Duration>,
}

/// A cloneable handle for submitting prediction requests.  Each clone may be
/// moved to its own thread; requests from all clones are micro-batched
/// together by the single dispatcher.
#[derive(Clone)]
pub struct ServeClient {
    tx: SyncSender<Msg>,
    queue_capacity: usize,
    default_deadline: Option<Duration>,
}

/// An in-flight request submitted with [`ServeClient::submit`]: call
/// [`wait`](PendingPrediction::wait) for the answer.  The answer arrives
/// through a one-value reply slot shared with the dispatcher.  Dropping the
/// handle abandons the request: it is still scored, and its answer is freed
/// with the slot.
pub struct PendingPrediction {
    reply: ReplyReceiver<Reply>,
}

impl PendingPrediction {
    /// Block for this request's answer.  [`ServeError::ShutDown`] if the
    /// service stopped before answering it.  The request's feature vector
    /// comes back with the answer and is freed here, on the caller's thread.
    pub fn wait(self) -> Result<Prediction, ServeError> {
        self.reply
            .wait()
            .map_or(Err(ServeError::ShutDown), |(answer, _features)| answer)
    }
}

/// Budgeted-retry policy for [`ServeClient::predict_with_retry`]: at most
/// `max_attempts` tries, exponential backoff between them, and retries only
/// on [`ServeError::is_retryable`] errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (0 behaves as 1).
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles per retry.
    pub initial_backoff: Duration,
    /// Clamp on the doubling backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl PredictionService {
    /// Spawn the dispatcher thread around a trained model, with no fallback
    /// predictor: pool failures surface as [`ServeError::Pool`] until the
    /// supervisor heals the pool.
    pub fn start(model: DmcpModel, config: ServeConfig) -> PredictionService {
        Self::start_with_fallback(model, config, None)
    }

    /// Spawn the dispatcher thread with an optional degraded-mode fallback.
    ///
    /// While pool health is below [`ServeConfig::min_live_fraction`] — or a
    /// batch's scoring pass fails outright — requests are answered by
    /// `fallback` and tagged [`Prediction::degraded`] instead of erroring.
    ///
    /// # Panics
    ///
    /// If the fallback's `(num_cus, num_durations)` do not match the model's:
    /// a shape-mismatched fallback would silently answer with distributions
    /// over the wrong classes.
    pub fn start_with_fallback(
        model: DmcpModel,
        config: ServeConfig,
        fallback: Option<Box<dyn FallbackPredictor>>,
    ) -> PredictionService {
        if let Some(fb) = &fallback {
            assert_eq!(
                fb.dims(),
                (model.num_cus, model.num_durations),
                "fallback predictor dims must match the model"
            );
        }
        let queue_capacity = config.queue_capacity.max(1);
        let default_deadline = config.default_deadline;
        let (tx, rx) = std::sync::mpsc::sync_channel::<Msg>(queue_capacity);
        let supervisor = Supervisor::new(config.threads, config.backoff.clone());
        let health = Arc::new(Mutex::new(supervisor.health()));
        let shared_health = Arc::clone(&health);
        let dispatcher = std::thread::Builder::new()
            .name("pfp-serve-dispatcher".into())
            .spawn(move || {
                let mut supervisor = supervisor;
                let width = model.num_cus + model.num_durations;
                // The CSR block is reused across batches: `clear_rows` keeps
                // the index/value capacity, so a steady-state batch packs
                // with zero allocations.
                let mut block = CsrMatrix::with_dim(model.num_features());
                // Every admitted request of the batch, in submission order;
                // a slot is emptied once its request has been answered.
                let mut pending: Vec<Option<Request>> = Vec::new();
                let mut stop = false;
                while !stop {
                    let Some(batch) = collect_batch(&rx, config.max_batch, config.max_wait) else {
                        break;
                    };
                    // One clock read serves the dequeue-time deadline check
                    // of the whole batch.
                    let dequeued = Instant::now();
                    block.clear_rows();
                    pending.clear();
                    for msg in batch {
                        match msg {
                            Msg::Predict(request) => {
                                let got = request.features.dim();
                                if got != model.num_features() {
                                    request.answer(Err(ServeError::FeatureDim {
                                        expected: model.num_features(),
                                        got,
                                    }));
                                } else if request.expired(dequeued) {
                                    // Dequeue-time deadline check: the
                                    // request aged out while queued.
                                    request.answer(Err(ServeError::DeadlineExceeded));
                                } else {
                                    block.push_row(&request.features);
                                    pending.push(Some(request));
                                }
                            }
                            Msg::InjectWorkerFailure => {
                                supervisor.pool().inject_worker_failure();
                            }
                            // Finish answering the batch in flight, then
                            // exit; requests queued after the sentinel drop
                            // with the queue, and each dropped reply sender
                            // closes its slot: the callers get `ShutDown`.
                            Msg::Shutdown => stop = true,
                        }
                    }
                    // Heal before scoring: a lost worker costs at most one
                    // failed/degraded batch before the supervisor respawns it
                    // (subject to backoff when respawns keep dying).
                    supervisor.heal();
                    let snapshot = supervisor.health();
                    let degraded =
                        fallback.is_some() && snapshot.live_fraction() < config.min_live_fraction;
                    if let Ok(mut shared) = shared_health.lock() {
                        *shared = snapshot;
                    }
                    let k = block.rows();
                    if k == 0 {
                        continue;
                    }
                    // Scoring-time deadline check: answer rows that expired
                    // while the batch was assembling, without scoring them.
                    let now = Instant::now();
                    let mut alive = 0usize;
                    for slot in pending.iter_mut() {
                        match slot.take_if(|request| request.expired(now)) {
                            Some(request) => request.answer(Err(ServeError::DeadlineExceeded)),
                            None => alive += 1,
                        }
                    }
                    if alive == 0 {
                        continue;
                    }
                    if degraded {
                        Self::answer_from_fallback(fallback.as_deref(), &mut pending, k);
                        continue;
                    }
                    // Shard the batch across the pool.  Each shard scores its
                    // rows in one register-blocked pass and normalizes them as
                    // one block; both keep the bits of scoring each request
                    // alone, so batched results are bitwise identical to
                    // `model.probabilities` per request.
                    let shards = chunk_ranges(k, supervisor.pool().workers().max(1));
                    let block_ref = &block;
                    let model_ref = &model;
                    let tasks: Vec<_> = shards
                        .into_iter()
                        .map(|range| {
                            move || {
                                let mut scores = vec![0.0; range.len() * width];
                                let mut predictions = Vec::with_capacity(range.len());
                                block_ref.accumulate_scores_range(
                                    &model_ref.theta,
                                    range,
                                    &mut scores,
                                );
                                model_ref.normalize_scores(&mut scores, |cu, dur| {
                                    predictions.push(Prediction {
                                        cu_probs: cu.to_vec(),
                                        duration_probs: dur.to_vec(),
                                        batch_rows: k,
                                        degraded: false,
                                    });
                                });
                                predictions
                            }
                        })
                        .collect();
                    match supervisor.pool().try_run(tasks) {
                        Ok(parts) => {
                            let mut predictions = parts.into_iter().flatten();
                            for slot in pending.drain(..) {
                                let prediction = predictions
                                    .next()
                                    .expect("shard fan-in lost a prediction row");
                                if let Some(request) = slot {
                                    request.answer(Ok(prediction));
                                }
                            }
                        }
                        // The pool failed (worker death) mid-batch.  With a
                        // fallback, the batch is still answered — degraded;
                        // without one, every request in it gets a typed
                        // error.  Either way the service keeps serving, and
                        // the supervisor heals the pool on the next batch.
                        Err(err) => {
                            if fallback.is_some() {
                                Self::answer_from_fallback(fallback.as_deref(), &mut pending, k);
                            } else {
                                for request in pending.drain(..).flatten() {
                                    request.answer(Err(ServeError::Pool(err.clone())));
                                }
                            }
                        }
                    }
                }
            })
            .expect("failed to spawn pfp-serve dispatcher thread");
        PredictionService {
            tx: Some(tx),
            dispatcher: Some(dispatcher),
            health,
            queue_capacity,
            default_deadline,
        }
    }

    fn answer_from_fallback(
        fallback: Option<&dyn FallbackPredictor>,
        pending: &mut Vec<Option<Request>>,
        batch_rows: usize,
    ) {
        let fallback = fallback.expect("answer_from_fallback called without a fallback");
        for request in pending.drain(..).flatten() {
            let (cu_probs, duration_probs) = fallback.probabilities(&request.features);
            request.answer(Ok(Prediction {
                cu_probs,
                duration_probs,
                batch_rows,
                degraded: true,
            }));
        }
    }

    /// A new request handle; clones share the dispatcher.
    pub fn client(&self) -> ServeClient {
        ServeClient {
            tx: self
                .tx
                .clone()
                .expect("prediction service already shut down"),
            queue_capacity: self.queue_capacity,
            default_deadline: self.default_deadline,
        }
    }

    /// The supervised pool's health as of the most recently dispatched batch.
    ///
    /// The snapshot is refreshed by the dispatcher once per batch, so it goes
    /// stale while the service is idle — a worker killed between batches is
    /// reported (and healed) only when the next request arrives.
    pub fn health(&self) -> PoolHealth {
        self.health
            .lock()
            .expect("health snapshot lock poisoned")
            .clone()
    }

    /// Kill one scoring worker (fault injection for tests and the chaos
    /// harness).  The failure surfaces on the batch *after* the message is
    /// dispatched; requests already answered are unaffected — and the
    /// supervisor respawns the worker on the following batch.
    pub fn inject_worker_failure(&self) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(Msg::InjectWorkerFailure);
        }
    }

    /// Stop accepting requests, drain in-flight batches, and join the
    /// dispatcher.  Outstanding [`ServeClient`] handles get
    /// [`ServeError::ShutDown`] from then on.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(Msg::Shutdown);
        }
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for PredictionService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl ServeClient {
    /// Submit one featurized sample without blocking for its answer.
    ///
    /// This is the admission-control point: if the bounded request queue is
    /// full the request is shed immediately with
    /// [`ServeError::Overloaded`] — it never queues unboundedly.  The
    /// request inherits [`ServeConfig::default_deadline`] when one is set.
    pub fn submit(&self, features: SparseVec) -> Result<PendingPrediction, ServeError> {
        self.submit_inner(features, self.default_deadline.map(|d| Instant::now() + d))
    }

    /// [`submit`](Self::submit) with an explicit per-request latency budget
    /// (overriding the config default).  A zero budget expires immediately —
    /// useful for load-shedding tests.
    pub fn submit_with_deadline(
        &self,
        features: SparseVec,
        budget: Duration,
    ) -> Result<PendingPrediction, ServeError> {
        self.submit_inner(features, Some(Instant::now() + budget))
    }

    fn submit_inner(
        &self,
        features: SparseVec,
        deadline: Option<Instant>,
    ) -> Result<PendingPrediction, ServeError> {
        let (reply, reply_rx) = reply_slot();
        match self.tx.try_send(Msg::Predict(Request {
            features,
            deadline,
            reply,
        })) {
            Ok(()) => Ok(PendingPrediction { reply: reply_rx }),
            Err(TrySendError::Full(_)) => Err(ServeError::Overloaded {
                capacity: self.queue_capacity,
            }),
            Err(TrySendError::Disconnected(_)) => Err(ServeError::ShutDown),
        }
    }

    /// Submit one featurized sample and block for its distribution pair.
    ///
    /// Errors are per-request: a dimension mismatch, shed, missed deadline,
    /// or scoring-pool failure answers *this* call with `Err`, leaving the
    /// service (and other clients) running.
    pub fn predict(&self, features: SparseVec) -> Result<Prediction, ServeError> {
        self.submit(features)?.wait()
    }

    /// [`predict`](Self::predict) with an explicit per-request latency
    /// budget.
    pub fn predict_with_deadline(
        &self,
        features: SparseVec,
        budget: Duration,
    ) -> Result<Prediction, ServeError> {
        self.submit_with_deadline(features, budget)?.wait()
    }

    /// [`predict`](Self::predict) with budgeted retries: retry only while
    /// [`ServeError::is_retryable`] holds (a pool failure mid-heal, a shed,
    /// a missed deadline), sleeping a doubling backoff between attempts.
    /// Non-retryable errors ([`ServeError::FeatureDim`],
    /// [`ServeError::ShutDown`]) return immediately — retrying a malformed
    /// request would only burn the budget on identical failures.
    pub fn predict_with_retry(
        &self,
        features: &SparseVec,
        policy: &RetryPolicy,
    ) -> Result<Prediction, ServeError> {
        let attempts = policy.max_attempts.max(1);
        let mut backoff = policy.initial_backoff;
        let mut last_err = ServeError::ShutDown;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(policy.max_backoff);
            }
            match self.predict(features.clone()) {
                Ok(prediction) => return Ok(prediction),
                Err(err) if err.is_retryable() => last_err = err,
                Err(err) => return Err(err),
            }
        }
        Err(last_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfp_core::FeatureMapKind;
    use pfp_math::Matrix;

    struct Uniform;

    impl FallbackPredictor for Uniform {
        fn dims(&self) -> (usize, usize) {
            (2, 2)
        }
        fn probabilities(&self, _: &SparseVec) -> (Vec<f64>, Vec<f64>) {
            (vec![0.5; 2], vec![0.5; 2])
        }
    }

    fn service(threads: usize, fallback: Option<Box<dyn FallbackPredictor>>) -> PredictionService {
        let theta = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64 * 0.1);
        let model = DmcpModel {
            selection: theta.clone(),
            theta,
            kind: FeatureMapKind::ModulatedPoisson,
            profile_dim: 2,
            service_dim: 2,
            num_cus: 2,
            num_durations: 2,
        };
        let config = ServeConfig {
            threads,
            // Above 1: with a fallback, every answer is degraded.
            min_live_fraction: 2.0,
            ..ServeConfig::default()
        };
        PredictionService::start_with_fallback(model, config, fallback)
    }

    /// Submit `features` (with a latency `budget`, if given) and wait for
    /// the answer, checking that the request's own feature buffers came back
    /// with it.
    fn round_trip(
        client: &ServeClient,
        features: SparseVec,
        budget: Option<Duration>,
    ) -> Result<Prediction, ServeError> {
        let buffers = (features.indices().as_ptr(), features.values().as_ptr());
        let pending = match budget {
            Some(budget) => client.submit_with_deadline(features, budget),
            None => client.submit(features),
        };
        let (answer, features) = pending
            .expect("queue has room")
            .reply
            .wait()
            .expect("request answered");
        assert_eq!(
            (features.indices().as_ptr(), features.values().as_ptr()),
            buffers,
            "{answer:?} came back without its request's buffers"
        );
        answer
    }

    /// Every answer path hands the request's feature vector back to its
    /// caller: scored, fallback, `FeatureDim`, deadline and pool error.
    #[test]
    fn every_answer_carries_its_request_buffers_back() {
        let features = || SparseVec::from_pairs(4, vec![(0, 1.5), (3, 0.5)]);

        let scored = service(1, None);
        let client = scored.client();
        assert!(!round_trip(&client, features(), None).unwrap().degraded);
        assert!(matches!(
            round_trip(&client, SparseVec::binary(3, vec![0]), None),
            Err(ServeError::FeatureDim { .. })
        ));
        assert_eq!(
            round_trip(&client, features(), Some(Duration::ZERO)),
            Err(ServeError::DeadlineExceeded)
        );
        scored.shutdown();

        let degraded = service(1, Some(Box::new(Uniform)));
        assert!(
            round_trip(&degraded.client(), features(), None)
                .unwrap()
                .degraded
        );
        degraded.shutdown();

        // Killing both workers fails the next scored batch with a pool error.
        let pooled = service(2, None);
        let client = pooled.client();
        assert!(round_trip(&client, features(), None).is_ok());
        pooled.inject_worker_failure();
        pooled.inject_worker_failure();
        let failed = (0..200)
            .map(|_| round_trip(&client, features(), None))
            .take_while(Result::is_err)
            .inspect(|answer| assert!(matches!(answer, Err(ServeError::Pool(_))), "{answer:?}"))
            .count();
        assert!(failed >= 1, "no batch failed after killing every worker");
        pooled.shutdown();
    }
}
