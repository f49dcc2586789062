//! Property tests of the serving-path exactness contract: scoring a
//! micro-batch of `k` requests as one register-blocked `CSR × Θ` pass must be
//! **bitwise identical** to `k` independent single-request scorings, for
//! every batch size the micro-batcher produces (`k ∈ {1, 2, 7, 64}`) and for
//! every monomorphised column fast path of the CSR kernel (`C + D ∈
//! {4, 8, 16}`) plus the generic fallback.
//!
//! Micro-batching is a throughput optimisation; it must never perturb a
//! prediction by even one ULP.  The contract holds because the batched kernel
//! visits each row's nonzeros in the same order as the per-`SparseVec` walk —
//! the CSR packing only changes memory layout, never operation order.

use proptest::prelude::*;

use patient_flow::core::{DmcpModel, FeatureMapKind};
use patient_flow::math::{CsrMatrix, Matrix, SparseVec};
use patient_flow::serve::{PredictionService, ServeConfig};

const DIM: usize = 10;

/// The batch sizes the dispatcher actually produces: a lone request flushed
/// on idle, small partial batches, and a full `max_batch` flush.
const BATCH_SIZES: [usize; 4] = [1, 2, 7, 64];

/// `(C, D)` pairs hitting each monomorphised column width (4, 8, 16) of
/// `CsrMatrix::accumulate_scores_range`, plus the generic-column fallback.
const HEAD_SPLITS: [(usize, usize); 4] = [(2, 2), (4, 4), (8, 8), (3, 2)];

fn model_for(num_cus: usize, num_durations: usize, theta_seed: f64) -> DmcpModel {
    let cols = num_cus + num_durations;
    let theta = Matrix::from_fn(DIM, cols, |r, c| {
        ((r * cols + c) as f64 * theta_seed).sin() * 0.8
    });
    DmcpModel {
        selection: theta.clone(),
        theta,
        kind: FeatureMapKind::ModulatedPoisson,
        profile_dim: DIM / 2,
        service_dim: DIM - DIM / 2,
        num_cus,
        num_durations,
    }
}

/// One request per raw tuple; two active dimensions each so batched rows
/// overlap on Θ rows.
fn build_requests(raw: &[(i64, f64)]) -> Vec<SparseVec> {
    raw.iter()
        .map(|&(idx, value)| {
            let first = (idx as usize) % DIM;
            let second = (first + 3) % DIM;
            SparseVec::from_pairs(DIM, vec![(first as u32, value), (second as u32, 1.0)])
        })
        .collect()
}

proptest! {
    /// Batched block scoring is bitwise identical to k independent
    /// single-request scorings, across every column fast path.
    #[test]
    fn batched_scoring_is_bitwise_identical_to_single_request_scoring(
        raw in proptest::collection::vec((0i64..DIM as i64, -2.0f64..2.0), 64),
        theta_seed in 0.05f64..1.5,
    ) {
        let pool = build_requests(&raw);
        for &(num_cus, num_durations) in &HEAD_SPLITS {
            let model = model_for(num_cus, num_durations, theta_seed);
            for &k in &BATCH_SIZES {
                let rows: Vec<&SparseVec> = (0..k).map(|i| &pool[i % pool.len()]).collect();
                let block = CsrMatrix::from_rows(DIM, rows.iter().copied());
                let batched = model.probabilities_block(&block);
                prop_assert_eq!(batched.len(), k);
                for (i, (row, (batch_cu, batch_dur))) in
                    rows.iter().zip(batched.iter()).enumerate()
                {
                    let (single_cu, single_dur) = model.probabilities(row);
                    for (a, b) in single_cu.iter().zip(batch_cu.iter()) {
                        prop_assert!(
                            a.to_bits() == b.to_bits(),
                            "cu probs diverged: k={} row={} cols={}",
                            k, i, num_cus + num_durations
                        );
                    }
                    for (a, b) in single_dur.iter().zip(batch_dur.iter()) {
                        prop_assert!(
                            a.to_bits() == b.to_bits(),
                            "duration probs diverged: k={} row={} cols={}",
                            k, i, num_cus + num_durations
                        );
                    }
                }
            }
        }
    }

    /// The same contract through the live service: requests batched by the
    /// dispatcher (multi-threaded scoring pool included) answer bitwise
    /// identically to direct model calls.
    #[test]
    fn live_service_answers_are_bitwise_identical_to_direct_model_calls(
        raw in proptest::collection::vec((0i64..DIM as i64, -2.0f64..2.0), 1..32),
        theta_seed in 0.05f64..1.5,
    ) {
        let requests = build_requests(&raw);
        let model = model_for(4, 4, theta_seed);
        let expected: Vec<_> = requests.iter().map(|f| model.probabilities(f)).collect();
        let service = PredictionService::start(
            model,
            ServeConfig {
                max_batch: 8,
                max_wait: std::time::Duration::from_micros(100),
                threads: 2,
                ..Default::default()
            },
        );
        let client = service.client();
        for (features, (cu, dur)) in requests.iter().zip(expected.iter()) {
            let prediction = client.predict(features.clone()).unwrap();
            prop_assert_eq!(&prediction.cu_probs, cu);
            prop_assert_eq!(&prediction.duration_probs, dur);
        }
        service.shutdown();
    }
}

/// The contract under the shipping config (`ServeConfig::default()`, i.e.
/// flush-on-idle): a pipelined burst that backs up the queue, then
/// one-at-a-time requests that each find it empty.  Every answer is bitwise
/// equal to a direct model call whatever batch it landed in.  Batch sizes
/// are only range-checked — how a burst splits depends on thread timing.
#[test]
fn default_config_answers_are_bitwise_identical_for_bursts_and_sequential_requests() {
    let raw: Vec<(i64, f64)> = (0..256)
        .map(|i| (i as i64 * 7 % DIM as i64, ((i % 13) as f64 - 6.0) * 0.3))
        .collect();
    let requests = build_requests(&raw);
    let model = model_for(8, 8, 0.37);
    let expected: Vec<_> = requests.iter().map(|f| model.probabilities(f)).collect();
    let config = ServeConfig::default();
    let max_batch = config.max_batch;
    let service = PredictionService::start(model, config);
    let client = service.client();
    let pending: Vec<_> = requests
        .iter()
        .map(|f| {
            client
                .submit(f.clone())
                .expect("burst fits the default queue")
        })
        .collect();
    // Lazy chain: every burst answer is awaited before the first sequential
    // request is sent.
    let burst = pending.into_iter().map(|p| p.wait().unwrap());
    let sequential = requests.iter().map(|f| client.predict(f.clone()).unwrap());
    let answers: Vec<_> = burst.chain(sequential).collect();
    for (i, prediction) in answers.iter().enumerate() {
        let (cu, dur) = &expected[i % requests.len()];
        assert_eq!(&prediction.cu_probs, cu, "cu probs diverged for answer {i}");
        assert_eq!(
            &prediction.duration_probs, dur,
            "duration probs diverged for answer {i}"
        );
        assert!(!prediction.degraded);
        assert!(
            (1..=max_batch).contains(&prediction.batch_rows),
            "answer {i} came from a batch of {} rows",
            prediction.batch_rows
        );
    }
    service.shutdown();
}
