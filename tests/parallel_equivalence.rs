//! Property tests of the parallel-training determinism contract: sharded
//! gradient/loss accumulation must match the serial path to within 1e-12 at
//! any thread count, including the degenerate case of more threads than
//! samples, and must be bitwise-reproducible for a fixed thread count.
//!
//! The serial evaluation carries one stronger clause: `value`, `gradient` and
//! the fused `value_and_gradient` — all one batched fold over the cohort's CSR
//! packing (`pfp_math::CsrMatrix`) — **must match the per-sample `SparseVec`
//! oracle (`per_sample_value_and_gradient`) bitwise**, because the batched
//! kernels perform the identical floating-point operations in the identical
//! order and only change the memory layout.

use proptest::prelude::*;

use patient_flow::core::dataset::Sample;
use patient_flow::core::loss::{per_sample_value_and_gradient, DmcpObjective};
use patient_flow::core::{train, Dataset, TrainConfig};
use patient_flow::ehr::{generate_cohort, CohortConfig};
use patient_flow::math::parallel::chunk_ranges;
use patient_flow::math::{Matrix, SparseVec};
use patient_flow::optim::SmoothObjective;

const DIM: usize = 12;
const NUM_CUS: usize = 3;
const NUM_DURATIONS: usize = 4;

/// Build one sample per raw tuple: `(seed index, value, cu label, duration)`.
/// Each sample activates two feature dimensions so gradients touch
/// overlapping rows across samples.
fn build_samples(raw: &[(i64, f64, i64, i64)]) -> Vec<Sample> {
    raw.iter()
        .enumerate()
        .map(|(patient_id, &(idx, value, cu, dur))| {
            let first = (idx as usize) % DIM;
            let second = (first + 5) % DIM;
            Sample {
                patient_id,
                features: SparseVec::from_pairs(
                    DIM,
                    vec![(first as u32, value), (second as u32, 1.0)],
                ),
                cu_label: (cu as usize) % NUM_CUS,
                duration_label: (dur as usize) % NUM_DURATIONS,
            }
        })
        .collect()
}

proptest! {
    /// Sharded accumulation matches the serial gradient and loss to ≤ 1e-12
    /// for every thread count, including threads > samples (degenerate case:
    /// one sample per shard).
    #[test]
    fn sharded_gradient_matches_serial_at_any_thread_count(
        raw in proptest::collection::vec((0i64..DIM as i64, 0.1f64..2.0, 0i64..16, 0i64..16), 1..40),
        threads in 2i64..10,
    ) {
        let samples = build_samples(&raw);
        let cols = NUM_CUS + NUM_DURATIONS;
        let theta = Matrix::from_fn(DIM, cols, |r, c| 0.05 * (r as f64) - 0.04 * (c as f64));

        let serial = DmcpObjective::new(&samples, None, DIM, NUM_CUS, NUM_DURATIONS);
        let mut grad_serial = Matrix::zeros(DIM, cols);
        serial.gradient(&theta, &mut grad_serial);

        let sharded = DmcpObjective::new(&samples, None, DIM, NUM_CUS, NUM_DURATIONS)
            .with_threads(threads as usize);
        let mut grad_sharded = Matrix::zeros(DIM, cols);
        sharded.gradient(&theta, &mut grad_sharded);

        let max_diff = grad_sharded.sub(&grad_serial).max_abs();
        prop_assert!(
            max_diff <= 1e-12,
            "threads={} samples={} max gradient diff={:e}",
            threads, samples.len(), max_diff
        );
        let loss_diff = (sharded.value(&theta) - serial.value(&theta)).abs();
        prop_assert!(loss_diff <= 1e-12, "loss diff={:e}", loss_diff);
    }

    /// Per-sample weights shard identically to the unweighted path.
    #[test]
    fn sharded_gradient_matches_serial_with_weights(
        raw in proptest::collection::vec((0i64..DIM as i64, 0.1f64..2.0, 0i64..16, 0i64..16), 2..24),
        weight_seed in 0.1f64..5.0,
        threads in 2i64..7,
    ) {
        let samples = build_samples(&raw);
        let weights: Vec<f64> = (0..samples.len())
            .map(|i| weight_seed + 0.3 * (i % 4) as f64)
            .collect();
        let cols = NUM_CUS + NUM_DURATIONS;
        let theta = Matrix::from_fn(DIM, cols, |r, c| 0.02 * ((r + c) as f64));

        let serial = DmcpObjective::new(&samples, Some(&weights), DIM, NUM_CUS, NUM_DURATIONS);
        let sharded = DmcpObjective::new(&samples, Some(&weights), DIM, NUM_CUS, NUM_DURATIONS)
            .with_threads(threads as usize);
        let mut a = Matrix::zeros(DIM, cols);
        let mut b = Matrix::zeros(DIM, cols);
        serial.gradient(&theta, &mut a);
        sharded.gradient(&theta, &mut b);
        prop_assert!(b.sub(&a).max_abs() <= 1e-12);
    }

    /// Serial `value`, `gradient` and fused `value_and_gradient` == the
    /// per-sample oracle, **bitwise**, with and without per-sample weights.
    #[test]
    fn fused_serial_matches_separate_serial_bitwise(
        raw in proptest::collection::vec((0i64..DIM as i64, 0.1f64..2.0, 0i64..16, 0i64..16), 1..40),
        weighted in 0i64..2,
    ) {
        let samples = build_samples(&raw);
        let weights: Vec<f64> = (0..samples.len()).map(|i| 0.2 + 0.5 * (i % 3) as f64).collect();
        let weights = if weighted == 1 { Some(&weights[..]) } else { None };
        let cols = NUM_CUS + NUM_DURATIONS;
        let theta = Matrix::from_fn(DIM, cols, |r, c| 0.03 * (r as f64) - 0.05 * (c as f64));

        let obj = DmcpObjective::new(&samples, weights, DIM, NUM_CUS, NUM_DURATIONS);
        let mut grad_oracle = Matrix::zeros(DIM, cols);
        let value_oracle = per_sample_value_and_gradient(
            &samples, weights, NUM_CUS, NUM_DURATIONS, &theta, &mut grad_oracle,
        );

        let mut grad_sep = Matrix::zeros(DIM, cols);
        obj.gradient(&theta, &mut grad_sep);
        let value_sep = obj.value(&theta);

        let mut grad_fused = Matrix::zeros(DIM, cols);
        let value_fused = obj.value_and_gradient(&theta, &mut grad_fused);

        // Bitwise: same floating-point ops in the same order.
        prop_assert_eq!(&grad_fused, &grad_oracle);
        prop_assert_eq!(value_fused.to_bits(), value_oracle.to_bits());
        prop_assert_eq!(&grad_sep, &grad_oracle);
        prop_assert_eq!(value_sep.to_bits(), value_oracle.to_bits());
    }

    /// The batched CSR kernel matches the per-sample fused walk **bitwise**
    /// in serial, with and without per-sample weights.
    #[test]
    fn batched_csr_matches_per_sample_kernel_bitwise(
        raw in proptest::collection::vec((0i64..DIM as i64, 0.1f64..2.0, 0i64..16, 0i64..16), 1..40),
        weighted in 0i64..2,
    ) {
        let samples = build_samples(&raw);
        let weights: Vec<f64> = (0..samples.len()).map(|i| 0.3 + 0.4 * (i % 5) as f64).collect();
        let weights = if weighted == 1 { Some(&weights[..]) } else { None };
        let cols = NUM_CUS + NUM_DURATIONS;
        let theta = Matrix::from_fn(DIM, cols, |r, c| 0.06 * (r as f64) - 0.02 * (c as f64));

        let obj = DmcpObjective::new(&samples, weights, DIM, NUM_CUS, NUM_DURATIONS);
        let mut grad_batched = Matrix::zeros(DIM, cols);
        let value_batched = obj.value_and_gradient(&theta, &mut grad_batched);
        let mut grad_unbatched = Matrix::zeros(DIM, cols);
        let value_unbatched = per_sample_value_and_gradient(
            &samples, weights, NUM_CUS, NUM_DURATIONS, &theta, &mut grad_unbatched,
        );

        prop_assert_eq!(grad_batched, grad_unbatched);
        prop_assert_eq!(value_batched.to_bits(), value_unbatched.to_bits());
    }

    /// The pooled batched kernel matches the serial per-sample walk to
    /// ≤ 1e-12 at every thread count (sharding changes the reduction order,
    /// so bitwise does not apply across thread counts).
    #[test]
    fn batched_pooled_matches_per_sample_serial_at_any_thread_count(
        raw in proptest::collection::vec((0i64..DIM as i64, 0.1f64..2.0, 0i64..16, 0i64..16), 1..40),
        threads in 2i64..10,
    ) {
        let samples = build_samples(&raw);
        let cols = NUM_CUS + NUM_DURATIONS;
        let theta = Matrix::from_fn(DIM, cols, |r, c| 0.07 * (r as f64) - 0.01 * (c as f64));

        let mut grad_serial = Matrix::zeros(DIM, cols);
        let value_serial = per_sample_value_and_gradient(
            &samples, None, NUM_CUS, NUM_DURATIONS, &theta, &mut grad_serial,
        );

        let pooled = DmcpObjective::new(&samples, None, DIM, NUM_CUS, NUM_DURATIONS)
            .with_threads(threads as usize);
        let mut grad_pooled = Matrix::zeros(DIM, cols);
        let value_pooled = pooled.value_and_gradient(&theta, &mut grad_pooled);

        prop_assert!(grad_pooled.sub(&grad_serial).max_abs() <= 1e-12);
        prop_assert!((value_pooled - value_serial).abs() <= 1e-12);
    }

    /// Fused pooled evaluation matches fused serial to ≤ 1e-12 at every
    /// thread count, including threads > samples (one sample per shard).
    #[test]
    fn fused_pooled_matches_fused_serial_at_any_thread_count(
        raw in proptest::collection::vec((0i64..DIM as i64, 0.1f64..2.0, 0i64..16, 0i64..16), 1..40),
        threads in 2i64..10,
    ) {
        let samples = build_samples(&raw);
        let cols = NUM_CUS + NUM_DURATIONS;
        let theta = Matrix::from_fn(DIM, cols, |r, c| 0.04 * (r as f64) - 0.03 * (c as f64));

        let serial = DmcpObjective::new(&samples, None, DIM, NUM_CUS, NUM_DURATIONS);
        let mut grad_serial = Matrix::zeros(DIM, cols);
        let value_serial = serial.value_and_gradient(&theta, &mut grad_serial);

        let pooled = DmcpObjective::new(&samples, None, DIM, NUM_CUS, NUM_DURATIONS)
            .with_threads(threads as usize);
        let mut grad_pooled = Matrix::zeros(DIM, cols);
        let value_pooled = pooled.value_and_gradient(&theta, &mut grad_pooled);

        let max_diff = grad_pooled.sub(&grad_serial).max_abs();
        prop_assert!(
            max_diff <= 1e-12,
            "threads={} samples={} max fused gradient diff={:e}",
            threads, samples.len(), max_diff
        );
        let value_diff = (value_pooled - value_serial).abs();
        prop_assert!(value_diff <= 1e-12, "fused value diff={:e}", value_diff);
    }

    /// The shard layout itself is deterministic and total.
    #[test]
    fn chunk_ranges_partition_for_all_inputs(len in 0i64..500, chunks in 1i64..16) {
        let ranges = chunk_ranges(len as usize, chunks as usize);
        let covered: usize = ranges.iter().map(|r| r.len()).sum();
        prop_assert_eq!(covered, len as usize);
        prop_assert!(ranges.len() <= (chunks as usize).max(1));
        for pair in ranges.windows(2) {
            prop_assert_eq!(pair[0].end, pair[1].start);
        }
    }
}

#[test]
fn degenerate_cohort_smaller_than_thread_count_trains_correctly() {
    // 4 hand-built samples, 16 requested threads: the sharder caps at one
    // sample per shard and training still reproduces the serial model.
    let samples: Vec<Sample> = (0..4)
        .map(|i| Sample {
            patient_id: i,
            features: SparseVec::binary(3, vec![(i % 3) as u32]),
            cu_label: i % 2,
            duration_label: (i + 1) % 2,
        })
        .collect();
    let cols = 4;
    let theta = Matrix::from_fn(3, cols, |r, c| 0.1 * (r as f64) - 0.1 * (c as f64));
    let serial = DmcpObjective::new(&samples, None, 3, 2, 2);
    let sharded = DmcpObjective::new(&samples, None, 3, 2, 2).with_threads(16);
    let mut a = Matrix::zeros(3, cols);
    let mut b = Matrix::zeros(3, cols);
    serial.gradient(&theta, &mut a);
    sharded.gradient(&theta, &mut b);
    assert!(b.sub(&a).max_abs() <= 1e-12);
    assert!((sharded.value(&theta) - serial.value(&theta)).abs() <= 1e-12);
}

#[test]
fn fused_pooled_degenerate_cohort_smaller_than_pool_matches_serial() {
    // 4 hand-built samples, 16 requested threads: the shards (and the pool)
    // cap at one sample per worker and the fused evaluation still matches the
    // fused serial path.
    let samples: Vec<Sample> = (0..4)
        .map(|i| Sample {
            patient_id: i,
            features: SparseVec::binary(3, vec![(i % 3) as u32]),
            cu_label: i % 2,
            duration_label: (i + 1) % 2,
        })
        .collect();
    let cols = 4;
    let theta = Matrix::from_fn(3, cols, |r, c| 0.1 * (r as f64) - 0.1 * (c as f64));
    let serial = DmcpObjective::new(&samples, None, 3, 2, 2);
    let pooled = DmcpObjective::new(&samples, None, 3, 2, 2).with_threads(16);
    let mut a = Matrix::zeros(3, cols);
    let mut b = Matrix::zeros(3, cols);
    let va = serial.value_and_gradient(&theta, &mut a);
    let vb = pooled.value_and_gradient(&theta, &mut b);
    assert!(b.sub(&a).max_abs() <= 1e-12);
    assert!((va - vb).abs() <= 1e-12);
}

#[test]
fn fused_pooled_is_bitwise_deterministic_at_a_fixed_thread_count() {
    let samples = build_samples(&[
        (0, 0.7, 1, 2),
        (3, 1.1, 2, 0),
        (7, 0.4, 0, 3),
        (9, 1.9, 1, 1),
    ]);
    let cols = NUM_CUS + NUM_DURATIONS;
    let theta = Matrix::from_fn(DIM, cols, |r, c| 0.6 * (r as f64) - 0.2 * (c as f64));
    let run = || {
        let obj = DmcpObjective::new(&samples, None, DIM, NUM_CUS, NUM_DURATIONS).with_threads(3);
        let mut grad = Matrix::zeros(DIM, cols);
        let value = obj.value_and_gradient(&theta, &mut grad);
        (grad, value)
    };
    let (g1, v1) = run();
    let (g2, v2) = run();
    assert_eq!(
        g1, g2,
        "fixed thread count must reproduce the fused gradient bitwise"
    );
    assert_eq!(v1.to_bits(), v2.to_bits());
}

#[test]
fn end_to_end_parallel_training_reproduces_bitwise_and_tracks_serial() {
    let ds = Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(77)));
    let serial_cfg = TrainConfig::fast();
    let parallel_cfg = TrainConfig::fast().with_threads(4);

    let serial = train(&ds, &serial_cfg);
    let parallel_a = train(&ds, &parallel_cfg);
    let parallel_b = train(&ds, &parallel_cfg);

    // Fixed thread count → bitwise identical.
    assert_eq!(parallel_a.theta, parallel_b.theta);
    // Across thread counts → identical up to accumulated rounding.
    let rel = serial.theta.sub(&parallel_a.theta).frobenius_norm()
        / serial.theta.frobenius_norm().max(1e-12);
    assert!(rel < 1e-9, "relative drift {rel}");
}
