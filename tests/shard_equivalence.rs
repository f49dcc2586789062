//! Property tests of the shard-equivalence contract: folding the DMCP
//! objective over streaming CSR shard blocks must reproduce the materialized
//! (`Vec<Sample>`-backed) objective
//!
//! * **bitwise at a fixed thread count**, for *any* shard size — the
//!   per-thread chunks come from the same `chunk_ranges(total, threads)`,
//!   and within a chunk the segmented fused kernel carries its loss
//!   accumulator across shard boundaries, so the floating-point operation
//!   sequence is identical and shard size is unobservable;
//! * **to ≤ 1e-12 across thread counts**, where only the reduction order
//!   changes (the same clause the materialized objective already carries in
//!   `parallel_equivalence.rs`).
//!
//! Shard sizes cover the degenerate corners (one sample per shard, shards
//! larger than the cohort, a shard boundary exactly at the cohort size) and
//! column widths cover all three blocked CSR kernels (K = 4, 8, 16) plus the
//! generic fallback.  The fully out-of-core objective (regenerate +
//! re-featurize per evaluation) is held to the same bitwise clause against
//! the materialized pipeline on a real generated cohort.
//!
//! All three objectives share one fold, so each property also checks the
//! result against the per-sample oracle (`per_sample_value_and_gradient`),
//! which shares no code with it: bitwise on one thread, ≤ 1e-12 pooled.

use proptest::prelude::*;

use patient_flow::core::dataset::Sample;
use patient_flow::core::loss::{per_sample_value_and_gradient, DmcpObjective};
use patient_flow::core::stream::{
    ShardedDmcpObjective, ShardedSamples, StreamingDmcpObjective, ROW_BLOCK,
};
use patient_flow::core::{Dataset, FeatureMapKind};
use patient_flow::ehr::{generate_cohort, CohortConfig};
use patient_flow::math::parallel::chunk_ranges;
use patient_flow::math::{Matrix, SparseVec};
use patient_flow::optim::SmoothObjective;

const DIM: usize = 12;
/// The map the hand-built samples are declared under (the objective never
/// reads it).
const KIND: FeatureMapKind = FeatureMapKind::CurrentOnly;

/// The four column-width regimes: the K = 4, 8, 16 blocked CSR kernels and
/// the generic fallback (K = 7).
const WIDTHS: [(usize, usize); 4] = [(2, 2), (4, 4), (8, 8), (3, 4)];

/// Build one sample per raw tuple: `(seed index, value, cu label, duration)`.
/// Each sample activates two feature dimensions so gradients touch
/// overlapping rows across samples and shards.
fn build_samples(
    raw: &[(i64, f64, i64, i64)],
    num_cus: usize,
    num_durations: usize,
) -> Vec<Sample> {
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
                cu_label: (cu as usize) % num_cus,
                duration_label: (dur as usize) % num_durations,
            }
        })
        .collect()
}

/// The shard sizes under test for a cohort of `n` samples: one sample per
/// shard, a size that leaves a ragged tail, exactly the cohort, and strictly
/// larger than the cohort.
fn shard_sizes(n: usize) -> [usize; 4] {
    [1, 7, n, n + 1]
}

/// Check an evaluation at `threads` against the per-sample oracle: bitwise
/// on one thread, ≤ 1e-12 across thread counts (only the reduction order
/// differs).
fn matches_oracle(
    threads: usize,
    (value, grad): (f64, &Matrix),
    (value_oracle, grad_oracle): (f64, &Matrix),
) -> bool {
    if threads == 1 {
        value.to_bits() == value_oracle.to_bits() && grad == grad_oracle
    } else {
        (value - value_oracle).abs() <= 1e-12 && grad.sub(grad_oracle).max_abs() <= 1e-12
    }
}

proptest! {
    /// For every column-width regime and shard size, the sharded objective
    /// matches the materialized objective **bitwise** at the same fixed
    /// thread count (1, 2 and 8 workers) — value, gradient, and the fused
    /// pass alike.
    #[test]
    fn sharded_fold_matches_materialized_bitwise_at_fixed_thread_counts(
        raw in proptest::collection::vec((0i64..DIM as i64, 0.1f64..2.0, 0i64..16, 0i64..16), 1..40),
        width_idx in 0usize..WIDTHS.len(),
        threads_idx in 0usize..3,
    ) {
        let (num_cus, num_durations) = WIDTHS[width_idx];
        let threads = [1usize, 2, 8][threads_idx];
        let samples = build_samples(&raw, num_cus, num_durations);
        let cols = num_cus + num_durations;
        let theta = Matrix::from_fn(DIM, cols, |r, c| 0.05 * (r as f64) - 0.04 * (c as f64));

        let reference = DmcpObjective::new(&samples, None, DIM, num_cus, num_durations)
            .with_threads(threads);
        let mut grad_ref = Matrix::zeros(DIM, cols);
        let value_ref = reference.value_and_gradient(&theta, &mut grad_ref);
        let mut grad_oracle = Matrix::zeros(DIM, cols);
        let value_oracle = per_sample_value_and_gradient(
            &samples, None, num_cus, num_durations, &theta, &mut grad_oracle,
        );

        for shard_size in shard_sizes(samples.len()) {
            let sharded =
                ShardedSamples::from_samples(&samples, shard_size, KIND, DIM, 0, num_cus, num_durations);
            let obj = ShardedDmcpObjective::new(&sharded, None).with_threads(threads);

            let mut grad = Matrix::zeros(DIM, cols);
            let value = obj.value_and_gradient(&theta, &mut grad);
            prop_assert!(
                value.to_bits() == value_ref.to_bits(),
                "fused value, shard={} threads={}", shard_size, threads
            );
            prop_assert_eq!(&grad, &grad_ref);
            prop_assert!(
                matches_oracle(threads, (value, &grad), (value_oracle, &grad_oracle)),
                "oracle, shard={} threads={}", shard_size, threads
            );

            prop_assert_eq!(obj.value(&theta).to_bits(), value_ref.to_bits());
            let mut grad_only = Matrix::zeros(DIM, cols);
            obj.gradient(&theta, &mut grad_only);
            prop_assert_eq!(&grad_only, &grad_ref);
        }
    }

    /// Per-sample weights shard identically: bitwise against the weighted
    /// materialized objective at a fixed thread count.
    #[test]
    fn weighted_sharded_fold_matches_materialized_bitwise(
        raw in proptest::collection::vec((0i64..DIM as i64, 0.1f64..2.0, 0i64..16, 0i64..16), 2..32),
        width_idx in 0usize..WIDTHS.len(),
        weight_seed in 0.1f64..5.0,
        threads_idx in 0usize..3,
    ) {
        let (num_cus, num_durations) = WIDTHS[width_idx];
        let threads = [1usize, 2, 8][threads_idx];
        let samples = build_samples(&raw, num_cus, num_durations);
        let weights: Vec<f64> = (0..samples.len())
            .map(|i| weight_seed + 0.3 * (i % 4) as f64)
            .collect();
        let cols = num_cus + num_durations;
        let theta = Matrix::from_fn(DIM, cols, |r, c| 0.02 * ((r + c) as f64));

        let reference = DmcpObjective::new(&samples, Some(&weights), DIM, num_cus, num_durations)
            .with_threads(threads);
        let mut grad_ref = Matrix::zeros(DIM, cols);
        let value_ref = reference.value_and_gradient(&theta, &mut grad_ref);
        let mut grad_oracle = Matrix::zeros(DIM, cols);
        let value_oracle = per_sample_value_and_gradient(
            &samples, Some(&weights), num_cus, num_durations, &theta, &mut grad_oracle,
        );

        for shard_size in shard_sizes(samples.len()) {
            let sharded =
                ShardedSamples::from_samples(&samples, shard_size, KIND, DIM, 0, num_cus, num_durations);
            let obj = ShardedDmcpObjective::new(&sharded, Some(&weights)).with_threads(threads);
            let mut grad = Matrix::zeros(DIM, cols);
            let value = obj.value_and_gradient(&theta, &mut grad);
            prop_assert!(
                value.to_bits() == value_ref.to_bits(),
                "shard={}", shard_size
            );
            prop_assert_eq!(&grad, &grad_ref);
            prop_assert!(
                matches_oracle(threads, (value, &grad), (value_oracle, &grad_oracle)),
                "oracle, shard={} threads={}", shard_size, threads
            );
        }
    }

    /// Across thread counts, the sharded fold drifts only by reduction-order
    /// rounding: ≤ 1e-12 against the serial fold, for every shard size —
    /// including more threads than samples.
    #[test]
    fn sharded_fold_matches_serial_within_tolerance_at_any_thread_count(
        raw in proptest::collection::vec((0i64..DIM as i64, 0.1f64..2.0, 0i64..16, 0i64..16), 1..40),
        width_idx in 0usize..WIDTHS.len(),
        threads in 2i64..10,
    ) {
        let (num_cus, num_durations) = WIDTHS[width_idx];
        let samples = build_samples(&raw, num_cus, num_durations);
        let cols = num_cus + num_durations;
        let theta = Matrix::from_fn(DIM, cols, |r, c| 0.04 * (r as f64) - 0.03 * (c as f64));

        for shard_size in shard_sizes(samples.len()) {
            let sharded =
                ShardedSamples::from_samples(&samples, shard_size, KIND, DIM, 0, num_cus, num_durations);
            let serial = ShardedDmcpObjective::new(&sharded, None);
            let pooled = ShardedDmcpObjective::new(&sharded, None).with_threads(threads as usize);

            let mut grad_serial = Matrix::zeros(DIM, cols);
            let mut grad_pooled = Matrix::zeros(DIM, cols);
            let value_serial = serial.value_and_gradient(&theta, &mut grad_serial);
            let value_pooled = pooled.value_and_gradient(&theta, &mut grad_pooled);

            let max_diff = grad_pooled.sub(&grad_serial).max_abs();
            prop_assert!(
                max_diff <= 1e-12,
                "threads={} shard={} max gradient diff={:e}",
                threads, shard_size, max_diff
            );
            prop_assert!((value_pooled - value_serial).abs() <= 1e-12);
        }
    }

    /// Curvature bounds are a pure in-order fold over the samples, so they
    /// must be bitwise-equal for every shard size, weighted or not.
    #[test]
    fn row_curvature_bounds_match_materialized_bitwise(
        raw in proptest::collection::vec((0i64..DIM as i64, 0.1f64..2.0, 0i64..16, 0i64..16), 1..40),
        width_idx in 0usize..WIDTHS.len(),
        weighted in 0i64..2,
    ) {
        let (num_cus, num_durations) = WIDTHS[width_idx];
        let samples = build_samples(&raw, num_cus, num_durations);
        let weights: Vec<f64> = (0..samples.len()).map(|i| 0.2 + 0.5 * (i % 3) as f64).collect();
        let weights = if weighted == 1 { Some(&weights[..]) } else { None };

        let reference = DmcpObjective::new(&samples, weights, DIM, num_cus, num_durations);
        let expected = reference.row_curvature_bounds().expect("bounds available");

        for shard_size in shard_sizes(samples.len()) {
            let sharded =
                ShardedSamples::from_samples(&samples, shard_size, KIND, DIM, 0, num_cus, num_durations);
            let got = ShardedDmcpObjective::new(&sharded, weights)
                .row_curvature_bounds()
                .expect("bounds available");
            prop_assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(&expected) {
                prop_assert!(g.to_bits() == e.to_bits(), "shard={}", shard_size);
            }
        }
    }
}

/// The fully out-of-core objective (regenerate + re-featurize per
/// evaluation) against the materialized cohort → dataset → objective
/// pipeline, on a real generated cohort: bitwise at fixed thread counts
/// 1, 2 and 8, across shard sizes spanning "one patient at a time" to
/// "whole cohort in one shard".
#[test]
fn streaming_objective_matches_materialized_bitwise_at_fixed_thread_counts() {
    let cohort_config = CohortConfig::tiny(23);
    let cohort = generate_cohort(&cohort_config);
    let ds = Dataset::from_cohort(&cohort);
    let samples = ds.featurize(ds.default_mcp_kind());
    let m = ds.total_feature_dim();
    let cols = ds.num_cus + ds.num_durations;
    let theta = Matrix::from_fn(m, cols, |r, c| 0.01 * ((r % 9) as f64) - 0.02 * (c as f64));
    let mut grad_oracle = Matrix::zeros(m, cols);
    let value_oracle = per_sample_value_and_gradient(
        &samples,
        None,
        ds.num_cus,
        ds.num_durations,
        &theta,
        &mut grad_oracle,
    );

    for threads in [1usize, 2, 8] {
        let reference = DmcpObjective::new(&samples, None, m, ds.num_cus, ds.num_durations)
            .with_threads(threads);
        let mut grad_ref = Matrix::zeros(m, cols);
        let value_ref = reference.value_and_gradient(&theta, &mut grad_ref);

        for shard_size in [1usize, 32, cohort_config.num_patients + 1] {
            let obj =
                StreamingDmcpObjective::new(&cohort_config, None, shard_size).with_threads(threads);
            assert_eq!(obj.total_samples(), samples.len());
            let mut grad = Matrix::zeros(m, cols);
            let value = obj.value_and_gradient(&theta, &mut grad);
            assert_eq!(
                value.to_bits(),
                value_ref.to_bits(),
                "threads={threads} shard={shard_size}"
            );
            assert_eq!(grad, grad_ref, "threads={threads} shard={shard_size}");
            assert!(
                matches_oracle(threads, (value, &grad), (value_oracle, &grad_oracle)),
                "oracle, threads={threads} shard={shard_size}"
            );
        }
    }
}

/// The out-of-core objective hands the kernel one block per
/// [`ROW_BLOCK`] rows, so on a cohort of several blocks per thread chunk a
/// block is flushed inside a chunk and a chunk boundary splits a patient's
/// samples (both asserted below).  Neither may change a bit: the streamed
/// value and gradient equal the materialized objective's at 1, 2 and 3
/// threads, and the per-sample oracle's on one.
#[test]
fn streamed_row_blocks_split_inside_chunks_and_patients_bitwise() {
    let cohort_config = CohortConfig {
        num_patients: 600,
        ..CohortConfig::tiny(29)
    };
    let cohort = generate_cohort(&cohort_config);
    let ds = Dataset::from_cohort(&cohort);
    let samples = ds.featurize(ds.default_mcp_kind());
    let (m, cols) = (ds.total_feature_dim(), ds.num_cus + ds.num_durations);
    let theta = Matrix::from_fn(m, cols, |r, c| 0.02 * ((r % 7) as f64) - 0.015 * (c as f64));
    let mut grad_oracle = Matrix::zeros(m, cols);
    let value_oracle = per_sample_value_and_gradient(
        &samples,
        None,
        ds.num_cus,
        ds.num_durations,
        &theta,
        &mut grad_oracle,
    );
    // Global sample index at which each patient's samples start.
    let mut patient_starts = vec![0usize];
    for p in &cohort.patients {
        patient_starts.push(patient_starts.last().unwrap() + p.num_transitions());
    }
    let mut split_a_patient = false;
    for threads in [1usize, 2, 3] {
        let chunks = chunk_ranges(samples.len(), threads);
        assert!(
            chunks.iter().all(|c| c.len() > 2 * ROW_BLOCK),
            "threads={threads}: a chunk of under two row blocks"
        );
        split_a_patient |= chunks[1..]
            .iter()
            .any(|c| patient_starts.binary_search(&c.start).is_err());

        let reference = DmcpObjective::new(&samples, None, m, ds.num_cus, ds.num_durations)
            .with_threads(threads);
        let mut grad_ref = Matrix::zeros(m, cols);
        let value_ref = reference.value_and_gradient(&theta, &mut grad_ref);
        let obj = StreamingDmcpObjective::new(&cohort_config, None, 64).with_threads(threads);
        let mut grad = Matrix::zeros(m, cols);
        let value = obj.value_and_gradient(&theta, &mut grad);
        assert_eq!(value.to_bits(), value_ref.to_bits(), "threads={threads}");
        assert_eq!(grad, grad_ref, "threads={threads}");
        assert_eq!(obj.value(&theta).to_bits(), value_ref.to_bits());
        assert!(
            matches_oracle(threads, (value, &grad), (value_oracle, &grad_oracle)),
            "oracle, threads={threads}"
        );
    }
    assert!(split_a_patient, "no chunk boundary fell inside a patient");
}

/// A fixed thread count must reproduce the sharded fold bitwise across
/// repeated runs (freshly built objective and pool each time).
#[test]
fn sharded_fold_is_bitwise_reproducible_at_a_fixed_thread_count() {
    let samples = build_samples(
        &[
            (0, 0.7, 1, 2),
            (3, 1.1, 2, 0),
            (7, 0.4, 0, 3),
            (9, 1.9, 1, 1),
            (2, 0.9, 3, 2),
            (5, 1.3, 0, 1),
        ],
        4,
        4,
    );
    let cols = 8;
    let theta = Matrix::from_fn(DIM, cols, |r, c| 0.6 * (r as f64) - 0.2 * (c as f64));
    let sharded = ShardedSamples::from_samples(&samples, 2, KIND, DIM, 0, 4, 4);
    let run = || {
        let obj = ShardedDmcpObjective::new(&sharded, None).with_threads(3);
        let mut grad = Matrix::zeros(DIM, cols);
        let value = obj.value_and_gradient(&theta, &mut grad);
        (grad, value)
    };
    let (g1, v1) = run();
    let (g2, v2) = run();
    assert_eq!(g1, g2);
    assert_eq!(v1.to_bits(), v2.to_bits());
}
