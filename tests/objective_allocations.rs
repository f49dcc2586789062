//! Heap cost of a pooled objective evaluation: after its first evaluation, a
//! two-thread materialized objective must allocate less than one Θ-sized
//! buffer per `value_and_gradient`, and per accepted `value_then_gradient`.
//! Chunk 0 scatters into the caller's gradient and every later chunk into a
//! gradient partial the objective keeps, and the partials are reduced into
//! the caller's gradient in place.  An objective that goes back to a fresh
//! partial per chunk and evaluation, or to a freshly reduced gradient,
//! allocates two Θ per evaluation and blows through the bound.  Bytes
//! allocated are a noise-free counter, so the bound is exact where a timing
//! could only be statistical.
//!
//! Measured on this fixture (Θ = 12,305 × 16 = 1,575,040 bytes): with a
//! fresh partial per chunk and a reduced gradient handed back, 2.002 Θ per
//! `value_and_gradient` and 2.003 Θ per accepted `value_then_gradient`; with
//! the kept partials, 0.0012 Θ (1,928 bytes) and 0.0025 Θ (3,904 bytes) —
//! the chunk lists, the boxed pool jobs and their result vectors.
//!
//! The binary installs the counting global allocator and holds exactly one
//! `#[test]`: a concurrently running test would pollute the counters.

use patient_flow::core::loss::DmcpObjective;
use patient_flow::core::Sample;
use patient_flow::math::csr::PANEL_COLS;
use patient_flow::math::{Matrix, SparseVec};
use patient_flow::optim::SmoothObjective;
use pfp_bench::mem;

#[global_allocator]
static ALLOC: mem::TrackingAllocator = mem::TrackingAllocator;

const CUS: usize = 8;
const DURATIONS: usize = 8;
/// Three full column panels and part of a fourth.
const FEATURES: usize = 3 * PANEL_COLS + 17;
const SAMPLES: usize = 600;
const THREADS: usize = 2;

/// Synthetic samples with 30 entries each, spread over every panel.
fn samples() -> Vec<Sample> {
    (0..SAMPLES)
        .map(|i| Sample {
            patient_id: i,
            features: SparseVec::from_pairs(
                FEATURES,
                (0..30).map(|j| {
                    (
                        ((i * 7919 + j * 1543) % FEATURES) as u32,
                        1.0 + j as f64 * 0.1,
                    )
                }),
            ),
            cu_label: i % CUS,
            duration_label: (i / 3) % DURATIONS,
        })
        .collect()
}

/// Bytes allocated, on any thread, while `f` runs.
fn allocated_by(f: impl FnOnce()) -> usize {
    let before = mem::allocated_bytes();
    f();
    mem::allocated_bytes() - before
}

#[test]
fn pooled_evaluations_allocate_less_than_one_theta_after_the_first() {
    let samples = samples();
    let objective =
        DmcpObjective::new(&samples, None, FEATURES, CUS, DURATIONS).with_threads(THREADS);
    let theta = Matrix::from_fn(FEATURES, CUS + DURATIONS, |r, c| {
        ((r * 31 + c) as f64 * 0.37).sin() * 0.05
    });
    let theta_bytes = std::mem::size_of_val(theta.as_slice());
    let mut grad = Matrix::zeros(FEATURES, CUS + DURATIONS);

    // Warm-up: the kept partials, residual blocks and per-thread score
    // blocks are allocated here, once.
    objective.value_and_gradient(&theta, &mut grad);
    objective.value_then_gradient(&theta, &mut grad, &mut |_| true);

    let mut value = 0.0;
    let fused = allocated_by(|| value = objective.value_and_gradient(&theta, &mut grad));
    assert!(value.is_finite(), "loss {value}");
    let mut accepted = false;
    let deferred = allocated_by(|| {
        accepted = objective
            .value_then_gradient(&theta, &mut grad, &mut |_| true)
            .1
    });
    assert!(accepted);
    for (what, bytes) in [
        ("value_and_gradient", fused),
        ("value_then_gradient", deferred),
    ] {
        let per_theta = bytes as f64 / theta_bytes as f64;
        eprintln!("{what} at {THREADS} threads: {bytes} B, {per_theta:.4} Θ");
        assert!(
            bytes < theta_bytes,
            "{what} allocated {bytes} B, {per_theta:.2} Θ of {theta_bytes} B"
        );
    }
}
