//! Heap cost of the out-of-core objective: one `StreamingDmcpObjective`
//! evaluation regenerates and re-featurizes every patient of the cohort, and
//! must stay under a fixed number of heap allocations and bytes per patient.
//! Both are noise-free counters, so the bounds are exact where a timing could
//! only be statistical.  A walk regenerates each patient into one reused
//! record and merges its rows into one reused CSR block, so it allocates only
//! while those buffers grow to their largest patient and block: a few dozen
//! times per evaluation, none per patient.  A generator or featurizer that
//! goes back to a fresh buffer per patient, stay or sample blows through the
//! bounds.
//!
//! The binary installs the counting global allocator and holds exactly one
//! `#[test]`: a concurrently running test would pollute the counters.

use patient_flow::core::stream::StreamingDmcpObjective;
use patient_flow::ehr::CohortConfig;
use patient_flow::math::Matrix;
use patient_flow::optim::SmoothObjective;
use pfp_bench::mem;

#[global_allocator]
static ALLOC: mem::TrackingAllocator = mem::TrackingAllocator;

const SCALE: f64 = 0.05;
const SEED: u64 = 1;
const SHARD_SIZE: usize = 256;
/// Heap allocations per patient of one evaluation: 0.066 with the reused
/// buffers, the generator's templates, the featurizer's dense accumulator
/// and only the read service vectors drawn (0.054 before the last two,
/// 0.053 before templates, 12.2 with a fresh record and row per patient,
/// 35.0 with the sort-and-insert builders).
const MAX_ALLOCATIONS_PER_PATIENT: f64 = 0.1;
/// Heap bytes per patient of one evaluation: 158 with the reused buffers
/// and the dense accumulator (143 before it, 3,193 with a fresh record and
/// row per patient, 6,328 with the sort-and-insert builders).
const MAX_BYTES_PER_PATIENT: f64 = 280.0;

#[test]
fn one_streamed_evaluation_allocates_a_bounded_amount_per_patient() {
    let config = CohortConfig::scaled(SCALE, SEED);
    let objective = StreamingDmcpObjective::new(&config, None, SHARD_SIZE);
    let (rows, cols) = objective.shape();
    let theta = Matrix::from_fn(rows, cols, |r, c| {
        ((r * cols + c) as f64 * 0.37).sin() * 0.01
    });
    let mut grad = Matrix::zeros(rows, cols);

    let (bytes0, count0) = (mem::allocated_bytes(), mem::allocations());
    let loss = objective.value_and_gradient(&theta, &mut grad);
    let (bytes, count) = (mem::allocated_bytes() - bytes0, mem::allocations() - count0);
    assert!(loss.is_finite(), "loss {loss}");

    let patients = config.num_patients as f64;
    let (per_patient_count, per_patient_bytes) = (count as f64 / patients, bytes as f64 / patients);
    eprintln!(
        "one evaluation over {} patients: {per_patient_count:.3} allocations and \
         {per_patient_bytes:.0} B per patient",
        config.num_patients
    );
    assert!(
        per_patient_count <= MAX_ALLOCATIONS_PER_PATIENT,
        "{per_patient_count:.1} allocations per patient, over the \
         {MAX_ALLOCATIONS_PER_PATIENT} bound"
    );
    assert!(
        per_patient_bytes <= MAX_BYTES_PER_PATIENT,
        "{per_patient_bytes:.0} B per patient, over the {MAX_BYTES_PER_PATIENT} B bound"
    );
}
