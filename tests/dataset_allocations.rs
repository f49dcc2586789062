//! Heap cost of building and splitting a dataset.
//!
//! [`Dataset::from_cohort`] copies the cohort's records once into `Arc`s and
//! adds one `Arc<RawSample>` per transition, a view of its record; a sample
//! that copied its history would pay every earlier stay's service vector
//! again, about `k²/2` vectors for a patient of `k` stays.  It may allocate
//! what that record copy allocates, measured here, plus one `Arc<RawSample>`
//! per sample (its pointer and its heap block), plus, in allocations, a
//! logarithmic term for two growing vectors.
//!
//! A holdout split and k folds share their parent's patient records and raw
//! samples, so they allocate only the pointer vectors of each side and the
//! set of held-out patient ids.  A split that deep-copies its records blows
//! through the bounds below.  Bytes allocated are a noise-free counter, so
//! the bound is exact where a timing could only be statistical.
//!
//! The bounds, per sample and per patient of the parent, for one split (a
//! holdout split, or one fold's `(train, validation)` pair):
//!
//! * each side's sample and patient vectors hold one 8-byte pointer per
//!   record; collected from a filter they grow by doubling, so the sum of
//!   every capacity they pass through is under 4 pointers per record —
//!   under 32 bytes per sample and per patient;
//! * the id set holds one 8-byte id and one control byte per held-out
//!   patient at a load factor of at least 7/16, so under 21 bytes per id
//!   when collected at its final size (the holdout's test ids) and under 42
//!   while it grows (a fold's validation ids, at most half the patients) —
//!   under 24 bytes per patient of the parent either way.
//!
//! Measured on this fixture (`CohortConfig::small(11)`: 972 samples, 1,200
//! patients): `from_cohort` allocates 877,368 bytes in 7,718 allocations,
//! the record copy 776,280 bytes in 6,745 (bound 877,368 bytes, met exactly
//! as the sample vector is allocated at its final size, and 7,737
//! allocations); the holdout split allocates 59,152 bytes in 35
//! allocations, the five folds 261,180 bytes in 202 (bound 98,304 bytes
//! per split).
//!
//! The allocation count must stay logarithmic in the record count: at most
//! [`ALLOCATIONS_PER_SPLIT`] for a split, against one or more per sample for
//! a deep copy.
//!
//! The binary installs the counting global allocator and holds exactly one
//! `#[test]`: a concurrently running test would pollute the counters.

use std::mem::size_of;
use std::sync::Arc;

use patient_flow::core::dataset::RawSample;
use patient_flow::core::Dataset;
use patient_flow::ehr::{generate_cohort, CohortConfig};
use pfp_bench::mem;

#[global_allocator]
static ALLOC: mem::TrackingAllocator = mem::TrackingAllocator;

/// Bytes a split may allocate per sample of its parent.
const BYTES_PER_SAMPLE: usize = 32;
/// Bytes a split may allocate per patient of its parent: the pointer vectors
/// and the id set.
const BYTES_PER_PATIENT: usize = 32 + 24;
/// Allocations one split may make: four doubling vectors of fewer than 2^26
/// records (at most 24 capacities each) and an id set that grows through at
/// most 8 sizes at this cohort's size.
const ALLOCATIONS_PER_SPLIT: usize = 4 * 24 + 8;
const FOLDS: usize = 5;

/// Bytes and allocations, on any thread, while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (bytes, count) = (mem::allocated_bytes(), mem::allocations());
    let out = f();
    (
        out,
        mem::allocated_bytes() - bytes,
        mem::allocations() - count,
    )
}

/// `child` holds a subsequence of `parent`'s very records, in order.
fn shares_records<T>(parent: &[Arc<T>], child: &[Arc<T>]) -> bool {
    let mut parent = parent.iter();
    child
        .iter()
        .all(|record| parent.any(|candidate| Arc::ptr_eq(candidate, record)))
}

/// Both sides of a split share the parent's records and together hold all
/// of them.
fn assert_shares_parent(parent: &Dataset, (train, test): &(Dataset, Dataset), what: &str) {
    for side in [train, test] {
        assert!(
            shares_records(&parent.samples, &side.samples),
            "{what}: samples copied"
        );
        assert!(
            shares_records(&parent.patients, &side.patients),
            "{what}: patients copied"
        );
    }
    assert_eq!(train.len() + test.len(), parent.len(), "{what}");
    assert_eq!(
        train.patients.len() + test.patients.len(),
        parent.patients.len(),
        "{what}"
    );
}

#[test]
fn splits_and_folds_allocate_only_pointers_and_the_id_set() {
    let cohort = generate_cohort(&CohortConfig::small(11));
    let copy = || Vec::from_iter(cohort.patients.iter().cloned().map(Arc::new));
    let (_, copy_bytes, copy_count) = allocated_by(copy);
    let (ds, dataset_bytes, dataset_count) = allocated_by(|| Dataset::from_cohort(&cohort));
    let (samples, patients) = (ds.len(), ds.patients.len());
    let arc_sample = size_of::<Arc<RawSample>>() + size_of::<RawSample>() + 2 * size_of::<usize>();
    let dataset_bound = (copy_bytes + arc_sample * samples, copy_count + samples);
    let log_term = 2 * (samples.ilog2() as usize + 1);
    eprintln!(
        "from_cohort {dataset_bytes} B in {dataset_count} allocations (record copy \
         {copy_bytes} B in {copy_count}); bound {dataset_bound:?} + {log_term} allocations"
    );
    assert!(
        dataset_bytes <= dataset_bound.0,
        "from_cohort: {dataset_bytes} B"
    );
    assert!(
        dataset_count <= dataset_bound.1 + log_term,
        "from_cohort: {dataset_count} allocations"
    );

    let bound = BYTES_PER_SAMPLE * samples + BYTES_PER_PATIENT * patients;

    let (holdout, holdout_bytes, holdout_count) = allocated_by(|| ds.split_holdout(0.25, 3));
    let (folds, fold_bytes, fold_count) = allocated_by(|| ds.k_folds(FOLDS, 7));
    let (clone, clone_bytes, _) = allocated_by(|| ds.clone());
    eprintln!(
        "{samples} samples, {patients} patients: holdout {holdout_bytes} B in \
         {holdout_count} allocations, {FOLDS} folds {fold_bytes} B in {fold_count}, \
         clone {clone_bytes} B; bound {bound} B per split"
    );

    assert!(
        holdout_bytes <= bound,
        "holdout split allocated {holdout_bytes} B > {bound} B"
    );
    assert!(
        holdout_count <= ALLOCATIONS_PER_SPLIT,
        "holdout split: {holdout_count} allocations"
    );
    // The fold list itself adds one allocation.
    assert!(
        fold_bytes <= FOLDS * bound,
        "{FOLDS} folds allocated {fold_bytes} B"
    );
    assert!(
        fold_count <= FOLDS * ALLOCATIONS_PER_SPLIT + 1,
        "{FOLDS} folds: {fold_count} allocations"
    );
    // A clone copies the two pointer vectors at their exact lengths.
    let pointer = std::mem::size_of::<usize>();
    assert_eq!(clone_bytes, pointer * (samples + patients));

    assert_shares_parent(&ds, &holdout, "holdout");
    for (i, fold) in folds.iter().enumerate() {
        assert_shares_parent(&ds, fold, &format!("fold {i}"));
    }
    assert!(shares_records(&ds.samples, &clone.samples));
    assert!(shares_records(&ds.patients, &clone.patients));
}
