//! Heap cost of building the objective of a materialized train.
//!
//! [`train`] on a [`TrainSource::Dataset`] packs each raw sample's row
//! straight into the objective's CSR block, so building the objective
//! allocates only that block's growing arrays, the label vectors and, when
//! weighted, the weights: a count logarithmic in the sample count.  A train
//! that featurized every sample into its own feature vector first would
//! allocate two blocks per sample (its indices and its values) on top.
//!
//! The objective's cost is read as the train's allocations less those of the
//! same solve over the same rows already packed ([`TrainSource::Shards`],
//! built outside the count): the two solves are bitwise the same, so only
//! the packing differs.  Allocation counts are a noise-free counter, so the
//! bound is exact where a timing could only be statistical.
//!
//! Measured on this fixture (`CohortConfig::small(11)`: 972 samples, a
//! one-outer-iteration solve): the packing makes 44 allocations unweighted
//! and 43 weighted (bound: 8·(⌊log₂ 972⌋ + 1) = 80); a packing through per-sample
//! feature vectors makes 1,955.
//!
//! The binary installs the counting global allocator and holds exactly one
//! `#[test]`: a concurrently running test would pollute the counters.

use patient_flow::core::{
    train, Dataset, ImbalanceStrategy, ShardedSamples, TrainConfig, TrainReport,
};
use patient_flow::ehr::{generate_cohort, CohortConfig};
use pfp_bench::mem;

#[global_allocator]
static ALLOC: mem::TrackingAllocator = mem::TrackingAllocator;

/// Allocations, on any thread, while `f` runs.
fn allocations_of(f: impl FnOnce() -> TrainReport) -> (TrainReport, usize) {
    let before = mem::allocations();
    let report = f();
    (report, mem::allocations() - before)
}

#[test]
fn dataset_train_packs_rows_without_a_feature_vector_per_sample() {
    let ds = Dataset::from_cohort(&generate_cohort(&CohortConfig::small(11)));
    let samples = ds.len();
    let kind = ds.default_mcp_kind();
    let featurized = ds.featurize(kind);
    let shards = ShardedSamples::from_samples(
        &featurized,
        samples,
        kind,
        ds.profile_dim,
        ds.service_dim,
        ds.num_cus,
        ds.num_durations,
    );
    drop(featurized);
    // A tiny solver budget: the claim is the packing's cost, not convergence.
    let mut config = TrainConfig::fast();
    config.max_outer_iters = 1;
    config.max_inner_iters = 2;
    for imbalance in [ImbalanceStrategy::None, ImbalanceStrategy::Weighted] {
        let config = config.with_imbalance(imbalance);
        let (packed, dataset_count) = allocations_of(|| train(&ds, &config, None).unwrap());
        let (retained, shards_count) = allocations_of(|| train(&shards, &config, None).unwrap());
        assert_eq!(packed.model.theta, retained.model.theta, "{imbalance:?}");
        let packing = dataset_count.checked_sub(shards_count).unwrap_or_else(|| {
            panic!(
                "{imbalance:?}: the dataset train made {dataset_count} allocations, fewer \
                 than the shards train's {shards_count}"
            )
        });
        eprintln!(
            "{imbalance:?}: {samples} samples; dataset train {dataset_count} allocations, \
             shards train {shards_count}: packing {packing}"
        );
        // Growing arrays double, so their reallocations are logarithmic in
        // the row count; a per-sample vector would be linear.
        let bound = 8 * (samples.ilog2() as usize + 1);
        assert!(
            packing <= bound,
            "{imbalance:?}: building the objective made {packing} allocations for \
             {samples} samples (bound {bound})"
        );
    }
}
