//! Bounded-memory training: the same DMCP model trained streamed (cohort
//! regenerated every pass), sharded (retained CSR shard blocks) and
//! materialized must agree bitwise, and each step toward out-of-core must
//! lower the heap high-water mark.
//!
//! The binary installs the counting global allocator and holds exactly one
//! `#[test]`: a concurrently running test would pollute the peaks.

use patient_flow::core::stream::{train_sharded, train_streamed, ShardedSamples};
use patient_flow::core::{train, Dataset, DmcpModel, TrainConfig};
use patient_flow::ehr::departments::PAPER_NUM_PATIENTS;
use patient_flow::ehr::{generate_cohort, CohortConfig, FeatureDictionary};
use pfp_bench::mem;

#[global_allocator]
static ALLOC: mem::TrackingAllocator = mem::TrackingAllocator;

const PATIENTS: usize = 2_000;
const SHARD_SIZE: usize = 2_048;

/// Run `train` and return its model with the heap peak it reached.
fn measured(train: impl FnOnce() -> DmcpModel) -> (DmcpModel, usize) {
    mem::reset_peak();
    let model = train();
    (model, mem::peak_bytes())
}

fn bits(m: &patient_flow::math::Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn streamed_and_sharded_training_match_materialized_bitwise_in_less_memory() {
    let cohort_config = CohortConfig {
        num_patients: PATIENTS,
        features: FeatureDictionary::scaled(PATIENTS as f64 / PAPER_NUM_PATIENTS as f64),
        seed: 7,
        profile_actives: 16,
        stay_actives: 24,
    };
    // The streamed path regenerates the cohort once per objective
    // evaluation, so a small solver budget keeps the test fast; the claims
    // are agreement and memory, not convergence.
    let mut config = TrainConfig::fast();
    config.max_outer_iters = 2;
    config.max_inner_iters = 4;

    let (streamed, streamed_peak) =
        measured(|| train_streamed(&cohort_config, &config, SHARD_SIZE));
    let (sharded, sharded_peak) = measured(|| {
        let shards = ShardedSamples::stream_cohort(&cohort_config, config.feature_map, SHARD_SIZE);
        train_sharded(&shards, &config)
    });
    let (materialized, materialized_peak) = measured(|| {
        let dataset = Dataset::from_cohort(&generate_cohort(&cohort_config));
        train(&dataset, &config)
    });

    for (name, model) in [("sharded", &sharded), ("materialized", &materialized)] {
        assert_eq!(model.theta.shape(), streamed.theta.shape(), "{name}");
        assert!(bits(&model.theta) == bits(&streamed.theta), "{name} θ");
        assert!(
            bits(&model.selection) == bits(&streamed.selection),
            "{name} selection"
        );
    }
    assert!(
        streamed_peak < sharded_peak && sharded_peak < materialized_peak,
        "heap peaks must fall toward out-of-core: streamed {streamed_peak} B, \
         sharded {sharded_peak} B, materialized {materialized_peak} B"
    );
}
