//! One trainer over four sample sources: `train` on a dataset, on its
//! featurized samples, on retained shards (packed from those samples, or
//! streamed from the cohort config) and on the regenerated cohort stream must
//! return the same report bit for bit — Θ, X, the exit dual, the evaluation
//! and outer-iteration counts and the final objective — at each thread count,
//! for every imbalance strategy the source accepts.
//!
//! `shard_equivalence` compares objectives and `bounded_memory` unweighted
//! models; this table closes the remaining cells: featurized samples against
//! the dataset, and a weighted train through shards (weights streamed from
//! the shard labels) against a weighted train through the dataset.

use patient_flow::core::stream::ShardedSamples;
use patient_flow::core::{
    train, Dataset, ImbalanceStrategy, TrainConfig, TrainReport, TrainSource,
};
use patient_flow::ehr::{generate_cohort, CohortConfig};
use patient_flow::math::Matrix;

/// Shard size, in samples for the packed shards and in patients for the
/// streamed shards and the stream's pre-passes.
const SHARD_SIZE: usize = 13;

#[derive(Debug, PartialEq)]
struct Fingerprint {
    theta: Vec<u64>,
    selection: Vec<u64>,
    dual: Vec<u64>,
    evaluations: usize,
    outer_iterations: usize,
    final_objective: u64,
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn fingerprint(report: &TrainReport) -> Fingerprint {
    Fingerprint {
        theta: bits(&report.model.theta),
        selection: bits(&report.model.selection),
        dual: bits(&report.warm_start().y),
        evaluations: report.evaluations,
        outer_iterations: report.outer_iterations,
        final_objective: report.final_objective.to_bits(),
    }
}

#[test]
fn every_source_trains_the_same_model_bitwise() {
    let cohort = CohortConfig::tiny(11);
    let dataset = Dataset::from_cohort(&generate_cohort(&cohort));
    let kind = dataset.default_mcp_kind();
    let samples = dataset.featurize(kind);
    let packed = ShardedSamples::from_samples(
        &samples,
        SHARD_SIZE,
        kind,
        dataset.profile_dim,
        dataset.service_dim,
        dataset.num_cus,
        dataset.num_durations,
    );
    let streamed = ShardedSamples::stream_cohort(&cohort, None, SHARD_SIZE);

    for threads in [1, 2] {
        for imbalance in [ImbalanceStrategy::None, ImbalanceStrategy::Weighted] {
            let config = TrainConfig::fast()
                .with_threads(threads)
                .with_imbalance(imbalance);
            let reference = fingerprint(&train(&dataset, &config, None).unwrap());
            let featurized = TrainSource::Featurized {
                samples: samples.clone(),
                kind,
                profile_dim: dataset.profile_dim,
                service_dim: dataset.service_dim,
                num_cus: dataset.num_cus,
                num_durations: dataset.num_durations,
            };
            let mut sources = vec![
                ("featurized", featurized),
                ("packed shards", TrainSource::Shards(&packed)),
                ("streamed shards", TrainSource::Shards(&streamed)),
            ];
            // The stream regenerates its rows, so it cannot weight them.
            if imbalance == ImbalanceStrategy::None {
                let stream = TrainSource::Stream {
                    cohort: &cohort,
                    shard_size: SHARD_SIZE,
                };
                sources.push(("stream", stream));
            }
            for (name, source) in sources {
                let report = train(source, &config, None).unwrap();
                assert_eq!(report.model.kind, kind, "{name}");
                assert!(
                    fingerprint(&report) == reference,
                    "{name} differs from the dataset at {threads} threads, {imbalance:?}"
                );
            }
        }
    }
}
