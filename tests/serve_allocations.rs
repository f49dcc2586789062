//! Heap cost of serving: pipelined full-queue bursts through
//! `ServeConfig::default()` must stay under a fixed number of heap bytes per
//! request, and the dispatcher must free less than one heap block per
//! request.  Bytes allocated and blocks freed are noise-free counters, so the
//! bounds are exact where a timing could only be statistical: a per-request
//! reply path that allocates a multi-slot channel block blows through the
//! first, and a dispatcher that drops the requests' feature vectors instead
//! of handing them back to their callers (two frees each) the second.
//!
//! The binary installs the counting global allocator and holds exactly one
//! `#[test]`: a concurrently running test would pollute the counters.

use patient_flow::core::{DmcpModel, FeatureMapKind};
use patient_flow::math::{Matrix, SparseVec};
use patient_flow::serve::{PredictionService, ServeConfig};
use pfp_bench::mem;

#[global_allocator]
static ALLOC: mem::TrackingAllocator = mem::TrackingAllocator;

const CUS: usize = 8;
const DURATIONS: usize = 8;
const FEATURES: usize = 32;
const BURST: usize = 1_024;
const BURSTS: usize = 3;
/// Heap bytes allocated per request, on any thread, by the last burst.
const MAX_BYTES_PER_REQUEST: usize = 1_024;
/// Heap blocks freed per request by the dispatcher in the last burst: the
/// frees of every thread but this one, since `ServeConfig::default()` scores
/// on the dispatcher itself and starts no pool workers.  Only per-batch
/// buffers may be freed there.
const MAX_DISPATCHER_FREES_PER_REQUEST: usize = 1;

fn model() -> DmcpModel {
    let theta = Matrix::from_fn(FEATURES, CUS + DURATIONS, |r, c| {
        ((r * (CUS + DURATIONS) + c) as f64 * 0.29).sin()
    });
    DmcpModel {
        selection: theta.clone(),
        theta,
        kind: FeatureMapKind::ModulatedPoisson,
        profile_dim: FEATURES / 2,
        service_dim: FEATURES / 2,
        num_cus: CUS,
        num_durations: DURATIONS,
    }
}

fn request(i: usize) -> SparseVec {
    SparseVec::from_pairs(
        FEATURES,
        vec![
            ((i % 11) as u32, 1.0),
            ((11 + i % 7) as u32, 0.5 + (i % 5) as f64 * 0.25),
            ((20 + i % 12) as u32, 1.0),
        ],
    )
}

#[test]
fn pipelined_bursts_allocate_a_bounded_number_of_bytes_per_request() {
    let model = model();
    let expected: Vec<_> = (0..BURST)
        .map(|i| model.probabilities(&request(i)))
        .collect();
    let service = PredictionService::start(model, ServeConfig::default());
    let client = service.client();

    let mut cost = (0, 0, 0);
    for burst in 0..BURSTS {
        // Everything the caller owns is built before the counters are read,
        // so the window holds only what serving allocates.
        let requests: Vec<SparseVec> = (0..BURST).map(request).collect();
        let mut pending = Vec::with_capacity(BURST);
        let mut answers = Vec::with_capacity(BURST);

        let (bytes0, count0) = (mem::allocated_bytes(), mem::allocations());
        let (frees0, own_frees0) = (mem::deallocations(), mem::thread_deallocations());
        for features in requests {
            pending.push(
                client
                    .submit(features)
                    .expect("a full queue fits one burst"),
            );
        }
        for p in pending {
            answers.push(p.wait());
        }
        let own_frees = mem::thread_deallocations() - own_frees0;
        cost = (
            mem::allocated_bytes() - bytes0,
            mem::allocations() - count0,
            mem::deallocations() - frees0 - own_frees,
        );

        for (i, answer) in answers.into_iter().enumerate() {
            let prediction = answer.unwrap_or_else(|e| panic!("burst {burst}, request {i}: {e}"));
            assert_eq!(
                prediction.cu_probs, expected[i].0,
                "burst {burst}, request {i}"
            );
            assert_eq!(prediction.duration_probs, expected[i].1);
        }
    }
    service.shutdown();

    let (bytes, count, dispatcher_frees) = cost;
    let per_request = bytes as f64 / BURST as f64;
    let frees_per_request = dispatcher_frees as f64 / BURST as f64;
    eprintln!(
        "last burst: {per_request:.0} B and {:.2} allocations per request, \
         {frees_per_request:.3} dispatcher frees per request",
        count as f64 / BURST as f64
    );
    assert!(
        bytes <= MAX_BYTES_PER_REQUEST * BURST,
        "serving allocated {per_request:.0} B per request, over the \
         {MAX_BYTES_PER_REQUEST} B bound"
    );
    assert!(
        dispatcher_frees < MAX_DISPATCHER_FREES_PER_REQUEST * BURST,
        "the dispatcher freed {frees_per_request:.3} heap blocks per request, \
         not under the {MAX_DISPATCHER_FREES_PER_REQUEST} bound"
    );
}
