//! Bounded-memory scale run: out-of-core training on cohorts that never
//! exist in memory.
//!
//! ```text
//! cargo run --release -p pfp-bench --bin repro_scale -- \
//!     --patients 100000 --shard-size 2048
//! ```
//!
//! Trains the same DMCP model three ways and proves two things:
//!
//! 1. **Correctness** — the streamed and sharded paths reproduce the
//!    materialized `train` path *bitwise* (the θ and selection matrices are
//!    compared element-for-element as bits).
//! 2. **Bounded memory** — the streaming path's heap high-water mark does
//!    not grow with the cohort: measured with the counting global allocator
//!    ([`pfp_bench::mem`]), reset between phases, and recorded to
//!    `BENCH_scale.json` alongside wall-clock times.
//!
//! Phases (each with its own allocator-peak window):
//!
//! * `streaming` — [`train_streamed`]: the cohort is regenerated from its
//!   seed one patient at a time on every objective evaluation (the shard
//!   size bounds only the pre-passes); retained state is an
//!   8-byte-per-patient offset index plus the solver matrices.
//! * `sharded`   — [`ShardedSamples::stream_cohort`] + [`train_sharded`]:
//!   CSR shard blocks are built streamingly and retained, so evaluations
//!   don't regenerate, but no patient or sample vector is ever materialized.
//! * `materialized` (skippable with `--no-baseline`) — the classic
//!   `generate_cohort` → `Dataset` → `train` pipeline, as the memory
//!   baseline the other two must undercut.
//!
//! The default `--patients 20000 --shard-size 2048` with a 2-outer-iteration
//! solver budget is the CI smoke configuration; pass `--full` for the real
//! solver budget at 100k+ patients (minutes, not seconds).

use std::time::Instant;

use pfp_bench::mem;
use pfp_bench::render_table;
use pfp_core::stream::{train_sharded, train_streamed, ShardedSamples};
use pfp_core::{train, Dataset, DmcpModel, TrainConfig};
use pfp_ehr::departments::PAPER_NUM_PATIENTS;
use pfp_ehr::{generate_cohort, CohortConfig, FeatureDictionary};

#[global_allocator]
static ALLOC: mem::TrackingAllocator = mem::TrackingAllocator;

/// Flags for the scale run.  `pfp_bench::Args` rejects unknown flags by
/// design, so this binary (which needs several of its own) parses separately.
#[derive(Debug, Clone, PartialEq)]
struct ScaleArgs {
    patients: usize,
    shard_size: usize,
    seed: u64,
    threads: usize,
    /// Run the real solver budget instead of the CI-smoke budget.
    full: bool,
    /// Skip the materialized baseline (for cohorts too big to materialize —
    /// the whole point, eventually).
    no_baseline: bool,
    /// Skip the retained-shard-blocks phase.
    no_sharded: bool,
}

impl Default for ScaleArgs {
    fn default() -> Self {
        ScaleArgs {
            patients: 20_000,
            shard_size: 2_048,
            seed: 7,
            threads: 1,
            full: false,
            no_baseline: false,
            no_sharded: false,
        }
    }
}

impl ScaleArgs {
    fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = ScaleArgs::default();
        let mut iter = args.into_iter();
        let value = |flag: &str, iter: &mut I::IntoIter| -> String {
            iter.next()
                .unwrap_or_else(|| panic!("{flag} requires a value"))
        };
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--patients" => {
                    out.patients = value("--patients", &mut iter).parse().expect("integer")
                }
                "--shard-size" => {
                    out.shard_size = value("--shard-size", &mut iter).parse().expect("integer")
                }
                "--seed" => out.seed = value("--seed", &mut iter).parse().expect("integer"),
                "--threads" => {
                    out.threads = value("--threads", &mut iter).parse().expect("integer")
                }
                "--full" => out.full = true,
                "--no-baseline" => out.no_baseline = true,
                "--no-sharded" => out.no_sharded = true,
                other => panic!(
                    "unknown argument: {other} (expected --patients, --shard-size, --seed, \
                     --threads, --full, --no-baseline, --no-sharded)"
                ),
            }
        }
        assert!(out.patients >= 1, "--patients must be at least 1");
        assert!(out.shard_size >= 1, "--shard-size must be at least 1");
        out
    }

    fn cohort_config(&self) -> CohortConfig {
        // Scale the feature dictionary with the cohort like
        // `CohortConfig::scaled` does, but let the patient count exceed the
        // paper's.
        let scale = (self.patients as f64 / PAPER_NUM_PATIENTS as f64).clamp(0.01, 1.0);
        CohortConfig {
            num_patients: self.patients,
            features: FeatureDictionary::scaled(scale),
            seed: self.seed,
            profile_actives: 16,
            stay_actives: 24,
        }
    }

    fn train_config(&self) -> TrainConfig {
        let mut config = TrainConfig::fast().with_threads(self.threads);
        if !self.full {
            // CI-smoke budget: the gate is the memory profile and the
            // bitwise three-way agreement, not convergence.  The streaming
            // phase regenerates the cohort once per objective evaluation, so
            // the evaluation count is the knob that keeps smoke runs fast.
            config.max_outer_iters = 2;
            config.max_inner_iters = 4;
        }
        config
    }
}

/// One measured phase: its trained model, wall-clock, and allocator peak.
struct Phase {
    name: &'static str,
    model: DmcpModel,
    wall_s: f64,
    peak_bytes: usize,
}

fn run_phase(name: &'static str, f: impl FnOnce() -> DmcpModel) -> Phase {
    mem::reset_peak();
    let start = Instant::now();
    let model = f();
    let wall_s = start.elapsed().as_secs_f64();
    let peak_bytes = mem::peak_bytes();
    Phase {
        name,
        model,
        wall_s,
        peak_bytes,
    }
}

/// Bitwise equality of two trained models' θ and selection matrices.
fn models_match_bitwise(a: &DmcpModel, b: &DmcpModel) -> bool {
    let bits =
        |m: &pfp_math::Matrix| -> Vec<u64> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
    a.theta.shape() == b.theta.shape()
        && bits(&a.theta) == bits(&b.theta)
        && bits(&a.selection) == bits(&b.selection)
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() {
    let args = ScaleArgs::parse_from(std::env::args().skip(1));
    let cohort_config = args.cohort_config();
    let train_config = args.train_config();
    println!(
        "Scale run: {} patients, shard size {}, threads {}, {} solver budget",
        args.patients,
        args.shard_size,
        args.threads,
        if args.full { "full" } else { "smoke" }
    );

    let mut phases: Vec<Phase> = Vec::new();

    phases.push(run_phase("streaming", || {
        train_streamed(&cohort_config, &train_config, args.shard_size)
    }));
    let total_samples = {
        // Cheap recount from the streamed model's already-verified setup:
        // regenerate the offset index once for reporting.
        let p = &phases[0];
        println!(
            "  streaming    : {:>8.1} MiB peak, {:>7.2} s",
            mib(p.peak_bytes),
            p.wall_s
        );
        pfp_ehr::CohortShards::new(&cohort_config, args.shard_size)
            .map(|s| {
                s.patients
                    .iter()
                    .map(|p| p.num_transitions())
                    .sum::<usize>()
            })
            .sum::<usize>()
    };

    if !args.no_sharded {
        phases.push(run_phase("sharded", || {
            let shards = ShardedSamples::stream_cohort(
                &cohort_config,
                train_config.feature_map,
                args.shard_size,
            );
            train_sharded(&shards, &train_config)
        }));
        let p = phases.last().unwrap();
        println!(
            "  sharded      : {:>8.1} MiB peak, {:>7.2} s",
            mib(p.peak_bytes),
            p.wall_s
        );
    }

    if !args.no_baseline {
        phases.push(run_phase("materialized", || {
            let cohort = generate_cohort(&cohort_config);
            let dataset = Dataset::from_cohort(&cohort);
            train(&dataset, &train_config)
        }));
        let p = phases.last().unwrap();
        println!(
            "  materialized : {:>8.1} MiB peak, {:>7.2} s",
            mib(p.peak_bytes),
            p.wall_s
        );
    }

    // Three-way bitwise agreement (everything vs the streaming phase).
    let theta_matches = phases[1..]
        .iter()
        .all(|p| models_match_bitwise(&phases[0].model, &p.model));
    assert!(
        theta_matches,
        "streamed/sharded/materialized training disagree — determinism contract broken"
    );

    let materialized_peak = phases
        .iter()
        .find(|p| p.name == "materialized")
        .map(|p| p.peak_bytes);
    let peak_of = |name: &str| phases.iter().find(|p| p.name == name).map(|p| p.peak_bytes);
    let below = |name: &str| match (peak_of(name), materialized_peak) {
        (Some(p), Some(m)) => p < m,
        // Without a baseline there is nothing to compare against; report
        // true so `--no-baseline` runs (huge cohorts) still pass the gate.
        _ => true,
    };
    let streaming_below = below("streaming");
    let sharded_below = below("sharded");

    let rows: Vec<Vec<String>> = phases
        .iter()
        .map(|p| {
            vec![
                p.name.to_string(),
                format!("{:.1}", mib(p.peak_bytes)),
                format!("{:.2}", p.wall_s),
            ]
        })
        .collect();
    println!();
    println!(
        "{}",
        render_table(&["phase", "peak MiB", "wall s"].map(String::from), &rows)
    );
    println!(
        "θ bitwise agreement across phases: {theta_matches}; \
         total samples: {total_samples}"
    );

    let phase_json: Vec<String> = phases
        .iter()
        .map(|p| {
            format!(
                "    {{\"phase\": \"{}\", \"peak_bytes\": {}, \"wall_s\": {:.3}}}",
                p.name, p.peak_bytes, p.wall_s
            )
        })
        .collect();
    let vm_hwm = mem::vm_hwm_kb()
        .map(|v| v.to_string())
        .unwrap_or_else(|| "null".to_string());
    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"patients\": {},\n  \
         \"shard_size\": {},\n  \"threads\": {},\n  \"seed\": {},\n  \
         \"full_budget\": {},\n  \"total_samples\": {total_samples},\n  \
         \"phases\": [\n{}\n  ],\n  \
         \"theta_matches\": {theta_matches},\n  \
         \"streaming_peak_below_materialized\": {streaming_below},\n  \
         \"sharded_peak_below_materialized\": {sharded_below},\n  \
         \"vm_hwm_kb\": {vm_hwm}\n}}\n",
        args.patients,
        args.shard_size,
        args.threads,
        args.seed,
        args.full,
        phase_json.join(",\n"),
    );
    std::fs::write("BENCH_scale.json", &json).expect("failed to write BENCH_scale.json");
    println!("Wrote BENCH_scale.json.");
}
