//! Smoke test: cohort generation is a pure function of the seed.
//!
//! The experiment harness relies on this to make every table/figure
//! reproducible, so the check is at the event-sequence level (the paper's
//! `(c, d, t)` transitions), not just record shapes.
//!
//! The streaming generator ([`CohortShards`]) extends the contract: the
//! concatenation of the shards — whether streamed from the start, resumed
//! from shard `k`, or re-streamed at a different shard size — must be
//! bit-for-bit the cohort `generate_cohort` materializes, because every
//! patient derives an independent RNG stream from `(seed, id)`.
//!
//! Pinned fingerprints guard the generator's output itself and the featurized
//! samples built from it, and the memo isolation test guards the per-thread
//! signature table inside the generator.

use patient_flow::core::{Dataset, Sample};
use patient_flow::ehr::{
    generate_cohort, generate_patient_record, CohortConfig, CohortShards, FeatureDictionary,
    PatientRecord,
};

#[test]
fn tiny_cohort_generation_is_deterministic_for_a_fixed_seed() {
    let a = generate_cohort(&CohortConfig::tiny(42));
    let b = generate_cohort(&CohortConfig::tiny(42));

    assert_eq!(a.patients.len(), b.patients.len());
    for (pa, pb) in a.patients.iter().zip(b.patients.iter()) {
        assert_eq!(pa.id, pb.id);
        assert_eq!(pa.profile, pb.profile);

        // Identical event sequences: same transitions at the same times.
        let ta = pa.transitions();
        let tb = pb.transitions();
        assert_eq!(ta.len(), tb.len(), "patient {}", pa.id);
        for (ea, eb) in ta.iter().zip(tb.iter()) {
            assert_eq!(ea.destination, eb.destination);
            assert_eq!(ea.duration_class, eb.duration_class);
            assert_eq!(ea.from_stay, eb.from_stay);
            assert!(
                (ea.time - eb.time).abs() < 1e-15,
                "transition times diverged for patient {}: {} vs {}",
                pa.id,
                ea.time,
                eb.time
            );
        }

        // And the underlying stays match bit-for-bit where it matters.
        assert_eq!(pa.stays.len(), pb.stays.len());
        for (sa, sb) in pa.stays.iter().zip(pb.stays.iter()) {
            assert_eq!(sa.cu, sb.cu);
            assert_eq!(sa.entry_time.to_bits(), sb.entry_time.to_bits());
            assert_eq!(sa.dwell_days.to_bits(), sb.dwell_days.to_bits());
            assert_eq!(sa.services, sb.services);
        }
    }
}

#[test]
fn different_seeds_change_the_event_sequences() {
    let a = generate_cohort(&CohortConfig::tiny(42));
    let b = generate_cohort(&CohortConfig::tiny(43));
    let fingerprint = |c: &patient_flow::ehr::Cohort| -> Vec<(usize, usize)> {
        c.patients
            .iter()
            .flat_map(|p| {
                p.transitions()
                    .into_iter()
                    .map(|t| (t.destination, t.duration_class))
            })
            .collect()
    };
    assert_ne!(
        fingerprint(&a),
        fingerprint(&b),
        "seed must influence the cohort"
    );
}

/// Bit-level equality of two patient records: profile, stay fields (times as
/// bits), and service vectors.
fn assert_patients_identical(a: &PatientRecord, b: &PatientRecord) {
    assert_eq!(a.id, b.id);
    assert_eq!(a.profile, b.profile);
    assert_eq!(a.stays.len(), b.stays.len(), "patient {}", a.id);
    for (sa, sb) in a.stays.iter().zip(&b.stays) {
        assert_eq!(sa.cu, sb.cu);
        assert_eq!(sa.entry_time.to_bits(), sb.entry_time.to_bits());
        assert_eq!(sa.dwell_days.to_bits(), sb.dwell_days.to_bits());
        assert_eq!(sa.services, sb.services);
    }
}

#[test]
fn streamed_shards_concatenate_to_the_materialized_cohort_bitwise() {
    let config = CohortConfig::tiny(42);
    let materialized = generate_cohort(&config);
    // Shard sizes spanning one-patient shards, a ragged tail, and a single
    // shard holding the whole cohort.
    for shard_size in [1usize, 40, config.num_patients, config.num_patients + 9] {
        let mut seen = 0usize;
        for (k, shard) in CohortShards::new(&config, shard_size).enumerate() {
            assert_eq!(shard.start_id, k * shard_size);
            assert_eq!(shard.patients.len(), shard.archetypes.len());
            for p in &shard.patients {
                assert_patients_identical(p, &materialized.patients[seen]);
                seen += 1;
            }
        }
        assert_eq!(seen, materialized.patients.len(), "shard_size={shard_size}");
    }
}

#[test]
fn resumed_stream_is_bitwise_identical_to_the_skipped_prefix_stream() {
    let config = CohortConfig::tiny(43);
    let shard_size = 32;
    let full: Vec<_> = CohortShards::new(&config, shard_size).collect();
    for resume_at in [0usize, 1, 2, full.len() - 1] {
        let resumed: Vec<_> = CohortShards::resume_from(&config, shard_size, resume_at).collect();
        assert_eq!(resumed.len(), full.len() - resume_at);
        for (shard, expected) in resumed.iter().zip(&full[resume_at..]) {
            assert_eq!(shard.start_id, expected.start_id);
            for (p, q) in shard.patients.iter().zip(&expected.patients) {
                assert_patients_identical(p, q);
            }
        }
    }
    // Resuming past the end streams nothing.
    assert_eq!(
        CohortShards::resume_from(&config, shard_size, full.len() + 3).count(),
        0
    );
}

#[test]
fn degenerate_stream_shapes() {
    // Empty cohort: zero shards regardless of shard size.
    let mut empty = CohortConfig::tiny(7);
    empty.num_patients = 0;
    assert_eq!(CohortShards::new(&empty, 16).count(), 0);

    // Cohort smaller than one shard: exactly one shard with every patient.
    let config = CohortConfig::tiny(7);
    let shards: Vec<_> = CohortShards::new(&config, config.num_patients * 4).collect();
    assert_eq!(shards.len(), 1);
    assert_eq!(shards[0].patients.len(), config.num_patients);

    // One patient per shard: the iterator's length accounting stays exact.
    let iter = CohortShards::new(&config, 1);
    assert_eq!(iter.len(), config.num_patients);
    assert_eq!(iter.count(), config.num_patients);
}

/// FNV-1a over the bits of a cohort that every downstream number depends on:
/// patient ids, care-unit sequences, dwell-time bits, and the profile and
/// service feature indices.  Stable across platforms and toolchains (unlike
/// `std`'s `DefaultHasher`), so the pinned values below are meaningful.
fn cohort_fingerprint(cohort: &patient_flow::ehr::Cohort) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in &cohort.patients {
        eat(p.id as u64);
        eat(p.profile.nnz() as u64);
        for &i in p.profile.indices() {
            eat(i as u64);
        }
        eat(p.stays.len() as u64);
        for s in &p.stays {
            eat(s.cu as u64);
            eat(s.dwell_days.to_bits());
            eat(s.services.nnz() as u64);
            for &i in s.services.indices() {
                eat(i as u64);
            }
        }
    }
    h
}

/// Golden fingerprints, computed with the unmemoized generator (every
/// signature set drawn by a fresh full shuffle).  A generator change that
/// moves any of these changes every downstream table and benchmark figure.
#[test]
fn generated_cohorts_match_their_pinned_fingerprints() {
    for (name, config, expected) in [
        ("tiny", CohortConfig::tiny(42), 0xc7be_5519_aece_88fc_u64),
        ("small", CohortConfig::small(42), 0xb9b9_d3da_6fe9_35dc),
        (
            "scaled(0.05)",
            CohortConfig::scaled(0.05, 42),
            0x5a54_db00_82c7_2fab,
        ),
    ] {
        let got = cohort_fingerprint(&generate_cohort(&config));
        assert_eq!(got, expected, "{name}: fingerprint {got:#018x}");
    }
}

/// FNV-1a over every bit of a featurized sample set: per sample the nnz, the
/// feature indices, the bits of every feature value, and both labels.
fn samples_fingerprint(samples: &[Sample]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for s in samples {
        eat(s.features.nnz() as u64);
        for (i, v) in s.features.iter() {
            eat(i as u64);
            eat(v.to_bits());
        }
        eat(s.cu_label as u64);
        eat(s.duration_label as u64);
    }
    h
}

/// Golden fingerprint of the featurized samples under the default MCP map,
/// computed with the insert-per-entry featurizer.  The cohort pins above see
/// only feature indices; this one also pins every feature value bit, so a
/// featurizer that sums a stay's contributions in another order moves it.
#[test]
fn featurized_samples_match_their_pinned_fingerprint() {
    let dataset = Dataset::from_cohort(&generate_cohort(&CohortConfig::small(42)));
    let samples = dataset.featurize(dataset.default_mcp_kind());
    let got = samples_fingerprint(&samples);
    assert_eq!(
        got, 0x79a7_3efe_81e0_ae81,
        "small(42) default MCP: fingerprint {got:#018x}"
    );
}

/// Configs that pairwise share a seed but not a dictionary (`a`/`b`, `a`/`d`,
/// where `d` differs in one domain size only), a dictionary but not a seed
/// (`a`/`c`), or both but not the activation counts that size the signature
/// sets (`a`/`e`): the generator's per-thread signature table must never
/// serve one of them a set drawn for another.
fn memo_isolation_configs() -> Vec<CohortConfig> {
    let a = CohortConfig::tiny(5);
    let b = CohortConfig {
        features: FeatureDictionary::scaled(0.01),
        ..CohortConfig::tiny(5)
    };
    let c = CohortConfig::tiny(6);
    let mut d = CohortConfig::tiny(5);
    d.features.nursing += 1;
    let e = CohortConfig {
        profile_actives: 9,
        stay_actives: 14,
        ..CohortConfig::tiny(5)
    };
    vec![a, b, c, d, e]
}

const MEMO_ISOLATION_PATIENTS: usize = 40;

/// Each config's patients `0..MEMO_ISOLATION_PATIENTS`, generated alone on a
/// fresh thread (so with a fresh signature table).
fn fresh_thread_records(config: &CohortConfig) -> Vec<PatientRecord> {
    let config = config.clone();
    std::thread::spawn(move || {
        (0..MEMO_ISOLATION_PATIENTS)
            .map(|id| generate_patient_record(&config, id).0)
            .collect()
    })
    .join()
    .expect("reference thread")
}

/// On the calling thread, for every ordered pair of distinct configs,
/// generate each patient id of the first and then of the second back to
/// back, checking every record against the fresh-thread reference.
fn alternate_and_check(configs: &[CohortConfig], reference: &[Vec<PatientRecord>]) {
    for first in 0..configs.len() {
        for second in (0..configs.len()).filter(|&k| k != first) {
            let pairs = reference[first].iter().zip(&reference[second]);
            for (id, (expect_first, expect_second)) in pairs.enumerate() {
                for (k, expected) in [(first, expect_first), (second, expect_second)] {
                    let (record, _) = generate_patient_record(&configs[k], id);
                    assert_patients_identical(&record, expected);
                }
            }
        }
    }
}

#[test]
fn signature_memo_never_leaks_across_dictionaries_or_seeds() {
    let configs = memo_isolation_configs();
    let reference: Vec<Vec<PatientRecord>> = configs.iter().map(fresh_thread_records).collect();
    alternate_and_check(&configs, &reference);
    // The same on two fresh threads at once (the scope joins them and
    // re-raises any panic).
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| alternate_and_check(&configs, &reference));
        }
    });
}
