//! Golden fingerprints of the census simulation and the closed-loop census
//! forecast: FNV-1a over the f64 bits of `forecast_census`'s `mean`, `lo`
//! and `hi`, and over `simulate_census`'s counts and errors.  Two runs of
//! one build agreeing shows determinism only; these literals also catch a
//! change to how a rollout stores its stays, profile or care units.
//!
//! A trained DMCP predictor goes through the featurizer and the softmax
//! heads (its bits depend on the libm the pins were recorded against,
//! glibc's FMA `exp`); the Markov chain reads the current unit and the
//! previous stay's duration class.  Each forecasts the baseline replay and
//! one what-if with the admission stream on: a surge, a unit closure that
//! reroutes admissions and masks destinations, and a length-of-stay shift.

use patient_flow::baselines::{DmcpPredictor, GenerativePredictor, MarkovPredictor, MethodId};
use patient_flow::core::{Dataset, TrainConfig};
use patient_flow::ehr::departments::CareUnit;
use patient_flow::ehr::{generate_cohort, CohortConfig};
use patient_flow::eval::census::{simulate_census, CENSUS_DAYS};
use patient_flow::eval::scenario::{
    forecast_census, AdmissionModel, CensusForecast, ForecastConfig, Perturbation, Scenario,
};

/// FNV-1a over 64-bit words; stable across platforms and toolchains.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in words.into_iter().flat_map(u64::to_le_bytes) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn forecast_fingerprint(f: &CensusForecast) -> u64 {
    let cells = [&f.mean, &f.lo, &f.hi].into_iter().flatten().flatten();
    fnv(std::iter::once(f.rollouts as u64).chain(cells.map(|v| v.to_bits())))
}

/// `[baseline forecast, what-if forecast, census simulation]` fingerprints.
fn fingerprints(predictor: &dyn GenerativePredictor, test: &Dataset) -> [u64; 3] {
    let replay = ForecastConfig {
        rollouts: 4,
        seed: 17,
        ..ForecastConfig::default()
    };
    let with_admissions = ForecastConfig {
        admissions: Some(AdmissionModel::for_cohort(test.patients.len(), CENSUS_DAYS)),
        ..replay.clone()
    };
    let what_if = Scenario::named("surge+closure+los")
        .with(Perturbation::AdmissionSurge { scale: 1.5 })
        .with(Perturbation::UnitClosure {
            cu: CareUnit::Micu.index(),
        })
        .with(Perturbation::LosShift {
            cu: CareUnit::Gw.index(),
            factor: 1.3,
        });
    let census = simulate_census(predictor, test);
    let counts = census.actual.iter().chain(&census.simulated).flatten();
    let errors = census.per_cu_error.iter().chain([&census.overall_error]);
    [
        forecast_fingerprint(&forecast_census(
            predictor,
            test,
            &Scenario::baseline(),
            &replay,
        )),
        forecast_fingerprint(&forecast_census(
            predictor,
            test,
            &what_if,
            &with_admissions,
        )),
        fnv(counts.map(|&n| n as u64).chain(errors.map(|e| e.to_bits()))),
    ]
}

#[test]
fn forecasts_and_census_match_their_pinned_fingerprints() {
    let dataset = Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(61)));
    let (train, test) = dataset.split_holdout(0.3, 61);
    let dmcp = DmcpPredictor::train(&train, &TrainConfig::fast(), MethodId::Dmcp);
    let markov = MarkovPredictor::train(&train);
    for (name, predictor, expected) in [
        (
            "DMCP",
            &dmcp as &dyn GenerativePredictor,
            [
                0xb815_787c_d66b_522f,
                0x620e_4ac9_62d2_448e,
                0xf391_0c1e_be5d_4213,
            ],
        ),
        (
            "MC",
            &markov as &dyn GenerativePredictor,
            [
                0x97a7_290b_8b8d_63b0,
                0xce15_a9bc_cf0a_07bd,
                0x668b_923d_3496_8955,
            ],
        ),
    ] {
        let got = fingerprints(predictor, &test);
        assert_eq!(got, expected, "{name}: {got:#018x?}");
    }
}
