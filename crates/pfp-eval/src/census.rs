//! Patient-census simulation and the relative simulation error (Section 4.1).
//!
//! Given a trained predictor and the held-out patients, the harness replays
//! each patient from admission: starting with the (observed) first stay, it
//! repeatedly asks the predictor for the next `(destination, duration)` pair,
//! appends the predicted stay (with no future service features — they have
//! not happened yet) to one growing record, and continues until the simulated
//! trajectory covers the one-week horizon.  The daily occupancy of every care
//! unit is then compared against the actual trajectories:
//!
//! ```text
//! Err_c = (1/7) Σ_{day=1..7} |N_{c,day} − N̂_{c,day}| / max(N_{c,day}, 1)
//! ```
//!
//! The paper's overall error divides the total patient count across all CUs.
//! This reproduction has no discharge model: no forecast ever discharges a
//! patient, so the forecast total is identical for every predictor (it stays
//! at the number of held-out patients), and the statistic could not separate
//! methods.  The actual census is not identical: its total falls over the
//! week as patients leave (ROADMAP item 8).  The overall
//! `Err_C` reported here is therefore the occupancy-weighted average of the
//! per-unit errors, which preserves the paper's intent (how well the method
//! predicts where the hospital's patients actually are) while still
//! distinguishing methods; the deviation is documented in EXPERIMENTS.md.

use std::sync::Arc;

use pfp_baselines::FlowPredictor;
use pfp_core::dataset::{Dataset, RawSample};
use pfp_ehr::departments::NUM_CARE_UNITS;
use pfp_ehr::patient::Stay;
use pfp_ehr::PatientRecord;
use pfp_math::SparseVec;
use serde::{Deserialize, Serialize};

/// Number of days the census simulation covers (the paper uses one week).
pub const CENSUS_DAYS: usize = 7;

/// Result of a census simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CensusResult {
    /// `actual[cu][day]`: number of held-out patients occupying `cu` on `day`.
    pub actual: Vec<Vec<usize>>,
    /// `simulated[cu][day]`: the predictor's simulated occupancy.
    pub simulated: Vec<Vec<usize>>,
    /// Relative simulation error per care unit (`Err_c`).
    pub per_cu_error: Vec<f64>,
    /// Overall relative simulation error (`Err_C`).
    pub overall_error: f64,
}

/// Representative dwell time (days) of a duration class: the class midpoint,
/// with 10 days standing in for the open-ended ">7 days" class.
pub fn representative_dwell_days(duration_class: usize, num_durations: usize) -> f64 {
    if duration_class + 1 == num_durations {
        10.0
    } else {
        duration_class as f64 + 1.0
    }
}

/// Occupancy of a trajectory of stays, sampled at the midpoint of each day
/// (`census[cu].len()` days are probed).
///
/// A stay covers the half-open interval `[entry, entry + dwell)`, so a stay
/// entering exactly on a day boundary counts from that day and a trajectory
/// ending mid-day stops counting at its exit: each day's probe instant finds
/// the patient in **at most one** care unit (the first covering stay wins;
/// validated records have contiguous non-overlapping stays, so the match is
/// unique), never two, and a patient whose trajectory has ended contributes
/// nothing.  Sub-day stays that straddle the midpoint are counted; sub-day
/// stays that fall entirely between probes are invisible — that is the
/// midpoint-sampling semantic, not a drop.  A rollout's last stay, entered
/// past the horizon with no dwell drawn (0), covers nothing.
// `day` indexes the *inner* vectors while the outer index comes from the
// matched stay, so there is no single slice to enumerate over.
#[allow(clippy::needless_range_loop)]
pub fn occupancy(stays: &[Stay], census: &mut [Vec<usize>]) {
    let num_days = census.first().map_or(0, Vec::len);
    for day in 0..num_days {
        let probe = day as f64 + 0.5;
        if let Some(stay) = stays
            .iter()
            .find(|s| probe >= s.entry_time && probe < s.exit_time())
        {
            census[stay.cu][day] += 1;
        }
    }
}

/// Roll a patient forward from admission until a stay enters past
/// `horizon`, growing one record from `donor`'s id, profile and first stay's
/// services, entered in `admit_cu` at `admit_time`.  Each hop shows `hop` a
/// view of the current stay and takes back its duration class, its dwell
/// and the next stay's unit; that stay is entered with no services (they
/// have not happened yet) and no dwell drawn (0).  The record is written
/// through [`Arc::make_mut`], so a sample a predictor kept is left as shown.
///
/// # Panics
/// Panics once 4,096 stays are drawn short of the horizon: dwells of at
/// least [`MIN_DWELL_DAYS`](crate::scenario::MIN_DWELL_DAYS) cover a week in
/// 140 hops, so the cap is a loud safety valve against a degenerate dwell
/// model, not a silent truncation dropping the patient from the census.
pub(crate) fn roll_forward(
    donor: &PatientRecord,
    admit_cu: usize,
    admit_time: f64,
    horizon: f64,
    mut hop: impl FnMut(&RawSample) -> (usize, f64, usize),
) -> Arc<PatientRecord> {
    const MAX_STAYS: usize = 4096;
    let mut record = Arc::new(PatientRecord {
        id: donor.id,
        profile: Arc::clone(&donor.profile),
        stays: vec![Stay {
            cu: admit_cu,
            entry_time: admit_time,
            dwell_days: 0.0,
            services: donor.stays[0].services.clone(),
        }],
    });
    let mut prev_duration = None;
    loop {
        let current = record.stays.len() - 1;
        if record.stays[current].entry_time > horizon {
            return record;
        }
        assert!(
            current < MAX_STAYS,
            "rollout for patient {} exceeded {MAX_STAYS} stays before covering \
             the {horizon}-day horizon (degenerate dwell model)",
            donor.id
        );
        let (duration, dwell, next_cu) =
            hop(&RawSample::in_stay(&record, current, prev_duration, 0, 0));
        prev_duration = Some(duration);
        let stays = &mut Arc::make_mut(&mut record).stays;
        stays[current].dwell_days = dwell;
        let next = Stay {
            cu: next_cu,
            entry_time: stays[current].entry_time + dwell,
            dwell_days: 0.0,
            services: SparseVec::new(stays[current].services.dim()),
        };
        stays.push(next);
    }
}

/// Per-CU `Err_c` and the occupancy-weighted overall `Err_C` from actual vs
/// predicted per-CU/per-day occupancy.  Fractional counts are allowed — the
/// Monte-Carlo census forecaster compares rollout *means* against actual
/// integer counts.  The `max(N, 1)` guard keeps zero-occupancy days finite:
/// a unit that is actually empty scores `|N̂|` per day instead of dividing by
/// zero.
pub fn census_errors_f64(actual: &[Vec<f64>], predicted: &[Vec<f64>]) -> (Vec<f64>, f64) {
    assert_eq!(actual.len(), predicted.len(), "care-unit count mismatch");
    let mut per_cu_error = Vec::with_capacity(actual.len());
    for (a_row, p_row) in actual.iter().zip(predicted) {
        assert_eq!(a_row.len(), p_row.len(), "day count mismatch");
        assert!(!a_row.is_empty(), "need at least one census day");
        let err: f64 = a_row
            .iter()
            .zip(p_row)
            .map(|(&n, &nh)| (n - nh).abs() / n.max(1.0))
            .sum();
        per_cu_error.push(err / a_row.len() as f64);
    }
    // Occupancy-weighted average of the per-unit errors (see module docs for
    // why the paper's "total count" version degenerates here).
    let weights: Vec<f64> = actual.iter().map(|row| row.iter().sum()).collect();
    let total_weight: f64 = weights.iter().sum::<f64>().max(1.0);
    let overall_error = per_cu_error
        .iter()
        .zip(&weights)
        .map(|(e, w)| e * w)
        .sum::<f64>()
        / total_weight;
    (per_cu_error, overall_error)
}

/// [`census_errors_f64`] over integer occupancy counts.
pub fn census_errors(actual: &[Vec<usize>], predicted: &[Vec<usize>]) -> (Vec<f64>, f64) {
    let to_f64 = |m: &[Vec<usize>]| -> Vec<Vec<f64>> {
        m.iter()
            .map(|row| row.iter().map(|&v| v as f64).collect())
            .collect()
    };
    census_errors_f64(&to_f64(actual), &to_f64(predicted))
}

/// Simulate the census of the held-out patients under `predictor` and compare
/// with their actual trajectories.
pub fn simulate_census(predictor: &dyn FlowPredictor, test: &Dataset) -> CensusResult {
    let actual = crate::scenario::actual_census(test, CENSUS_DAYS);
    let mut simulated = vec![vec![0usize; CENSUS_DAYS]; NUM_CARE_UNITS];
    for patient in &test.patients {
        // The first stay's unit is observed (admission is known); everything
        // after it, the first stay's dwell included, is predicted.
        let first = &patient.stays[0];
        let rollout = roll_forward(
            patient,
            first.cu,
            first.entry_time,
            CENSUS_DAYS as f64,
            |sample| {
                let next = predictor.predict_sample(sample);
                let dwell = representative_dwell_days(next.duration, test.num_durations);
                (next.duration, dwell, next.cu)
            },
        );
        occupancy(&rollout.stays, &mut simulated);
    }

    let (per_cu_error, overall_error) = census_errors(&actual, &simulated);

    CensusResult {
        actual,
        simulated,
        per_cu_error,
        overall_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfp_baselines::{MethodId, Prediction};
    use pfp_ehr::{generate_cohort, CohortConfig};

    /// Oracle that predicts the actual next transition of the patient it is
    /// shown (looked up from the true record) — used to bound the error from
    /// below, and a constant predictor to bound it from above.
    struct Constant {
        cu: usize,
        duration: usize,
    }

    impl FlowPredictor for Constant {
        fn method(&self) -> MethodId {
            MethodId::Mc
        }
        fn predict_sample(&self, _sample: &RawSample) -> Prediction {
            Prediction {
                cu: self.cu,
                duration: self.duration,
            }
        }
    }

    fn dataset() -> Dataset {
        Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(131)))
    }

    /// Stays of `(cu, entry, dwell)`.
    fn stays(triples: &[(usize, f64, f64)]) -> Vec<Stay> {
        let stay = |&(cu, entry_time, dwell_days)| Stay {
            cu,
            entry_time,
            dwell_days,
            services: SparseVec::new(0),
        };
        triples.iter().map(stay).collect()
    }

    #[test]
    fn representative_dwell_is_monotone() {
        for d in 1..8 {
            assert!(representative_dwell_days(d, 8) > representative_dwell_days(d - 1, 8));
        }
        assert_eq!(representative_dwell_days(0, 8), 1.0);
        assert_eq!(representative_dwell_days(7, 8), 10.0);
    }

    #[test]
    fn representative_dwell_open_ended_sentinel() {
        // The last class is always the open-ended ">7 days" bucket and maps
        // to the 10-day sentinel — including the degenerate single-class
        // scheme, where the only class IS the open-ended one.
        assert_eq!(representative_dwell_days(0, 1), 10.0);
        assert_eq!(representative_dwell_days(0, 2), 1.0);
        assert_eq!(representative_dwell_days(1, 2), 10.0);
        assert_eq!(representative_dwell_days(6, 8), 7.0);
    }

    #[test]
    fn census_errors_survive_zero_occupancy_units() {
        // A unit that is actually empty all week but simulated occupied: the
        // max(N, 1) guard scores |N̂| per day instead of dividing by zero.
        let actual = vec![vec![0usize; CENSUS_DAYS], vec![1; CENSUS_DAYS]];
        let simulated = vec![vec![2usize; CENSUS_DAYS], vec![1; CENSUS_DAYS]];
        let (per_cu, overall) = census_errors(&actual, &simulated);
        assert_eq!(per_cu[0], 2.0);
        assert_eq!(per_cu[1], 0.0);
        // The empty unit carries zero occupancy weight, so it cannot drag
        // the overall error despite its large per-unit error.
        assert_eq!(overall, 0.0);
        assert!(per_cu.iter().all(|e| e.is_finite()));
    }

    #[test]
    fn census_errors_survive_an_entirely_empty_hospital() {
        // All-zero actual occupancy: the total-weight max(·, 1) guard keeps
        // the overall error defined (and zero) instead of 0/0.
        let actual = vec![vec![0usize; CENSUS_DAYS]; 2];
        let simulated = vec![vec![3usize; CENSUS_DAYS]; 2];
        let (per_cu, overall) = census_errors(&actual, &simulated);
        assert!(per_cu.iter().all(|e| e.is_finite()));
        assert_eq!(overall, 0.0);
    }

    #[test]
    fn occupancy_entry_on_day_boundary_counts_from_that_day() {
        let mut census = vec![vec![0usize; CENSUS_DAYS]; 2];
        // Entry exactly at the day-1 boundary, 2-day dwell: occupies days 1
        // and 2 only — the day-0 probe (0.5) precedes the entry, and the
        // day-3 probe (3.5) is past the exit at 3.0.
        occupancy(&stays(&[(0, 1.0, 2.0)]), &mut census);
        assert_eq!(census[0], vec![0, 1, 1, 0, 0, 0, 0]);
        assert_eq!(census[1], vec![0; CENSUS_DAYS]);
    }

    #[test]
    fn occupancy_exit_exactly_on_probe_does_not_count() {
        let mut census = vec![vec![0usize; CENSUS_DAYS]; 1];
        // The stay covers [0, 1.5): the day-1 probe at exactly 1.5 is outside
        // the half-open interval, so only day 0 counts.
        occupancy(&stays(&[(0, 0.0, 1.5)]), &mut census);
        assert_eq!(census[0], vec![1, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn occupancy_sub_day_stays_count_at_most_one_cu_per_day() {
        let mut census = vec![vec![0usize; CENSUS_DAYS]; 3];
        // Three contiguous stays inside day 0; only the one covering the
        // midpoint probe is counted, and exactly one unit gets the patient.
        occupancy(
            &stays(&[(0, 0.0, 0.4), (1, 0.4, 0.2), (2, 0.6, 6.4)]),
            &mut census,
        );
        let day0: usize = (0..3).map(|cu| census[cu][0]).sum();
        assert_eq!(day0, 1, "a patient must be in at most one CU per day");
        assert_eq!(census[1][0], 1, "the midpoint-covering stay wins");
        // The long final stay covers every remaining probe through day 6.
        assert_eq!(census[2], vec![0, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn occupancy_trajectory_ending_mid_day_stops_counting_at_exit() {
        let mut census = vec![vec![0usize; CENSUS_DAYS]; 1];
        // Exit at 2.4: probes 0.5 and 1.5 are inside, 2.5 is past the exit —
        // the discharged patient must not linger in the census.
        occupancy(&stays(&[(0, 0.0, 2.4)]), &mut census);
        assert_eq!(census[0], vec![1, 1, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn actual_occupancy_per_day_sums_to_live_patients() {
        // Property: on every sampled day, summing the actual census over all
        // CUs equals the number of patients whose trajectory covers the probe
        // instant — no double-counts (a patient in two units) and no drops
        // (a live patient in none).  Holds because validated records have
        // contiguous non-overlapping stays.
        let ds = dataset();
        let predictor = Constant { cu: 7, duration: 3 };
        let result = simulate_census(&predictor, &ds);
        for day in 0..CENSUS_DAYS {
            let probe = day as f64 + 0.5;
            let live = ds
                .patients
                .iter()
                .filter(|p| {
                    let start = p.stays.first().expect("non-empty record").entry_time;
                    let end = p.stays.last().expect("non-empty record").exit_time();
                    probe >= start && probe < end
                })
                .count();
            let counted: usize = (0..NUM_CARE_UNITS).map(|cu| result.actual[cu][day]).sum();
            assert_eq!(
                counted, live,
                "day {day}: census sum must equal live patients"
            );
        }
    }

    #[test]
    fn rollout_covers_every_day_with_shortest_dwells() {
        // Regression for the old fixed hop cap: with the shortest duration
        // class the rollout needs 8 hops to span the week, and every probe
        // day must still find every admitted patient somewhere.
        let ds = dataset();
        let predictor = Constant { cu: 2, duration: 0 };
        let result = simulate_census(&predictor, &ds);
        for day in 0..CENSUS_DAYS {
            let total: usize = (0..NUM_CARE_UNITS)
                .map(|cu| result.simulated[cu][day])
                .sum();
            assert_eq!(total, ds.patients.len(), "day {day} dropped patients");
        }
    }

    #[test]
    fn census_counts_are_bounded_by_patient_count() {
        let ds = dataset();
        let predictor = Constant { cu: 7, duration: 3 };
        let result = simulate_census(&predictor, &ds);
        let n = ds.patients.len();
        for cu in 0..NUM_CARE_UNITS {
            for day in 0..CENSUS_DAYS {
                assert!(result.actual[cu][day] <= n);
                assert!(result.simulated[cu][day] <= n);
            }
        }
        // On day 0 every patient is still in some unit (dwell times ≥ 0.3 and
        // the first stay is observed), so total actual occupancy is near n.
        let day0: usize = (0..NUM_CARE_UNITS).map(|cu| result.actual[cu][0]).sum();
        assert!(day0 >= n * 9 / 10);
    }

    #[test]
    fn errors_are_non_negative_and_finite() {
        let ds = dataset();
        let predictor = Constant { cu: 0, duration: 0 };
        let result = simulate_census(&predictor, &ds);
        assert_eq!(result.per_cu_error.len(), NUM_CARE_UNITS);
        for &e in &result.per_cu_error {
            assert!(e >= 0.0 && e.is_finite());
        }
        assert!(result.overall_error >= 0.0 && result.overall_error.is_finite());
    }

    #[test]
    fn long_stay_constant_prediction_matches_first_unit_occupancy_early() {
        // If the predictor says "stay >7 days", the simulated trajectory keeps
        // every patient in their admission unit all week; day-0 occupancy then
        // matches the actual day-0 occupancy exactly (admission unit is observed).
        let ds = dataset();
        let predictor = Constant { cu: 7, duration: 7 };
        let result = simulate_census(&predictor, &ds);
        for cu in 0..NUM_CARE_UNITS {
            assert_eq!(
                result.simulated[cu][0], result.actual[cu][0],
                "day-0 mismatch for cu {cu}"
            );
        }
    }
}
