//! Per-patient record types.
//!
//! A patient's trajectory is a sequence of *stays*: the patient enters a care
//! unit, receives services (which generate time-varying binary features),
//! dwells for some number of days, and is then transferred to the next unit.
//! The paper's transition events `(c_i, d_i, t_i)` are derived from
//! consecutive stays: `c_i` is the destination of the `i`-th transfer,
//! `d_i` is the duration class of the stay that just ended, and `t_i` is the
//! transfer time.

use std::sync::Arc;

use pfp_math::SparseVec;
use pfp_point_process::{Event, EventSequence};
use serde::{Deserialize, Serialize};

use crate::departments::{duration_class, NUM_CARE_UNITS};

/// One care-unit stay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Stay {
    /// Care unit (index in `0..NUM_CARE_UNITS`).
    pub cu: usize,
    /// Entry time in days since the patient's admission.
    pub entry_time: f64,
    /// Dwell time in days (continuous).
    pub dwell_days: f64,
    /// Time-varying service features generated during this stay
    /// (treatment | nursing | medication layout, see `FeatureDictionary`).
    pub services: SparseVec,
}

impl Stay {
    /// Duration category of this stay (paper bucketing).
    pub fn duration_class(&self) -> usize {
        duration_class(self.dwell_days)
    }

    /// Time at which the stay ends (= the next transition time).
    pub fn exit_time(&self) -> f64 {
        self.entry_time + self.dwell_days
    }
}

/// A transition event `(c, d, t)` as defined in Section 2.1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// Destination care unit of the transfer.
    pub destination: usize,
    /// Duration class of the stay that just ended (`d_i`).
    pub duration_class: usize,
    /// Transfer time in days since admission (`t_i`).
    pub time: f64,
    /// Index of the stay that just ended within the patient's record.
    pub from_stay: usize,
}

/// A complete synthetic patient record.
///
/// The [`Default`] record, with no stays, is not a valid patient: it is an
/// empty buffer to generate patients into
/// ([`generate_patient_into`](crate::cohort::generate_patient_into)).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PatientRecord {
    /// Patient identifier (dense, unique within a cohort).
    pub id: usize,
    /// Time-invariant profile features `f_0`, shared with every sample and
    /// rollout made from the record (write it through [`Arc::make_mut`]).
    pub profile: Arc<SparseVec>,
    /// Care-unit stays in chronological order (at least one).
    pub stays: Vec<Stay>,
}

impl PatientRecord {
    /// Validate internal consistency (ordered stays, valid CU indices).
    ///
    /// # Panics
    /// Panics on malformed records; the cohort generator always produces
    /// valid ones, so this is mainly a guard for hand-built test fixtures.
    pub fn validate(&self) {
        assert!(
            !self.stays.is_empty(),
            "a patient must have at least one stay"
        );
        let mut t = 0.0;
        for stay in &self.stays {
            assert!(
                stay.cu < NUM_CARE_UNITS,
                "invalid care unit index {}",
                stay.cu
            );
            assert!(stay.dwell_days > 0.0, "dwell time must be positive");
            assert!(stay.entry_time >= t - 1e-9, "stays must be chronological");
            t = stay.exit_time();
        }
    }

    /// The transition events `(c_i, d_i, t_i)` of this patient: one per
    /// transfer between consecutive stays (the first stay has no preceding
    /// transition, matching the paper's `d_1 = NULL` convention).
    pub fn transitions(&self) -> Vec<Transition> {
        self.stays
            .windows(2)
            .enumerate()
            .map(|(i, w)| Transition {
                destination: w[1].cu,
                duration_class: w[0].duration_class(),
                time: w[1].entry_time,
                from_stay: i,
            })
            .collect()
    }

    /// Number of transitions (stays − 1).
    pub fn num_transitions(&self) -> usize {
        self.stays.len().saturating_sub(1)
    }

    /// Total length of stay in days.
    pub fn total_los_days(&self) -> f64 {
        self.stays.iter().map(|s| s.dwell_days).sum()
    }

    /// The destination-CU event sequence of this patient (marks = CU indices),
    /// suitable for the point-process baselines.
    pub fn cu_event_sequence(&self) -> EventSequence {
        let events: Vec<Event> = self
            .transitions()
            .iter()
            .map(|t| Event::new(t.time, t.destination))
            .collect();
        let horizon = self
            .stays
            .last()
            .map(|s| s.exit_time())
            .unwrap_or(1.0)
            .max(1.0)
            + 1e-9;
        EventSequence::new(events, horizon, NUM_CARE_UNITS)
    }

    /// Whether the patient ever stayed in `cu`.
    pub fn visited(&self, cu: usize) -> bool {
        self.stays.iter().any(|s| s.cu == cu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfp_math::SparseVec;

    fn record() -> PatientRecord {
        PatientRecord {
            id: 0,
            profile: SparseVec::binary(10, vec![1, 3]).into(),
            stays: vec![
                Stay {
                    cu: 0,
                    entry_time: 0.0,
                    dwell_days: 2.4,
                    services: SparseVec::binary(20, vec![2]),
                },
                Stay {
                    cu: 3,
                    entry_time: 2.4,
                    dwell_days: 8.1,
                    services: SparseVec::binary(20, vec![5]),
                },
                Stay {
                    cu: 7,
                    entry_time: 10.5,
                    dwell_days: 1.0,
                    services: SparseVec::binary(20, vec![9]),
                },
            ],
        }
    }

    #[test]
    fn transitions_derive_from_consecutive_stays() {
        let r = record();
        let ts = r.transitions();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].destination, 3);
        assert_eq!(ts[0].duration_class, 2); // 2.4 days -> 3-day bucket? ceil(2.4)=3 -> class 2
        assert!((ts[0].time - 2.4).abs() < 1e-12);
        assert_eq!(ts[1].destination, 7);
        assert_eq!(ts[1].duration_class, 7); // 8.1 days -> >7
        assert_eq!(ts[1].from_stay, 1);
    }

    #[test]
    fn counts_and_los() {
        let r = record();
        assert_eq!(r.num_transitions(), 2);
        assert!((r.total_los_days() - 11.5).abs() < 1e-12);
        assert!(r.visited(0) && r.visited(7) && !r.visited(5));
    }

    #[test]
    fn cu_event_sequence_matches_transitions() {
        let r = record();
        let seq = r.cu_event_sequence();
        assert_eq!(seq.len(), 2);
        assert_eq!(seq.events()[0].mark, 3);
        assert!(seq.horizon() >= 11.5);
    }

    #[test]
    fn single_stay_patient_has_no_transitions() {
        let r = PatientRecord {
            id: 1,
            profile: SparseVec::new(4).into(),
            stays: vec![Stay {
                cu: 7,
                entry_time: 0.0,
                dwell_days: 3.0,
                services: SparseVec::new(8),
            }],
        };
        r.validate();
        assert!(r.transitions().is_empty());
        assert!(r.cu_event_sequence().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one stay")]
    fn validate_rejects_empty_record() {
        let r = PatientRecord {
            id: 2,
            profile: SparseVec::new(4).into(),
            stays: vec![],
        };
        r.validate();
    }

    #[test]
    #[should_panic(expected = "chronological")]
    fn validate_rejects_time_travel() {
        let r = PatientRecord {
            id: 3,
            profile: SparseVec::new(4).into(),
            stays: vec![
                Stay {
                    cu: 0,
                    entry_time: 5.0,
                    dwell_days: 1.0,
                    services: SparseVec::new(8),
                },
                Stay {
                    cu: 1,
                    entry_time: 1.0,
                    dwell_days: 1.0,
                    services: SparseVec::new(8),
                },
            ],
        };
        r.validate();
    }
}
