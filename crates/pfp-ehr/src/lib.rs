//! # pfp-ehr
//!
//! Synthetic MIMIC-II-like patient-flow cohort.
//!
//! The paper evaluates on 30,685 patients extracted from the MIMIC-II
//! database.  That data is access-controlled, so this crate provides a
//! *statistically faithful* substitute: a generator that produces patients
//! with
//!
//! * the eight care-unit departments of the paper (CCU, ACU, FICU, CSRU,
//!   MICU, TSICU, NICU, GW) with the same heavy class imbalance (Table 1),
//! * duration-day categories 1–7 and ">7 days" with per-department mean
//!   durations close to Table 1,
//! * binary EHR feature vectors in four domains (profile, treatment,
//!   nursing, medication) whose per-department nonzero proportions follow
//!   Table 2,
//! * weak correlation (≈0.2) between transition destination and duration
//!   (Figure 2), and
//! * ground-truth mutually-correcting dynamics, so the learning task has
//!   recoverable structure.
//!
//! See `DESIGN.md` for the substitution argument.
//!
//! Modules:
//! * [`departments`] — the CU taxonomy and the published Table 1/2 targets.
//! * [`features`] — the feature dictionary (domain layout, index ranges).
//! * [`patient`] — per-patient record types (transitions + feature vectors).
//! * [`cohort`] — the generator ([`CohortConfig`], [`generate_cohort`], and
//!   the streaming [`CohortShards`] iterator).
//! * [`stats`] — descriptive statistics reproducing Tables 1–2 and Figure 2.

pub mod cohort;
pub mod departments;
pub mod features;
pub mod patient;
pub mod stats;

pub use cohort::{
    generate_cohort, generate_patient_into, generate_patient_record,
    generate_patient_services_into, generator_table_bytes, Archetype, Cohort, CohortConfig,
    CohortShard, CohortShards,
};
pub use departments::{CareUnit, NUM_CARE_UNITS, NUM_DURATION_CLASSES};
pub use features::FeatureDictionary;
pub use patient::{PatientRecord, Transition};
