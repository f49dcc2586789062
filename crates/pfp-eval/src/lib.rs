//! # pfp-eval
//!
//! Evaluation harness for the patient-flow reproduction: the metrics of
//! Section 4.1, the patient-census simulation behind the
//! relative-simulation-error metric, and the experiment runners that
//! regenerate every table and figure of the paper.
//!
//! Modules:
//! * [`dataset`] — converts a [`pfp_ehr::Cohort`] into the feature/label
//!   samples shared by every method, plus train/test and k-fold splitting.
//! * [`metrics`] — per-class accuracy `AC_c` / `AC_d`, overall `AC_C` /
//!   `AC_D`, confusion matrices.
//! * [`census`] — 7-day patient-census simulation and the relative
//!   simulation error `Err_c` / `Err_C`.
//! * [`scenario`] — closed-loop Monte-Carlo census forecasting (the trained
//!   model rolled forward generatively) and the what-if engine: admission
//!   surges, unit closures, LOS shifts, scored with `Err_c` / `Err_C`.
//! * [`experiments`] — one function per paper table/figure returning a
//!   serialisable report (used by the `pfp-bench` reproduction binaries).

pub mod census;
pub mod dataset;
pub mod experiments;
pub mod metrics;
pub mod scenario;

pub use dataset::build_dataset;
