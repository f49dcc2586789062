//! # pfp-point-process
//!
//! Temporal point-process substrate for the patient-flow workspace.
//!
//! The paper treats a patient's transitions among care units as a marked
//! temporal point process described by conditional intensity functions
//! (Eq. 1–3).  This crate provides everything the rest of the workspace needs
//! from point-process theory, built from scratch:
//!
//! * [`event`] — marked events and validated event sequences.
//! * [`kernels`] — the parametric intensity families of Table 3
//!   (modulated Poisson, Hawkes, self-correcting, mutually-correcting) behind
//!   one [`kernels::ParametricIntensity`] type, evaluated for Figure 3.
//! * [`hawkes`] — a generatively-trained (maximum likelihood) multivariate
//!   Hawkes process with exponential kernel, the substrate of the HP baseline.
//!   Its exact Ogata-thinning sampler is the workspace's only point-process
//!   sampler; it draws the what-if engine's admission stream.

pub mod event;
pub mod hawkes;
pub mod kernels;

pub use event::{Event, EventSequence};
pub use kernels::{KernelKind, ParametricIntensity};
