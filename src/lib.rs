//! # patient-flow
//!
//! Umbrella crate for the reproduction of *"Patient Flow Prediction via
//! Discriminative Learning of Mutually-Correcting Processes"* (Xu, Wu, Nemati,
//! Zha — IEEE TKDE / ICDE 2017).
//!
//! The workspace is organised as a set of focused crates; this crate simply
//! re-exports them under a single name so examples and downstream users can
//! depend on one crate:
//!
//! * [`math`] — dense/sparse linear algebra, softmax, statistics.
//! * [`point_process`] — intensity kernels, Hawkes MLE and exact Hawkes sampling.
//! * [`ehr`] — synthetic MIMIC-II-like cohort generator.
//! * [`optim`] — gradient descent, ADMM, group-lasso proximal operators.
//! * [`core`] — the paper's contribution: the mutually-correcting process model
//!   and its discriminative learning algorithm (DMCP), plus imbalance handling.
//! * [`baselines`] — MC, VAR, CTMC, LR, Hawkes, modulated-Poisson and
//!   self-correcting baselines.
//! * [`eval`] — metrics, census forecasting and the experiment harness that
//!   regenerates every table and figure of the paper.
//! * [`serve`] — micro-batched prediction service over a trained model
//!   (feature vector in, transfer distribution out), with per-request
//!   failure semantics: supervised self-healing worker pool, bounded queue
//!   with overload shedding, per-request deadlines, and degraded-mode
//!   fallback answers.
//!
//! ## Quickstart
//!
//! ```
//! use patient_flow::ehr::{CohortConfig, generate_cohort};
//! use patient_flow::core::{DmcpModel, TrainConfig};
//! use patient_flow::eval::dataset::build_dataset;
//!
//! // A tiny cohort so the doctest stays fast.
//! let cohort = generate_cohort(&CohortConfig::tiny(7));
//! let dataset = build_dataset(&cohort);
//! let (train, test) = dataset.split_holdout(0.2, 7);
//! let model = DmcpModel::train(&train, &TrainConfig::fast());
//! let acc = patient_flow::eval::metrics::overall_cu_accuracy(&model, &test);
//! assert!(acc >= 0.0 && acc <= 1.0);
//! ```

pub use pfp_baselines as baselines;
pub use pfp_core as core;
pub use pfp_ehr as ehr;
pub use pfp_eval as eval;
pub use pfp_math as math;
pub use pfp_optim as optim;
pub use pfp_point_process as point_process;
pub use pfp_serve as serve;
