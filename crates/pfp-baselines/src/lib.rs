//! # pfp-baselines
//!
//! The seven baseline predictors of Section 4.1, behind one
//! [`FlowPredictor`] trait so the evaluation harness can treat every method
//! uniformly:
//!
//! * **MC** — two independent first-order Markov chains (destination CU and
//!   duration category), count-based transition matrices.
//! * **VAR** — vector auto-regression on one-hot state vectors, ridge-
//!   regularised least squares.
//! * **CTMC** — continuous-time Markov chain with an estimated rate matrix;
//!   destination from jump probabilities, duration from expected holding
//!   times.
//! * **LR** — multinomial logistic regression on the *current* features only
//!   (history-independent).
//! * **HP** — generatively-trained multivariate Hawkes process; prediction by
//!   integrating the intensity over day-long windows.
//! * **MPP / SCP** — the modulated-Poisson and self-correcting feature maps
//!   plugged into the same discriminative softmax learner as DMCP but without
//!   the group lasso, isolating the contribution of the mutually-correcting
//!   kernel.
//!
//! DMCP itself (and its W/H/S imbalance variants) lives in `pfp-core`; the
//! [`predictor`] module provides adapters so it satisfies the same trait.

pub mod ctmc;
pub mod hawkes_baseline;
pub mod logistic;
pub mod markov;
pub mod pp_discriminative;
pub mod predictor;
pub mod var;

pub use ctmc::CtmcPredictor;
pub use hawkes_baseline::HawkesPredictor;
pub use logistic::LogisticPredictor;
pub use markov::{MarkovFallback, MarkovPredictor};
pub use predictor::{DmcpPredictor, FlowPredictor, GenerativePredictor, MethodId, Prediction};
pub use var::VarPredictor;
