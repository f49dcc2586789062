//! # pfp-core
//!
//! The paper's primary contribution: the **mutually-correcting process**
//! model of patient flow and its **discriminative learning algorithm (DMCP)**.
//!
//! A patient's transition history is summarised by the history-dependent
//! feature map (Eq. 4)
//!
//! ```text
//! f_t = [ f_0ᵀ · g(t),  ( Σ_{t_i < t} h(t, t_i) · f_i )ᵀ ]ᵀ ∈ R^M
//! ```
//!
//! with `g(t) = t − t_I` and `h(t,t') = exp(−(t−t')²/σ²)` for the
//! mutually-correcting process.  The conditional intensities are log-linear,
//! `λ_c(t) = exp(θ_cᵀ f_t)`, `λ_d(t) = exp(θ_dᵀ f_t)`, so learning the
//! conditional distributions `p(c | t, H_t)` and `p(d | t, H_t)` is a pair of
//! multinomial logistic regressions sharing the parameter matrix
//! `Θ ∈ R^{M×(C+D)}` (Eq. 5–6), regularised by a row-wise group lasso and
//! solved with ADMM (Algorithm 1).
//!
//! Modules:
//! * [`features`] — the history featurizer (also covers the MPP/SCP feature
//!   maps used by the baselines, so the kernel choice is the only difference).
//! * [`dataset`] — feature/label pairs extracted from patient records.
//! * [`loss`] — the cross-entropy loss of Eq. 6, its gradient, and sample
//!   weighting, as one objective ([`loss::Objective`]) generic over where its
//!   feature rows come from ([`loss::SampleSource`]): every evaluation is one
//!   fold of the batched kernel, which can be sharded over a persistent
//!   worker pool ([`loss::Objective::with_threads`]) with a
//!   bitwise-deterministic result for a fixed thread count.
//! * [`train`](mod@train) — Algorithm 1: ADMM + group lasso, behind one entry
//!   point [`train()`] over four [`TrainSource`]s with typed [`TrainError`]s;
//!   [`TrainConfig::threads`] selects the sample-parallel accumulation width.
//! * [`model`] — the trained [`DmcpModel`]: conditional probabilities,
//!   prediction, intensity evaluation, census simulation hooks.
//! * [`imbalance`] — the weighted / hierarchical / synthetic pre-processing
//!   strategies of Section 3.3.
//! * [`joint`] — the joint `C·D`-class classifier the paper reports as an
//!   over-fitting straw man.
//! * [`stream`] — sharded and out-of-core training over streaming cohort
//!   shards: the bounded-memory sample sources of [`loss::Objective`], which
//!   reproduce the materialized path bitwise ([`TrainSource::Shards`],
//!   [`TrainSource::Stream`]).

#![warn(clippy::missing_errors_doc, clippy::missing_panics_doc)]

pub mod dataset;
pub mod features;
pub mod imbalance;
pub mod joint;
pub mod loss;
pub mod model;
pub mod stream;
pub mod train;

pub use dataset::{Dataset, Sample};
pub use features::{FeatureMapKind, HistoryFeaturizer, McpConfig};
pub use imbalance::ImbalanceStrategy;
pub use model::DmcpModel;
pub use pfp_optim::admm::{PlateauStop, WarmStart, WarmStartError};
pub use stream::{ShardedDmcpObjective, ShardedSamples, StreamingDmcpObjective};
/// [`train()`] under its old name, kept for the `perfbench` package only: the
/// next benchmark change moves it to [`train()`] and deletes this alias.
pub use train::train as train_warm;
pub use train::{initial_theta, train, train_streamed_warm, TrainConfig};
pub use train::{TrainError, TrainReport, TrainSource};
