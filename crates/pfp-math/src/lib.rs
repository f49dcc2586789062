//! # pfp-math
//!
//! Minimal, dependency-light numerical substrate for the patient-flow
//! workspace.
//!
//! The paper's learning problem is a pair of multinomial logistic regressions
//! over a shared parameter matrix `Θ ∈ R^{M×(C+D)}` with sparse binary-ish
//! feature vectors.  Everything needed for that — a dense row-major matrix, a
//! sparse feature vector, numerically-stable softmax, and descriptive
//! statistics for the cohort analysis — is implemented here from scratch, as
//! the Rust stats/optimisation crate ecosystem for this niche is thin.
//!
//! Modules:
//! * [`dense`] — row-major `Matrix` and dense vector helpers.
//! * [`sparse`] — `SparseVec`, a sorted sparse vector with f64 values, and
//!   the two per-sample kernels (`accumulate_scores`, `scatter_gradient`).
//! * [`csr`] — `CsrMatrix`, the sample-major CSR packing of a cohort's
//!   feature vectors with the register-blocked batched kernels that dominate
//!   DMCP training time.  The nonzeros are stored as column panels of
//!   [`csr::PANEL_COLS`] features, walked one at a time so the slice of `Θ`
//!   a pass touches stays in L2.  Each kernel runs an AVX-512F instantiation
//!   when the CPU supports it, else an AVX2 one, else a portable one
//!   ([`csr::kernel_path`]); the module's kernel determinism contract makes
//!   all three produce the same bits as the per-sample kernels.
//! * [`softmax`] — log-sum-exp, stable softmax, categorical cross-entropy,
//!   and the phase-split block kernel of softmax heads the DMCP objective
//!   uses ([`softmax::cross_entropy_softmax_rows`]).  Its `exp` runs 8
//!   (AVX-512F) or 4 (AVX2 + FMA) lanes at a time as a port of glibc's FMA
//!   `exp`, else `f64::exp` per element ([`softmax::kernel_path`]); the
//!   module's determinism contract keeps every bit of libm's result.
//! * [`stats`] — mean/variance, Pearson correlation, histograms, argmax.
//! * [`rng`] — seeded sampling helpers (categorical, Bernoulli, exponential).
//! * [`parallel`] — deterministic sample sharding, fixed-order tree
//!   reduction, and a persistent [`parallel::WorkerPool`] for parallel
//!   gradient accumulation without per-evaluation thread spawns.
//! * [`supervise`] — self-healing layer over the worker pool: lost-worker
//!   detection, capped exponential-backoff respawn with seeded jitter, and
//!   [`supervise::PoolHealth`] snapshots for serving-path admission control.
//!
//! ## Example
//!
//! The workspace-wide convention is a row-major parameter matrix with one row
//! per feature dimension and one column per output class; sparse feature
//! vectors score against it without densifying:
//!
//! ```
//! use pfp_math::{Matrix, SparseVec};
//!
//! let theta = Matrix::from_fn(3, 2, |r, c| (r + c) as f64);
//! let f = SparseVec::binary(3, vec![0, 2]);
//! let mut scores = vec![0.0; 2];
//! f.accumulate_scores(&theta, &mut scores);
//! assert_eq!(scores, vec![2.0, 4.0]); // Θ⊤ f
//! ```

pub mod csr;
pub mod dense;
pub mod parallel;
pub mod rng;
pub mod softmax;
pub mod sparse;
pub mod stats;
pub mod supervise;

pub use csr::CsrMatrix;
pub use dense::Matrix;
pub use parallel::{PoolError, WorkerPool};
pub use sparse::SparseVec;
pub use supervise::{BackoffConfig, PoolHealth, Supervisor};
