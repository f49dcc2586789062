//! # pfp-optim
//!
//! Optimisation substrate for the discriminative learning algorithm of the
//! paper (Algorithm 1): a Nesterov-accelerated line-search gradient solver
//! for the smooth sub-problem, the row-wise group-lasso proximal operator for
//! the `ℓ_{1,2}` regulariser, and an ADMM driver tying the two together.
//!
//! The crate is written against a small [`SmoothObjective`] trait so that the
//! same ADMM driver can be reused by the DMCP trainer, the ablation
//! experiments and the unit tests (which use simple quadratic and logistic
//! objectives with known solutions).
//!
//! The ADMM driver solves **to tolerance**: residual-based stopping with
//! residual-balancing adaptive ρ and over-relaxation, and a
//! Nesterov-accelerated Armijo line-search Θ-update
//! ([`gd::minimize_matrix_accelerated`]).
//!
//! Sequences of related solves (CV folds, γ-continuation sweeps, rolling
//! retrains) chain state through [`WarmStart`] /
//! [`admm::solve_group_lasso_warm`]: the previous solve's (Θ, Y, ρ, step) is
//! a good prediction of the next solution and cuts passes-to-tolerance
//! without changing what the solver converges to.

pub mod admm;
pub mod gd;
pub mod prox;

pub use admm::{
    AdaptiveRho, AdmmConfig, AdmmResult, PlateauStop, SmoothObjective, WarmStart, WarmStartError,
};
pub use gd::{AcceleratedConfig, AcceleratedState, AcceleratedStats};
