//! ADMM driver for `min_Θ  L(Θ) + γ ‖Θ‖_{1,2}` (Algorithm 1 of the paper).
//!
//! The problem is split as `min L(Θ) + γ‖X‖_{1,2}  s.t.  Θ = X` and solved by
//! alternating:
//!
//! 1. **Θ-update** — minimise the augmented Lagrangian
//!    `L(Θ) + (ρ/2)‖Θ − X + Y‖²_F` (Eq. 8) with the Nesterov-accelerated
//!    Armijo line-search solver in [`crate::gd`],
//! 2. **X-update** — the row-wise group soft-threshold `prox_{γ/ρ}` (Eq. 10)
//!    applied to the over-relaxed point `αΘ + (1−α)X_prev + Y`,
//! 3. **Y-update** — dual ascent `Y ← Y + (Θ̂ − X)` (Eq. 11).
//!
//! # Time-to-tolerance, not fixed budget
//!
//! The driver stops on the standard primal/dual residual criteria
//! (`‖Θ − X‖ ≤ ε_pri`, `ρ‖X − X_prev‖ ≤ ε_dual`, Boyd et al. §3.3), so
//! `max_outer_iters` is a **cap**, not a schedule.  Three convergence-rate
//! levers are always on:
//!
//! * **Residual-balancing adaptive ρ** ([`AdaptiveRho`]): grow ρ when the
//!   primal residual dominates, shrink it when the dual one does, rescaling
//!   the scaled dual `Y` and the diagonal step preconditioner in step.
//! * **Over-relaxation** (`α = 1.6`): the X/Y updates see
//!   `Θ̂ = αΘ + (1−α)X_prev` instead of Θ.
//! * **Accelerated Θ-update** ([`crate::gd::minimize_matrix_accelerated`]
//!   with [`AcceleratedConfig::default`]): Nesterov momentum + Armijo
//!   backtracking with the accepted step warm-started across outer
//!   iterations, and a gradient-norm early exit.
//!
//! # Evaluation accounting
//!
//! The solve is written against two entry points: the fused
//! [`SmoothObjective::value_and_gradient`] at the start and extrapolated
//! points, and the value-first [`SmoothObjective::value_then_gradient`] at
//! line-search trials, whose gradient is only computed when the Armijo test
//! on `smooth + augmented value` accepts ([`AdmmResult::trials_rejected`]
//! counts the trials that skip it).  Either way each is one evaluation.  The
//! last accepted line-search evaluation already sits at the outer
//! iteration's final Θ, so its smooth value extends the objective trace and
//! its gradient seeds the next Θ-update — no separate trailing pass.  The
//! trace is extended every outer iteration, including early-stop ones (the
//! carried value is bitwise what a fresh evaluation at that Θ would return,
//! because the objective is deterministic).

use pfp_math::Matrix;
use serde::{Deserialize, Serialize};

use crate::gd::{
    minimize_matrix_accelerated, AcceleratedConfig, AcceleratedState, AcceleratedWorkspace, PhiEval,
};
use crate::prox::prox_group_lasso_in_place;

/// A smooth (differentiable) objective over a parameter matrix.
///
/// Implementations are free to parallelise `value`/`gradient` internally
/// (e.g. the DMCP objective shards its per-sample accumulation over a
/// persistent worker pool); the ADMM driver only requires that repeated
/// evaluations at the same point return the same result, so any internal
/// parallelism must be deterministic for a fixed configuration.
pub trait SmoothObjective {
    /// Objective value at `theta`.
    fn value(&self, theta: &Matrix) -> f64;
    /// Gradient at `theta`, written into `grad` (same shape, pre-zeroed by the
    /// caller is *not* assumed — implementations must overwrite it fully).
    fn gradient(&self, theta: &Matrix, grad: &mut Matrix);
    /// Fused evaluation: write the gradient at `theta` into `grad` and return
    /// the value at `theta`, in one call.
    ///
    /// The solvers only ever need the value and the gradient *at the same
    /// point*, so this is the method they call on the hot path.  The default
    /// implementation simply chains [`gradient`](Self::gradient) and
    /// [`value`](Self::value); objectives whose value and gradient share
    /// expensive intermediates (the DMCP objective computes per-sample scores
    /// and softmaxes used by both) should override it with a fused single
    /// pass.  Overrides must return exactly what the separate calls would —
    /// the fused path is an optimisation, never a different function.
    fn value_and_gradient(&self, theta: &Matrix, grad: &mut Matrix) -> f64 {
        self.gradient(theta, grad);
        self.value(theta)
    }
    /// Value first, gradient only on demand: return the value at `theta`
    /// together with `accept(value)`, and write the gradient into `grad` only
    /// when `accept` returned `true`.
    ///
    /// A line search needs the gradient at a trial point only if it accepts
    /// the trial, so it passes its acceptance test here.  The default is the
    /// fused [`value_and_gradient`](Self::value_and_gradient) followed by
    /// `accept`; objectives whose gradient costs a pass of its own (the DMCP
    /// objective's `CSRᵀ` scatter) override it to skip that pass on rejected
    /// trials.  Overrides must return bitwise the value the fused call
    /// returns, call `accept` exactly once, and, when it accepts, write
    /// bitwise the fused call's gradient; a rejected trial leaves `grad`
    /// unspecified.
    fn value_then_gradient(
        &self,
        theta: &Matrix,
        grad: &mut Matrix,
        accept: &mut dyn FnMut(f64) -> bool,
    ) -> (f64, bool) {
        let value = self.value_and_gradient(theta, grad);
        (value, accept(value))
    }
    /// Parameter shape `(rows, cols)`.
    fn shape(&self) -> (usize, usize);
    /// Per-row curvature bounds `L_r` (one per parameter row), if cheap to
    /// compute. The Θ-update preconditions row `r`'s step with
    /// `1 / (L_r + ρ)`: a schedule tuned for well-scaled
    /// features cannot diverge on rows whose features carry physical units
    /// (e.g. the day-scaled `g(t) = t − t_I` block of the mutually-correcting
    /// map), while well-scaled rows keep the full step.  The caps are
    /// recomputed whenever adaptive ρ changes the penalty weight.
    fn row_curvature_bounds(&self) -> Option<Vec<f64>> {
        None
    }
}

/// Residual-balancing adaptive-ρ policy (Boyd et al. §3.4.1), which the
/// driver applies after every outer iteration that did not stop.
///
/// If `‖r‖ > μ‖s‖` the penalty grows (`ρ ← τρ`, `Y ← Y/τ`), if `‖s‖ > μ‖r‖`
/// it shrinks (`ρ ← ρ/τ`, `Y ← τY`), with the standard `μ = 10`, `τ = 2` and
/// ρ kept within `[1e-6, 1e6]`.  The scaled dual is rescaled so the true dual
/// `ρY` is unchanged, and the diagonal preconditioner caps `1/(L_r + ρ)` are
/// recomputed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AdaptiveRho;

impl AdaptiveRho {
    /// Imbalance factor μ triggering an adaptation.
    const MU: f64 = 10.0;
    /// Multiplicative ρ change τ per adaptation.
    const TAU: f64 = 2.0;
    /// Lower clamp on ρ.
    const MIN: f64 = 1e-6;
    /// Upper clamp on ρ.
    const MAX: f64 = 1e6;
}

/// Over-relaxation factor α: the X/Y updates see `αΘ + (1−α)X_prev`.
const OVER_RELAXATION: f64 = 1.6;

/// Objective-plateau stopping criterion for the weakly-determined regimes
/// (small γ, flat small-eigenvalue directions) where the residual criteria
/// rarely fire: stop once the objective-trace improvement over a sliding
/// window of outer iterations falls below a relative threshold.
///
/// Off by default (`AdmmConfig::plateau == None`) — residual stopping is the
/// principled criterion and the plateau test can stop short of it.  Sweep and
/// CV drivers turn it on: they run many closely-related solves where the tail
/// of each solve buys accuracy the downstream metric cannot see.
///
/// Degenerate configurations are documented no-ops, never panics:
/// `window == 0` never fires (there is no past entry to compare against, so
/// it disables the criterion rather than indexing out of bounds), a trace
/// shorter than the window never fires, `window == 1` compares consecutive
/// outers (the most trigger-happy legal setting), and `rel_tol == 0.0` fires
/// only when the objective fails to improve *at all* over the window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlateauStop {
    /// Window length in outer iterations: the trace entry `window` outers ago
    /// is compared against the latest one.
    pub window: usize,
    /// Relative improvement threshold: stop when
    /// `trace[k − window] − trace[k] ≤ rel_tol · max(|trace[k − window]|, ε)`.
    pub rel_tol: f64,
}

impl Default for PlateauStop {
    fn default() -> Self {
        Self {
            window: 5,
            rel_tol: 1e-4,
        }
    }
}

impl PlateauStop {
    /// Whether the plateau criterion fires on the given objective trace
    /// (index 0 is the starting point, one more entry per outer iteration).
    fn fires(&self, trace: &[f64]) -> bool {
        if self.window == 0 || trace.len() <= self.window {
            return false;
        }
        let past = trace[trace.len() - 1 - self.window];
        let now = trace[trace.len() - 1];
        past - now <= self.rel_tol * past.abs().max(1e-12)
    }
}

/// ADMM hyper-parameters.
///
/// The Θ-update ([`AcceleratedConfig::default`]), residual-balancing
/// adaptive ρ ([`AdaptiveRho`]) and the over-relaxation factor `α = 1.6` are
/// fixed; these fields set the problem, the caps and the stopping criteria.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AdmmConfig {
    /// Group-lasso weight γ.
    pub gamma: f64,
    /// Initial augmented-Lagrangian weight ρ.
    pub rho: f64,
    /// Maximum inner (Θ-update) iterations per outer iteration.
    pub max_inner_iters: usize,
    /// Maximum outer ADMM iterations (a cap; residual stopping usually fires
    /// first).
    pub max_outer_iters: usize,
    /// Absolute residual tolerance ε_abs (with `eps_rel == 0` too, residual
    /// stopping is disabled).
    pub eps_abs: f64,
    /// Relative residual tolerance ε_rel.
    pub eps_rel: f64,
    /// Objective-plateau stopping (`None` — the default — disables it; see
    /// [`PlateauStop`]).
    pub plateau: Option<PlateauStop>,
}

impl Default for AdmmConfig {
    fn default() -> Self {
        Self {
            gamma: 1.0,
            rho: 1.0,
            max_inner_iters: 30,
            max_outer_iters: 50,
            eps_abs: 1e-8,
            eps_rel: 1e-4,
            plateau: None,
        }
    }
}

/// ADMM state carried from one solve into the next (warm start).
///
/// Every real use of the trainer is a *sequence* of closely-related solves —
/// CV folds, γ-continuation sweeps, rolling retrains — and the previous
/// solve's state is a good prediction of the next solution: seeding (Θ, the
/// scaled dual Y, ρ, the accelerated Θ-update's accepted step) cuts
/// iterations-to-tolerance without changing what the solver converges *to*
/// (the stopping criteria are a property of the iterate, not of the path).
///
/// Captured from a finished solve with [`AdmmResult::warm_start`] and
/// consumed by [`solve_group_lasso_warm`].  The auxiliary X is *not* carried:
/// the X-update is an exact prox step, so X is recomputed from (Θ, Y, ρ, γ)
/// in the first outer iteration — carrying it would only let a stale γ leak
/// into the new problem.
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Smooth iterate Θ of the previous solve.
    pub theta: Matrix,
    /// Scaled dual Y of the previous solve.
    pub y: Matrix,
    /// Penalty weight ρ at the previous solve's exit (the residual-balanced
    /// value, not the configured one).
    pub rho: f64,
    /// Accepted accelerated-Θ-update step size at exit; `0.0` means "no step
    /// history" (e.g. a hand-built state) and falls back to the configured
    /// initial step.
    pub step: f64,
}

/// Why a [`WarmStart`] was rejected by [`solve_group_lasso_warm`].
#[derive(Debug, Clone, PartialEq)]
pub enum WarmStartError {
    /// Θ or Y does not match the objective's parameter shape.
    ShapeMismatch {
        /// Which carried matrix mismatched (`"theta"` or `"y"`).
        field: &'static str,
        /// The objective's parameter shape.
        expected: (usize, usize),
        /// The carried matrix's shape.
        got: (usize, usize),
    },
    /// The carried ρ is non-positive or non-finite.
    InvalidRho(f64),
    /// The carried step size is negative or non-finite (`0.0` is allowed and
    /// means "no step history").
    InvalidStep(f64),
    /// Θ or Y contains a non-finite entry.
    NonFinite {
        /// Which carried matrix held the non-finite entry.
        field: &'static str,
    },
}

impl std::fmt::Display for WarmStartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WarmStartError::ShapeMismatch {
                field,
                expected,
                got,
            } => write!(
                f,
                "warm-start {field} shape {got:?} does not match the objective shape {expected:?}"
            ),
            WarmStartError::InvalidRho(rho) => {
                write!(f, "warm-start rho must be positive and finite, got {rho}")
            }
            WarmStartError::InvalidStep(step) => write!(
                f,
                "warm-start step must be non-negative and finite, got {step}"
            ),
            WarmStartError::NonFinite { field } => {
                write!(f, "warm-start {field} contains a non-finite entry")
            }
        }
    }
}

impl std::error::Error for WarmStartError {}

impl WarmStart {
    /// Check this state against an objective's parameter shape.
    pub fn validate(&self, shape: (usize, usize)) -> Result<(), WarmStartError> {
        if self.theta.shape() != shape {
            return Err(WarmStartError::ShapeMismatch {
                field: "theta",
                expected: shape,
                got: self.theta.shape(),
            });
        }
        if self.y.shape() != shape {
            return Err(WarmStartError::ShapeMismatch {
                field: "y",
                expected: shape,
                got: self.y.shape(),
            });
        }
        if !(self.rho.is_finite() && self.rho > 0.0) {
            return Err(WarmStartError::InvalidRho(self.rho));
        }
        if !(self.step.is_finite() && self.step >= 0.0) {
            return Err(WarmStartError::InvalidStep(self.step));
        }
        if !self.theta.is_finite() {
            return Err(WarmStartError::NonFinite { field: "theta" });
        }
        if !self.y.is_finite() {
            return Err(WarmStartError::NonFinite { field: "y" });
        }
        Ok(())
    }
}

/// Output of the ADMM driver.
#[derive(Debug, Clone)]
pub struct AdmmResult {
    /// Final smooth iterate Θ.
    pub theta: Matrix,
    /// Final auxiliary iterate X (has exact zero rows — use for selection).
    pub x: Matrix,
    /// Final scaled dual Y (warm-start state for a follow-up solve).
    pub y: Matrix,
    /// Objective trace `L(Θ) + γ‖X‖_{1,2}` per outer iteration (index 0 is
    /// the starting point; one more entry per completed outer iteration,
    /// early-stopped ones included).
    pub objective_trace: Vec<f64>,
    /// Number of outer iterations performed.
    pub outer_iterations: usize,
    /// Whether a stopping criterion was met before the outer cap.
    pub converged: bool,
    /// ρ at exit (differs from the configured ρ under adaptive balancing).
    pub final_rho: f64,
    /// Final primal residual `‖Θ − X‖_F`.
    pub primal_residual: f64,
    /// Final dual residual `ρ‖X − X_prev‖_F`.
    pub dual_residual: f64,
    /// Total inner Θ-update steps across all outer iterations.
    pub inner_iterations: usize,
    /// Total objective evaluations (fused passes plus line-search trials),
    /// including the initial one.
    pub evaluations: usize,
    /// Objective evaluations attributable to each outer iteration (excludes
    /// the single initial evaluation).  Summing a prefix gives the
    /// passes-to-reach-a-trace-entry accounting used by the warm-start tests.
    pub evaluations_by_outer: Vec<usize>,
    /// Line-search trials whose Armijo test failed (each one of
    /// `evaluations`).  An objective that overrides
    /// [`SmoothObjective::value_then_gradient`] skips their gradient.
    pub trials_rejected: usize,
    /// Accepted accelerated-Θ-update step size at exit.
    pub final_step: f64,
    /// Whether the solve stopped on the [`PlateauStop`] criterion (implies
    /// `converged`; residual stopping had not yet fired).
    pub plateau_stopped: bool,
}

impl AdmmResult {
    /// Package this solve's exit state for seeding a follow-up solve via
    /// [`solve_group_lasso_warm`].
    pub fn warm_start(&self) -> WarmStart {
        WarmStart {
            theta: self.theta.clone(),
            y: self.y.clone(),
            rho: self.final_rho,
            step: self.final_step,
        }
    }
}

/// `0.5 · ρ · ‖Θ − X + Y‖²_F`, the augmented penalty value.
fn augmented_value(rho: f64, theta: &Matrix, x: &Matrix, y: &Matrix) -> f64 {
    let mut acc = 0.0;
    for ((&t, &xv), &yv) in theta.as_slice().iter().zip(x.as_slice()).zip(y.as_slice()) {
        let d = t - xv + yv;
        acc += d * d;
    }
    0.5 * rho * acc
}

/// `out ← smooth + ρ(Θ − X + Y)`, the augmented gradient, and the augmented
/// penalty value [`augmented_value`] in the same sweep: each element and the
/// sum see exactly the operations of the two separate passes.
fn augment(
    out: &mut Matrix,
    smooth: &Matrix,
    rho: f64,
    theta: &Matrix,
    x: &Matrix,
    y: &Matrix,
) -> f64 {
    let mut acc = 0.0;
    for ((((o, &g), &t), &xv), &yv) in out
        .as_mut_slice()
        .iter_mut()
        .zip(smooth.as_slice())
        .zip(theta.as_slice())
        .zip(x.as_slice())
        .zip(y.as_slice())
    {
        let d = t - xv + yv;
        *o = g + rho * d;
        acc += d * d;
    }
    0.5 * rho * acc
}

/// The Θ-update's `φ(Θ) = L(Θ) + (ρ/2)‖Θ − X + Y‖²_F`, evaluated through the
/// smooth objective.  Every evaluation leaves the smooth value in `carried`
/// and, when it computed one, the smooth gradient in `stash`, so the last
/// one can be carried into the trace and the next outer iteration without
/// re-evaluating.
struct AugmentedPhi<'a, O> {
    objective: &'a O,
    rho: f64,
    x: &'a Matrix,
    y: &'a Matrix,
    carried: &'a mut f64,
    stash: &'a mut Matrix,
}

impl<O: SmoothObjective> PhiEval for AugmentedPhi<'_, O> {
    fn fused(&mut self, point: &Matrix, grad: &mut Matrix) -> f64 {
        let s = self.objective.value_and_gradient(point, self.stash);
        *self.carried = s;
        s + augment(grad, self.stash, self.rho, point, self.x, self.y)
    }

    fn trial(
        &mut self,
        point: &Matrix,
        grad: &mut Matrix,
        accept: &mut dyn FnMut(f64) -> bool,
    ) -> (f64, bool) {
        let penalty = augmented_value(self.rho, point, self.x, self.y);
        let (s, accepted) = self
            .objective
            .value_then_gradient(point, self.stash, &mut |s| accept(s + penalty));
        *self.carried = s;
        if accepted {
            augment(grad, self.stash, self.rho, point, self.x, self.y);
        }
        (s + penalty, accepted)
    }
}

fn caps_for_rho(curvature: &[f64], rho: f64) -> Vec<f64> {
    curvature.iter().map(|l| 1.0 / (l + rho)).collect()
}

/// Per-solve scratch of [`solve_group_lasso`]: every buffer the outer loop
/// reuses, allocated once at solve entry instead of cloned anew every outer
/// iteration (the old per-outer `clone()` churn shows up as latency jitter
/// when solves run under sustained serve load).  Buffers are overwritten
/// before every read, so reuse never changes a trajectory.
struct SolveWorkspace {
    /// Over-relaxed point `Θ̂ = αΘ + (1−α)X`.
    theta_hat: Matrix,
    /// X before the current X-update (dual residual).
    x_prev: Matrix,
    /// `∇φ` at the Θ-update entry point (smooth gradient + augmented term).
    g_phi0: Matrix,
    /// Smooth-gradient stash of the accelerated carry (see [`AugmentedPhi`]).
    smooth_grad_stash: Matrix,
    /// The accelerated Θ-update solver's six scratch matrices.
    accel: AcceleratedWorkspace,
}

impl SolveWorkspace {
    fn new(rows: usize, cols: usize) -> Self {
        Self {
            theta_hat: Matrix::zeros(rows, cols),
            x_prev: Matrix::zeros(rows, cols),
            g_phi0: Matrix::zeros(rows, cols),
            smooth_grad_stash: Matrix::zeros(rows, cols),
            accel: AcceleratedWorkspace::new(rows, cols),
        }
    }
}

/// Run ADMM with group-lasso regularisation starting from `theta0` (cold
/// start: zero dual, configured ρ, fresh step size).
pub fn solve_group_lasso<O: SmoothObjective>(
    objective: &O,
    theta0: Matrix,
    config: &AdmmConfig,
) -> AdmmResult {
    let (rows, cols) = objective.shape();
    solve_impl(
        objective,
        theta0,
        Matrix::zeros(rows, cols),
        config.rho,
        0.0,
        config,
    )
}

/// Run ADMM seeded from a previous solve's exit state ([`WarmStart`]).
///
/// The iterate Θ, scaled dual Y, penalty weight ρ and accepted step size all
/// come from `warm`; everything else (γ, tolerances, caps) comes from
/// `config`.  The stopping criteria are unchanged, so the solve converges to
/// the same tolerance as a cold start — it just starts closer.  Returns a
/// typed [`WarmStartError`] (never panics) when the carried state does not
/// fit the objective.
pub fn solve_group_lasso_warm<O: SmoothObjective>(
    objective: &O,
    config: &AdmmConfig,
    warm: &WarmStart,
) -> Result<AdmmResult, WarmStartError> {
    warm.validate(objective.shape())?;
    Ok(solve_impl(
        objective,
        warm.theta.clone(),
        warm.y.clone(),
        warm.rho,
        warm.step,
        config,
    ))
}

/// Shared driver behind [`solve_group_lasso`] / [`solve_group_lasso_warm`]:
/// the cold path passes (zero dual, `config.rho`, step `0.0`), which is
/// bitwise the pre-warm-start initialisation.
fn solve_impl<O: SmoothObjective>(
    objective: &O,
    theta0: Matrix,
    y0: Matrix,
    rho0: f64,
    step0: f64,
    config: &AdmmConfig,
) -> AdmmResult {
    assert_eq!(theta0.shape(), objective.shape(), "theta0 shape mismatch");
    assert!(config.gamma >= 0.0, "gamma must be non-negative");
    assert!(rho0 > 0.0, "rho must be positive");

    let (rows, cols) = objective.shape();
    let sqrt_n = ((rows * cols) as f64).sqrt();
    let mut rho = rho0;
    let mut theta = theta0;
    let mut x = theta.clone();
    let mut y = y0;
    let mut grad = Matrix::zeros(rows, cols);

    let mut evaluations = 1usize;
    let mut evaluations_by_outer = Vec::new();
    // One fused evaluation seeds the starting trace entry, the smooth-value
    // carry, and the first Θ-update's gradient.
    let mut smooth_value = objective.value_and_gradient(&theta, &mut grad);
    let mut trace = Vec::with_capacity(config.max_outer_iters + 1);
    trace.push(smooth_value + config.gamma * x.l12_norm());

    // Per-row curvature bounds depend only on the data; ρ enters the caps
    // `1/(L_r + ρ)`, so keep the raw bounds around for recomputation when
    // adaptive ρ fires.
    let curvature = objective.row_curvature_bounds();
    if let Some(ls) = &curvature {
        assert_eq!(ls.len(), rows, "row curvature bound length mismatch");
    }
    let mut caps = curvature.as_deref().map(|ls| caps_for_rho(ls, rho));

    let acc = AcceleratedConfig::default();
    // `with_step(0.0, ..)` falls back to the configured initial step, so the
    // cold path is unchanged and warm starts without step history degrade
    // gracefully instead of stalling the line search.
    let mut ls_state = AcceleratedState::with_step(step0, &acc);
    let residual_stopping = config.eps_abs > 0.0 || config.eps_rel > 0.0;

    let mut converged = false;
    let mut plateau_stopped = false;
    let mut outer_done = 0;
    let mut inner_total = 0usize;
    let mut trials_rejected = 0usize;
    let mut primal_residual = f64::INFINITY;
    let mut dual_residual = f64::INFINITY;
    let mut ws = SolveWorkspace::new(rows, cols);

    for _outer in 0..config.max_outer_iters {
        let mut outer_evals = 0usize;

        // --- Θ-update: minimise L(Θ) + (ρ/2)‖Θ − X + Y‖²_F ---
        // Build φ/∇φ at the entry point from the carried smooth value and
        // gradient plus a fresh (cheap, dense) penalty term.
        let phi0 = smooth_value + augment(&mut ws.g_phi0, &grad, rho, &theta, &x, &y);

        // The stash is only read after an evaluation at the returned iterate
        // has written it (`last_eval_at_result`), so it needs no seeding.
        let mut carried_smooth = smooth_value;
        let stats = minimize_matrix_accelerated(
            &mut theta,
            phi0,
            &ws.g_phi0,
            AugmentedPhi {
                objective,
                rho,
                x: &x,
                y: &y,
                carried: &mut carried_smooth,
                stash: &mut ws.smooth_grad_stash,
            },
            caps.as_deref(),
            config.max_inner_iters,
            &mut ls_state,
            &mut ws.accel,
            &acc,
        );
        outer_evals += stats.evaluations;
        trials_rejected += stats.trials_rejected;
        inner_total += stats.iterations;
        if stats.evaluations > 0 {
            if stats.last_eval_at_result {
                smooth_value = carried_smooth;
                std::mem::swap(&mut grad, &mut ws.smooth_grad_stash);
            } else {
                // Rare: the line search bailed with its last evaluation at a
                // rejected trial — restore the carry with one fused pass at
                // the actual iterate.
                smooth_value = objective.value_and_gradient(&theta, &mut grad);
                outer_evals += 1;
            }
        }
        // stats.evaluations == 0: Θ never moved and never was evaluated, so
        // the carried (smooth_value, grad) still hold.

        // --- X-update: group soft-threshold of the over-relaxed point ---
        let alpha = OVER_RELAXATION;
        for ((h, &t), &xp) in ws
            .theta_hat
            .as_mut_slice()
            .iter_mut()
            .zip(theta.as_slice())
            .zip(x.as_slice())
        {
            *h = alpha * t + (1.0 - alpha) * xp;
        }
        // In place: save X for the dual residual, overwrite it with Θ̂ + Y,
        // then apply the row-wise group soft-threshold — bitwise what
        // `prox_group_lasso(&(Θ̂ + Y), τ)` returned, without the two
        // per-outer allocations.
        ws.x_prev.copy_from(&x);
        for ((xv, &h), &yv) in x
            .as_mut_slice()
            .iter_mut()
            .zip(ws.theta_hat.as_slice())
            .zip(y.as_slice())
        {
            *xv = h + yv;
        }
        prox_group_lasso_in_place(&mut x, config.gamma / rho);

        // --- Y-update: dual ascent on the over-relaxed residual Θ̂ − X,
        // accumulated without materialising the difference ---
        for ((yv, &h), &xv) in y
            .as_mut_slice()
            .iter_mut()
            .zip(ws.theta_hat.as_slice())
            .zip(x.as_slice())
        {
            *yv += h - xv;
        }

        // --- Residuals (unrelaxed, per Boyd §3.3) ---
        primal_residual = theta.diff_frobenius_norm(&x);
        dual_residual = rho * x.diff_frobenius_norm(&ws.x_prev);

        // --- Trace (always extended, early-stop outers included) ---
        // smooth_value already sits at the final Θ (carried from the last
        // fused evaluation, or untouched when Θ never moved).
        trace.push(smooth_value + config.gamma * x.l12_norm());
        evaluations += outer_evals;
        evaluations_by_outer.push(outer_evals);
        outer_done += 1;

        // --- Stopping ---
        let eps_pri = sqrt_n * config.eps_abs
            + config.eps_rel * theta.frobenius_norm().max(x.frobenius_norm());
        let eps_dual = sqrt_n * config.eps_abs + config.eps_rel * rho * y.frobenius_norm();
        let residual_ok =
            residual_stopping && primal_residual <= eps_pri && dual_residual <= eps_dual;
        let plateau_ok = config.plateau.is_some_and(|p| p.fires(&trace));
        if residual_ok || plateau_ok {
            converged = true;
            // A plateau stop is only reported when residual stopping had not
            // fired on the same outer iteration.
            plateau_stopped = plateau_ok && !residual_ok;
            break;
        }

        // --- Residual-balancing adaptive ρ ---
        let grown = rho * AdaptiveRho::TAU;
        let shrunk = rho / AdaptiveRho::TAU;
        if primal_residual > AdaptiveRho::MU * dual_residual && grown <= AdaptiveRho::MAX {
            rho = grown;
            y.scale(1.0 / AdaptiveRho::TAU);
            caps = curvature.as_deref().map(|ls| caps_for_rho(ls, rho));
        } else if dual_residual > AdaptiveRho::MU * primal_residual && shrunk >= AdaptiveRho::MIN {
            rho = shrunk;
            y.scale(AdaptiveRho::TAU);
            caps = curvature.as_deref().map(|ls| caps_for_rho(ls, rho));
        }
    }

    AdmmResult {
        theta,
        x,
        y,
        objective_trace: trace,
        outer_iterations: outer_done,
        converged,
        final_rho: rho,
        primal_residual,
        dual_residual,
        inner_iterations: inner_total,
        evaluations,
        evaluations_by_outer,
        trials_rejected,
        final_step: ls_state.step,
        plateau_stopped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfp_math::dense::dot;

    /// ½‖Θ − T‖²_F with a known target T — the prox-friendly test problem.
    struct QuadraticToTarget {
        target: Matrix,
    }

    impl SmoothObjective for QuadraticToTarget {
        fn value(&self, theta: &Matrix) -> f64 {
            0.5 * theta.sub(&self.target).frobenius_norm_sq()
        }
        fn gradient(&self, theta: &Matrix, grad: &mut Matrix) {
            let diff = theta.sub(&self.target);
            grad.fill(0.0);
            grad.add_scaled(&diff, 1.0);
        }
        fn shape(&self) -> (usize, usize) {
            self.target.shape()
        }
    }

    /// Tiny two-class logistic regression on linearly separable data.
    struct TinyLogistic {
        xs: Vec<Vec<f64>>,
        ys: Vec<usize>,
        dims: usize,
    }

    impl SmoothObjective for TinyLogistic {
        fn value(&self, theta: &Matrix) -> f64 {
            let mut loss = 0.0;
            for (x, &y) in self.xs.iter().zip(self.ys.iter()) {
                let scores: Vec<f64> = (0..2)
                    .map(|k| {
                        let col: Vec<f64> = (0..self.dims).map(|m| theta.get(m, k)).collect();
                        dot(x, &col)
                    })
                    .collect();
                loss += pfp_math::softmax::cross_entropy(&scores, y);
            }
            loss
        }
        fn gradient(&self, theta: &Matrix, grad: &mut Matrix) {
            grad.fill(0.0);
            for (x, &y) in self.xs.iter().zip(self.ys.iter()) {
                let scores: Vec<f64> = (0..2)
                    .map(|k| {
                        let col: Vec<f64> = (0..self.dims).map(|m| theta.get(m, k)).collect();
                        dot(x, &col)
                    })
                    .collect();
                let p = pfp_math::softmax::softmax(&scores);
                for (k, &pk) in p.iter().enumerate() {
                    let coef = pk - if k == y { 1.0 } else { 0.0 };
                    for (m, &xm) in x.iter().enumerate() {
                        grad.add_at(m, k, coef * xm);
                    }
                }
            }
        }
        fn shape(&self) -> (usize, usize) {
            (self.dims, 2)
        }
    }

    /// Adaptive (default-mode) configuration with tight residual tolerances.
    fn adaptive_config(gamma: f64) -> AdmmConfig {
        AdmmConfig {
            gamma,
            rho: 1.0,
            max_inner_iters: 50,
            max_outer_iters: 200,
            eps_abs: 1e-8,
            eps_rel: 1e-6,
            ..AdmmConfig::default()
        }
    }

    #[test]
    fn without_regulariser_admm_recovers_the_target() {
        let target = Matrix::from_vec(3, 2, vec![1.0, -2.0, 0.5, 0.0, 3.0, 1.0]);
        let obj = QuadraticToTarget {
            target: target.clone(),
        };
        let res = solve_group_lasso(&obj, Matrix::zeros(3, 2), &adaptive_config(0.0));
        assert!(
            res.theta.sub(&target).frobenius_norm() < 1e-2,
            "diff = {}",
            res.theta.sub(&target).frobenius_norm()
        );
    }

    #[test]
    fn strong_regulariser_zeroes_weak_rows() {
        // Row 0 is strong, row 1 is weak — the group lasso should kill row 1.
        let target = Matrix::from_vec(2, 2, vec![5.0, 5.0, 0.2, 0.2]);
        let obj = QuadraticToTarget { target };
        let res = solve_group_lasso(&obj, Matrix::zeros(2, 2), &adaptive_config(1.0));
        assert_eq!(res.x.row(1), &[0.0, 0.0], "weak row should be suppressed");
        assert!(res.x.row_l2_norm(0) > 3.0, "strong row should survive");
    }

    #[test]
    fn prox_solution_matches_analytic_group_lasso_answer() {
        // For ½‖Θ − T‖² + γ‖Θ‖_{1,2}, the optimum is the group soft-threshold
        // of T with τ = γ.  ADMM (consensus form) should land close to it.
        let target = Matrix::from_vec(2, 2, vec![3.0, 4.0, 1.0, 0.0]);
        let gamma = 1.0;
        let analytic = crate::prox::prox_group_lasso(&target, gamma);
        let obj = QuadraticToTarget { target };
        let res = solve_group_lasso(&obj, Matrix::zeros(2, 2), &adaptive_config(gamma));
        assert!(
            res.x.sub(&analytic).frobenius_norm() < 0.05,
            "x = {:?}, analytic = {:?}",
            res.x,
            analytic
        );
    }

    #[test]
    fn objective_trace_decreases_overall() {
        let target = Matrix::from_vec(4, 3, (0..12).map(|i| i as f64 / 3.0).collect());
        let obj = QuadraticToTarget { target };
        let res = solve_group_lasso(&obj, Matrix::zeros(4, 3), &adaptive_config(0.5));
        let first = res.objective_trace[0];
        let last = *res.objective_trace.last().unwrap();
        assert!(last < first, "{last} !< {first}");
    }

    #[test]
    fn adaptive_converges_to_tolerance_before_the_outer_cap() {
        let target = Matrix::from_vec(3, 2, vec![1.0, -2.0, 0.5, 0.0, 3.0, 1.0]);
        let obj = QuadraticToTarget { target };
        let res = solve_group_lasso(&obj, Matrix::zeros(3, 2), &adaptive_config(0.1));
        assert!(res.converged, "residual stopping should fire");
        assert!(
            res.outer_iterations < 200,
            "took {} outers",
            res.outer_iterations
        );
        // Residual criteria actually hold at the reported values.
        let sqrt_n = 6.0_f64.sqrt();
        let eps_pri = sqrt_n * 1e-8 + 1e-6 * res.theta.frobenius_norm().max(res.x.frobenius_norm());
        assert!(res.primal_residual <= eps_pri);
    }

    #[test]
    fn adaptive_rho_reacts_to_residual_imbalance() {
        // γ = 0 keeps X glued to Θ + Y, making the dual residual tiny
        // relative to the primal one early on — ρ must move.
        let target = Matrix::from_vec(2, 2, vec![30.0, -20.0, 10.0, 5.0]);
        let obj = QuadraticToTarget { target };
        let config = AdmmConfig {
            gamma: 0.0,
            rho: 1e-3,
            max_outer_iters: 40,
            eps_abs: 0.0,
            eps_rel: 0.0,
            ..AdmmConfig::default()
        };
        let res = solve_group_lasso(&obj, Matrix::zeros(2, 2), &config);
        assert!(
            res.final_rho != 1e-3,
            "residual balancing should have adapted ρ"
        );
    }

    #[test]
    fn logistic_problem_separates_classes() {
        let xs = vec![
            vec![1.0, 2.0, 0.0],
            vec![1.0, 1.5, 0.0],
            vec![1.0, -2.0, 0.0],
            vec![1.0, -1.0, 0.0],
        ];
        let ys = vec![0, 0, 1, 1];
        let obj = TinyLogistic {
            xs: xs.clone(),
            ys: ys.clone(),
            dims: 3,
        };
        let res = solve_group_lasso(&obj, Matrix::zeros(3, 2), &adaptive_config(0.01));
        // Predictions should match the labels.
        for (x, &y) in xs.iter().zip(ys.iter()) {
            let scores: Vec<f64> = (0..2)
                .map(|k| (0..3).map(|m| res.theta.get(m, k) * x[m]).sum())
                .collect();
            assert_eq!(pfp_math::softmax::argmax(&scores), y);
        }
        // Feature 2 is pure noise (always zero) — its row should be ~zero in X.
        assert!(res.x.row_l2_norm(2) < 1e-6);
    }

    /// Wraps an objective and counts how each evaluation entry point is used.
    struct CountingObjective<O> {
        inner: O,
        value_calls: std::cell::Cell<usize>,
        gradient_calls: std::cell::Cell<usize>,
        fused_calls: std::cell::Cell<usize>,
    }

    impl<O> CountingObjective<O> {
        fn new(inner: O) -> Self {
            Self {
                inner,
                value_calls: std::cell::Cell::new(0),
                gradient_calls: std::cell::Cell::new(0),
                fused_calls: std::cell::Cell::new(0),
            }
        }
    }

    impl<O: SmoothObjective> SmoothObjective for CountingObjective<O> {
        fn value(&self, theta: &Matrix) -> f64 {
            self.value_calls.set(self.value_calls.get() + 1);
            self.inner.value(theta)
        }
        fn gradient(&self, theta: &Matrix, grad: &mut Matrix) {
            self.gradient_calls.set(self.gradient_calls.get() + 1);
            self.inner.gradient(theta, grad);
        }
        fn value_and_gradient(&self, theta: &Matrix, grad: &mut Matrix) -> f64 {
            self.fused_calls.set(self.fused_calls.get() + 1);
            self.inner.value_and_gradient(theta, grad)
        }
        fn shape(&self) -> (usize, usize) {
            self.inner.shape()
        }
        fn row_curvature_bounds(&self) -> Option<Vec<f64>> {
            self.inner.row_curvature_bounds()
        }
    }

    #[test]
    fn accelerated_path_only_ever_uses_fused_evaluations() {
        let target = Matrix::from_vec(3, 2, vec![1.0, -2.0, 0.5, 0.0, 3.0, 1.0]);
        let counting = CountingObjective::new(QuadraticToTarget { target });
        let res = solve_group_lasso(&counting, Matrix::zeros(3, 2), &adaptive_config(0.1));
        assert!(res.converged);
        assert_eq!(counting.value_calls.get(), 0, "no standalone value calls");
        assert_eq!(
            counting.gradient_calls.get(),
            0,
            "no standalone gradient calls"
        );
        assert_eq!(counting.fused_calls.get(), res.evaluations);
        assert_eq!(
            res.evaluations,
            1 + res.evaluations_by_outer.iter().sum::<usize>(),
            "per-outer accounting must sum to the total"
        );
    }

    #[test]
    fn trace_is_extended_every_outer_iteration_even_on_early_stop() {
        let target = Matrix::from_vec(3, 2, vec![1.0, -2.0, 0.5, 0.0, 3.0, 1.0]);
        let obj = QuadraticToTarget {
            target: target.clone(),
        };
        let res = solve_group_lasso(&obj, Matrix::zeros(3, 2), &adaptive_config(0.1));
        assert!(res.converged, "fixture must exercise the early-stop path");
        assert_eq!(
            res.objective_trace.len(),
            res.outer_iterations + 1,
            "one trace entry per completed outer plus the start"
        );
        // The carried trace value is exactly what a fresh evaluation at the
        // final iterate yields (the objective is deterministic).
        let fresh = obj.value(&res.theta) + 0.1 * res.x.l12_norm();
        let last = *res.objective_trace.last().unwrap();
        assert!(
            (last - fresh).abs() <= 1e-12,
            "carried {last} vs fresh {fresh}"
        );
    }

    #[test]
    fn fused_default_implementation_matches_separate_calls() {
        let target = Matrix::from_vec(2, 2, vec![1.5, -0.5, 2.0, 0.25]);
        let obj = QuadraticToTarget { target };
        let theta = Matrix::from_fn(2, 2, |r, c| 0.3 * (r as f64) - 0.7 * (c as f64));
        let mut grad_sep = Matrix::zeros(2, 2);
        obj.gradient(&theta, &mut grad_sep);
        let value_sep = obj.value(&theta);
        let mut grad_fused = Matrix::zeros(2, 2);
        let value_fused = obj.value_and_gradient(&theta, &mut grad_fused);
        assert_eq!(grad_fused, grad_sep);
        assert_eq!(value_fused.to_bits(), value_sep.to_bits());
    }

    #[test]
    #[should_panic(expected = "rho must be positive")]
    fn rejects_non_positive_rho() {
        let obj = QuadraticToTarget {
            target: Matrix::zeros(1, 1),
        };
        let cfg = AdmmConfig {
            rho: 0.0,
            ..adaptive_config(0.1)
        };
        let _ = solve_group_lasso(&obj, Matrix::zeros(1, 1), &cfg);
    }

    #[test]
    fn warm_start_captures_the_exit_state() {
        let target = Matrix::from_vec(3, 2, vec![1.0, -2.0, 0.5, 0.0, 3.0, 1.0]);
        let obj = QuadraticToTarget { target };
        let res = solve_group_lasso(&obj, Matrix::zeros(3, 2), &adaptive_config(0.1));
        let warm = res.warm_start();
        assert_eq!(warm.theta, res.theta);
        assert_eq!(warm.y, res.y);
        assert_eq!(warm.rho.to_bits(), res.final_rho.to_bits());
        assert_eq!(warm.step.to_bits(), res.final_step.to_bits());
        assert!(warm.step > 0.0, "accelerated solve must carry a step");
        assert!(warm.validate(obj.shape()).is_ok());
    }

    #[test]
    fn warm_started_solve_matches_cold_objective_with_fewer_evaluations() {
        let target = Matrix::from_vec(4, 3, (0..12).map(|i| 1.0 + i as f64 / 4.0).collect());
        let obj = QuadraticToTarget { target };
        let cfg = adaptive_config(0.2);
        let cold = solve_group_lasso(&obj, Matrix::zeros(4, 3), &cfg);
        // Re-solve the *same* problem from the previous exit state: the
        // stopping criteria are iterate properties, so the final objective
        // must agree, and the solve must be much cheaper.
        let warm = solve_group_lasso_warm(&obj, &cfg, &cold.warm_start()).unwrap();
        let cold_final = *cold.objective_trace.last().unwrap();
        let warm_final = *warm.objective_trace.last().unwrap();
        assert!(
            (warm_final - cold_final).abs() <= 1e-6,
            "warm {warm_final} vs cold {cold_final}"
        );
        assert!(
            warm.evaluations < cold.evaluations,
            "warm {} !< cold {}",
            warm.evaluations,
            cold.evaluations
        );
    }

    #[test]
    fn mismatched_warm_start_is_a_typed_error_not_a_panic() {
        let obj = QuadraticToTarget {
            target: Matrix::zeros(3, 2),
        };
        let warm = WarmStart {
            theta: Matrix::zeros(2, 2),
            y: Matrix::zeros(2, 2),
            rho: 1.0,
            step: 0.5,
        };
        let err = solve_group_lasso_warm(&obj, &AdmmConfig::default(), &warm).unwrap_err();
        assert_eq!(
            err,
            WarmStartError::ShapeMismatch {
                field: "theta",
                expected: (3, 2),
                got: (2, 2),
            }
        );
        // Display is implemented (callers surface this to users).
        assert!(err.to_string().contains("shape"));
    }

    #[test]
    fn invalid_rho_and_nonfinite_state_are_rejected() {
        let shape = (2, 2);
        let good = WarmStart {
            theta: Matrix::zeros(2, 2),
            y: Matrix::zeros(2, 2),
            rho: 1.0,
            step: 0.0,
        };
        assert!(good.validate(shape).is_ok());
        let bad_rho = WarmStart {
            rho: 0.0,
            ..good.clone()
        };
        assert_eq!(
            bad_rho.validate(shape),
            Err(WarmStartError::InvalidRho(0.0))
        );
        let bad_step = WarmStart {
            step: -1.0,
            ..good.clone()
        };
        assert_eq!(
            bad_step.validate(shape),
            Err(WarmStartError::InvalidStep(-1.0))
        );
        let mut nan_theta = good.clone();
        nan_theta.theta.set(0, 0, f64::NAN);
        assert_eq!(
            nan_theta.validate(shape),
            Err(WarmStartError::NonFinite { field: "theta" })
        );
    }

    #[test]
    fn fixed_step_warm_start_falls_back_to_the_initial_step() {
        // A hand-built warm start without step history carries step == 0.0,
        // which `validate` accepts; consuming it must not stall the line
        // search (with_step falls back to the configured initial step).
        let target = Matrix::from_vec(3, 2, vec![1.0, -2.0, 0.5, 0.0, 3.0, 1.0]);
        let obj = QuadraticToTarget { target };
        let exit = solve_group_lasso(&obj, Matrix::zeros(3, 2), &adaptive_config(0.1));
        let no_history = WarmStart {
            theta: exit.theta.clone(),
            y: exit.y.clone(),
            rho: exit.final_rho,
            step: 0.0,
        };
        assert_eq!(no_history.validate(obj.shape()), Ok(()));
        let res = solve_group_lasso_warm(&obj, &adaptive_config(0.1), &no_history).unwrap();
        assert!(res.converged);
        assert!(res.final_step > 0.0);
        // The fallback is exactly the configured initial step.
        let initial = WarmStart {
            step: AcceleratedConfig::default().initial_step,
            ..no_history
        };
        let same = solve_group_lasso_warm(&obj, &adaptive_config(0.1), &initial).unwrap();
        assert_eq!(res.theta, same.theta);
        assert_eq!(res.final_step.to_bits(), same.final_step.to_bits());
    }

    #[test]
    fn plateau_stop_fires_in_the_weakly_determined_regime() {
        // Tiny γ and brutal residual tolerances: residual stopping cannot
        // fire within the cap, but the objective flattens quickly — the
        // plateau criterion is exactly for this regime.
        let target = Matrix::from_vec(3, 2, vec![1.0, -2.0, 0.5, 0.0, 3.0, 1.0]);
        let base = AdmmConfig {
            eps_abs: 1e-300,
            eps_rel: 0.0,
            max_outer_iters: 200,
            ..adaptive_config(1e-6)
        };
        let counting_off = CountingObjective::new(QuadraticToTarget {
            target: target.clone(),
        });
        let off = solve_group_lasso(&counting_off, Matrix::zeros(3, 2), &base);
        assert!(!off.plateau_stopped);

        let counting_on = CountingObjective::new(QuadraticToTarget { target });
        let cfg_on = AdmmConfig {
            plateau: Some(PlateauStop::default()),
            ..base
        };
        let on = solve_group_lasso(&counting_on, Matrix::zeros(3, 2), &cfg_on);
        assert!(on.converged, "plateau stop must count as convergence");
        assert!(on.plateau_stopped);
        assert!(
            on.outer_iterations < off.outer_iterations,
            "plateau {} !< no-plateau {}",
            on.outer_iterations,
            off.outer_iterations
        );
        // The saving is real objective passes, and accounting stays exact.
        assert!(counting_on.fused_calls.get() < counting_off.fused_calls.get());
        assert_eq!(on.evaluations, counting_on.fused_calls.get());
        // Near-identical objective: the window only tolerates rel_tol slack.
        let off_final = *off.objective_trace.last().unwrap();
        let on_final = *on.objective_trace.last().unwrap();
        assert!(
            (on_final - off_final).abs() <= 1e-3 * off_final.abs().max(1.0),
            "plateau {on_final} vs full {off_final}"
        );
    }

    #[test]
    fn plateau_window_zero_never_fires() {
        let p = PlateauStop {
            window: 0,
            rel_tol: 1.0,
        };
        assert!(!p.fires(&[1.0, 1.0, 1.0, 1.0]));
        let p5 = PlateauStop::default();
        // Too-short trace: never fires.
        assert!(!p5.fires(&[1.0; 5]));
        // Flat 6-entry trace: fires.
        assert!(p5.fires(&[1.0; 6]));
        // Still improving by more than rel_tol·|past|: does not fire.
        assert!(!p5.fires(&[2.0, 1.8, 1.6, 1.4, 1.2, 1.0]));
    }

    #[test]
    fn plateau_degenerate_configs_are_no_ops_never_panics() {
        // window == 0 on every trace shape, including empty: no panic, no fire.
        let w0 = PlateauStop {
            window: 0,
            rel_tol: 0.0,
        };
        assert!(!w0.fires(&[]));
        assert!(!w0.fires(&[1.0]));
        assert!(!w0.fires(&[1.0, 1.0]));

        // window == 1: consecutive-outer comparison, legal and trigger-happy.
        let w1 = PlateauStop {
            window: 1,
            rel_tol: 1e-4,
        };
        assert!(!w1.fires(&[]), "empty trace must not fire");
        assert!(!w1.fires(&[5.0]), "trace length == window must not fire");
        assert!(w1.fires(&[5.0, 5.0]), "flat consecutive outers fire");
        assert!(!w1.fires(&[5.0, 3.0]), "a real improvement does not fire");

        // rel_tol == 0: fires only on exact non-improvement.
        let exact = PlateauStop {
            window: 2,
            rel_tol: 0.0,
        };
        assert!(exact.fires(&[1.0, 1.0, 1.0]), "no improvement at all fires");
        assert!(exact.fires(&[1.0, 1.0, 1.0 + 1e-9]), "regression fires");
        assert!(
            !exact.fires(&[1.0, 1.0, 1.0 - 1e-9]),
            "any strict improvement keeps going"
        );

        // Trace far shorter than a huge window: no indexing panic.
        let wide = PlateauStop {
            window: 1_000_000,
            rel_tol: 1.0,
        };
        assert!(!wide.fires(&[1.0, 1.0, 1.0]));
    }
}
