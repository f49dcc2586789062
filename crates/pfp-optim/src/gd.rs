//! The Nesterov-accelerated Armijo-backtracking matrix solver used by the
//! ADMM Θ-update.

use pfp_math::Matrix;
use serde::{Deserialize, Serialize};

/// Configuration of the Nesterov-accelerated, Armijo-backtracking matrix
/// solver ([`minimize_matrix_accelerated`]).
///
/// The solver is built for the ADMM Θ-update: a smooth strongly-convex
/// sub-problem solved to moderate accuracy many times in a row, where the
/// optimal step size barely changes between solves.  The accepted step is
/// therefore carried across calls in an [`AcceleratedState`] (warm start) and
/// only adjusted by the line search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcceleratedConfig {
    /// Gradient-norm early exit: stop once `‖∇φ‖_F ≤ grad_rtol · ‖∇φ(θ₀)‖_F`
    /// (relative to the gradient at the start of *this* solve).
    pub grad_rtol: f64,
    /// Armijo sufficient-decrease constant `c` in
    /// `φ(θ⁺) ≤ φ(z) − c · t · ⟨∇φ(z), d⟩`.
    pub armijo_c: f64,
    /// Step shrink factor applied after a rejected trial.
    pub shrink: f64,
    /// Step growth factor tried at the start of every iteration (the line
    /// search immediately undoes it when too optimistic).
    pub grow: f64,
    /// Maximum trial evaluations per line search before giving up.
    pub max_backtracks: usize,
    /// Step used when the warm-start state carries no history yet.
    pub initial_step: f64,
}

impl Default for AcceleratedConfig {
    fn default() -> Self {
        Self {
            grad_rtol: 0.1,
            armijo_c: 1e-4,
            shrink: 0.5,
            grow: 1.3,
            max_backtracks: 25,
            initial_step: 1.0,
        }
    }
}

/// Warm-start state carried across repeated [`minimize_matrix_accelerated`]
/// calls (one per ADMM outer iteration): the last accepted step size.
#[derive(Debug, Clone, Copy)]
pub struct AcceleratedState {
    /// Current step size estimate.
    pub step: f64,
}

impl AcceleratedState {
    /// Fresh state starting from the configured initial step.
    pub fn new(config: &AcceleratedConfig) -> Self {
        Self {
            step: config.initial_step,
        }
    }

    /// State carrying an already-learned step size (e.g. from a previous
    /// solve's [`AcceleratedState`], re-imported through an ADMM warm start).
    /// A non-positive `step` falls back to the configured initial step, so a
    /// warm start without step history degrades to a cold line search instead
    /// of stalling.
    pub fn with_step(step: f64, config: &AcceleratedConfig) -> Self {
        Self {
            step: if step > 0.0 {
                step
            } else {
                config.initial_step
            },
        }
    }
}

/// Per-solve scratch buffers of [`minimize_matrix_accelerated`]: the six
/// working matrices the solver needs (current gradient, previous iterate,
/// extrapolated point + its gradient, trial point + its gradient).
///
/// Allocated once per ADMM solve and reused across every outer iteration's
/// Θ-update, instead of six fresh heap allocations per call — under sustained
/// serve load that churn shows up as latency jitter.  Contents are
/// re-initialised on entry, so nothing leaks between calls; the only
/// requirement is a matching shape.
#[derive(Debug, Clone)]
pub struct AcceleratedWorkspace {
    /// Gradient at the current iterate.
    g: Matrix,
    /// Previous iterate (momentum history).
    theta_prev: Matrix,
    /// Extrapolated point `z`.
    z: Matrix,
    /// Gradient at `z`.
    g_z: Matrix,
    /// Line-search trial point.
    cand: Matrix,
    /// Gradient at the trial point.
    g_cand: Matrix,
}

impl AcceleratedWorkspace {
    /// Allocate a workspace for `rows × cols` iterates.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            g: Matrix::zeros(rows, cols),
            theta_prev: Matrix::zeros(rows, cols),
            z: Matrix::zeros(rows, cols),
            g_z: Matrix::zeros(rows, cols),
            cand: Matrix::zeros(rows, cols),
            g_cand: Matrix::zeros(rows, cols),
        }
    }

    /// The iterate shape this workspace was allocated for.
    pub fn shape(&self) -> (usize, usize) {
        self.g.shape()
    }
}

/// How [`minimize_matrix_accelerated`] evaluates `φ`: fused at the start and
/// extrapolated points, value first at line-search trials.
///
/// Every fused evaluation closure `FnMut(&Matrix, &mut Matrix) -> f64`
/// (gradient into the second argument, value returned) is one, whose trials
/// run the fused evaluation in full.  A closure written inline at the call
/// needs its parameter types spelled out (`|t: &Matrix, g: &mut Matrix|`),
/// since the bound it must meet is this trait, not `FnMut`.
pub trait PhiEval {
    /// Write `∇φ(point)` into `grad` and return `φ(point)`.
    fn fused(&mut self, point: &Matrix, grad: &mut Matrix) -> f64;

    /// A line-search trial: return `φ(point)` and `accept(φ(point))`, writing
    /// `∇φ(point)` into `grad` only when the trial is accepted (a rejected
    /// trial leaves `grad` unspecified).  The value and an accepted gradient
    /// must be bitwise what [`fused`](Self::fused) would produce.  The default
    /// is `fused` followed by `accept`.
    fn trial(
        &mut self,
        point: &Matrix,
        grad: &mut Matrix,
        accept: &mut dyn FnMut(f64) -> bool,
    ) -> (f64, bool) {
        let value = self.fused(point, grad);
        (value, accept(value))
    }
}

impl<F: FnMut(&Matrix, &mut Matrix) -> f64> PhiEval for F {
    fn fused(&mut self, point: &Matrix, grad: &mut Matrix) -> f64 {
        self(point, grad)
    }
}

/// What one [`minimize_matrix_accelerated`] call did.
#[derive(Debug, Clone, Copy)]
pub struct AcceleratedStats {
    /// Accepted (momentum + line-search) steps taken.
    pub iterations: usize,
    /// Evaluations performed: fused ones plus line-search trials.
    pub evaluations: usize,
    /// Line-search trials the Armijo test rejected (each one of
    /// `evaluations`).
    pub trials_rejected: usize,
    /// Whether the gradient-norm criterion was met.
    pub converged: bool,
    /// φ at the returned iterate.
    pub final_value: f64,
    /// True iff the **most recent** `eval` call was made at the returned
    /// iterate.  Callers that carry the last evaluation's by-products (the
    /// ADMM driver reuses the smooth value and gradient for its objective
    /// trace and the next outer iteration) must re-evaluate when this is
    /// false and `evaluations > 0`; with `evaluations == 0` the iterate never
    /// moved, so whatever the caller knew on entry still holds.
    pub last_eval_at_result: bool,
}

/// Minimise a smooth function `φ` of a dense matrix by Nesterov-accelerated
/// gradient descent with an Armijo backtracking line search.
///
/// * `theta` — iterate, updated in place.
/// * `value0` / `grad0` — `φ` and `∇φ` at the entry iterate, supplied by the
///   caller so the solve starts without a redundant evaluation (the ADMM
///   driver always has both on hand from the previous outer iteration).
/// * `eval` — the only way the solver ever touches the objective
///   ([`PhiEval`]): a fused evaluation at the extrapolated point, and a
///   value-first [`PhiEval::trial`] at each line-search candidate, whose
///   gradient is only needed if the Armijo test accepts it.
/// * `precond` — optional per-row direction scaling `d_r = P_r · ∇φ_r`
///   (the ADMM driver passes its curvature-bound caps `1/(L_r + ρ)`, turning
///   the line search into a scalar correction on top of a diagonally
///   preconditioned step).
///
/// Each iteration forms the extrapolated point
/// `z = θ_k + β_k (θ_k − θ_{k−1})` (standard FISTA momentum, with adaptive
/// restart whenever the objective increases), evaluates `φ`/`∇φ` there, and
/// backtracks from the warm-started step until the Armijo condition holds.
/// Per iteration this costs two evaluations (extrapolated point + accepted
/// trial) plus one value-first trial per rejection; the first iteration reuses
/// (`value0`, `grad0`) because the momentum term is still zero.  The
/// gradient-norm early exit is checked at every accepted iterate.
///
/// The six scratch matrices live in the caller-owned
/// [`AcceleratedWorkspace`] so repeated solves (one per ADMM outer
/// iteration) reuse one set of buffers; the workspace is fully
/// re-initialised on entry, so reuse never changes the trajectory.
///
/// Everything is deterministic: the trajectory is a pure function of the
/// inputs and of `eval`'s results.
#[allow(clippy::too_many_arguments)] // a focused solver entry point: iterate, start data, eval, knobs
pub fn minimize_matrix_accelerated(
    theta: &mut Matrix,
    value0: f64,
    grad0: &Matrix,
    mut eval: impl PhiEval,
    precond: Option<&[f64]>,
    max_iters: usize,
    state: &mut AcceleratedState,
    workspace: &mut AcceleratedWorkspace,
    config: &AcceleratedConfig,
) -> AcceleratedStats {
    let (rows, cols) = theta.shape();
    assert_eq!(grad0.shape(), (rows, cols), "grad0 shape mismatch");
    assert_eq!(workspace.shape(), (rows, cols), "workspace shape mismatch");
    if let Some(p) = precond {
        assert_eq!(p.len(), rows, "preconditioner length mismatch");
    }
    assert!(
        config.shrink > 0.0 && config.shrink < 1.0,
        "shrink must be in (0, 1)"
    );
    assert!(config.grow >= 1.0, "grow must be >= 1");

    let tol = config.grad_rtol * grad0.frobenius_norm();
    let mut phi = value0;
    let mut t = state.step.max(f64::MIN_POSITIVE);
    let mut a = 1.0_f64;
    // Split the workspace into per-buffer borrows.  `g` and `theta_prev` are
    // (re-)initialised here; `z`/`g_z`/`cand`/`g_cand` are fully overwritten
    // before every read, so stale contents from a previous solve are inert.
    let AcceleratedWorkspace {
        g,
        theta_prev,
        z,
        g_z,
        cand,
        g_cand,
    } = workspace;
    g.copy_from(grad0);
    theta_prev.copy_from(theta);

    let mut iterations = 0usize;
    let mut evaluations = 0usize;
    let mut trials_rejected = 0usize;
    let mut converged = false;
    let mut last_eval_at_result = false;

    for _ in 0..max_iters {
        if g.frobenius_norm() <= tol {
            converged = true;
            break;
        }
        let a_next = 0.5 * (1.0 + (1.0 + 4.0 * a * a).sqrt());
        let beta = (a - 1.0) / a_next;

        // Extrapolated point z = θ + β(θ − θ_prev).  β is exactly zero on the
        // first iteration and right after a restart, where z == θ and the
        // already-known (φ, ∇φ) at θ are reused without an evaluation.
        let phi_z = if beta == 0.0 {
            z.as_mut_slice().copy_from_slice(theta.as_slice());
            g_z.as_mut_slice().copy_from_slice(g.as_slice());
            phi
        } else {
            for ((zi, &ti), &pi) in z
                .as_mut_slice()
                .iter_mut()
                .zip(theta.as_slice())
                .zip(theta_prev.as_slice())
            {
                *zi = ti + beta * (ti - pi);
            }
            evaluations += 1;
            eval.fused(z, g_z)
        };

        // Descent direction d = P ∇φ(z) and its slope ⟨∇φ(z), d⟩.
        let slope = match precond {
            Some(p) => p
                .iter()
                .enumerate()
                .map(|(r, &pr)| pr * g_z.row(r).iter().map(|v| v * v).sum::<f64>())
                .sum::<f64>(),
            None => g_z.frobenius_norm_sq(),
        };
        if slope <= 0.0 {
            // Zero gradient at the extrapolated point: nothing left to do.
            // The most recent eval (if any) was at z, not at the returned θ,
            // so the carry contract demands the flag be cleared.
            converged = true;
            last_eval_at_result = false;
            break;
        }

        // Armijo backtracking from the (optimistically grown) warm step.
        let t_accepted = t;
        t *= config.grow;
        let mut accepted = false;
        let mut phi_cand = f64::INFINITY;
        for _ in 0..=config.max_backtracks {
            match precond {
                Some(p) => {
                    for (r, &pr) in p.iter().enumerate() {
                        let s = t * pr;
                        let base = r * cols;
                        let zs = &z.as_slice()[base..base + cols];
                        let gs = &g_z.as_slice()[base..base + cols];
                        let cs = &mut cand.as_mut_slice()[base..base + cols];
                        for ((c, &zi), &gi) in cs.iter_mut().zip(zs).zip(gs) {
                            *c = zi - s * gi;
                        }
                    }
                }
                None => {
                    for ((c, &zi), &gi) in cand
                        .as_mut_slice()
                        .iter_mut()
                        .zip(z.as_slice())
                        .zip(g_z.as_slice())
                    {
                        *c = zi - t * gi;
                    }
                }
            }
            evaluations += 1;
            let armijo_bound = phi_z - config.armijo_c * t * slope;
            let (value, armijo) = eval.trial(cand, g_cand, &mut |phi| {
                phi.is_finite() && phi <= armijo_bound
            });
            if armijo {
                phi_cand = value;
                accepted = true;
                break;
            }
            trials_rejected += 1;
            t *= config.shrink;
        }
        if !accepted {
            // The line search bottomed out; the last evaluation sits at a
            // rejected trial point, so signal the caller to re-evaluate.
            // Restore the last *accepted* step so one pathological search
            // (e.g. a non-finite φ after an aggressive extrapolation) does
            // not poison the warm start with a shrink^max_backtracks step
            // that would stall the following solves.
            t = t_accepted;
            last_eval_at_result = false;
            break;
        }

        // Adaptive (function-value) restart: a non-monotone accepted step
        // means the momentum overshot — drop it for the next iteration.
        let restart = phi_cand > phi;
        std::mem::swap(theta_prev, theta);
        std::mem::swap(theta, cand);
        std::mem::swap(g, g_cand);
        phi = phi_cand;
        if restart {
            a = 1.0;
            theta_prev.as_mut_slice().copy_from_slice(theta.as_slice());
        } else {
            a = a_next;
        }
        iterations += 1;
        last_eval_at_result = true;
    }

    state.step = t;
    AcceleratedStats {
        iterations,
        evaluations,
        trials_rejected,
        converged,
        final_value: phi,
        last_eval_at_result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ½‖Θ − T‖²_F: fused value+gradient with a counter.
    fn quadratic_eval<'a>(
        target: &'a Matrix,
        calls: &'a mut usize,
    ) -> impl FnMut(&Matrix, &mut Matrix) -> f64 + 'a {
        move |theta, grad| {
            *calls += 1;
            let diff = theta.sub(target);
            grad.as_mut_slice().copy_from_slice(diff.as_slice());
            0.5 * diff.frobenius_norm_sq()
        }
    }

    fn quadratic_start(target: &Matrix, theta: &Matrix) -> (f64, Matrix) {
        let diff = theta.sub(target);
        (0.5 * diff.frobenius_norm_sq(), diff)
    }

    #[test]
    fn accelerated_minimises_a_quadratic_to_gradient_tolerance() {
        let target = Matrix::from_fn(4, 3, |r, c| (r as f64) - 0.5 * (c as f64));
        let mut theta = Matrix::zeros(4, 3);
        let (v0, g0) = quadratic_start(&target, &theta);
        let cfg = AcceleratedConfig {
            grad_rtol: 1e-6,
            ..AcceleratedConfig::default()
        };
        let mut state = AcceleratedState::new(&cfg);
        let mut ws = AcceleratedWorkspace::new(4, 3);
        let mut calls = 0usize;
        let stats = minimize_matrix_accelerated(
            &mut theta,
            v0,
            &g0,
            quadratic_eval(&target, &mut calls),
            None,
            200,
            &mut state,
            &mut ws,
            &cfg,
        );
        assert!(stats.converged, "should hit the gradient tolerance");
        assert!(stats.iterations < 200);
        assert_eq!(stats.evaluations, calls);
        assert!(stats.last_eval_at_result);
        assert!(
            theta.sub(&target).frobenius_norm() < 1e-5,
            "diff = {}",
            theta.sub(&target).frobenius_norm()
        );
    }

    #[test]
    fn accelerated_converges_in_far_fewer_evaluations_than_fixed_step_gd() {
        // Badly conditioned diagonal quadratic: ½ Σ_r w_r ‖θ_r − t_r‖² with
        // weights spanning two orders of magnitude.  The fixed-step schedule
        // must crawl at the speed of the stiffest row; the line search finds
        // the usable step on its own.
        let rows = 6;
        let weights: Vec<f64> = (0..rows).map(|r| 100.0_f64.powf(r as f64 / 5.0)).collect();
        let target = Matrix::from_fn(rows, 2, |r, c| 1.0 + (r + c) as f64 * 0.3);
        let eval_weighted = |theta: &Matrix, grad: &mut Matrix, calls: &mut usize| {
            *calls += 1;
            let mut v = 0.0;
            for (r, &w) in weights.iter().enumerate() {
                for c in 0..2 {
                    let d = theta.get(r, c) - target.get(r, c);
                    v += 0.5 * w * d * d;
                    grad.set(r, c, w * d);
                }
            }
            v
        };
        let mut theta = Matrix::zeros(rows, 2);
        let mut g0 = Matrix::zeros(rows, 2);
        let mut calls = 0usize;
        let v0 = eval_weighted(&theta, &mut g0, &mut calls);
        calls = 0;
        let cfg = AcceleratedConfig {
            grad_rtol: 1e-4,
            ..AcceleratedConfig::default()
        };
        let mut state = AcceleratedState::new(&cfg);
        let mut ws = AcceleratedWorkspace::new(rows, 2);
        let stats = minimize_matrix_accelerated(
            &mut theta,
            v0,
            &g0,
            |t: &Matrix, g: &mut Matrix| eval_weighted(t, g, &mut calls),
            None,
            500,
            &mut state,
            &mut ws,
            &cfg,
        );
        assert!(stats.converged);

        // Reference: fixed-step GD at the stability-safe step 1/w_max, one
        // fused evaluation per iteration, same gradient stopping rule.
        let step = 1.0 / weights[rows - 1];
        let mut theta_fixed = Matrix::zeros(rows, 2);
        let mut g = Matrix::zeros(rows, 2);
        let mut fixed_calls = 0usize;
        eval_weighted(&theta_fixed, &mut g, &mut fixed_calls);
        let tol = cfg.grad_rtol * g.frobenius_norm();
        let mut fixed_evals = 0usize;
        while g.frobenius_norm() > tol && fixed_evals < 10_000 {
            theta_fixed.add_scaled(&g, -step);
            eval_weighted(&theta_fixed, &mut g, &mut fixed_calls);
            fixed_evals += 1;
        }
        // Accepted steps must be far fewer than fixed-step iterations (the
        // acceleration); evaluations pay ~2 fused passes per step (momentum
        // point + trial), so the total-pass margin is smaller but still real.
        assert!(
            2 * stats.iterations < fixed_evals,
            "accelerated took {} steps, fixed-step {} iterations",
            stats.iterations,
            fixed_evals
        );
        assert!(
            stats.evaluations < fixed_evals,
            "accelerated took {} evaluations, fixed-step {}",
            stats.evaluations,
            fixed_evals
        );
    }

    #[test]
    fn accelerated_respects_preconditioner_and_matches_unpreconditioned_optimum() {
        let rows = 5;
        let weights: Vec<f64> = (0..rows).map(|r| 1.0 + 10.0 * r as f64).collect();
        let target = Matrix::from_fn(rows, 2, |r, c| 0.5 * (r as f64) - 0.25 * (c as f64));
        let eval_weighted = |theta: &Matrix, grad: &mut Matrix| {
            let mut v = 0.0;
            for (r, &w) in weights.iter().enumerate() {
                for c in 0..2 {
                    let d = theta.get(r, c) - target.get(r, c);
                    v += 0.5 * w * d * d;
                    grad.set(r, c, w * d);
                }
            }
            v
        };
        // Exact inverse-curvature preconditioner turns the direction into a
        // Newton step; the run must converge and beat the unpreconditioned
        // solve on evaluations.
        let precond: Vec<f64> = weights.iter().map(|w| 1.0 / w).collect();
        let cfg = AcceleratedConfig {
            grad_rtol: 1e-8,
            ..AcceleratedConfig::default()
        };
        let run = |precond: Option<&[f64]>| {
            let mut theta = Matrix::zeros(rows, 2);
            let mut g0 = Matrix::zeros(rows, 2);
            let v0 = eval_weighted(&theta, &mut g0);
            let mut state = AcceleratedState::new(&cfg);
            let mut ws = AcceleratedWorkspace::new(rows, 2);
            let stats = minimize_matrix_accelerated(
                &mut theta,
                v0,
                &g0,
                |t: &Matrix, g: &mut Matrix| eval_weighted(t, g),
                precond,
                500,
                &mut state,
                &mut ws,
                &cfg,
            );
            (theta, stats)
        };
        let (theta_pre, stats_pre) = run(Some(&precond));
        let (_, stats_plain) = run(None);
        assert!(stats_pre.converged);
        assert!(theta_pre.sub(&target).frobenius_norm() < 1e-6);
        assert!(
            stats_pre.evaluations < stats_plain.evaluations,
            "preconditioned {} !< plain {}",
            stats_pre.evaluations,
            stats_plain.evaluations
        );
    }

    #[test]
    fn accelerated_zero_gradient_entry_exits_without_evaluations() {
        let target = Matrix::from_fn(2, 2, |r, c| (r + c) as f64);
        let mut theta = target.clone();
        let g0 = Matrix::zeros(2, 2);
        let cfg = AcceleratedConfig::default();
        let mut state = AcceleratedState::new(&cfg);
        let mut ws = AcceleratedWorkspace::new(2, 2);
        let mut calls = 0usize;
        let stats = minimize_matrix_accelerated(
            &mut theta,
            0.0,
            &g0,
            quadratic_eval(&target, &mut calls),
            None,
            50,
            &mut state,
            &mut ws,
            &cfg,
        );
        assert!(stats.converged);
        assert_eq!(stats.evaluations, 0);
        assert_eq!(stats.iterations, 0);
        assert!(!stats.last_eval_at_result);
        assert_eq!(theta, target);
    }

    #[test]
    fn accelerated_warm_start_carries_the_step_across_solves() {
        let target = Matrix::from_fn(3, 2, |r, c| (r as f64) + (c as f64));
        let cfg = AcceleratedConfig {
            grad_rtol: 1e-6,
            ..AcceleratedConfig::default()
        };
        let mut state = AcceleratedState::new(&cfg);
        // One shared workspace across both solves — exactly how the ADMM
        // driver reuses it across outer iterations.
        let mut ws = AcceleratedWorkspace::new(3, 2);
        let mut calls_cold = 0usize;
        let mut theta = Matrix::zeros(3, 2);
        let (v0, g0) = quadratic_start(&target, &theta);
        minimize_matrix_accelerated(
            &mut theta,
            v0,
            &g0,
            quadratic_eval(&target, &mut calls_cold),
            None,
            200,
            &mut state,
            &mut ws,
            &cfg,
        );
        // The quadratic has unit curvature: the accepted step settles near 1.
        assert!(
            state.step > 0.3 && state.step < 5.0,
            "step = {}",
            state.step
        );
        // A second solve from a shifted start reuses the learned step and
        // should not need more evaluations than the cold solve.
        let mut calls_warm = 0usize;
        let mut theta2 = Matrix::from_fn(3, 2, |_, _| -1.0);
        let (v0, g0) = quadratic_start(&target, &theta2);
        let stats = minimize_matrix_accelerated(
            &mut theta2,
            v0,
            &g0,
            quadratic_eval(&target, &mut calls_warm),
            None,
            200,
            &mut state,
            &mut ws,
            &cfg,
        );
        assert!(stats.converged);
        assert!(calls_warm <= calls_cold + 2);
    }

    /// ½‖Θ − T‖²_F evaluated value first: a rejected trial poisons the
    /// gradient buffer instead of writing it, so any read of it would show.
    struct ValueFirstQuadratic<'a> {
        target: &'a Matrix,
        rejected: &'a mut usize,
    }

    impl PhiEval for ValueFirstQuadratic<'_> {
        fn fused(&mut self, point: &Matrix, grad: &mut Matrix) -> f64 {
            let diff = point.sub(self.target);
            grad.as_mut_slice().copy_from_slice(diff.as_slice());
            0.5 * diff.frobenius_norm_sq()
        }

        fn trial(
            &mut self,
            point: &Matrix,
            grad: &mut Matrix,
            accept: &mut dyn FnMut(f64) -> bool,
        ) -> (f64, bool) {
            let value = 0.5 * point.sub(self.target).frobenius_norm_sq();
            if accept(value) {
                self.fused(point, grad);
                return (value, true);
            }
            *self.rejected += 1;
            grad.fill(f64::NAN);
            (value, false)
        }
    }

    /// Value-first trials land bitwise on the all-fused trajectory, never
    /// read a rejected trial's gradient, and are counted exactly.
    #[test]
    fn value_first_trials_retrace_the_fused_trajectory() {
        let target = Matrix::from_fn(4, 3, |r, c| 2.0 * (r as f64) - 1.5 * (c as f64));
        // An optimistic initial step forces rejections.
        let cfg = AcceleratedConfig {
            grad_rtol: 1e-8,
            initial_step: 8.0,
            ..AcceleratedConfig::default()
        };
        let (v0, g0) = quadratic_start(&target, &Matrix::zeros(4, 3));
        let mut fused_theta = Matrix::zeros(4, 3);
        let mut calls = 0usize;
        let fused = minimize_matrix_accelerated(
            &mut fused_theta,
            v0,
            &g0,
            quadratic_eval(&target, &mut calls),
            None,
            200,
            &mut AcceleratedState::new(&cfg),
            &mut AcceleratedWorkspace::new(4, 3),
            &cfg,
        );
        let mut theta = Matrix::zeros(4, 3);
        let mut rejected = 0usize;
        let stats = minimize_matrix_accelerated(
            &mut theta,
            v0,
            &g0,
            ValueFirstQuadratic {
                target: &target,
                rejected: &mut rejected,
            },
            None,
            200,
            &mut AcceleratedState::new(&cfg),
            &mut AcceleratedWorkspace::new(4, 3),
            &cfg,
        );
        assert!(stats.converged && stats.trials_rejected > 0);
        assert_eq!(stats.trials_rejected, rejected);
        assert_eq!(stats.trials_rejected, fused.trials_rejected);
        assert_eq!(stats.evaluations, fused.evaluations);
        assert_eq!(stats.final_value.to_bits(), fused.final_value.to_bits());
        assert_eq!(theta, fused_theta);
        assert!(theta.is_finite());
    }

    /// Reusing a dirty workspace must be invisible: the solver re-initialises
    /// everything it reads, so a second identical solve from the same buffers
    /// lands bitwise on the same iterate.
    #[test]
    fn workspace_reuse_does_not_change_the_trajectory() {
        let target = Matrix::from_fn(4, 3, |r, c| 0.8 * (r as f64) - 0.3 * (c as f64) + 0.1);
        let cfg = AcceleratedConfig {
            grad_rtol: 1e-8,
            ..AcceleratedConfig::default()
        };
        let solve = |ws: &mut AcceleratedWorkspace| {
            let mut theta = Matrix::zeros(4, 3);
            let (v0, g0) = quadratic_start(&target, &theta);
            let mut state = AcceleratedState::new(&cfg);
            let mut calls = 0usize;
            minimize_matrix_accelerated(
                &mut theta,
                v0,
                &g0,
                quadratic_eval(&target, &mut calls),
                None,
                200,
                &mut state,
                ws,
                &cfg,
            );
            theta
        };
        let mut ws = AcceleratedWorkspace::new(4, 3);
        let fresh = solve(&mut ws);
        let reused = solve(&mut ws); // buffers still hold the first solve's state
        assert_eq!(fresh, reused);
    }
}
