//! A counting decorator over [`SmoothObjective`], shared by the convergence
//! and warm-start integration tests.

use std::cell::Cell;

use pfp_math::Matrix;
use pfp_optim::SmoothObjective;

/// Wraps an objective and counts how each evaluation entry point is used.
///
/// One evaluation corresponds to exactly one call of any of the four entry
/// points, so [`passes`](Self::passes) is the total number of evaluations
/// the solver asked of the objective.  Value-first calls are forwarded, so
/// the wrapped objective keeps its own `value_then_gradient`.
pub struct CountingObjective<O> {
    inner: O,
    value_calls: Cell<usize>,
    gradient_calls: Cell<usize>,
    fused_calls: Cell<usize>,
    deferred_calls: Cell<usize>,
    accepted_calls: Cell<usize>,
}

impl<O> CountingObjective<O> {
    /// Wrap `inner` with zeroed counters.
    pub fn new(inner: O) -> Self {
        Self {
            inner,
            value_calls: Cell::new(0),
            gradient_calls: Cell::new(0),
            fused_calls: Cell::new(0),
            deferred_calls: Cell::new(0),
            accepted_calls: Cell::new(0),
        }
    }

    /// Standalone `value` calls observed.
    pub fn value_calls(&self) -> usize {
        self.value_calls.get()
    }

    /// Standalone `gradient` calls observed.
    pub fn gradient_calls(&self) -> usize {
        self.gradient_calls.get()
    }

    /// Fused `value_and_gradient` calls observed.
    pub fn fused_calls(&self) -> usize {
        self.fused_calls.get()
    }

    /// Value-first `value_then_gradient` calls observed.
    pub fn deferred_calls(&self) -> usize {
        self.deferred_calls.get()
    }

    /// Value-first calls whose `accept` returned `true` (the ones that went
    /// on to compute the gradient).
    pub fn accepted_calls(&self) -> usize {
        self.accepted_calls.get()
    }

    /// Total evaluations, over all four entry points.
    pub fn passes(&self) -> usize {
        self.value_calls() + self.gradient_calls() + self.fused_calls() + self.deferred_calls()
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
    fn value_then_gradient(
        &self,
        theta: &Matrix,
        grad: &mut Matrix,
        accept: &mut dyn FnMut(f64) -> bool,
    ) -> (f64, bool) {
        self.deferred_calls.set(self.deferred_calls.get() + 1);
        let (value, accepted) = self.inner.value_then_gradient(theta, grad, accept);
        self.accepted_calls
            .set(self.accepted_calls.get() + usize::from(accepted));
        (value, accepted)
    }
    fn shape(&self) -> (usize, usize) {
        self.inner.shape()
    }
    fn row_curvature_bounds(&self) -> Option<Vec<f64>> {
        self.inner.row_curvature_bounds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Quadratic;

    impl SmoothObjective for Quadratic {
        fn value(&self, theta: &Matrix) -> f64 {
            0.5 * theta.frobenius_norm_sq()
        }
        fn gradient(&self, theta: &Matrix, grad: &mut Matrix) {
            grad.as_mut_slice().copy_from_slice(theta.as_slice());
        }
        fn shape(&self) -> (usize, usize) {
            (2, 2)
        }
    }

    #[test]
    fn counts_every_entry_point_separately() {
        let counting = CountingObjective::new(Quadratic);
        let theta = Matrix::from_fn(2, 2, |r, c| (r + c) as f64);
        let mut grad = Matrix::zeros(2, 2);
        let _ = counting.value(&theta);
        counting.gradient(&theta, &mut grad);
        counting.gradient(&theta, &mut grad);
        let _ = counting.value_and_gradient(&theta, &mut grad);
        let _ = counting.value_then_gradient(&theta, &mut grad, &mut |_| true);
        let _ = counting.value_then_gradient(&theta, &mut grad, &mut |_| false);
        assert_eq!(counting.value_calls(), 1);
        assert_eq!(counting.gradient_calls(), 2);
        // The default fused implementation chains gradient + value, and the
        // default value-first one calls the fused one, but the wrapper
        // intercepts the outer call only.
        assert_eq!(counting.fused_calls(), 1);
        assert_eq!(
            (counting.deferred_calls(), counting.accepted_calls()),
            (2, 1)
        );
        assert_eq!(counting.passes(), 6);
    }
}
