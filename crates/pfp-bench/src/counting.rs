//! A counting decorator over [`SmoothObjective`], shared by the convergence
//! and warm-start integration tests.

use std::cell::Cell;

use pfp_math::Matrix;
use pfp_optim::SmoothObjective;

/// Wraps an objective and counts how each evaluation entry point is used.
///
/// One per-sample evaluation pass corresponds to exactly one call of any of
/// the three entry points, so [`passes`](Self::passes) is the total work the
/// solver asked of the objective.
pub struct CountingObjective<O> {
    inner: O,
    value_calls: Cell<usize>,
    gradient_calls: Cell<usize>,
    fused_calls: Cell<usize>,
}

impl<O> CountingObjective<O> {
    /// Wrap `inner` with zeroed counters.
    pub fn new(inner: O) -> Self {
        Self {
            inner,
            value_calls: Cell::new(0),
            gradient_calls: Cell::new(0),
            fused_calls: Cell::new(0),
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

    /// Total per-sample evaluation passes (every entry point walks the
    /// cohort exactly once).
    pub fn passes(&self) -> usize {
        self.value_calls() + self.gradient_calls() + self.fused_calls()
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
        assert_eq!(counting.value_calls(), 1);
        assert_eq!(counting.gradient_calls(), 2);
        // The default fused implementation chains gradient + value, but the
        // wrapper intercepts the outer call only.
        assert_eq!(counting.fused_calls(), 1);
        assert_eq!(counting.passes(), 4);
    }
}
