//! The vector auto-regressive (VAR) baseline.
//!
//! Consecutive stays are encoded as one-hot state vectors
//! `x_i = [onehot(cu_i) ; onehot(dur_i)] ∈ R^{C+D}` and a transition
//! coefficient matrix `A` is fitted by ridge-regularised least squares
//! `x_i ≈ A x_{i−1}`.  Unlike the Markov chain, `A` has no probabilistic
//! interpretation but is more flexible (it can mix destination and duration
//! information across the two blocks).

use pfp_core::dataset::{Dataset, RawSample};
use pfp_math::dense::solve_linear_system;
use pfp_math::softmax::argmax;
use pfp_math::Matrix;
use serde::{Deserialize, Serialize};

use crate::predictor::{FlowPredictor, MethodId, Prediction};

/// The fitted VAR(1) model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VarPredictor {
    coefficients: Matrix,
    num_cus: usize,
    num_durations: usize,
    /// Mean state vector, used as the prediction input for first stays.
    mean_state: Vec<f64>,
}

impl VarPredictor {
    /// Fit by ridge least squares with regularisation strength `ridge`.
    pub fn train(dataset: &Dataset, ridge: f64) -> Self {
        assert!(ridge >= 0.0, "ridge must be non-negative");
        let c = dataset.num_cus;
        let d = dataset.num_durations;
        let dim = c + d;

        let encode = |cu: usize, dur: usize| {
            let mut x = vec![0.0; dim];
            x[cu] = 1.0;
            x[c + dur] = 1.0;
            x
        };

        // Accumulate normal equations G = Σ x_{i-1} x_{i-1}ᵀ and C_k = Σ x_i[k] x_{i-1}.
        let mut gram = Matrix::zeros(dim, dim);
        let mut cross = Matrix::zeros(dim, dim); // rows: output k, cols: input
        let mut mean_state = vec![0.0; dim];
        let mut n_states = 0usize;
        for patient in &dataset.patients {
            let states: Vec<Vec<f64>> = patient
                .stays
                .iter()
                .map(|s| encode(s.cu, s.duration_class()))
                .collect();
            for x in &states {
                for (m, v) in mean_state.iter_mut().zip(x.iter()) {
                    *m += v;
                }
                n_states += 1;
            }
            for w in states.windows(2) {
                let (prev, next) = (&w[0], &w[1]);
                for a in 0..dim {
                    for b in 0..dim {
                        gram.add_at(a, b, prev[a] * prev[b]);
                    }
                    for (k, &nk) in next.iter().enumerate() {
                        cross.add_at(k, a, nk * prev[a]);
                    }
                }
            }
        }
        for v in mean_state.iter_mut() {
            *v /= n_states.max(1) as f64;
        }
        for i in 0..dim {
            gram.add_at(i, i, ridge.max(1e-6));
        }

        // Solve one ridge system per output row.
        let mut coefficients = Matrix::zeros(dim, dim);
        for k in 0..dim {
            let rhs: Vec<f64> = cross.row(k).to_vec();
            if let Some(row) = solve_linear_system(&gram, &rhs) {
                for (j, v) in row.into_iter().enumerate() {
                    coefficients.set(k, j, v);
                }
            }
        }
        Self {
            coefficients,
            num_cus: c,
            num_durations: d,
            mean_state,
        }
    }

    /// Predict the next state scores given the current `(cu, duration)` state.
    fn scores(&self, current: Option<(usize, usize)>) -> Vec<f64> {
        let dim = self.num_cus + self.num_durations;
        let x = match current {
            Some((cu, dur)) => {
                let mut x = vec![0.0; dim];
                x[cu] = 1.0;
                x[self.num_cus + dur] = 1.0;
                x
            }
            None => self.mean_state.clone(),
        };
        self.coefficients.matvec(&x)
    }

    /// The fitted coefficient matrix.
    pub fn coefficients(&self) -> &Matrix {
        &self.coefficients
    }
}

impl FlowPredictor for VarPredictor {
    fn method(&self) -> MethodId {
        MethodId::Var
    }

    fn predict_sample(&self, sample: &RawSample) -> Prediction {
        let current = sample
            .history
            .last()
            .map(|stay| (stay.cu, sample.prev_duration_class.unwrap_or(0)));
        let scores = self.scores(current);
        Prediction {
            cu: argmax(&scores[..self.num_cus]),
            duration: argmax(&scores[self.num_cus..]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfp_core::dataset::Dataset;
    use pfp_ehr::{generate_cohort, CohortConfig};

    fn dataset() -> Dataset {
        Dataset::from_cohort(&generate_cohort(&CohortConfig::small(71)))
    }

    #[test]
    fn var_fits_and_predicts_valid_labels() {
        let ds = dataset();
        let var = VarPredictor::train(&ds, 1.0);
        assert_eq!(var.method(), MethodId::Var);
        for s in ds.samples.iter().take(30) {
            let p = var.predict_sample(s);
            assert!(p.cu < ds.num_cus);
            assert!(p.duration < ds.num_durations);
        }
    }

    #[test]
    fn coefficients_are_finite() {
        let ds = dataset();
        let var = VarPredictor::train(&ds, 1.0);
        assert!(var.coefficients().is_finite());
        assert_eq!(var.coefficients().shape(), (16, 16));
    }

    #[test]
    fn var_mostly_predicts_the_majority_ward_like_mc() {
        let ds = dataset();
        let var = VarPredictor::train(&ds, 1.0);
        let gw = pfp_ehr::departments::CareUnit::Gw.index();
        let gw_share = ds
            .samples
            .iter()
            .filter(|s| var.predict_sample(s).cu == gw)
            .count() as f64
            / ds.len() as f64;
        assert!(
            gw_share > 0.6,
            "VAR is feature-free and should mostly predict GW (share {gw_share})"
        );
    }

    #[test]
    #[should_panic(expected = "ridge must be non-negative")]
    fn rejects_negative_ridge() {
        let ds = Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(1)));
        let _ = VarPredictor::train(&ds, -1.0);
    }
}
