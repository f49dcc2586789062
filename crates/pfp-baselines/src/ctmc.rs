//! The continuous-time Markov chain (CTMC) baseline.
//!
//! A rate matrix `Q` over care units is estimated from the training stays:
//! `q_{ij} = N_{ij} / T_i` where `N_{ij}` counts transitions `i → j` and
//! `T_i` is the total time spent in unit `i`.  The next destination is
//! predicted from the embedded jump chain (`argmax_j q_{ij}`), the duration
//! from the expected holding time `1 / (−q_{ii})` of the current unit.

use pfp_core::dataset::{Dataset, RawSample};
use pfp_ehr::departments::duration_class;
use pfp_math::softmax::argmax;
use pfp_math::Matrix;
use serde::{Deserialize, Serialize};

use crate::predictor::{FlowPredictor, MethodId, Prediction};

/// The fitted CTMC baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CtmcPredictor {
    /// Off-diagonal transition rates `q_{ij}` (diagonal holds exit rates).
    rates: Matrix,
    /// Expected holding time (days) per unit.
    expected_holding: Vec<f64>,
    /// Marginal destination distribution (fallback for units never left).
    marginal_destination: Vec<f64>,
    num_durations: usize,
}

impl CtmcPredictor {
    /// Estimate the rate matrix from the training patients.
    pub fn train(dataset: &Dataset) -> Self {
        let c = dataset.num_cus;
        let mut counts = Matrix::zeros(c, c);
        let mut time_in = vec![0.0f64; c];
        let mut marginal = vec![1.0f64; c];
        for patient in &dataset.patients {
            for s in &patient.stays {
                time_in[s.cu] += s.dwell_days;
            }
            for w in patient.stays.windows(2) {
                counts.add_at(w[0].cu, w[1].cu, 1.0);
                marginal[w[1].cu] += 1.0;
            }
        }
        let mut rates = Matrix::zeros(c, c);
        let mut expected_holding = vec![0.0f64; c];
        for i in 0..c {
            // Self-transitions (back-to-back stays in the same unit) are not
            // jumps of the embedded chain; exclude them from the exit rate.
            let exits: f64 = counts
                .row(i)
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &v)| v)
                .sum();
            let t = time_in[i].max(1e-6);
            for j in 0..c {
                if i != j {
                    rates.set(i, j, counts.get(i, j) / t);
                }
            }
            let exit_rate = exits / t;
            rates.set(i, i, -exit_rate);
            expected_holding[i] = if exit_rate > 0.0 {
                1.0 / exit_rate
            } else {
                time_in[i].max(1.0)
            };
        }
        let total: f64 = marginal.iter().sum();
        marginal.iter_mut().for_each(|v| *v /= total);
        Self {
            rates,
            expected_holding,
            marginal_destination: marginal,
            num_durations: dataset.num_durations,
        }
    }

    /// The estimated rate matrix.
    pub fn rates(&self) -> &Matrix {
        &self.rates
    }

    /// Expected holding time (days) in a unit.
    pub fn expected_holding(&self, cu: usize) -> f64 {
        self.expected_holding[cu]
    }
}

impl FlowPredictor for CtmcPredictor {
    fn method(&self) -> MethodId {
        MethodId::Ctmc
    }

    fn predict_sample(&self, sample: &RawSample) -> Prediction {
        match sample.history.last().map(|stay| stay.cu) {
            Some(current) => {
                // Jump-chain argmax over off-diagonal rates; fall back to the
                // marginal if the unit was never left in training.
                let row: Vec<f64> = (0..self.rates.cols())
                    .map(|j| {
                        if j == current {
                            0.0
                        } else {
                            self.rates.get(current, j)
                        }
                    })
                    .collect();
                let cu = if row.iter().all(|&v| v <= 0.0) {
                    argmax(&self.marginal_destination)
                } else {
                    argmax(&row)
                };
                let holding = self.expected_holding(current);
                Prediction {
                    cu,
                    duration: duration_class(holding).min(self.num_durations - 1),
                }
            }
            None => Prediction {
                cu: argmax(&self.marginal_destination),
                duration: 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfp_core::dataset::Dataset;
    use pfp_ehr::{generate_cohort, CohortConfig};

    fn dataset() -> Dataset {
        Dataset::from_cohort(&generate_cohort(&CohortConfig::small(81)))
    }

    #[test]
    fn rate_matrix_rows_sum_to_zero() {
        let ds = dataset();
        let ctmc = CtmcPredictor::train(&ds);
        for i in 0..ds.num_cus {
            let sum: f64 = ctmc.rates().row(i).iter().sum();
            assert!(sum.abs() < 1e-9, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn off_diagonal_rates_are_non_negative() {
        let ds = dataset();
        let ctmc = CtmcPredictor::train(&ds);
        for i in 0..ds.num_cus {
            for j in 0..ds.num_cus {
                if i != j {
                    assert!(ctmc.rates().get(i, j) >= 0.0);
                }
            }
            assert!(ctmc.rates().get(i, i) <= 0.0);
        }
    }

    #[test]
    fn expected_holding_times_are_positive_and_nicu_is_long() {
        let ds = dataset();
        let ctmc = CtmcPredictor::train(&ds);
        for cu in 0..ds.num_cus {
            assert!(ctmc.expected_holding(cu) > 0.0);
        }
        let nicu = pfp_ehr::departments::CareUnit::Nicu.index();
        let acu = pfp_ehr::departments::CareUnit::Acu.index();
        assert!(ctmc.expected_holding(nicu) > ctmc.expected_holding(acu));
    }

    #[test]
    fn predictions_are_valid_and_never_self_loops() {
        let ds = dataset();
        let ctmc = CtmcPredictor::train(&ds);
        assert_eq!(ctmc.method(), MethodId::Ctmc);
        for s in ds.samples.iter().take(50) {
            let p = ctmc.predict_sample(s);
            assert!(p.cu < ds.num_cus);
            assert!(p.duration < ds.num_durations);
            if let Some(current) = s.history.last().map(|stay| stay.cu) {
                if (0..ds.num_cus).any(|j| j != current && ctmc.rates().get(current, j) > 0.0) {
                    assert_ne!(
                        p.cu, current,
                        "CTMC jump chain should not predict a self-loop"
                    );
                }
            }
        }
    }
}
