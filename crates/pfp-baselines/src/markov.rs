//! The Markov-chain (MC) baseline.
//!
//! Two independent first-order Markov chains are estimated by counting: one
//! over destination care units, one over duration classes.  Prediction takes
//! the argmax of the transition row of the current state (Section 4.1).

use pfp_core::dataset::{Dataset, RawSample};
use pfp_math::Matrix;
use serde::{Deserialize, Serialize};

use crate::predictor::{FlowPredictor, GenerativePredictor, MethodId, Prediction};

/// Count-based first-order Markov chain over `n` states with Laplace smoothing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MarkovChain {
    transition: Matrix,
    marginal: Vec<f64>,
    num_states: usize,
}

impl MarkovChain {
    /// Estimate from `(from, to)` state pairs; `marginal_states` supplies the
    /// stationary fallback used when no previous state is available.
    pub fn fit(pairs: &[(usize, usize)], marginal_states: &[usize], num_states: usize) -> Self {
        assert!(num_states > 0, "need at least one state");
        let mut counts = Matrix::from_fn(num_states, num_states, |_, _| 1.0); // Laplace smoothing
        for &(from, to) in pairs {
            assert!(from < num_states && to < num_states, "state out of range");
            counts.add_at(from, to, 1.0);
        }
        // Row-normalise.
        let mut transition = counts;
        for r in 0..num_states {
            let row_sum: f64 = transition.row(r).iter().sum();
            for v in transition.row_mut(r) {
                *v /= row_sum;
            }
        }
        let mut marginal = vec![1.0; num_states];
        for &s in marginal_states {
            assert!(s < num_states, "state out of range");
            marginal[s] += 1.0;
        }
        let total: f64 = marginal.iter().sum();
        marginal.iter_mut().for_each(|v| *v /= total);
        Self {
            transition,
            marginal,
            num_states,
        }
    }

    /// Transition probabilities out of `state`.
    pub fn row(&self, state: usize) -> &[f64] {
        self.transition.row(state)
    }

    /// Most likely next state given the current one (marginal argmax when
    /// `current` is `None`).
    pub fn predict(&self, current: Option<usize>) -> usize {
        match current {
            Some(s) => pfp_math::softmax::argmax(self.transition.row(s)),
            None => pfp_math::softmax::argmax(&self.marginal),
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The marginal (stationary-fallback) state distribution.
    pub fn marginal(&self) -> &[f64] {
        &self.marginal
    }
}

/// The MC baseline: independent chains for destinations and durations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MarkovPredictor {
    cu_chain: MarkovChain,
    duration_chain: MarkovChain,
}

impl MarkovPredictor {
    /// Fit both chains from the training patients' stay sequences.
    pub fn train(dataset: &Dataset) -> Self {
        let mut cu_pairs = Vec::new();
        let mut cu_marginal = Vec::new();
        let mut dur_pairs = Vec::new();
        let mut dur_marginal = Vec::new();
        for patient in &dataset.patients {
            let stays = &patient.stays;
            for w in stays.windows(2) {
                cu_pairs.push((w[0].cu, w[1].cu));
            }
            for w in stays.windows(2) {
                dur_pairs.push((w[0].duration_class(), w[1].duration_class()));
            }
            for s in stays {
                cu_marginal.push(s.cu);
                dur_marginal.push(s.duration_class());
            }
        }
        Self {
            cu_chain: MarkovChain::fit(&cu_pairs, &cu_marginal, dataset.num_cus),
            duration_chain: MarkovChain::fit(&dur_pairs, &dur_marginal, dataset.num_durations),
        }
    }

    /// The destination-CU chain.
    pub fn cu_chain(&self) -> &MarkovChain {
        &self.cu_chain
    }

    /// The duration-class chain.
    pub fn duration_chain(&self) -> &MarkovChain {
        &self.duration_chain
    }
}

/// The O(1) degraded-mode scorer for `pfp-serve`: while the DMCP scoring
/// pool is unhealthy, every request is answered with the Markov chains'
/// *marginal* distributions — the strongest history-free answer the MC
/// baseline can give without per-request state, and trivially allocation-
/// bounded (two `Vec` clones, no matrix work).  Responses carry the
/// `degraded` tag so callers can tell them from DMCP answers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MarkovFallback {
    cu_marginal: Vec<f64>,
    duration_marginal: Vec<f64>,
}

impl MarkovFallback {
    /// Capture the marginals of a trained [`MarkovPredictor`].
    pub fn new(predictor: &MarkovPredictor) -> Self {
        Self {
            cu_marginal: predictor.cu_chain().marginal().to_vec(),
            duration_marginal: predictor.duration_chain().marginal().to_vec(),
        }
    }
}

impl pfp_serve::FallbackPredictor for MarkovFallback {
    fn dims(&self) -> (usize, usize) {
        (self.cu_marginal.len(), self.duration_marginal.len())
    }

    fn probabilities(&self, _features: &pfp_math::SparseVec) -> (Vec<f64>, Vec<f64>) {
        (self.cu_marginal.clone(), self.duration_marginal.clone())
    }
}

impl FlowPredictor for MarkovPredictor {
    fn method(&self) -> MethodId {
        MethodId::Mc
    }

    fn predict_sample(&self, sample: &RawSample) -> Prediction {
        let current_cu = sample.history.last().map(|stay| stay.cu);
        Prediction {
            cu: self.cu_chain.predict(current_cu),
            duration: self.duration_chain.predict(sample.prev_duration_class),
        }
    }
}

impl GenerativePredictor for MarkovPredictor {
    fn predict_distribution(&self, sample: &RawSample) -> (Vec<f64>, Vec<f64>) {
        let cu = match sample.history.last() {
            Some(stay) => self.cu_chain.row(stay.cu).to_vec(),
            None => self.cu_chain.marginal().to_vec(),
        };
        let duration = match sample.prev_duration_class {
            Some(state) => self.duration_chain.row(state).to_vec(),
            None => self.duration_chain.marginal().to_vec(),
        };
        (cu, duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfp_core::dataset::Dataset;
    use pfp_ehr::{generate_cohort, CohortConfig};

    #[test]
    fn chain_rows_are_probability_distributions() {
        let chain = MarkovChain::fit(&[(0, 1), (1, 0), (0, 1)], &[0, 1], 3);
        for s in 0..3 {
            let sum: f64 = chain.row(s).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn chain_predicts_the_dominant_transition() {
        let pairs = vec![(0, 2), (0, 2), (0, 2), (0, 1)];
        let chain = MarkovChain::fit(&pairs, &[0, 2, 2], 3);
        assert_eq!(chain.predict(Some(0)), 2);
        assert_eq!(chain.predict(None), 2);
    }

    #[test]
    fn predictor_collapses_towards_the_ward_majority() {
        let ds = Dataset::from_cohort(&generate_cohort(&CohortConfig::small(61)));
        let mc = MarkovPredictor::train(&ds);
        assert_eq!(mc.method(), MethodId::Mc);
        // Count how many distinct CU predictions the chain makes on the data:
        // the paper observes MC essentially always predicts the general ward.
        let mut counts = vec![0usize; ds.num_cus];
        for s in &ds.samples {
            counts[mc.predict_sample(s).cu] += 1;
        }
        let gw = pfp_ehr::departments::CareUnit::Gw.index();
        let gw_share = counts[gw] as f64 / ds.len() as f64;
        assert!(
            gw_share > 0.8,
            "MC should mostly predict GW, got share {gw_share}"
        );
    }

    #[test]
    fn markov_distribution_is_the_transition_row_of_the_current_state() {
        let ds = Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(62)));
        let mc = MarkovPredictor::train(&ds);
        for s in ds.samples.iter().take(10) {
            let (pc, pd) = mc.predict_distribution(s);
            assert!((pc.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!((pd.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            match s.history.last() {
                Some(stay) => assert_eq!(pc, mc.cu_chain().row(stay.cu)),
                None => assert_eq!(pc, mc.cu_chain().marginal()),
            }
            let pred = mc.predict_sample(s);
            assert_eq!(pfp_math::softmax::argmax(&pc), pred.cu);
            assert_eq!(pfp_math::softmax::argmax(&pd), pred.duration);
        }
    }

    #[test]
    #[should_panic(expected = "state out of range")]
    fn fit_rejects_out_of_range_states() {
        let _ = MarkovChain::fit(&[(0, 5)], &[], 3);
    }

    #[test]
    fn fallback_answers_with_the_marginals_feature_independently() {
        use pfp_serve::FallbackPredictor as _;
        let ds = Dataset::from_cohort(&generate_cohort(&CohortConfig::small(61)));
        let mc = MarkovPredictor::train(&ds);
        let fb = MarkovFallback::new(&mc);
        assert_eq!(fb.dims(), (ds.num_cus, ds.num_durations));
        let (cu, dur) = fb.probabilities(&pfp_math::SparseVec::binary(9, vec![0]));
        assert_eq!(cu, mc.cu_chain().marginal());
        assert_eq!(dur, mc.duration_chain().marginal());
        assert!((cu.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((dur.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Feature-independent: a different request gets the same answer.
        assert_eq!(
            fb.probabilities(&pfp_math::SparseVec::binary(3, vec![2])).0,
            cu
        );
    }
}
