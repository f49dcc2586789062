//! The generatively-trained Hawkes process (HP) baseline.
//!
//! A multivariate Hawkes process over the care units is fitted by maximum
//! likelihood on the training patients' transition sequences (the generative
//! alternative the paper contrasts with discriminative learning).  Prediction
//! follows the paper's rule: the next event `(c, d)` is the pair maximising
//! `∫_{t+d−1}^{t+d} λ_c(s) ds` given the history up to the evaluation time.

use pfp_core::dataset::{Dataset, RawSample};
use pfp_ehr::departments::NUM_CARE_UNITS;
use pfp_point_process::event::{Event, EventSequence};
use pfp_point_process::hawkes::{HawkesFitConfig, MultivariateHawkes};
use serde::{Deserialize, Serialize};

use crate::predictor::{FlowPredictor, MethodId, Prediction};

/// The fitted HP baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HawkesPredictor {
    model: MultivariateHawkes,
    num_durations: usize,
}

impl HawkesPredictor {
    /// Fit the Hawkes process on the training patients' CU event sequences.
    pub fn train(dataset: &Dataset, config: &HawkesFitConfig) -> Self {
        let sequences: Vec<EventSequence> = dataset
            .patients
            .iter()
            .filter(|p| p.num_transitions() > 0)
            .map(|p| p.cu_event_sequence())
            .collect();
        assert!(
            !sequences.is_empty(),
            "need at least one non-trivial sequence to fit the HP baseline"
        );
        let fitted = MultivariateHawkes::fit(&sequences, NUM_CARE_UNITS, config);
        Self {
            model: fitted.model,
            num_durations: dataset.num_durations,
        }
    }

    /// The underlying Hawkes model.
    pub fn model(&self) -> &MultivariateHawkes {
        &self.model
    }

    /// Build the event sequence seen so far by a sample (transitions into each
    /// stay after the first, at their entry times).
    fn history_sequence(&self, sample: &RawSample) -> EventSequence {
        let horizon = sample.t_eval + self.num_durations as f64 + 2.0;
        let events: Vec<Event> = sample
            .history
            .iter()
            .skip(1) // the first stay is the admission, not a transition event
            .map(|stay| Event::new(stay.entry_time.max(1e-6), stay.cu))
            .collect();
        EventSequence::new(events, horizon, NUM_CARE_UNITS)
    }
}

impl FlowPredictor for HawkesPredictor {
    fn method(&self) -> MethodId {
        MethodId::Hp
    }

    fn predict_sample(&self, sample: &RawSample) -> Prediction {
        let seq = self.history_sequence(sample);
        let t = sample.t_eval;
        let mut best = Prediction { cu: 0, duration: 0 };
        let mut best_mass = f64::NEG_INFINITY;
        for cu in 0..NUM_CARE_UNITS {
            for d in 0..self.num_durations {
                // Duration class d covers day window [d, d+1) after t; the last
                // class (">7 days") integrates a wider tail window.
                let (a, b) = if d + 1 == self.num_durations {
                    (t + d as f64, t + d as f64 + 3.0)
                } else {
                    (t + d as f64, t + d as f64 + 1.0)
                };
                let mass = self.model.integrated_intensity(cu, a, b, &seq);
                if mass > best_mass {
                    best_mass = mass;
                    best = Prediction { cu, duration: d };
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfp_core::dataset::Dataset;
    use pfp_ehr::{generate_cohort, CohortConfig};

    fn dataset() -> Dataset {
        Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(91)))
    }

    fn fast_config() -> HawkesFitConfig {
        HawkesFitConfig {
            max_iters: 25,
            ..Default::default()
        }
    }

    #[test]
    fn hawkes_baseline_trains_and_predicts_valid_labels() {
        let ds = dataset();
        let hp = HawkesPredictor::train(&ds, &fast_config());
        assert_eq!(hp.method(), MethodId::Hp);
        for s in ds.samples.iter().take(20) {
            let p = hp.predict_sample(s);
            assert!(p.cu < ds.num_cus);
            assert!(p.duration < ds.num_durations);
        }
    }

    #[test]
    fn fitted_base_rates_reflect_department_frequencies() {
        let ds = dataset();
        let hp = HawkesPredictor::train(&ds, &fast_config());
        let mu = hp.model().mu();
        let gw = pfp_ehr::departments::CareUnit::Gw.index();
        let acu = pfp_ehr::departments::CareUnit::Acu.index();
        assert!(
            mu[gw] > mu[acu],
            "GW transitions are far more common than ACU"
        );
    }

    #[test]
    fn prediction_prefers_high_intensity_departments() {
        let ds = dataset();
        let hp = HawkesPredictor::train(&ds, &fast_config());
        // Aggregate predictions: GW should dominate since its base rate does.
        let gw = pfp_ehr::departments::CareUnit::Gw.index();
        let gw_share = ds
            .samples
            .iter()
            .filter(|s| hp.predict_sample(s).cu == gw)
            .count() as f64
            / ds.len() as f64;
        assert!(gw_share > 0.4, "GW share = {gw_share}");
    }
}
