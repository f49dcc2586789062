//! Timing decorators: wrappers that delegate every call unchanged and record
//! how many calls were made and how long they took.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use pfp_baselines::{FlowPredictor, GenerativePredictor, MethodId, Prediction};
use pfp_core::dataset::RawSample;
use pfp_math::Matrix;
use pfp_optim::SmoothObjective;

/// A [`SmoothObjective`] that times every evaluation of the one it wraps.
pub struct TimedObjective<O> {
    inner: O,
    calls: Cell<u64>,
    busy: Cell<Duration>,
}

impl<O: SmoothObjective> TimedObjective<O> {
    pub fn new(inner: O) -> Self {
        Self {
            inner,
            calls: Cell::new(0),
            busy: Cell::new(Duration::ZERO),
        }
    }

    /// Evaluations (value, gradient or fused) made so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Time spent inside the wrapped objective.
    pub fn busy(&self) -> Duration {
        self.busy.get()
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.busy.set(self.busy.get() + t0.elapsed());
        self.calls.set(self.calls.get() + 1);
        out
    }
}

impl<O: SmoothObjective> SmoothObjective for TimedObjective<O> {
    fn value(&self, theta: &Matrix) -> f64 {
        self.timed(|| self.inner.value(theta))
    }

    fn gradient(&self, theta: &Matrix, grad: &mut Matrix) {
        self.timed(|| self.inner.gradient(theta, grad))
    }

    fn value_and_gradient(&self, theta: &Matrix, grad: &mut Matrix) -> f64 {
        self.timed(|| self.inner.value_and_gradient(theta, grad))
    }

    fn shape(&self) -> (usize, usize) {
        self.inner.shape()
    }

    fn row_curvature_bounds(&self) -> Option<Vec<f64>> {
        self.inner.row_curvature_bounds()
    }
}

/// A [`GenerativePredictor`] that counts every distribution query of the one
/// it wraps and, when timing, times each and keeps every `keep_every`-th
/// query sample so the featurizer and the model can later be timed apart on
/// real rollout inputs.
pub struct TimedPredictor<'a, P> {
    inner: &'a P,
    timing: bool,
    keep_every: u64,
    calls: Cell<u64>,
    busy: Cell<Duration>,
    kept: RefCell<Vec<RawSample>>,
}

impl<'a, P: GenerativePredictor> TimedPredictor<'a, P> {
    /// Count and time every query; `keep_every == 0` keeps no samples.
    pub fn new(inner: &'a P, keep_every: u64) -> Self {
        Self {
            inner,
            timing: true,
            keep_every,
            calls: Cell::new(0),
            busy: Cell::new(Duration::ZERO),
            kept: RefCell::new(Vec::new()),
        }
    }

    /// Count queries only: no clock reads, no kept samples.
    pub fn counting(inner: &'a P) -> Self {
        Self {
            timing: false,
            ..Self::new(inner, 0)
        }
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    pub fn busy(&self) -> Duration {
        self.busy.get()
    }

    pub fn take_kept(&self) -> Vec<RawSample> {
        self.kept.take()
    }
}

impl<P: GenerativePredictor> FlowPredictor for TimedPredictor<'_, P> {
    fn method(&self) -> MethodId {
        self.inner.method()
    }

    fn predict_sample(&self, sample: &RawSample) -> Prediction {
        self.inner.predict_sample(sample)
    }
}

impl<P: GenerativePredictor> GenerativePredictor for TimedPredictor<'_, P> {
    fn predict_distribution(&self, sample: &RawSample) -> (Vec<f64>, Vec<f64>) {
        let call = self.calls.get();
        self.calls.set(call + 1);
        if !self.timing {
            return self.inner.predict_distribution(sample);
        }
        if self.keep_every > 0 && call % self.keep_every == 0 {
            self.kept.borrow_mut().push(sample.clone());
        }
        let t0 = Instant::now();
        let out = self.inner.predict_distribution(sample);
        self.busy.set(self.busy.get() + t0.elapsed());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use crate::train::solve_traced;
    use pfp_baselines::DmcpPredictor;
    use pfp_core::{train_warm, Dataset, ImbalanceStrategy, TrainConfig};
    use pfp_ehr::{generate_cohort, CohortConfig};
    use pfp_eval::scenario::{forecast_census, AdmissionModel, ForecastConfig, Scenario};

    fn dataset() -> Dataset {
        Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(5)))
    }

    #[test]
    fn a_timed_objective_changes_no_bit_of_the_trained_model() {
        let ds = dataset();
        for config in [
            TrainConfig::fast().with_threads(2),
            TrainConfig::fast().with_imbalance(ImbalanceStrategy::synthetic()),
        ] {
            let plain = train_warm(&ds, &config, None).unwrap();
            let (timed, stats, _) = solve_traced(&ds, &config, &Tracer::new(true));
            assert_eq!(timed.theta, plain.model.theta);
            assert_eq!(timed.selection, plain.model.selection);
            assert_eq!(stats.passes, plain.evaluations as u64);
            assert_eq!(stats.outer_iters, plain.outer_iterations as u64);
            assert_eq!(
                stats.final_objective.to_bits(),
                plain.final_objective.to_bits()
            );
            assert!(stats.objective_s > 0.0 && stats.objective_s <= stats.solve_s);
        }
    }

    #[test]
    fn a_timed_predictor_changes_no_bit_of_the_forecast() {
        let ds = dataset();
        let (train, test) = ds.split_holdout(0.3, 5);
        let model = train_warm(&train, &TrainConfig::fast(), None)
            .unwrap()
            .model;
        let predictor = DmcpPredictor::from_model(model, MethodId::Dmcp);
        let config = ForecastConfig {
            rollouts: 3,
            seed: 9,
            admissions: Some(AdmissionModel::for_cohort(test.patients.len(), 7)),
            ..ForecastConfig::default()
        };
        let plain = forecast_census(&predictor, &test, &Scenario::baseline(), &config);
        let timed = TimedPredictor::new(&predictor, 4);
        let wrapped = forecast_census(&timed, &test, &Scenario::baseline(), &config);
        assert_eq!(plain, wrapped);
        assert!(timed.calls() > 0);
        assert_eq!(timed.take_kept().len() as u64, timed.calls().div_ceil(4));
        let counting = TimedPredictor::counting(&predictor);
        let counted = forecast_census(&counting, &test, &Scenario::baseline(), &config);
        assert_eq!(plain, counted);
        assert_eq!(counting.calls(), timed.calls());
        assert!(counting.busy().is_zero() && counting.take_kept().is_empty());
    }
}
