//! Generatively-trained multivariate Hawkes process.
//!
//! The HP baseline of the paper (Section 4.1) learns a parametric Hawkes
//! process by maximum likelihood over whole event sequences — in contrast to
//! the discriminative learning of DMCP.  This module implements the standard
//! exponential-kernel multivariate Hawkes process
//!
//! ```text
//! λ_k(t) = μ_k + Σ_{t_i < t} a_{k, m_i} · ω · exp(−ω (t − t_i))
//! ```
//!
//! with `μ ≥ 0`, `A = [a_{k,j}] ≥ 0`, fitted by the standard EM
//! (branching-structure) updates, which increase the likelihood monotonically
//! and keep every parameter non-negative without projections.
//! [`MultivariateHawkes::simulate`] samples a subcritical model exactly; the
//! what-if engine draws its admission stream with it.

use pfp_math::rng::{bernoulli, exponential, sample_categorical};
use pfp_math::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::event::{Event, EventSequence};

/// Hyper-parameters of the Hawkes MLE fit.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HawkesFitConfig {
    /// Exponential decay rate `ω` of the excitation kernel (held fixed).
    pub decay: f64,
    /// Maximum number of EM iterations.
    pub max_iters: usize,
    /// Stop when the relative log-likelihood improvement drops below this.
    pub tolerance: f64,
}

impl Default for HawkesFitConfig {
    fn default() -> Self {
        Self {
            decay: 1.0,
            max_iters: 200,
            tolerance: 1e-6,
        }
    }
}

/// A fitted multivariate Hawkes process.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultivariateHawkes {
    mu: Vec<f64>,
    adjacency: Matrix,
    decay: f64,
}

impl MultivariateHawkes {
    /// Construct directly from parameters (the admission stream and tests).
    pub fn new(mu: Vec<f64>, adjacency: Matrix, decay: f64) -> Self {
        let k = mu.len();
        assert!(k > 0, "at least one mark required");
        assert_eq!(adjacency.shape(), (k, k), "adjacency must be K×K");
        assert!(decay > 0.0, "decay must be positive");
        assert!(
            mu.iter().all(|&m| m >= 0.0),
            "base rates must be non-negative"
        );
        Self {
            mu,
            adjacency,
            decay,
        }
    }

    /// Base rates `μ`.
    pub fn mu(&self) -> &[f64] {
        &self.mu
    }

    /// Excitation matrix `A` (`a_{k,j}` = influence of mark `j` on mark `k`).
    pub fn adjacency(&self) -> &Matrix {
        &self.adjacency
    }

    /// Kernel decay rate `ω`.
    pub fn decay(&self) -> f64 {
        self.decay
    }

    /// Number of marks.
    pub fn num_marks(&self) -> usize {
        self.mu.len()
    }

    /// Conditional intensity of mark `k` at time `t` given the events of
    /// `seq` strictly before `t`.
    pub fn intensity(&self, k: usize, t: f64, seq: &EventSequence) -> f64 {
        let mut lambda = self.mu[k];
        for e in seq.history_before(t) {
            lambda +=
                self.adjacency.get(k, e.mark) * self.decay * (-(self.decay) * (t - e.time)).exp();
        }
        lambda.max(1e-12)
    }

    /// `∫_a^b λ_k(s) ds` given the (fixed) history of `seq` before `a`.
    ///
    /// Exact under the exponential kernel when no new events occur in `[a, b]`.
    pub fn integrated_intensity(&self, k: usize, a: f64, b: f64, seq: &EventSequence) -> f64 {
        assert!(b >= a, "integration bounds must be ordered");
        let mut acc = self.mu[k] * (b - a);
        for e in seq.history_before(a) {
            let decay_a = (-(self.decay) * (a - e.time)).exp();
            let decay_b = (-(self.decay) * (b - e.time)).exp();
            acc += self.adjacency.get(k, e.mark) * (decay_a - decay_b);
        }
        acc
    }

    /// Exact log-likelihood of a set of sequences under this model.
    pub fn log_likelihood(&self, sequences: &[EventSequence]) -> f64 {
        let k_marks = self.num_marks();
        let omega = self.decay;
        let mut ll = 0.0;
        for seq in sequences {
            assert_eq!(seq.num_marks(), k_marks, "sequence mark count mismatch");
            // Recursive excitation state per source mark.
            let mut excite = vec![0.0_f64; k_marks];
            let mut last_t = 0.0_f64;
            for e in seq.events() {
                let dt = e.time - last_t;
                let decay_factor = (-omega * dt).exp();
                for s in excite.iter_mut() {
                    *s *= decay_factor;
                }
                // λ_{m}(t) = μ_m + Σ_j a_{m,j} ω excite[j]
                let mut lambda = self.mu[e.mark];
                for (j, &s) in excite.iter().enumerate() {
                    lambda += self.adjacency.get(e.mark, j) * omega * s;
                }
                ll += lambda.max(1e-12).ln();
                excite[e.mark] += 1.0;
                last_t = e.time;
            }
            // Compensator term: Σ_k ∫_0^T λ_k.
            let horizon = seq.horizon();
            for k in 0..k_marks {
                ll -= self.mu[k] * horizon;
            }
            for e in seq.events() {
                let remaining = 1.0 - (-omega * (horizon - e.time)).exp();
                for k in 0..k_marks {
                    ll -= self.adjacency.get(k, e.mark) * remaining;
                }
            }
        }
        ll
    }

    /// Fit by EM (branching-structure) updates on the exact log-likelihood.
    ///
    /// Each event is softly attributed either to the background rate of its
    /// mark or to one of the preceding events (the "parent"); the M-step then
    /// re-estimates `μ` and `A` in closed form from those responsibilities.
    /// The updates are monotone in likelihood and keep all parameters
    /// non-negative.
    pub fn fit(
        sequences: &[EventSequence],
        num_marks: usize,
        config: &HawkesFitConfig,
    ) -> FittedHawkes {
        assert!(!sequences.is_empty(), "need at least one sequence to fit");
        let total_time: f64 = sequences.iter().map(|s| s.horizon()).sum();
        let omega = config.decay;
        // Initialise μ at the per-mark empirical rates and A at a small constant.
        let mut mark_counts = vec![0usize; num_marks];
        for seq in sequences {
            for (mark, count) in seq.mark_counts().into_iter().enumerate() {
                mark_counts[mark] += count;
            }
        }
        let init_mu: Vec<f64> = mark_counts
            .iter()
            .map(|&c| (c as f64 / total_time.max(1e-9)).max(1e-6))
            .collect();
        let mut model = MultivariateHawkes::new(
            init_mu,
            Matrix::from_fn(num_marks, num_marks, |_, _| 0.1),
            config.decay,
        );

        let mut prev_ll = model.log_likelihood(sequences);
        let mut ll_trace = vec![prev_ll];
        for _ in 0..config.max_iters {
            let mut mu_resp = vec![0.0_f64; num_marks];
            let mut a_resp = Matrix::zeros(num_marks, num_marks);
            let mut a_exposure = vec![0.0_f64; num_marks];

            for seq in sequences {
                let events = seq.events();
                let horizon = seq.horizon();
                for (i, e) in events.iter().enumerate() {
                    // λ at the event and the per-parent excitation terms.
                    let mut excitations = Vec::with_capacity(i);
                    let mut lambda = model.mu[e.mark];
                    for parent in &events[..i] {
                        let kern = model.adjacency.get(e.mark, parent.mark)
                            * omega
                            * (-omega * (e.time - parent.time)).exp();
                        excitations.push((parent.mark, kern));
                        lambda += kern;
                    }
                    let lambda = lambda.max(1e-12);
                    mu_resp[e.mark] += model.mu[e.mark] / lambda;
                    for (parent_mark, kern) in excitations {
                        a_resp.add_at(e.mark, parent_mark, kern / lambda);
                    }
                }
                for e in events {
                    a_exposure[e.mark] += 1.0 - (-omega * (horizon - e.time)).exp();
                }
            }

            for (mu, &resp) in model.mu.iter_mut().zip(mu_resp.iter()) {
                *mu = (resp / total_time.max(1e-9)).max(1e-9);
            }
            for k in 0..num_marks {
                for (j, &denom) in a_exposure.iter().enumerate() {
                    let value = if denom > 1e-9 {
                        a_resp.get(k, j) / denom
                    } else {
                        0.0
                    };
                    model.adjacency.set(k, j, value);
                }
            }

            let ll = model.log_likelihood(sequences);
            ll_trace.push(ll);
            let denom = prev_ll.abs().max(1.0);
            if (ll - prev_ll).abs() / denom < config.tolerance {
                prev_ll = ll;
                break;
            }
            prev_ll = ll;
        }
        FittedHawkes {
            model,
            log_likelihood: prev_ll,
            trace: ll_trace,
        }
    }

    /// Draw one sample path on `(0, horizon]` by exact Ogata thinning.
    ///
    /// The sampler keeps each mark's excitation `e_k = ω Σ_{t_i < t}
    /// a_{k,m_i} e^{−ω(t − t_i)}`, so `λ_k = μ_k + e_k`.  Every `e_k` decays
    /// by the same factor `e^{−ωΔt}` between events, so with `A ≥ 0` the
    /// total intensity just after the current time bounds it until the next
    /// event: the bound is exact, with no look-ahead window or safety factor.
    /// A proposal draws one wait and one acceptance, an accepted one draws
    /// its mark, and each costs O(K) with no history scan.
    ///
    /// # Panics
    /// Panics if `horizon` is not positive and finite, or unless `A ≥ 0` and
    /// every column sum of `A` is below 1.  Column `j` sums to the expected
    /// number of children of one mark-`j` event and bounds the spectral
    /// radius of `A`, so the process is subcritical and a path is finite
    /// almost surely.
    pub fn simulate(&self, horizon: f64, rng: &mut impl Rng) -> EventSequence {
        assert!(
            horizon > 0.0 && horizon.is_finite(),
            "horizon must be positive and finite"
        );
        let k_marks = self.num_marks();
        for j in 0..k_marks {
            let column = (0..k_marks).map(|k| self.adjacency.get(k, j));
            let sum: f64 = column.clone().sum();
            assert!(
                column.clone().all(|a| a >= 0.0) && sum < 1.0,
                "simulate needs a subcritical excitation matrix: column {j} of A \
                 must be non-negative and sum below 1, got {sum}"
            );
        }
        let mut excitation = vec![0.0_f64; k_marks];
        let mut lambdas = self.mu.clone();
        let mut events = Vec::new();
        let mut t = 0.0_f64;
        loop {
            let bound: f64 = lambdas.iter().sum();
            if bound <= 0.0 {
                break;
            }
            let dt = exponential(rng, bound);
            t += dt;
            if t > horizon {
                break;
            }
            let factor = (-self.decay * dt).exp();
            for ((lambda, e), &mu) in lambdas.iter_mut().zip(&mut excitation).zip(&self.mu) {
                *e *= factor;
                *lambda = mu + *e;
            }
            if bernoulli(rng, lambdas.iter().sum::<f64>() / bound) {
                let mark = sample_categorical(rng, &lambdas);
                events.push(Event::new(t, mark));
                for (k, ((lambda, e), &mu)) in lambdas
                    .iter_mut()
                    .zip(&mut excitation)
                    .zip(&self.mu)
                    .enumerate()
                {
                    *e += self.adjacency.get(k, mark) * self.decay;
                    *lambda = mu + *e;
                }
            }
        }
        EventSequence::new(events, horizon, k_marks)
    }
}

/// Result of [`MultivariateHawkes::fit`].
#[derive(Debug, Clone)]
pub struct FittedHawkes {
    /// The fitted model.
    pub model: MultivariateHawkes,
    /// Final log-likelihood on the training sequences.
    pub log_likelihood: f64,
    /// Log-likelihood trace across iterations (first entry = initial model).
    pub trace: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use pfp_math::rng::seeded_rng;

    fn toy_sequences() -> Vec<EventSequence> {
        vec![
            EventSequence::new(
                vec![
                    Event::new(1.0, 0),
                    Event::new(1.5, 1),
                    Event::new(4.0, 0),
                    Event::new(4.2, 1),
                ],
                10.0,
                2,
            ),
            EventSequence::new(vec![Event::new(2.0, 1), Event::new(2.2, 0)], 10.0, 2),
        ]
    }

    #[test]
    fn intensity_is_base_rate_with_empty_history() {
        let m = MultivariateHawkes::new(vec![0.3, 0.7], Matrix::zeros(2, 2), 1.0);
        let seq = EventSequence::empty(10.0, 2);
        assert!((m.intensity(0, 5.0, &seq) - 0.3).abs() < 1e-12);
        assert!((m.intensity(1, 5.0, &seq) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn excitation_raises_intensity_after_event() {
        let m = MultivariateHawkes::new(vec![0.1, 0.1], Matrix::from_fn(2, 2, |_, _| 0.5), 1.0);
        let seq = EventSequence::new(vec![Event::new(1.0, 0)], 10.0, 2);
        assert!(m.intensity(1, 1.01, &seq) > 0.1);
        assert!(m.intensity(1, 9.0, &seq) < 0.11);
    }

    #[test]
    fn integrated_intensity_matches_numeric_quadrature() {
        let m = MultivariateHawkes::new(vec![0.2, 0.4], Matrix::from_fn(2, 2, |_, _| 0.3), 0.8);
        let seq = EventSequence::new(vec![Event::new(0.5, 0), Event::new(1.0, 1)], 10.0, 2);
        let exact = m.integrated_intensity(0, 2.0, 5.0, &seq);
        // Trapezoid quadrature.
        let steps = 2_000;
        let h = 3.0 / steps as f64;
        let mut numeric = 0.0;
        for i in 0..steps {
            let a = 2.0 + i as f64 * h;
            numeric += 0.5 * h * (m.intensity(0, a, &seq) + m.intensity(0, a + h, &seq));
        }
        assert!((exact - numeric).abs() < 1e-4, "{exact} vs {numeric}");
    }

    #[test]
    fn log_likelihood_prefers_true_rate_for_poisson_data() {
        // With A = 0 the model is Poisson; the likelihood should peak near the
        // empirical rate.
        let mut rng = seeded_rng(21);
        let poisson = MultivariateHawkes::new(vec![0.5, 0.5], Matrix::zeros(2, 2), 1.0);
        let seqs = vec![poisson.simulate(400.0, &mut rng)];
        let ll = |rate: f64| {
            MultivariateHawkes::new(vec![rate, rate], Matrix::zeros(2, 2), 1.0)
                .log_likelihood(&seqs)
        };
        assert!(ll(0.5) > ll(0.1));
        assert!(ll(0.5) > ll(2.0));
    }

    #[test]
    fn fit_improves_log_likelihood_monotonically_enough() {
        let seqs = toy_sequences();
        let fitted = MultivariateHawkes::fit(
            &seqs,
            2,
            &HawkesFitConfig {
                max_iters: 50,
                ..Default::default()
            },
        );
        assert!(fitted.trace.last().unwrap() >= fitted.trace.first().unwrap());
        assert!(fitted.model.mu().iter().all(|&m| m >= 0.0));
    }

    #[test]
    fn fit_recovers_base_rate_order_of_magnitude() {
        let mut rng = seeded_rng(22);
        let truth = MultivariateHawkes::new(vec![0.3, 0.1], Matrix::from_fn(2, 2, |_, _| 0.2), 1.0);
        let seqs: Vec<EventSequence> = (0..20).map(|_| truth.simulate(100.0, &mut rng)).collect();
        let fitted = MultivariateHawkes::fit(
            &seqs,
            2,
            &HawkesFitConfig {
                max_iters: 150,
                ..Default::default()
            },
        );
        // Mark 0 has the higher base rate in truth; the fit should preserve that ordering.
        assert!(
            fitted.model.mu()[0] > fitted.model.mu()[1],
            "mu = {:?}",
            fitted.model.mu()
        );
    }

    #[test]
    fn simulate_respects_horizon_and_marks() {
        let mut rng = seeded_rng(23);
        let m = MultivariateHawkes::new(vec![0.5, 0.2], Matrix::from_fn(2, 2, |_, _| 0.1), 2.0);
        let seq = m.simulate(50.0, &mut rng);
        assert!(seq.events().iter().all(|e| e.time <= 50.0 && e.mark < 2));
        assert!(!seq.is_empty());
    }

    /// Exact `E[N(T)]` of a stream started empty, with total base rate `μ`
    /// and branching ratio `b` (one mark, or `A = 0`): the mean rate obeys
    /// `m' = ω(μ − (1 − b)m)` from `m(0) = μ`, and this is its integral.
    fn expected_count(mu: f64, b: f64, decay: f64, horizon: f64) -> f64 {
        let r = decay * (1.0 - b);
        mu * horizon / (1.0 - b)
            - mu * b * (1.0 - (-r * horizon).exp()) / (decay * (1.0 - b).powi(2))
    }

    /// Kolmogorov–Smirnov distance between `xs` and the Exp(1) law.
    fn ks_distance_to_exp1(mut xs: Vec<f64>) -> f64 {
        xs.sort_by(f64::total_cmp);
        let n = xs.len() as f64;
        xs.iter()
            .enumerate()
            .map(|(i, &x)| {
                let cdf = 1.0 - (-x).exp();
                (cdf - i as f64 / n).max((i + 1) as f64 / n - cdf)
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn simulate_matches_the_exact_count_rescaled_gaps_and_mark_shares() {
        // (μ, A, ω, seed): one mark at branching 0, 0.3 and 0.8, and two
        // marks with A = 0 and unequal base rates.
        let cases = [
            (vec![2.0], Matrix::zeros(1, 1), 1.0, 41),
            (vec![2.0], Matrix::from_vec(1, 1, vec![0.3]), 1.0, 42),
            (vec![2.0], Matrix::from_vec(1, 1, vec![0.8]), 2.0, 43),
            (vec![0.5, 1.5], Matrix::zeros(2, 2), 1.0, 44),
        ];
        let (horizon, streams, ks_streams) = (20.0, 300, 20);
        for (mu, adjacency, decay, seed) in cases {
            let b = adjacency.get(0, 0);
            let model = MultivariateHawkes::new(mu.clone(), adjacency, decay);
            let mut rng = seeded_rng(seed);
            let paths: Vec<EventSequence> = (0..streams)
                .map(|_| model.simulate(horizon, &mut rng))
                .collect();

            // Mean count within 4 standard errors of the exact expectation.
            let counts: Vec<f64> = paths.iter().map(|p| p.len() as f64).collect();
            let mean = pfp_math::stats::mean(&counts);
            let se = pfp_math::stats::std_dev(&counts) / (streams as f64).sqrt();
            let expected = expected_count(mu.iter().sum(), b, decay, horizon);
            assert!(
                (mean - expected).abs() < 4.0 * se,
                "b = {b}: mean count {mean} vs exact {expected} (se {se})"
            );

            // Time rescaling: the compensator increments between events are
            // i.i.d. Exp(1).  `integrated_intensity` counts the history strictly
            // before its lower bound, so each gap starts one ulp after the
            // event that opens it.
            let mut gaps = Vec::new();
            for path in &paths[..ks_streams] {
                let mut prev = 0.0;
                for e in path.events() {
                    gaps.push(
                        (0..model.num_marks())
                            .map(|k| model.integrated_intensity(k, prev, e.time, path))
                            .sum::<f64>(),
                    );
                    prev = e.time.next_up();
                }
            }
            // 1.95/√n is the KS critical value at the 0.1 % level.
            let d = ks_distance_to_exp1(gaps.clone());
            let critical = 1.95 / (gaps.len() as f64).sqrt();
            assert!(d < critical, "b = {b}: KS distance {d} ≥ {critical}");

            // With A = 0 the marks are independent draws ∝ μ.
            if b == 0.0 && mu.len() > 1 {
                let total: f64 = counts.iter().sum();
                let share_1 =
                    paths.iter().map(|p| p.mark_counts()[1]).sum::<usize>() as f64 / total;
                let p1 = mu[1] / mu.iter().sum::<f64>();
                let tolerance = 4.0 * (p1 * (1.0 - p1) / total).sqrt();
                assert!(
                    (share_1 - p1).abs() < tolerance,
                    "mark-1 share {share_1} vs {p1}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "subcritical excitation matrix")]
    fn simulate_rejects_a_column_sum_of_one_or_more() {
        // Column 0 sums to 1.1: a mark-0 event has 1.1 expected children.
        let m = MultivariateHawkes::new(
            vec![0.1, 0.1],
            Matrix::from_vec(2, 2, vec![0.6, 0.0, 0.5, 0.0]),
            1.0,
        );
        let _ = m.simulate(10.0, &mut seeded_rng(45));
    }

    #[test]
    #[should_panic(expected = "decay must be positive")]
    fn new_rejects_non_positive_decay() {
        let _ = MultivariateHawkes::new(vec![0.1], Matrix::zeros(1, 1), 0.0);
    }
}
