//! Parametric conditional-intensity families (Table 3 of the paper).
//!
//! Every family is an instance of the generalised form of Eq. 3:
//!
//! ```text
//! λ_k(t) = f( α_k · g(t)  −  Σ_{t_i < t} β_{k, m_i} · h(t, t_i) )
//! ```
//!
//! | model                | f(x)   | g(t)      | h(t, t')              | constraints |
//! |----------------------|--------|-----------|------------------------|-------------|
//! | modulated Poisson    | x      | 1         | 1                      | β ≤ 0 ≤ α  |
//! | Hawkes               | x      | 1         | exp(−w (t−t'))         | β ≤ 0 ≤ α  |
//! | self-correcting      | exp(x) | t         | 1                      | α, β ≥ 0   |
//! | mutually-correcting  | exp(x) | t − t_I   | exp(−(t−t')²/σ²)       | none        |
//!
//! The scalar version (one mark) reproduces Figure 3.

use pfp_math::Matrix;
use serde::{Deserialize, Serialize};

use crate::event::Event;

/// Which parametric family from Table 3 is being used.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum KernelKind {
    /// `f(x) = x`, `g = 1`, `h = 1`.
    ModulatedPoisson,
    /// `f(x) = x`, `g = 1`, `h = exp(−w (t − t'))`.
    Hawkes {
        /// Exponential decay rate `w` of the excitation kernel.
        decay: f64,
    },
    /// `f(x) = exp(x)`, `g(t) = t`, `h = 1`.
    SelfCorrecting,
    /// `f(x) = exp(x)`, `g(t) = t − t_I`, `h = exp(−(t−t')²/σ²)`.
    MutuallyCorrecting {
        /// Bandwidth `σ` of the Gaussian decay of historical influence.
        sigma: f64,
    },
}

impl KernelKind {
    /// The link function `f(·)` applied to the linear predictor.
    ///
    /// For the identity-link families the result is clamped at a small
    /// positive floor so the value is a valid intensity even when the
    /// unconstrained parameterisation dips below zero.
    pub fn link(&self, x: f64) -> f64 {
        match self {
            KernelKind::ModulatedPoisson | KernelKind::Hawkes { .. } => x.max(1e-12),
            KernelKind::SelfCorrecting | KernelKind::MutuallyCorrecting { .. } => x.exp(),
        }
    }

    /// The base-rate time modulation `g(t)`; `t_last` is the time of the most
    /// recent event before `t` (only used by the mutually-correcting family).
    pub fn g(&self, t: f64, t_last: f64) -> f64 {
        match self {
            KernelKind::ModulatedPoisson | KernelKind::Hawkes { .. } => 1.0,
            KernelKind::SelfCorrecting => t,
            KernelKind::MutuallyCorrecting { .. } => t - t_last,
        }
    }

    /// The historical influence decay `h(t, t')`.
    pub fn h(&self, t: f64, t_prev: f64) -> f64 {
        match self {
            KernelKind::ModulatedPoisson | KernelKind::SelfCorrecting => 1.0,
            KernelKind::Hawkes { decay } => (-(decay) * (t - t_prev)).exp(),
            KernelKind::MutuallyCorrecting { sigma } => {
                let z = (t - t_prev) / sigma;
                (-(z * z)).exp()
            }
        }
    }

    /// Human-readable label (used by the Figure 3 reproduction binary).
    pub fn label(&self) -> &'static str {
        match self {
            KernelKind::ModulatedPoisson => "Modulated Poisson",
            KernelKind::Hawkes { .. } => "Hawkes",
            KernelKind::SelfCorrecting => "Self-correcting",
            KernelKind::MutuallyCorrecting { .. } => "Mutually-correcting",
        }
    }
}

/// A multivariate parametric intensity with `K` marks.
///
/// `alpha[k]` is the base-rate weight of mark `k`; `beta.get(k, j)` is the
/// influence of a historical event with mark `j` on the intensity of mark `k`
/// (positive values *suppress*, matching the minus sign in Eq. 3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParametricIntensity {
    kind: KernelKind,
    alpha: Vec<f64>,
    beta: Matrix,
}

impl ParametricIntensity {
    /// Build a multivariate intensity.
    ///
    /// # Panics
    /// Panics if `beta` is not `K × K` where `K = alpha.len()`.
    pub fn new(kind: KernelKind, alpha: Vec<f64>, beta: Matrix) -> Self {
        let k = alpha.len();
        assert!(k > 0, "at least one mark is required");
        assert_eq!(beta.shape(), (k, k), "beta must be K×K");
        Self { kind, alpha, beta }
    }

    /// Scalar (single-mark) intensity — used for the Figure 3 comparison.
    pub fn scalar(kind: KernelKind, alpha: f64, beta: f64) -> Self {
        Self::new(kind, vec![alpha], Matrix::from_vec(1, 1, vec![beta]))
    }

    /// Which family this intensity belongs to.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Number of marks `K`.
    pub fn num_marks(&self) -> usize {
        self.alpha.len()
    }

    /// Conditional intensity of mark `k` at time `t` given `history`
    /// (all events with `time < t`).
    pub fn intensity(&self, k: usize, t: f64, history: &[Event]) -> f64 {
        assert!(k < self.num_marks(), "mark {k} out of range");
        let t_last = history.last().map(|e| e.time).unwrap_or(0.0);
        let mut x = self.alpha[k] * self.kind.g(t, t_last);
        for e in history {
            if e.time < t {
                x -= self.beta.get(k, e.mark) * self.kind.h(t, e.time);
            }
        }
        self.kind.link(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn history() -> Vec<Event> {
        vec![Event::new(1.0, 0), Event::new(2.0, 1)]
    }

    #[test]
    fn modulated_poisson_is_piecewise_constant_between_events() {
        let pi = ParametricIntensity::new(
            KernelKind::ModulatedPoisson,
            vec![5.0, 5.0],
            Matrix::from_vec(2, 2, vec![-1.0, -1.0, -1.0, -1.0]),
        );
        let h = history();
        // λ = 5 + #history regardless of t (β = −1 adds +1 per event).
        assert!((pi.intensity(0, 2.5, &h) - 7.0).abs() < 1e-12);
        assert!((pi.intensity(0, 3.7, &h) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn hawkes_excitation_decays_towards_base_rate() {
        let pi = ParametricIntensity::new(
            KernelKind::Hawkes { decay: 1.0 },
            vec![1.0, 1.0],
            Matrix::from_vec(2, 2, vec![-2.0; 4]),
        );
        let h = history();
        let just_after = pi.intensity(0, 2.01, &h);
        let later = pi.intensity(0, 8.0, &h);
        assert!(just_after > later, "{just_after} vs {later}");
        assert!(later > 1.0);
        assert!((later - 1.0) < 0.01);
    }

    #[test]
    fn self_correcting_increases_between_events_and_drops_after_event() {
        let pi = ParametricIntensity::new(
            KernelKind::SelfCorrecting,
            vec![1.0],
            Matrix::from_vec(1, 1, vec![1.0]),
        );
        let none: Vec<Event> = vec![];
        let one = vec![Event::new(2.0, 0)];
        // Increasing in t with fixed history.
        assert!(pi.intensity(0, 1.9, &none) > pi.intensity(0, 1.0, &none));
        // Drops by factor e^{-β} right after an event.
        let before = pi.intensity(0, 2.0, &none);
        let after = pi.intensity(0, 2.0 + 1e-9, &one);
        assert!((after / before - (-1.0_f64).exp()).abs() < 1e-6);
    }

    #[test]
    fn mutually_correcting_allows_rise_and_fall_between_events() {
        // Negative beta => historical events *increase* intensity, and the
        // Gaussian kernel makes that boost fade, so the intensity can both
        // rise (right after an event) and fall (as the boost decays) between
        // events — the flexibility highlighted in Fig. 3.
        let pi = ParametricIntensity::new(
            KernelKind::MutuallyCorrecting { sigma: 1.0 },
            vec![0.2],
            Matrix::from_vec(1, 1, vec![-2.0]),
        );
        let h = vec![Event::new(2.0, 0)];
        let near = pi.intensity(0, 2.1, &h);
        let far = pi.intensity(0, 5.0, &h);
        assert!(near > far, "boost should decay: {near} vs {far}");
        assert!(pi.intensity(0, 2.1, &h) > 0.0);
    }

    #[test]
    fn identity_link_clamps_negative_predictor() {
        let pi = ParametricIntensity::new(
            KernelKind::ModulatedPoisson,
            vec![0.0],
            Matrix::from_vec(1, 1, vec![10.0]),
        );
        let h = vec![Event::new(0.5, 0)];
        assert!(pi.intensity(0, 1.0, &h) > 0.0);
        assert!(pi.intensity(0, 1.0, &h) <= 1e-12);
    }

    #[test]
    fn kernel_labels_are_distinct() {
        let labels = [
            KernelKind::ModulatedPoisson.label(),
            KernelKind::Hawkes { decay: 1.0 }.label(),
            KernelKind::SelfCorrecting.label(),
            KernelKind::MutuallyCorrecting { sigma: 1.0 }.label(),
        ];
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), 4);
    }

    #[test]
    #[should_panic(expected = "beta must be K×K")]
    fn new_rejects_mismatched_beta() {
        let _ = ParametricIntensity::new(
            KernelKind::SelfCorrecting,
            vec![1.0, 2.0],
            Matrix::zeros(1, 1),
        );
    }
}
