//! The history-dependent feature map `f_t` of Eq. 4.
//!
//! For the mutually-correcting process the conditional intensity is
//! `λ_c(t) = exp(θ_c⊤ f_t)` with
//!
//! ```text
//! f_t = [ f_0ᵀ · g(t),  ( Σ_{stays k with entry time τ_k ≤ t} h(t, τ_k) · f_k )ᵀ ]ᵀ
//! ```
//!
//! The same map, with different `(g, h)`, also produces the feature vectors
//! of the LR / MPP / SCP baselines, so the only difference between those
//! methods and DMCP in the experiments is the kernel — exactly the ablation
//! the paper performs:
//!
//! | method | g(t)            | h(t, τ)                  | history used |
//! |--------|-----------------|--------------------------|--------------|
//! | LR     | 1               | —                        | current stay only |
//! | MPP    | 1               | 1                        | all stays |
//! | SCP    | t               | 1                        | all stays |
//! | DMCP   | t − t_I         | exp(−(t−τ)²/σ²)          | all stays |
//!
//! ### Evaluation-time convention
//!
//! The paper evaluates the intensities at the previous transition time
//! `t_{i−1}`.  We evaluate at `t_eval = entry time of the current stay + δ`
//! with a fixed offset `δ = 0.5` days (services are ordered early in a stay),
//! and take `t_I` to be the entry time of the *previous* stay (0 for the
//! first stay).  The fixed offset carries no information about the labels, so
//! there is no leakage of the duration target, while `t − t_I` still reflects
//! the pace of the patient's recent transitions.

use pfp_math::SparseVec;
use serde::{Deserialize, Serialize};

/// Fixed evaluation offset δ (days) into the current stay.
pub const EVAL_OFFSET_DAYS: f64 = 0.5;

/// Which `(g, h)` pair the featurizer uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FeatureMapKind {
    /// Current-stay features only (`g = 1`, no history): the LR baseline.
    CurrentOnly,
    /// Modulated Poisson: `g = 1`, `h = 1`.
    ModulatedPoisson,
    /// Self-correcting: `g = t`, `h = 1`.
    SelfCorrecting,
    /// Mutually-correcting: `g = t − t_I`, `h = exp(−(t−τ)²/σ²)`.
    MutuallyCorrecting {
        /// Gaussian bandwidth σ (the paper uses the cohort mean dwell time).
        sigma: f64,
    },
}

impl FeatureMapKind {
    /// Short label used by experiment reports.
    pub fn label(&self) -> &'static str {
        match self {
            FeatureMapKind::CurrentOnly => "LR",
            FeatureMapKind::ModulatedPoisson => "MPP",
            FeatureMapKind::SelfCorrecting => "SCP",
            FeatureMapKind::MutuallyCorrecting { .. } => "DMCP",
        }
    }
}

/// Configuration of the mutually-correcting feature map.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct McpConfig {
    /// Gaussian bandwidth σ of the historical-influence kernel.
    pub sigma: f64,
}

impl McpConfig {
    /// The paper's recommendation: σ = mean dwell time of the cohort.
    ///
    /// # Panics
    /// Panics if `sigma` is not positive.
    pub fn with_sigma(sigma: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        Self { sigma }
    }

    /// The corresponding feature-map kind.
    pub fn kind(&self) -> FeatureMapKind {
        FeatureMapKind::MutuallyCorrecting { sigma: self.sigma }
    }
}

/// A snapshot of one historical stay as seen by the featurizer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistoryStay {
    /// Entry time of the stay (days since admission).
    pub entry_time: f64,
    /// Service features recorded during the stay.
    pub services: SparseVec,
}

/// Builds combined feature vectors from a patient's profile and stay history.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HistoryFeaturizer {
    /// Which `(g, h)` pair to use.
    pub kind: FeatureMapKind,
    /// Dimension of the profile block.
    pub profile_dim: usize,
    /// Dimension of the time-varying (service) block.
    pub service_dim: usize,
}

impl HistoryFeaturizer {
    /// Create a featurizer for the given feature-map kind and block sizes.
    ///
    /// # Panics
    /// Panics if a mutually-correcting `kind` has a non-positive σ.
    pub fn new(kind: FeatureMapKind, profile_dim: usize, service_dim: usize) -> Self {
        if let FeatureMapKind::MutuallyCorrecting { sigma } = kind {
            assert!(sigma > 0.0, "sigma must be positive");
        }
        Self {
            kind,
            profile_dim,
            service_dim,
        }
    }

    /// Total dimension `M` of the combined feature vector.
    pub fn total_dim(&self) -> usize {
        self.profile_dim + self.service_dim
    }

    /// The base-rate modulation `g(t)`.
    fn g(&self, t_eval: f64, t_prev: f64) -> f64 {
        match self.kind {
            FeatureMapKind::CurrentOnly | FeatureMapKind::ModulatedPoisson => 1.0,
            FeatureMapKind::SelfCorrecting => t_eval,
            FeatureMapKind::MutuallyCorrecting { .. } => (t_eval - t_prev).max(0.0),
        }
    }

    /// The historical decay `h(t, τ)`.
    fn h(&self, t_eval: f64, tau: f64) -> f64 {
        match self.kind {
            FeatureMapKind::CurrentOnly
            | FeatureMapKind::ModulatedPoisson
            | FeatureMapKind::SelfCorrecting => 1.0,
            FeatureMapKind::MutuallyCorrecting { sigma } => {
                let z = (t_eval - tau) / sigma;
                (-(z * z)).exp()
            }
        }
    }

    /// Build `f_t` for a prediction made at `t_eval`.
    ///
    /// * `profile` — the patient's time-invariant features `f_0`.
    /// * `history` — every stay whose entry time is ≤ `t_eval`, oldest first
    ///   (the last element is the *current* stay).
    /// * `t_prev` — entry time of the previous stay (0 for the first stay),
    ///   i.e. the `t_I` of the paper.
    ///
    /// The weighted entries are pushed in arrival order (profile, then each
    /// stay oldest first) into one buffer sized for all of them, then sorted
    /// and merged by [`SparseVec::from_pairs`], whose stable sort sums an
    /// index's contributions oldest stay first.
    ///
    /// # Panics
    /// Panics (debug) if block dimensions do not match.
    pub fn featurize(
        &self,
        profile: &SparseVec,
        history: &[HistoryStay],
        t_eval: f64,
        t_prev: f64,
    ) -> SparseVec {
        debug_assert_eq!(profile.dim(), self.profile_dim);
        // Service block: decayed sum over history (or just the current stay
        // for the LR map).
        let relevant: &[HistoryStay] = match self.kind {
            FeatureMapKind::CurrentOnly => &history[history.len().saturating_sub(1)..],
            _ => history,
        };
        // Profile block, scaled by g(t).
        let g = self.g(t_eval, t_prev);
        let profile_len = if g != 0.0 { profile.nnz() } else { 0 };
        let services_len: usize = relevant.iter().map(|s| s.services.nnz()).sum();
        let mut pairs = Vec::with_capacity(profile_len + services_len);
        if g != 0.0 {
            pairs.extend(profile.iter().map(|(idx, v)| (idx, g * v)));
        }
        let offset = self.profile_dim as u32;
        for stay in relevant {
            debug_assert_eq!(stay.services.dim(), self.service_dim);
            debug_assert!(
                stay.entry_time <= t_eval + 1e-9,
                "history must precede t_eval"
            );
            let w = self.h(t_eval, stay.entry_time);
            if w != 0.0 {
                pairs.extend(stay.services.iter().map(|(idx, v)| (offset + idx, w * v)));
            }
        }
        SparseVec::from_pairs(self.total_dim(), pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The featurizer's former body, kept as the oracle `featurize` must
    /// match bitwise: one binary search and `Vec::insert` per entry, every
    /// index's contributions summed in arrival order, zeros pruned last.
    fn featurize_by_insertion(
        f: &HistoryFeaturizer,
        profile: &SparseVec,
        history: &[HistoryStay],
        t_eval: f64,
        t_prev: f64,
    ) -> SparseVec {
        let mut combined = SparseVec::new(f.total_dim());
        let g = f.g(t_eval, t_prev);
        if g != 0.0 {
            for (idx, v) in profile.iter() {
                combined.add(idx, g * v);
            }
        }
        let relevant = match f.kind {
            FeatureMapKind::CurrentOnly => &history[history.len().saturating_sub(1)..],
            _ => history,
        };
        for stay in relevant {
            let w = f.h(t_eval, stay.entry_time);
            if w == 0.0 {
                continue;
            }
            for (idx, v) in stay.services.iter() {
                combined.add(f.profile_dim as u32 + idx, w * v);
            }
        }
        combined.prune_zeros();
        combined
    }

    /// Values whose sums cancel to exact zeros and round differently by
    /// order, so a reordered or unpruned sum changes the bits.
    const VALUES: [f64; 6] = [1.0, -1.0, 0.5, -0.25, 3.0, 1e16];

    fn sparse(dim: usize, entries: &[(u32, usize)]) -> SparseVec {
        SparseVec::from_pairs(dim, entries.iter().map(|&(i, v)| (i, VALUES[v])))
    }

    proptest! {
        /// `featurize` equals the insert-per-entry oracle bit for bit under
        /// every feature map, on histories whose stays repeat each other's
        /// indices, with zero kernel weights (a tiny σ underflows
        /// `exp(−z²)`) and `g = 0` (`t_prev ≥ t_eval`).
        #[test]
        fn featurize_matches_the_insertion_oracle_bitwise(
            kind in 0u8..4,
            sigma in 0.01f64..4.0,
            profile in proptest::collection::vec((0u32..6, 0usize..6), 0..8),
            stays in proptest::collection::vec(
                (0.0f64..40.0, proptest::collection::vec((0u32..9, 0usize..6), 0..10)),
                0..6,
            ),
            t_prev_mode in 0u8..3,
        ) {
            let kind = match kind {
                0 => FeatureMapKind::CurrentOnly,
                1 => FeatureMapKind::ModulatedPoisson,
                2 => FeatureMapKind::SelfCorrecting,
                _ => FeatureMapKind::MutuallyCorrecting { sigma },
            };
            let f = HistoryFeaturizer::new(kind, 6, 9);
            let profile = sparse(6, &profile);
            let mut history: Vec<HistoryStay> = stays
                .iter()
                .map(|(t, entries)| HistoryStay { entry_time: *t, services: sparse(9, entries) })
                .collect();
            history.sort_by(|a, b| a.entry_time.total_cmp(&b.entry_time));
            let t_eval = history.last().map_or(0.0, |s| s.entry_time) + EVAL_OFFSET_DAYS;
            let t_prev = match t_prev_mode {
                0 => t_eval,
                1 => 0.0,
                _ => history.iter().rev().nth(1).map_or(0.0, |s| s.entry_time),
            };
            let got = f.featurize(&profile, &history, t_eval, t_prev);
            let expected = featurize_by_insertion(&f, &profile, &history, t_eval, t_prev);
            prop_assert_eq!(got.indices(), expected.indices());
            let bits = |v: &SparseVec| v.values().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&expected));
            prop_assert!(got.values().iter().all(|&v| v != 0.0), "unpruned zero");
        }
    }

    fn profile() -> SparseVec {
        SparseVec::binary(4, vec![0, 2])
    }

    fn history() -> Vec<HistoryStay> {
        vec![
            HistoryStay {
                entry_time: 0.0,
                services: SparseVec::binary(6, vec![1]),
            },
            HistoryStay {
                entry_time: 3.0,
                services: SparseVec::binary(6, vec![1, 4]),
            },
        ]
    }

    #[test]
    fn current_only_uses_last_stay_unweighted() {
        let f = HistoryFeaturizer::new(FeatureMapKind::CurrentOnly, 4, 6);
        let v = f.featurize(&profile(), &history(), 3.5, 0.0);
        assert_eq!(v.dim(), 10);
        assert_eq!(v.get(0), 1.0);
        assert_eq!(v.get(2), 1.0);
        // Only the current stay's services, weight 1.
        assert_eq!(v.get(4 + 1), 1.0);
        assert_eq!(v.get(4 + 4), 1.0);
    }

    #[test]
    fn modulated_poisson_sums_all_history() {
        let f = HistoryFeaturizer::new(FeatureMapKind::ModulatedPoisson, 4, 6);
        let v = f.featurize(&profile(), &history(), 3.5, 0.0);
        // Service index 1 appears in both stays: summed to 2.
        assert_eq!(v.get(4 + 1), 2.0);
        assert_eq!(v.get(4 + 4), 1.0);
        assert_eq!(v.get(0), 1.0);
    }

    #[test]
    fn self_correcting_scales_profile_by_absolute_time() {
        let f = HistoryFeaturizer::new(FeatureMapKind::SelfCorrecting, 4, 6);
        let v = f.featurize(&profile(), &history(), 5.0, 3.0);
        assert_eq!(v.get(0), 5.0);
        assert_eq!(v.get(2), 5.0);
        assert_eq!(v.get(4 + 1), 2.0);
    }

    #[test]
    fn mutually_correcting_decays_older_stays() {
        let f = HistoryFeaturizer::new(FeatureMapKind::MutuallyCorrecting { sigma: 2.0 }, 4, 6);
        let t_eval = 3.5;
        let v = f.featurize(&profile(), &history(), t_eval, 3.0);
        // Profile scaled by t − t_I = 0.5.
        assert!((v.get(0) - 0.5).abs() < 1e-12);
        // Index 4 (only in the recent stay, τ = 3.0): weight exp(−(0.5/2)²).
        let w_recent = (-(0.25_f64 * 0.25)).exp();
        assert!((v.get(4 + 4) - w_recent).abs() < 1e-12);
        // Index 1 appears in both stays; the old stay (τ = 0) is strongly decayed.
        let w_old = (-((3.5_f64 / 2.0) * (3.5 / 2.0))).exp();
        assert!((v.get(4 + 1) - (w_recent + w_old)).abs() < 1e-12);
        assert!(v.get(4 + 1) < 2.0);
    }

    #[test]
    fn empty_history_gives_profile_only_features() {
        let f = HistoryFeaturizer::new(FeatureMapKind::ModulatedPoisson, 4, 6);
        let v = f.featurize(&profile(), &[], 1.0, 0.0);
        assert_eq!(v.nnz(), 2);
    }

    #[test]
    fn mcp_with_zero_elapsed_time_drops_profile_block() {
        let f = HistoryFeaturizer::new(FeatureMapKind::MutuallyCorrecting { sigma: 1.0 }, 4, 6);
        let v = f.featurize(&profile(), &history(), 3.0, 3.0);
        assert_eq!(v.get(0), 0.0);
        assert!(v.get(4 + 1) > 0.0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FeatureMapKind::CurrentOnly.label(), "LR");
        assert_eq!(
            FeatureMapKind::MutuallyCorrecting { sigma: 1.0 }.label(),
            "DMCP"
        );
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn rejects_non_positive_sigma() {
        let _ = HistoryFeaturizer::new(FeatureMapKind::MutuallyCorrecting { sigma: 0.0 }, 2, 2);
    }

    #[test]
    fn mcp_config_roundtrip() {
        let cfg = McpConfig::with_sigma(4.2);
        match cfg.kind() {
            FeatureMapKind::MutuallyCorrecting { sigma } => assert!((sigma - 4.2).abs() < 1e-12),
            _ => panic!("wrong kind"),
        }
    }
}
