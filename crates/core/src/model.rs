//! The trained DMCP model: conditional probabilities, prediction, and
//! feature-selection introspection.

use pfp_math::softmax::{argmax, softmax};
use pfp_math::{CsrMatrix, Matrix, SparseVec};
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::features::{FeatureMapKind, HistoryFeaturizer, HistoryStay};
use crate::train::{train, TrainConfig};

/// A trained mutually-correcting-process model (or one of its MPP/SCP/LR
/// feature-map ablations — the model structure is identical).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DmcpModel {
    /// Smooth parameter matrix Θ (`M × (C + D)`).
    pub theta: Matrix,
    /// Group-sparse auxiliary matrix X from ADMM (exact zero rows mark
    /// unselected features).  Equal to `theta` when trained without ADMM.
    pub selection: Matrix,
    /// The feature map the model was trained with.
    pub kind: FeatureMapKind,
    /// Profile feature dimension.
    pub profile_dim: usize,
    /// Service feature dimension.
    pub service_dim: usize,
    /// Number of destination classes `C`.
    pub num_cus: usize,
    /// Number of duration classes `D`.
    pub num_durations: usize,
}

impl DmcpModel {
    /// Train a model on a raw dataset, cold ([`crate::train::train`]).
    ///
    /// # Panics
    /// Panics with the [`TrainError`](crate::train::TrainError)'s message if
    /// training refuses the input.
    pub fn train(dataset: &Dataset, config: &TrainConfig) -> DmcpModel {
        train(dataset, config, None)
            .unwrap_or_else(|err| panic!("{err}"))
            .model
    }

    /// Total feature dimension `M`.
    pub fn num_features(&self) -> usize {
        self.profile_dim + self.service_dim
    }

    /// The featurizer matching this model's feature map.
    pub fn featurizer(&self) -> HistoryFeaturizer {
        HistoryFeaturizer::new(self.kind, self.profile_dim, self.service_dim)
    }

    /// Raw linear scores `Θ⊤ f`, split into `(destination, duration)` halves.
    ///
    /// # Panics
    /// Panics if `features` does not have the model's dimension `M`.
    pub fn scores(&self, features: &SparseVec) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(
            features.dim(),
            self.num_features(),
            "feature dimension mismatch"
        );
        let mut all = vec![0.0; self.num_cus + self.num_durations];
        features.accumulate_scores(&self.theta, &mut all);
        let dur = all.split_off(self.num_cus);
        (all, dur)
    }

    /// Conditional intensities `λ_c = exp(θ_c⊤ f)` and `λ_d = exp(θ_d⊤ f)`.
    pub fn intensities(&self, features: &SparseVec) -> (Vec<f64>, Vec<f64>) {
        let (cu, dur) = self.scores(features);
        (
            cu.iter().map(|x| x.exp()).collect(),
            dur.iter().map(|x| x.exp()).collect(),
        )
    }

    /// Conditional class probabilities `p(c | t, H_t)` and `p(d | t, H_t)`
    /// (normalised intensities, Eq. 5).
    pub fn probabilities(&self, features: &SparseVec) -> (Vec<f64>, Vec<f64>) {
        let (cu, dur) = self.scores(features);
        (softmax(&cu), softmax(&dur))
    }

    /// Raw linear scores for a prebuilt CSR block of `k` featurized samples,
    /// written row-major into `out` (`k × (C + D)`, request `i` at
    /// `out[i*(C+D)..(i+1)*(C+D)]`).
    ///
    /// One register-blocked pass over the block performs the same
    /// floating-point operations in the same order as `k` independent
    /// [`DmcpModel::scores`] calls, so the results are bitwise identical to
    /// the per-sample walk.  A 0-row block leaves `out` empty; a 1-row block
    /// degenerates to a single per-sample scoring.
    ///
    /// # Panics
    /// Panics if `block` does not have the model's dimension `M`.
    pub fn scores_block_into(&self, block: &CsrMatrix, out: &mut Vec<f64>) {
        assert_eq!(
            block.dim(),
            self.num_features(),
            "feature dimension mismatch"
        );
        let width = self.num_cus + self.num_durations;
        let k = block.rows();
        out.clear();
        out.resize(k * width, 0.0);
        block.accumulate_scores_range(&self.theta, 0..k, out);
    }

    /// Conditional class probabilities for every row of a prebuilt CSR block:
    /// one `(p(c|·), p(d|·))` pair per sample, in block-row order.
    ///
    /// Bitwise identical to calling [`DmcpModel::probabilities`] on each row
    /// independently (the batched scoring pass is exact, and softmax is
    /// applied per row).
    pub fn probabilities_block(&self, block: &CsrMatrix) -> Vec<(Vec<f64>, Vec<f64>)> {
        let width = self.num_cus + self.num_durations;
        let mut scores = Vec::new();
        self.scores_block_into(block, &mut scores);
        scores
            .chunks_exact(width)
            .map(|row| {
                let (cu, dur) = row.split_at(self.num_cus);
                (softmax(cu), softmax(dur))
            })
            .collect()
    }

    /// MAP prediction `(ĉ, d̂)` for an already-featurized sample.
    pub fn predict(&self, features: &SparseVec) -> (usize, usize) {
        let (cu, dur) = self.scores(features);
        (argmax(&cu), argmax(&dur))
    }

    /// Featurize a raw history and predict `(ĉ, d̂)`.
    pub fn predict_raw(
        &self,
        profile: &SparseVec,
        history: &[HistoryStay],
        t_eval: f64,
        t_prev: f64,
    ) -> (usize, usize) {
        let f = self
            .featurizer()
            .featurize(profile, history, t_eval, t_prev);
        self.predict(&f)
    }

    /// Featurize a raw history and return `(p(c|·), p(d|·))`.
    pub fn probabilities_raw(
        &self,
        profile: &SparseVec,
        history: &[HistoryStay],
        t_eval: f64,
        t_prev: f64,
    ) -> (Vec<f64>, Vec<f64>) {
        let f = self
            .featurizer()
            .featurize(profile, history, t_eval, t_prev);
        self.probabilities(&f)
    }

    /// Featurize a raw history and draw one `(destination, duration)` pair
    /// from the model's conditional distributions (Eq. 5), instead of taking
    /// the argmax: the closed-loop census forecaster rolls the model forward
    /// as a *generative* model with this, so that Monte-Carlo rollouts carry
    /// the model's own predictive uncertainty.
    pub fn sample_raw(
        &self,
        profile: &SparseVec,
        history: &[HistoryStay],
        t_eval: f64,
        t_prev: f64,
        rng: &mut impl rand::Rng,
    ) -> (usize, usize) {
        let (pc, pd) = self.probabilities_raw(profile, history, t_eval, t_prev);
        (
            pfp_math::rng::sample_categorical(rng, &pc),
            pfp_math::rng::sample_categorical(rng, &pd),
        )
    }

    /// Indices of the feature dimensions the group lasso kept (nonzero rows of
    /// the selection matrix).
    pub fn selected_features(&self) -> Vec<usize> {
        (0..self.selection.rows())
            .filter(|&r| self.selection.row(r).iter().any(|&x| x != 0.0))
            .collect()
    }

    /// Number of selected feature dimensions.
    pub fn num_selected(&self) -> usize {
        self.selected_features().len()
    }

    /// Fraction of feature dimensions that were suppressed to zero.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.num_selected() as f64 / self.num_features().max(1) as f64
    }

    /// The `ℓ2` magnitude of each feature row of Θ (used by the Figure 7
    /// feature-selection analysis).
    pub fn feature_magnitudes(&self) -> Vec<f64> {
        (0..self.theta.rows())
            .map(|r| self.theta.row_l2_norm(r))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> DmcpModel {
        // 2 profile dims + 2 service dims, 2 CUs, 2 duration classes.
        // θ hand-crafted so feature 0 votes for CU 0 / duration 0 and
        // feature 2 (first service dim) votes for CU 1 / duration 1.
        let mut theta = Matrix::zeros(4, 4);
        theta.set(0, 0, 2.0);
        theta.set(0, 2, 2.0);
        theta.set(2, 1, 2.0);
        theta.set(2, 3, 2.0);
        let mut selection = theta.clone();
        selection.row_mut(3).iter_mut().for_each(|x| *x = 0.0);
        DmcpModel {
            theta,
            selection,
            kind: FeatureMapKind::ModulatedPoisson,
            profile_dim: 2,
            service_dim: 2,
            num_cus: 2,
            num_durations: 2,
        }
    }

    #[test]
    fn predict_follows_the_strongest_score() {
        let m = tiny_model();
        let f0 = SparseVec::binary(4, vec![0]);
        assert_eq!(m.predict(&f0), (0, 0));
        let f2 = SparseVec::binary(4, vec![2]);
        assert_eq!(m.predict(&f2), (1, 1));
    }

    #[test]
    fn probabilities_are_valid_distributions() {
        let m = tiny_model();
        let (pc, pd) = m.probabilities(&SparseVec::binary(4, vec![0, 2]));
        assert_eq!(pc.len(), 2);
        assert_eq!(pd.len(), 2);
        assert!((pc.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((pd.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn intensities_are_exponential_of_scores() {
        let m = tiny_model();
        let f = SparseVec::binary(4, vec![0]);
        let (scores, _) = m.scores(&f);
        let (lam, _) = m.intensities(&f);
        for (s, l) in scores.iter().zip(lam.iter()) {
            assert!((s.exp() - l).abs() < 1e-12);
            assert!(*l > 0.0);
        }
    }

    #[test]
    fn predict_raw_goes_through_the_featurizer() {
        let m = tiny_model();
        let profile = SparseVec::binary(2, vec![0]);
        let history = vec![HistoryStay {
            entry_time: 0.0,
            services: SparseVec::binary(2, vec![0]),
        }];
        let (c, d) = m.predict_raw(&profile, &history, 1.0, 0.0);
        assert!(c < 2 && d < 2);
    }

    #[test]
    fn sample_raw_tracks_the_conditional_distribution() {
        let m = tiny_model();
        let profile = SparseVec::binary(2, vec![0]);
        let history = vec![HistoryStay {
            entry_time: 0.0,
            services: SparseVec::new(2),
        }];
        let (pc, pd) = m.probabilities_raw(&profile, &history, 1.0, 0.0);
        let mut rng = pfp_math::rng::seeded_rng(7);
        let draws = 20_000;
        let mut cu_counts = [0usize; 2];
        let mut dur_counts = [0usize; 2];
        for _ in 0..draws {
            let (c, d) = m.sample_raw(&profile, &history, 1.0, 0.0, &mut rng);
            cu_counts[c] += 1;
            dur_counts[d] += 1;
        }
        for k in 0..2 {
            let fc = cu_counts[k] as f64 / draws as f64;
            let fd = dur_counts[k] as f64 / draws as f64;
            assert!((fc - pc[k]).abs() < 0.02, "cu {k}: {fc} vs {}", pc[k]);
            assert!((fd - pd[k]).abs() < 0.02, "dur {k}: {fd} vs {}", pd[k]);
        }
    }

    #[test]
    fn sample_raw_is_deterministic_under_a_fixed_seed() {
        let m = tiny_model();
        let profile = SparseVec::binary(2, vec![0]);
        let history = vec![HistoryStay {
            entry_time: 0.0,
            services: SparseVec::binary(2, vec![1]),
        }];
        let draw = |seed| {
            let mut rng = pfp_math::rng::seeded_rng(seed);
            (0..50)
                .map(|_| m.sample_raw(&profile, &history, 1.0, 0.0, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4), "different seeds should diverge");
    }

    #[test]
    fn selection_introspection_counts_zero_rows() {
        let m = tiny_model();
        let selected = m.selected_features();
        assert!(selected.contains(&0) && selected.contains(&2));
        assert!(!selected.contains(&3));
        assert_eq!(m.num_selected(), selected.len());
        assert!((m.sparsity() - (1.0 - selected.len() as f64 / 4.0)).abs() < 1e-12);
    }

    #[test]
    fn feature_magnitudes_have_one_entry_per_feature() {
        let m = tiny_model();
        let mags = m.feature_magnitudes();
        assert_eq!(mags.len(), 4);
        assert!(mags[0] > 0.0);
        assert_eq!(mags[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn scores_reject_wrong_dimension() {
        let m = tiny_model();
        let _ = m.scores(&SparseVec::binary(3, vec![0]));
    }

    #[test]
    fn zero_row_block_scores_to_nothing() {
        let m = tiny_model();
        let block = CsrMatrix::with_dim(4);
        let mut out = vec![99.0; 7]; // stale garbage must be cleared
        m.scores_block_into(&block, &mut out);
        assert!(out.is_empty());
        assert!(m.probabilities_block(&block).is_empty());
    }

    #[test]
    fn one_row_block_matches_the_per_sample_walk_bitwise() {
        let m = tiny_model();
        let f = SparseVec::from_pairs(4, vec![(0, 1.5), (2, -0.25), (3, 0.5)]);
        let block = CsrMatrix::from_rows(4, [&f]);
        let mut out = Vec::new();
        m.scores_block_into(&block, &mut out);
        let (cu, dur) = m.scores(&f);
        let walk: Vec<f64> = cu.iter().chain(dur.iter()).copied().collect();
        assert_eq!(out.len(), walk.len());
        for (b, w) in out.iter().zip(walk.iter()) {
            assert_eq!(b.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn multi_row_block_probabilities_match_per_sample_bitwise() {
        let m = tiny_model();
        let samples = [
            SparseVec::binary(4, vec![0]),
            SparseVec::from_pairs(4, vec![(1, 0.75), (2, 2.0)]),
            SparseVec::binary(4, vec![]),
            SparseVec::from_pairs(4, vec![(0, -1.0), (1, 0.5), (2, 0.25), (3, 3.0)]),
        ];
        let block = CsrMatrix::from_rows(4, samples.iter());
        let batched = m.probabilities_block(&block);
        assert_eq!(batched.len(), samples.len());
        for (f, (bc, bd)) in samples.iter().zip(batched.iter()) {
            let (pc, pd) = m.probabilities(f);
            assert_eq!(pc.len(), bc.len());
            assert_eq!(pd.len(), bd.len());
            for (a, b) in pc.iter().zip(bc.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in pd.iter().zip(bd.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn block_scoring_rejects_wrong_dimension() {
        let m = tiny_model();
        let block = CsrMatrix::with_dim(3);
        let mut out = Vec::new();
        m.scores_block_into(&block, &mut out);
    }
}
