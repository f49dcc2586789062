//! Property-based tests on the core numerical components, using proptest.

use proptest::prelude::*;

use patient_flow::core::features::{FeatureMapKind, HistoryFeaturizer};
use patient_flow::ehr::departments::{duration_class, NUM_DURATION_CLASSES};
use patient_flow::ehr::patient::Stay;
use patient_flow::math::dense::solve_linear_system;
use patient_flow::math::softmax::{
    argmax, cross_entropy, cross_entropy_softmax_in_place, softmax, softmax_in_place,
};
use patient_flow::math::{Matrix, SparseVec};
use patient_flow::optim::prox::{group_soft_threshold, prox_group_lasso};

proptest! {
    /// Softmax output is a probability distribution and preserves the argmax.
    #[test]
    fn softmax_is_a_distribution(scores in proptest::collection::vec(-50.0f64..50.0, 1..20)) {
        let p = softmax(&scores);
        let sum: f64 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        prop_assert_eq!(argmax(&p), argmax(&scores));
    }

    /// Softmax probabilities are invariant under adding a constant to every
    /// score (the normaliser absorbs the shift).
    #[test]
    fn softmax_is_invariant_under_constant_shift(
        scores in proptest::collection::vec(-50.0f64..50.0, 1..20),
        shift in -25.0f64..25.0,
    ) {
        let p = softmax(&scores);
        let shifted: Vec<f64> = scores.iter().map(|s| s + shift).collect();
        let q = softmax(&shifted);
        for (a, b) in p.iter().zip(q.iter()) {
            prop_assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
        }
    }

    /// Cross entropy is non-negative and shift-invariant.
    #[test]
    fn cross_entropy_properties(
        scores in proptest::collection::vec(-20.0f64..20.0, 2..10),
        shift in -10.0f64..10.0,
    ) {
        let target = 0usize;
        let ce = cross_entropy(&scores, target);
        prop_assert!(ce >= -1e-12);
        let shifted: Vec<f64> = scores.iter().map(|s| s + shift).collect();
        prop_assert!((cross_entropy(&shifted, target) - ce).abs() < 1e-8);
    }

    /// The fused softmax head (one log-sum-exp) gives the same bits as
    /// `cross_entropy` followed by `softmax_in_place`, on random rows of up
    /// to ±700 magnitude, one-class heads, rows with some `-∞` scores and
    /// all-`-∞` rows (NaN loss, uniform probabilities).
    #[test]
    fn fused_softmax_head_matches_the_two_call_form_bitwise(
        scores in proptest::collection::vec(-700.0f64..700.0, 1..20),
        target_seed in 0usize..1000,
        shape in 0u8..4,
    ) {
        let mut scores = scores;
        match shape {
            1 => scores.truncate(1),
            2 => scores.iter_mut().step_by(2).for_each(|s| *s = f64::NEG_INFINITY),
            3 => scores.iter_mut().for_each(|s| *s = f64::NEG_INFINITY),
            _ => {}
        }
        let target = target_seed % scores.len();
        let loss = cross_entropy(&scores, target);
        let mut probs = scores.clone();
        softmax_in_place(&mut probs);
        let mut fused = scores.clone();
        let fused_loss = cross_entropy_softmax_in_place(&mut fused, target);
        prop_assert_eq!(fused_loss.to_bits(), loss.to_bits());
        for (f, p) in fused.iter().zip(&probs) {
            prop_assert_eq!(f.to_bits(), p.to_bits());
        }
        if shape == 3 {
            prop_assert!(fused_loss.is_nan());
            prop_assert!(fused.iter().all(|&p| p == 1.0 / scores.len() as f64));
        }
    }

    /// The group soft-threshold never increases the norm and zeroes small rows.
    #[test]
    fn group_soft_threshold_shrinks(
        v in proptest::collection::vec(-100.0f64..100.0, 1..16),
        tau in 0.0f64..50.0,
    ) {
        let before: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        let mut w = v.clone();
        group_soft_threshold(&mut w, tau);
        let after: f64 = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        prop_assert!(after <= before + 1e-9);
        if before <= tau {
            prop_assert!(w.iter().all(|&x| x == 0.0));
        } else {
            prop_assert!((after - (before - tau)).abs() < 1e-6);
        }
    }

    /// The matrix prox operator is non-expansive.
    #[test]
    fn prox_is_non_expansive(
        a in proptest::collection::vec(-10.0f64..10.0, 12),
        b in proptest::collection::vec(-10.0f64..10.0, 12),
        tau in 0.0f64..5.0,
    ) {
        let ma = Matrix::from_vec(4, 3, a);
        let mb = Matrix::from_vec(4, 3, b);
        let pa = prox_group_lasso(&ma, tau);
        let pb = prox_group_lasso(&mb, tau);
        prop_assert!(pa.sub(&pb).frobenius_norm() <= ma.sub(&mb).frobenius_norm() + 1e-9);
    }

    /// Sparse/dense dot products agree, and scores accumulation matches the
    /// dense transpose-matvec.
    #[test]
    fn sparse_dense_agreement(
        pairs in proptest::collection::vec((0u32..32, -5.0f64..5.0), 0..20),
        theta_vals in proptest::collection::vec(-2.0f64..2.0, 32 * 3),
    ) {
        let v = SparseVec::from_pairs(32, pairs);
        let theta = Matrix::from_vec(32, 3, theta_vals);
        let mut scores = vec![0.0; 3];
        v.accumulate_scores(&theta, &mut scores);
        let dense = theta.matvec_t(&v.to_dense());
        for (s, d) in scores.iter().zip(dense.iter()) {
            prop_assert!((s - d).abs() < 1e-9);
        }
    }

    /// Sparse-vector dot products against dense operands match the fully
    /// dense arithmetic, and `Matrix::matvec` agrees with a sparse
    /// row-by-row accumulation of the same product.
    #[test]
    fn dense_and_sparse_matvec_agree(
        pairs in proptest::collection::vec((0u32..24, -5.0f64..5.0), 0..16),
        matrix_vals in proptest::collection::vec(-3.0f64..3.0, 24 * 4),
    ) {
        let v = SparseVec::from_pairs(24, pairs);
        let dense_v = v.to_dense();

        // dot_dense == the plain dense inner product.
        let expected_dot: f64 = dense_v.iter().zip(dense_v.iter()).map(|(a, b)| a * b).sum();
        prop_assert!((v.dot_dense(&dense_v) - expected_dot).abs() < 1e-9);

        // A^T v via the sparse path == A^T v via the dense path.
        let a = Matrix::from_vec(24, 4, matrix_vals);
        let dense_result = a.matvec_t(&dense_v);
        let mut sparse_result = vec![0.0; 4];
        v.accumulate_scores(&a, &mut sparse_result);
        for (s, d) in sparse_result.iter().zip(dense_result.iter()) {
            prop_assert!((s - d).abs() < 1e-9, "{} vs {}", s, d);
        }
    }

    /// Duration classes are always in range and monotone in the dwell time.
    #[test]
    fn duration_class_is_bounded_and_monotone(a in 0.01f64..40.0, b in 0.01f64..40.0) {
        let ca = duration_class(a);
        let cb = duration_class(b);
        prop_assert!(ca < NUM_DURATION_CLASSES && cb < NUM_DURATION_CLASSES);
        if a <= b {
            prop_assert!(ca <= cb);
        }
    }

    /// The featurizer output dimension never depends on the history content,
    /// and every stored value is finite.
    #[test]
    fn featurizer_dimension_invariant(
        profile_idx in proptest::collection::vec(0u32..16, 0..8),
        service_idx in proptest::collection::vec(0u32..24, 0..10),
        t_gap in 0.0f64..30.0,
        sigma in 0.5f64..10.0,
    ) {
        let featurizer = HistoryFeaturizer::new(
            FeatureMapKind::MutuallyCorrecting { sigma },
            16,
            24,
        );
        let profile = SparseVec::binary(16, profile_idx);
        let history = vec![
            Stay { cu: 0, entry_time: 0.0, dwell_days: t_gap, services: SparseVec::binary(24, service_idx.clone()) },
            Stay { cu: 1, entry_time: t_gap, dwell_days: 1.0, services: SparseVec::binary(24, service_idx) },
        ];
        let f = featurizer.featurize(&profile, &history, t_gap + 0.5, 0.0);
        prop_assert_eq!(f.dim(), 40);
        for (_, v) in f.iter() {
            prop_assert!(v.is_finite());
        }
    }

    /// Solving a well-conditioned diagonal-dominant system reproduces A·x = b.
    #[test]
    fn linear_solver_residual_is_small(
        vals in proptest::collection::vec(-1.0f64..1.0, 9),
        x in proptest::collection::vec(-5.0f64..5.0, 3),
    ) {
        let mut a = Matrix::from_vec(3, 3, vals);
        for i in 0..3 {
            a.add_at(i, i, 5.0); // force diagonal dominance / invertibility
        }
        let b = a.matvec(&x);
        let solved = solve_linear_system(&a, &b).expect("diagonally dominant systems are solvable");
        let residual = a.matvec(&solved);
        for (r, t) in residual.iter().zip(b.iter()) {
            prop_assert!((r - t).abs() < 1e-6);
        }
    }
}
