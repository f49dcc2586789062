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

use std::cell::RefCell;
use std::ops::Range;

use pfp_ehr::patient::Stay;
use pfp_math::{CsrMatrix, SparseVec};
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

/// One weighted stay's service run.
struct Run<'a> {
    weight: f64,
    indices: &'a [u32],
    values: &'a [f64],
}

/// Runs a featurized row merges without a heap allocation; a longer history
/// (a long simulated trajectory) puts its runs in a `Vec`.
const STACK_RUNS: usize = 8;

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
    ///   (the last element is the *current* stay); only entry times and
    ///   services are read.
    /// * `t_prev` — entry time of the previous stay (0 for the first stay),
    ///   i.e. the `t_I` of the paper.
    ///
    /// The row is [`featurize_into`](Self::featurize_into)'s, built in a
    /// per-thread buffer and copied out at its exact size.
    ///
    /// # Panics
    /// Panics (debug) if block dimensions do not match.
    pub fn featurize(
        &self,
        profile: &SparseVec,
        history: &[Stay],
        t_eval: f64,
        t_prev: f64,
    ) -> SparseVec {
        thread_local! {
            static ROW: RefCell<(Vec<u32>, Vec<f64>)> = const {
                RefCell::new((Vec::new(), Vec::new()))
            };
        }
        ROW.with(|row| {
            let (indices, values) = &mut *row.borrow_mut();
            indices.clear();
            values.clear();
            self.merge_row(profile, history, t_eval, t_prev, indices, values);
            SparseVec::from_sorted_parts(self.total_dim(), indices.to_vec(), values.to_vec())
        })
    }

    /// Append `f_t`, as [`featurize`](Self::featurize) builds it, as the next
    /// row of `rows`.
    ///
    /// The profile run and the stays' service runs are each sorted already,
    /// so the row is built from them without a sort: the profile block first
    /// (its indices lie below every service index), then the weighted
    /// service runs, in which an index's contributions are summed oldest
    /// stay first and an exact zero sum is dropped.  That is the entry order
    /// and sum order a stable sort of all the weighted entries would give,
    /// so the bits are those of [`SparseVec::from_pairs`] on them.
    ///
    /// A single run is copied through.  Two or more are added, oldest
    /// first, into a per-thread dense slot array with an occupancy bitmap:
    /// an index's first contribution is stored as it is and each later one
    /// added to the slot, so every sum is the same sequence of additions a
    /// k-way merge of the runs makes.  The set bits of the bitmap words the
    /// runs span are then emitted in increasing index order, which is the
    /// merge's output order, and cleared, and a sum that is exactly zero
    /// (`+0.0` or `−0.0`) is dropped, as the merge drops it.  A row costs
    /// one add per entry and one scan of the spanned words, where a k-way
    /// merge scans every run's head per output entry.
    ///
    /// # Panics
    /// Panics if `rows` is not [`total_dim`](Self::total_dim) wide, and
    /// (debug) if block dimensions do not match.
    pub fn featurize_into(
        &self,
        profile: &SparseVec,
        history: &[Stay],
        t_eval: f64,
        t_prev: f64,
        rows: &mut CsrMatrix,
    ) {
        assert_eq!(rows.dim(), self.total_dim(), "row dimensionality mismatch");
        rows.push_row_with(|indices, values| {
            self.merge_row(profile, history, t_eval, t_prev, indices, values)
        });
    }

    /// The merge behind [`featurize_into`](Self::featurize_into), appending
    /// the row's entries to `indices` and `values`.
    fn merge_row(
        &self,
        profile: &SparseVec,
        history: &[Stay],
        t_eval: f64,
        t_prev: f64,
        indices: &mut Vec<u32>,
        values: &mut Vec<f64>,
    ) {
        debug_assert_eq!(profile.dim(), self.profile_dim);
        // Profile block, scaled by g(t).
        let g = self.g(t_eval, t_prev);
        if g != 0.0 {
            for (idx, v) in profile.iter() {
                let x = g * v;
                if x != 0.0 {
                    indices.push(idx);
                    values.push(x);
                }
            }
        }
        // Service block: decayed sum over history (or just the current stay
        // for the LR map).
        let relevant = match self.kind {
            FeatureMapKind::CurrentOnly => &history[history.len().saturating_sub(1)..],
            _ => history,
        };
        let runs = relevant.iter().filter_map(|stay| {
            debug_assert_eq!(stay.services.dim(), self.service_dim);
            debug_assert!(
                stay.entry_time <= t_eval + 1e-9,
                "history must precede t_eval"
            );
            let weight = self.h(t_eval, stay.entry_time);
            (weight != 0.0).then(|| Run {
                weight,
                indices: stay.services.indices(),
                values: stay.services.values(),
            })
        });
        let offset = self.profile_dim as u32;
        if relevant.len() <= STACK_RUNS {
            let mut stack: [Run; STACK_RUNS] = std::array::from_fn(|_| Run {
                weight: 0.0,
                indices: &[],
                values: &[],
            });
            let mut len = 0;
            for run in runs {
                stack[len] = run;
                len += 1;
            }
            merge_runs(&stack[..len], self.service_dim, offset, indices, values);
        } else {
            let runs = runs.collect::<Vec<_>>();
            merge_runs(&runs, self.service_dim, offset, indices, values);
        }
    }
}

/// Merge weighted sorted runs of `dim`-wide vectors into `indices` /
/// `values` (shifted by `offset`): each index once, in increasing order, its
/// weighted contributions summed in run order, exact zero sums dropped.
///
/// One run is copied through.  Two or more are added, in run order, into
/// the calling thread's [`Accumulator`], which then emits its occupied slots
/// in index order.
fn merge_runs(
    runs: &[Run],
    dim: usize,
    offset: u32,
    indices: &mut Vec<u32>,
    values: &mut Vec<f64>,
) {
    match runs {
        [] => {}
        [run] => {
            for (&idx, &v) in run.indices.iter().zip(run.values) {
                let x = run.weight * v;
                if x != 0.0 {
                    indices.push(offset + idx);
                    values.push(x);
                }
            }
        }
        _ => ACCUMULATOR.with(|accumulator| {
            let accumulator = &mut *accumulator.borrow_mut();
            accumulator.fit(dim);
            let (mut first, mut end) = (usize::MAX, 0);
            for words in runs.iter().filter_map(|run| accumulator.add(run)) {
                first = first.min(words.start);
                end = end.max(words.end);
            }
            accumulator.emit(first..end, offset, indices, values);
        }),
    }
}

/// A dense sum of weighted runs: one slot per index, and an occupancy
/// bitmap whose bit `i` (word `i / 64`) is set while slot `i` holds a sum.
/// Between merges every bit is clear and the slots hold stale sums, each
/// overwritten by its index's first contribution, so neither depends on
/// the dimension or the row merged before.
///
/// Each index's contributions are summed in run order starting from the
/// first one as it is (not added to `+0.0`), the set bits are emitted in
/// increasing index order, and a sum that is exactly zero is dropped: the
/// additions, order and pruning of a k-way merge of the runs, so its bits.
struct Accumulator {
    slots: Vec<f64>,
    occupied: Vec<u64>,
}

thread_local! {
    static ACCUMULATOR: RefCell<Accumulator> = const {
        RefCell::new(Accumulator {
            slots: Vec::new(),
            occupied: Vec::new(),
        })
    };
}

impl Accumulator {
    /// Hold at least `len` slots.
    fn fit(&mut self, len: usize) {
        if len > self.slots.len() {
            self.slots.resize(len, 0.0);
            self.occupied.resize(len.div_ceil(64), 0);
        }
    }

    /// Add `run`'s weighted entries, growing the slots to its last index,
    /// and return the bitmap words it touched (none for an empty run).
    fn add(&mut self, run: &Run) -> Option<Range<usize>> {
        let (&first, &last) = (run.indices.first()?, run.indices.last()?);
        let last = last as usize;
        self.fit(last + 1);
        for (&idx, &v) in run.indices.iter().zip(run.values) {
            let x = run.weight * v;
            let (word, bit) = (idx as usize / 64, 1u64 << (idx % 64));
            let slot = &mut self.slots[idx as usize];
            *slot = if self.occupied[word] & bit != 0 {
                *slot + x
            } else {
                x
            };
            self.occupied[word] |= bit;
        }
        Some(first as usize / 64..last / 64 + 1)
    }

    /// Append the nonzero sums of the occupied slots in bitmap `words`, in
    /// index order shifted by `offset`, clearing their bits.
    fn emit(
        &mut self,
        words: Range<usize>,
        offset: u32,
        indices: &mut Vec<u32>,
        values: &mut Vec<f64>,
    ) {
        for w in words {
            let mut word = std::mem::take(&mut self.occupied[w]);
            while word != 0 {
                let idx = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let sum = self.slots[idx];
                if sum != 0.0 {
                    indices.push(offset + idx as u32);
                    values.push(sum);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A stay entered at `entry_time` with `services`; the featurizer reads
    /// nothing else of it.
    fn stay_at(entry_time: f64, services: SparseVec) -> Stay {
        Stay {
            cu: 0,
            entry_time,
            dwell_days: 1.0,
            services,
        }
    }

    /// The featurizer's former body, kept as the oracle `featurize` must
    /// match bitwise: one binary search and `Vec::insert` per entry, every
    /// index's contributions summed in arrival order, zeros pruned last.
    fn featurize_by_insertion(
        f: &HistoryFeaturizer,
        profile: &SparseVec,
        history: &[Stay],
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
    /// order, so a reordered or unpruned sum changes the bits; then signed
    /// zeros and subnormals, which a weight below one can round to zero.
    const VALUES: [f64; 10] = [
        1.0,
        -1.0,
        0.5,
        -0.25,
        3.0,
        1e16,
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 4.0,
        -5e-324,
    ];

    /// Profile values: the first six [`VALUES`] (a profile's zeros are
    /// pruned by [`SparseVec::from_pairs`] anyway).
    fn sparse(dim: usize, entries: &[(u32, usize)]) -> SparseVec {
        SparseVec::from_pairs(dim, entries.iter().map(|&(i, v)| (i, VALUES[v % 6])))
    }

    /// Service indices of the wide featurizer: each side of the first two
    /// bitmap word boundaries, a few others, and the last index.
    const WIDE_INDICES: [u32; 11] = [0, 1, 5, 62, 63, 64, 65, 126, 127, 128, WIDE - 1];
    const WIDE: u32 = 130;
    const NARROW: u32 = 9;

    /// A stay's services as stored, zeros and subnormals included: one
    /// entry per distinct index (the last listed value wins), index `k`
    /// mapped by `index`.
    fn services(dim: u32, entries: &[(usize, usize)], index: impl Fn(usize) -> u32) -> SparseVec {
        let stored: std::collections::BTreeMap<u32, f64> = entries
            .iter()
            .map(|&(k, v)| (index(k), VALUES[v]))
            .collect();
        SparseVec::from_sorted_parts(
            dim as usize,
            stored.keys().copied().collect(),
            stored.values().copied().collect(),
        )
    }

    /// `featurize`, and `featurize_into` appending a row after an earlier
    /// one, equal the insert-per-entry oracle bit for bit, and keep no zero.
    fn check_against_the_oracle(
        f: &HistoryFeaturizer,
        profile: &SparseVec,
        history: &[Stay],
        t_eval: f64,
        t_prev: f64,
    ) -> Result<(), TestCaseError> {
        let got = f.featurize(profile, history, t_eval, t_prev);
        let expected = featurize_by_insertion(f, profile, history, t_eval, t_prev);
        prop_assert_eq!(got.indices(), expected.indices());
        let bits = |v: &SparseVec| v.values().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&expected));
        prop_assert!(got.values().iter().all(|&v| v != 0.0), "unpruned zero");

        // The CSR entry point appends the same row after an earlier one and
        // leaves that one be.
        let earlier = sparse(f.total_dim(), &[(2, 0), (f.total_dim() as u32 - 1, 4)]);
        let mut rows = CsrMatrix::from_rows(f.total_dim(), [&earlier]);
        f.featurize_into(profile, history, t_eval, t_prev, &mut rows);
        prop_assert_eq!(rows.rows(), 2);
        let entry_bits = |entries: Vec<(u32, f64)>| {
            entries
                .into_iter()
                .map(|(i, v)| (i, v.to_bits()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(
            rows.row_entries(0).collect::<Vec<_>>(),
            earlier.iter().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            entry_bits(rows.row_entries(1).collect()),
            entry_bits(expected.iter().collect())
        );
        Ok(())
    }

    proptest! {
        /// The featurizer equals the insert-per-entry oracle bit for bit
        /// under every feature map, on histories whose stays repeat each
        /// other's indices and share entry times (so equal kernel weights
        /// cancel opposite values to exact zeros), store signed zeros and
        /// subnormals, hit both sides of the merge bitmap's word boundaries
        /// and the last index, with zero kernel weights (a tiny σ underflows
        /// `exp(−z²)`), `g = 0` (`t_prev ≥ t_eval`), and more stays than the
        /// merge keeps on the stack.  One thread alternates a narrow and a
        /// wide featurizer, case after case, so a merge that left state
        /// behind for the next row would show.
        #[test]
        fn featurize_matches_the_insertion_oracle_bitwise(
            kind in 0u8..4,
            sigma in 0.01f64..4.0,
            profile in proptest::collection::vec((0u32..6, 0usize..6), 0..8),
            stays in proptest::collection::vec(
                (0u8..24, proptest::collection::vec((0usize..11, 0usize..10), 0..12)),
                0..STACK_RUNS + 3,
            ),
            t_prev_mode in 0u8..3,
        ) {
            let kind = match kind {
                0 => FeatureMapKind::CurrentOnly,
                1 => FeatureMapKind::ModulatedPoisson,
                2 => FeatureMapKind::SelfCorrecting,
                _ => FeatureMapKind::MutuallyCorrecting { sigma },
            };
            let profile = sparse(6, &profile);
            let mut stays = stays;
            stays.sort_by_key(|&(t, _)| t);
            let t_eval = stays.last().map_or(0.0, |&(t, _)| f64::from(t)) + EVAL_OFFSET_DAYS;
            let t_prev = match t_prev_mode {
                0 => t_eval,
                1 => 0.0,
                _ => stays.iter().rev().nth(1).map_or(0.0, |&(t, _)| f64::from(t)),
            };
            let history = |dim: u32, index: &dyn Fn(usize) -> u32| -> Vec<Stay> {
                stays
                    .iter()
                    .map(|(t, entries)| stay_at(f64::from(*t), services(dim, entries, index)))
                    .collect()
            };
            let narrow = history(NARROW, &|k| k as u32 % NARROW);
            let wide = history(WIDE, &|k| WIDE_INDICES[k]);
            let f_narrow = HistoryFeaturizer::new(kind, 6, NARROW as usize);
            let f_wide = HistoryFeaturizer::new(kind, 6, WIDE as usize);
            check_against_the_oracle(&f_wide, &profile, &wide, t_eval, t_prev)?;
            check_against_the_oracle(&f_narrow, &profile, &narrow, t_eval, t_prev)?;
            check_against_the_oracle(&f_wide, &profile, &wide, t_eval, t_prev)?;
        }
    }

    /// The cases the property test draws at random, fixed: sums at both
    /// sides of the bitmap word boundaries and at the last index that cancel
    /// to `+0.0` and `−0.0`, an index whose first contribution is `−0.0`, a
    /// subnormal sum, and a history longer than the merge's stack.
    #[test]
    fn dense_merge_drops_exact_zero_sums_at_word_boundaries() {
        let last = WIDE - 1;
        let stay = |entries: &[(u32, f64)]| {
            stay_at(
                1.0,
                SparseVec::from_sorted_parts(
                    WIDE as usize,
                    entries.iter().map(|&(i, _)| i).collect(),
                    entries.iter().map(|&(_, v)| v).collect(),
                ),
            )
        };
        let tiny = f64::MIN_POSITIVE / 4.0;
        let mut history = vec![
            stay(&[
                (0, -0.0),
                (63, 1.0),
                (64, 2.0),
                (127, -0.0),
                (128, tiny),
                (last, 1.0),
            ]),
            stay(&[(0, 4.0), (63, -1.0), (64, 0.5), (127, -0.0), (last, -1.0)]),
            stay(&[(64, -2.5), (128, tiny)]),
        ];
        let f = HistoryFeaturizer::new(FeatureMapKind::ModulatedPoisson, 6, WIDE as usize);
        let profile = SparseVec::new(6);
        let row = f.featurize(&profile, &history, 1.5, 0.0);
        let expected = featurize_by_insertion(&f, &profile, &history, 1.5, 0.0);
        assert_eq!(row.indices(), &[6, 6 + 128]);
        assert_eq!(row.values(), &[4.0, 2.0 * tiny]);
        assert_eq!(row.indices(), expected.indices());
        assert_eq!(row.values(), expected.values());

        history.extend((0..STACK_RUNS).map(|k| stay(&[(63, 1.0), (last, -(k as f64))])));
        let row = f.featurize(&profile, &history, 1.5, 0.0);
        let expected = featurize_by_insertion(&f, &profile, &history, 1.5, 0.0);
        let bits = |v: &SparseVec| v.values().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(row.indices(), expected.indices());
        assert_eq!(bits(&row), bits(&expected));
        assert_eq!(row.get(6 + 63), STACK_RUNS as f64);
    }

    fn profile() -> SparseVec {
        SparseVec::binary(4, vec![0, 2])
    }

    fn history() -> Vec<Stay> {
        vec![
            stay_at(0.0, SparseVec::binary(6, vec![1])),
            stay_at(3.0, SparseVec::binary(6, vec![1, 4])),
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
