//! Numerically-stable softmax utilities.
//!
//! The discriminative DMCP objective (Eq. 6 of the paper) is a pair of
//! categorical cross-entropies over the normalised conditional intensities
//! `λ_c(t)/Σ λ_{c'}(t)`.  With the mutually-correcting intensity
//! `λ_c(t) = exp(θ_c⊤ f_t)` this is exactly a softmax over the linear scores,
//! so the implementation works in log-space throughout.
//!
//! # Kernel determinism contract
//!
//! Every softmax here is one head of one kernel body,
//! [`cross_entropy_softmax_rows`], or its log-sum-exp half
//! ([`log_sum_exp`]).  Per head it performs the operations of the textbook
//! two-pass form, in its order:
//!
//! 1. `m` = the head's max, a left fold of `f64::max` from `−∞` (so NaN
//!    scores are skipped);
//! 2. if `m` is finite, `lse = m + ln(Σ_j exp(x_j − m))`, the sum in index
//!    order and `ln` a libm call; otherwise `lse = m`;
//! 3. the loss `−(x_target − lse)`, then `p_j = exp(x_j − lse)`, or the
//!    uniform `1/n` when `lse` is not finite (see
//!    [`cross_entropy_softmax_in_place`]).
//!
//! Only `exp` is vectorized, and it keeps libm's bits:
//!
//! * **The port.**  On x86-64 the `exp` lanes are a line-for-line port of the
//!   FMA build of glibc's `exp` (Arm optimized-routines, 128-entry table,
//!   MIT OR Apache-2.0 WITH LLVM-exception), which is what `f64::exp` calls
//!   on a glibc host with AVX2 and FMA.  The port fuses exactly where that
//!   binary fuses: `x·InvLn2N + Shift`, the two-step reduction
//!   `r = (x + kd·NegLn2hiN) + kd·NegLn2loN`, the three polynomial steps and
//!   the final `scale·tmp + scale`.  No other operation of any kernel here
//!   fuses, and Rust never contracts `a * b + c` on its own.
//! * **The table** `T` is glibc's 256-word `__exp_data.tab`, identical in
//!   every glibc from 2.28 on, committed as a `const` array.
//! * **Lanes outside the main range** `2⁻⁵⁴ ≤ |x| < 512`: `|x| < 2⁻⁵⁴`, NaN
//!   and `+∞` take libm's `1 + x` in the vector (the argmax lane, `x − m =
//!   +0`, is one of them); `|x| ≥ 512` and `−∞` call scalar `f64::exp`.
//! * **`ln` stays on libm**: one call per head.
//! * **Instantiations.**  The body is compiled three times: inside an
//!   `avx512f` function with 8-lane `exp`, inside an `avx2,fma` function
//!   with 4-lane `exp`, and portably, where `exp` is `f64::exp` per element.
//!   The widest one the CPU supports runs ([`kernel_path`] names it).  The
//!   unit tests compare every instantiation the CPU can run with `f64::exp`
//!   and with a test-only copy of the per-element two-pass form, bitwise.
//!
//! A host whose `f64::exp` is not glibc's FMA `exp` (another C library, or a
//! CPU without FMA) fails those tests: that is the reference the workspace's
//! golden values were recorded against.

use std::ops::Range;

mod exp;

use exp::{LaneExp, Libm};

/// A softmax computation written once over how it takes `exp` of a chunk of
/// lanes, and run by [`Path::run`] in the instantiation the CPU supports.
trait Kernel {
    type Output;

    fn run<E: LaneExp>(self, exp: E) -> Self::Output;
}

/// One instantiation of the softmax kernels.
#[derive(Clone, Copy)]
enum Path {
    #[cfg(target_arch = "x86_64")]
    Avx512(exp::Avx512),
    #[cfg(target_arch = "x86_64")]
    Avx2Fma(exp::Avx2Fma),
    Portable,
}

impl Path {
    /// The widest instantiation the running CPU supports: AVX-512F, else
    /// AVX2 with FMA, else the portable one (detected once, then cached by
    /// `std`).
    #[inline]
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if let Some(token) = exp::Avx512::detect() {
                return Path::Avx512(token);
            }
            if let Some(token) = exp::Avx2Fma::detect() {
                return Path::Avx2Fma(token);
            }
        }
        Path::Portable
    }

    fn name(self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            Path::Avx512(_) => "avx512",
            #[cfg(target_arch = "x86_64")]
            Path::Avx2Fma(_) => "avx2",
            Path::Portable => "portable",
        }
    }

    #[inline]
    fn run<K: Kernel>(self, kernel: K) -> K::Output {
        match self {
            // SAFETY: the token proves the running CPU supports AVX-512F.
            #[cfg(target_arch = "x86_64")]
            Path::Avx512(token) => unsafe { run_avx512(kernel, token) },
            // SAFETY: the token proves the running CPU supports AVX2 and FMA.
            #[cfg(target_arch = "x86_64")]
            Path::Avx2Fma(token) => unsafe { run_avx2(kernel, token) },
            Path::Portable => kernel.run(Libm),
        }
    }
}

/// [`Kernel::run`] compiled with AVX-512F enabled.
///
/// # Safety
/// The running CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512<K: Kernel>(kernel: K, exp: exp::Avx512) -> K::Output {
    kernel.run(exp)
}

/// [`Kernel::run`] compiled with AVX2 and FMA enabled.
///
/// # Safety
/// The running CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn run_avx2<K: Kernel>(kernel: K, exp: exp::Avx2Fma) -> K::Output {
    kernel.run(exp)
}

/// Which instantiation of the softmax kernels this process runs: `"avx512"`
/// when the CPU supports AVX-512F, else `"avx2"` when it supports AVX2 and
/// FMA, else `"portable"`.
///
/// The choice changes no bit of any result (see the [module docs](self)); it
/// is reported so a timing can name the code that produced it.
///
/// ```
/// assert!(["avx512", "avx2", "portable"].contains(&pfp_math::softmax::kernel_path()));
/// ```
pub fn kernel_path() -> &'static str {
    Path::detect().name()
}

/// Phase 1 of one head, first half: its max, a left fold of `f64::max`
/// from `−∞` (which skips NaN scores).
#[inline(always)]
fn head_max(x: &[f64]) -> f64 {
    x.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Phase 1 of one head, second half: `Σ_j exp(x_j − m)` summed in index
/// order when the max `m` is finite (NaN otherwise, unused by [`log_sum`]).
#[inline(always)]
fn sum_exp<E: LaneExp>(exp: E, x: &[f64], m: f64) -> f64 {
    if !m.is_finite() {
        return f64::NAN;
    }
    let mut sum = -0.0;
    for chunk in x.chunks(E::LANES) {
        for &e in &exp.exp_shifted(chunk, m)[..chunk.len()] {
            sum += e;
        }
    }
    sum
}

/// Phase 2 of one head: `log Σ exp(x_j)` from phase 1's max and sum, or the
/// max itself when it is not finite.
#[inline(always)]
fn log_sum(m: f64, sum: f64) -> f64 {
    if m.is_finite() {
        m + sum.ln()
    } else {
        m
    }
}

/// Phase 3 of one head: replace `x` with `exp(x_j − lse)`, or with the
/// uniform `1/n` when `lse` is not finite.
#[inline(always)]
fn normalize<E: LaneExp>(exp: E, x: &mut [f64], lse: f64) {
    if !lse.is_finite() {
        let n = x.len().max(1) as f64;
        x.iter_mut().for_each(|p| *p = 1.0 / n);
        return;
    }
    for chunk in x.chunks_mut(E::LANES) {
        exp.exp_shifted_in_place(chunk, lse);
    }
}

/// [`log_sum_exp`] as a [`Kernel`].
struct LogSumExp<'a>(&'a [f64]);

impl Kernel for LogSumExp<'_> {
    type Output = f64;

    #[inline(always)]
    fn run<E: LaneExp>(self, exp: E) -> f64 {
        let m = head_max(self.0);
        log_sum(m, sum_exp(exp, self.0, m))
    }
}

/// Rows per tile of [`cross_entropy_softmax_rows`]: each phase runs over a
/// whole tile before the next begins, so the `exp` chunks and `ln` calls of
/// different rows overlap, while a tile's maxima and sums stay on the stack.
const TILE_ROWS: usize = 16;

/// [`cross_entropy_softmax_rows`] as a [`Kernel`].
struct Heads<'a, const H: usize, T, F> {
    block: &'a mut [f64],
    width: usize,
    heads: &'a [Range<usize>; H],
    targets: T,
    finish_row: F,
}

impl<const H: usize, T, F> Kernel for Heads<'_, H, T, F>
where
    T: Fn(usize) -> [usize; H],
    F: FnMut(usize, &mut [f64], [f64; H]),
{
    type Output = ();

    #[inline(always)]
    fn run<E: LaneExp>(self, exp: E) {
        let Heads {
            block,
            width,
            heads,
            targets,
            mut finish_row,
        } = self;
        for (t, tile) in block.chunks_mut(TILE_ROWS * width).enumerate() {
            let rows = tile.len() / width;
            let mut max = [[0.0; H]; TILE_ROWS];
            for (row, m) in tile.chunks_exact(width).zip(&mut max) {
                for (m, head) in m.iter_mut().zip(heads) {
                    *m = head_max(&row[head.clone()]);
                }
            }
            // Each head's sum, until phase 2 turns it into its log-sum-exp.
            let mut lse = [[0.0; H]; TILE_ROWS];
            for ((row, m), s) in tile.chunks_exact(width).zip(&max).zip(&mut lse) {
                for ((s, &m), head) in s.iter_mut().zip(m).zip(heads) {
                    *s = sum_exp(exp, &row[head.clone()], m);
                }
            }
            for (m, s) in max[..rows].iter().zip(&mut lse[..rows]) {
                for (&m, s) in m.iter().zip(s) {
                    *s = log_sum(m, *s);
                }
            }
            for (r, (row, lse)) in tile.chunks_exact_mut(width).zip(&lse).enumerate() {
                let i = t * TILE_ROWS + r;
                let target = targets(i);
                let mut losses = [0.0; H];
                for (h, head) in heads.iter().enumerate() {
                    let x = &mut row[head.clone()];
                    losses[h] = -(x[target[h]] - lse[h]);
                    normalize(exp, x, lse[h]);
                }
                finish_row(i, row, losses);
            }
        }
    }
}

/// `log Σ exp(x_i)` computed stably via the max trick.
///
/// Returns `-∞` for an empty slice.
pub fn log_sum_exp(scores: &[f64]) -> f64 {
    Path::detect().run(LogSumExp(scores))
}

/// Replace `scores` with `softmax(scores)` in place.
///
/// The result sums to 1 (up to floating error) and every entry is in `[0, 1]`.
/// It falls back to uniform where [`cross_entropy_softmax_in_place`] does.
pub fn softmax_in_place(scores: &mut [f64]) {
    if !scores.is_empty() {
        cross_entropy_softmax_in_place(scores, 0);
    }
}

/// Return the cross-entropy of `target` and replace `scores` with
/// `softmax(scores)`, from one log-sum-exp.
///
/// The same bits as [`cross_entropy`]`(scores, target)` followed by
/// [`softmax_in_place`]`(scores)`, which compute the same log-sum-exp twice:
/// the loss is `-(scores[target] − lse)` and each probability is
/// `exp(scores_i − lse)`.  This is one softmax head of the DMCP objective's
/// fused kernel, [`cross_entropy_softmax_rows`].
///
/// **Uniform fallback.**  When `lse` is not finite every probability is
/// `1/n` instead.  That happens when the max is `−∞` (every score `−∞` or
/// NaN: `lse = −∞`), when the max is `+∞` (any score `+∞`: `lse = +∞`), and
/// when a NaN score sits beside a finite max (the sum, and so `lse`, is NaN).
/// The loss is then `−(scores[target] − lse)` as computed: NaN or `±∞`.
///
/// ```
/// use pfp_math::softmax::{cross_entropy, cross_entropy_softmax_in_place, softmax};
///
/// let scores = [0.5, -1.0, 2.0];
/// let mut probs = scores;
/// let loss = cross_entropy_softmax_in_place(&mut probs, 2);
/// assert_eq!(loss.to_bits(), cross_entropy(&scores, 2).to_bits());
/// assert_eq!(probs.to_vec(), softmax(&scores));
/// ```
///
/// # Panics
/// Panics if `target` is out of range.
pub fn cross_entropy_softmax_in_place(scores: &mut [f64], target: usize) -> f64 {
    let n = scores.len();
    let mut loss = 0.0;
    // One head spanning the row (not a vector of the indices `0..n`).
    #[allow(clippy::single_range_in_vec_init)]
    let heads = [0..n];
    cross_entropy_softmax_rows(scores, n, &heads, |_| [target], |_, _, [l]| loss = l);
    loss
}

/// The softmax heads of a block of score rows: for every row `i` of `block`
/// (rows of `width` entries, in order) and every head `h` (a column range of
/// the row), take the cross-entropy of class `targets(i)[h]` and replace the
/// head's scores with their softmax; then call `finish_row(i, row, losses)`
/// with the row's probabilities and per-head losses.  Columns outside every
/// head are left as they are.
///
/// Each head gets the same bits as
/// [`cross_entropy_softmax_in_place`]`(&mut row[heads[h]], targets(i)[h])`
/// (the uniform fallback included).  The phases run over tiles of rows —
/// every head's max and vector `exp(x − m)`, then every head's `ln`, then row
/// by row the losses, the vector `exp(x − lse)` and `finish_row` — which
/// reorders only independent operations; see the [module docs](self).
///
/// ```
/// use pfp_math::softmax::{cross_entropy_softmax_in_place, cross_entropy_softmax_rows};
///
/// let mut block = [0.5, -1.0, 2.0, 0.25, 3.0, 1.0, -2.0, 0.0];
/// let mut expected = block;
/// let mut losses = Vec::new();
/// cross_entropy_softmax_rows(&mut block, 4, &[0..2, 2..4], |i| [i, 1], |_, _, l| losses.push(l));
/// for (i, row) in expected.chunks_exact_mut(4).enumerate() {
///     let (a, b) = row.split_at_mut(2);
///     let l = [cross_entropy_softmax_in_place(a, i), cross_entropy_softmax_in_place(b, 1)];
///     assert_eq!(losses[i], l);
/// }
/// assert_eq!(block, expected);
/// ```
///
/// # Panics
/// Panics if `width` is zero or does not divide `block.len()`, if a head
/// lies outside `0..width`, or if a target is out of its head's range.
pub fn cross_entropy_softmax_rows<const H: usize>(
    block: &mut [f64],
    width: usize,
    heads: &[Range<usize>; H],
    targets: impl Fn(usize) -> [usize; H],
    finish_row: impl FnMut(usize, &mut [f64], [f64; H]),
) {
    assert!(
        width > 0 && block.len().is_multiple_of(width),
        "a block of whole rows"
    );
    Path::detect().run(Heads {
        block,
        width,
        heads,
        targets,
        finish_row,
    });
}

/// Softmax into a freshly-allocated vector.
pub fn softmax(scores: &[f64]) -> Vec<f64> {
    let mut out = scores.to_vec();
    softmax_in_place(&mut out);
    out
}

/// Log-probability of class `target` under a softmax over `scores`.
pub fn log_softmax_at(scores: &[f64], target: usize) -> f64 {
    scores[target] - log_sum_exp(scores)
}

/// Negative log-likelihood of `target` under a softmax over `scores`
/// (categorical cross-entropy for a one-hot label).
pub fn cross_entropy(scores: &[f64], target: usize) -> f64 {
    -log_softmax_at(scores, target)
}

/// Index of the maximum score (ties broken towards the lower index).
pub fn argmax(scores: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in scores.iter().enumerate() {
        if v > scores[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn log_sum_exp_matches_naive_for_small_values() {
        let x: [f64; 3] = [0.1, 0.2, 0.3];
        let naive = x.iter().map(|v| v.exp()).sum::<f64>().ln();
        assert!((log_sum_exp(&x) - naive).abs() < 1e-12);
    }

    #[test]
    fn log_sum_exp_is_stable_for_large_values() {
        let x = [1000.0, 1000.0];
        let v = log_sum_exp(&x);
        assert!(v.is_finite());
        assert!((v - (1000.0 + 2.0_f64.ln())).abs() < 1e-9);
    }

    #[test]
    fn softmax_sums_to_one_and_preserves_order() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let s: f64 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_of_uniform_scores_is_uniform() {
        let p = softmax(&[5.0, 5.0, 5.0, 5.0]);
        for &v in &p {
            assert!((v - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn softmax_handles_all_neg_infinity() {
        let p = softmax(&[f64::NEG_INFINITY, f64::NEG_INFINITY]);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_is_low_for_confident_correct_prediction() {
        let ce_good = cross_entropy(&[10.0, 0.0, 0.0], 0);
        let ce_bad = cross_entropy(&[10.0, 0.0, 0.0], 1);
        assert!(ce_good < 0.01);
        assert!(ce_bad > 5.0);
    }

    #[test]
    fn cross_entropy_of_uniform_is_log_k() {
        let ce = cross_entropy(&[0.0, 0.0, 0.0, 0.0], 2);
        assert!((ce - (4.0_f64).ln()).abs() < 1e-12);
    }

    /// `cross_entropy` then `softmax_in_place`: the two-call form the fused
    /// head must reproduce bit for bit.
    fn two_call(scores: &[f64], target: usize) -> (f64, Vec<f64>) {
        let loss = cross_entropy(scores, target);
        let mut probs = scores.to_vec();
        softmax_in_place(&mut probs);
        (loss, probs)
    }

    fn assert_fused_matches_two_call(scores: &[f64], target: usize) {
        let (loss, probs) = two_call(scores, target);
        let mut fused = scores.to_vec();
        let fused_loss = cross_entropy_softmax_in_place(&mut fused, target);
        assert_eq!(fused_loss.to_bits(), loss.to_bits(), "loss of {scores:?}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fused), bits(&probs), "probabilities of {scores:?}");
    }

    #[test]
    fn fused_head_matches_two_call_form_bitwise() {
        let rows: [&[f64]; 5] = [
            &[0.1, -2.3, 4.7, 0.0, -0.0, 1e-300],
            &[3.0, 3.0, 3.0],
            &[700.0, -700.0, 699.5, -699.9],
            &[-700.0, -700.0, -701.0],
            &[f64::NEG_INFINITY, 1.5, f64::NEG_INFINITY],
        ];
        for row in rows {
            for target in 0..row.len() {
                assert_fused_matches_two_call(row, target);
            }
        }
    }

    #[test]
    fn fused_head_of_one_class_is_zero_loss_and_certainty() {
        assert_fused_matches_two_call(&[-3.25], 0);
        let mut one = [42.0];
        assert_eq!(cross_entropy_softmax_in_place(&mut one, 0), 0.0);
        assert_eq!(one, [1.0]);
    }

    /// An all-`-∞` row has no finite log-sum-exp: the loss is NaN and the
    /// probabilities fall back to uniform, exactly as the two-call form.
    #[test]
    fn fused_head_of_all_neg_infinity_is_nan_loss_and_uniform() {
        let row = [f64::NEG_INFINITY; 4];
        assert_fused_matches_two_call(&row, 1);
        let mut probs = row;
        assert!(cross_entropy_softmax_in_place(&mut probs, 1).is_nan());
        assert_eq!(probs, [0.25; 4]);
    }

    #[test]
    fn argmax_picks_first_of_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[-1.0]), 0);
    }

    /// The uniform fallback fires whenever the log-sum-exp is not finite:
    /// a `+∞` max and a NaN beside a finite max as well as an all-`−∞` row.
    #[test]
    fn uniform_fallback_covers_pos_infinity_and_nan_scores() {
        let rows: [&[f64]; 4] = [
            &[f64::INFINITY, 0.0, 1.0],
            &[2.0, f64::NAN, -1.0],
            &[f64::NAN, f64::NAN, f64::NAN],
            &[f64::NEG_INFINITY, f64::NAN, f64::NEG_INFINITY],
        ];
        for row in rows {
            assert!(!log_sum_exp(row).is_finite(), "{row:?}");
            assert_eq!(softmax(row), vec![1.0 / 3.0; 3], "{row:?}");
            let mut probs = row.to_vec();
            let loss = cross_entropy_softmax_in_place(&mut probs, 0);
            assert!(!loss.is_finite(), "{row:?}");
            assert_eq!(probs, vec![1.0 / 3.0; 3], "{row:?}");
        }
        assert_eq!(log_sum_exp(&[f64::INFINITY, 0.0]), f64::INFINITY);
        assert_eq!(
            log_sum_exp(&[f64::NAN, f64::NEG_INFINITY]),
            f64::NEG_INFINITY
        );
        assert!(log_sum_exp(&[1.0, f64::NAN]).is_nan());
    }

    /// The two-pass head as it was written before the block kernel, with
    /// one libm `exp` call per element: the oracle every instantiation of
    /// the block kernel must match bitwise.
    fn oracle_log_sum_exp(scores: &[f64]) -> f64 {
        let m = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if !m.is_finite() {
            return m;
        }
        let sum: f64 = scores.iter().map(|&x| (x - m).exp()).sum();
        m + sum.ln()
    }

    /// See [`oracle_log_sum_exp`].
    fn oracle_cross_entropy_softmax_in_place(scores: &mut [f64], target: usize) -> f64 {
        let lse = oracle_log_sum_exp(scores);
        let loss = -(scores[target] - lse);
        if !lse.is_finite() {
            let n = scores.len().max(1) as f64;
            scores.iter_mut().for_each(|x| *x = 1.0 / n);
        } else {
            scores.iter_mut().for_each(|x| *x = (*x - lse).exp());
        }
        loss
    }

    /// Every instantiation this CPU can run, narrowest first: the last one
    /// is the one the public entry points run.
    fn instantiations() -> Vec<Path> {
        let mut paths = vec![Path::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            paths.extend(exp::Avx2Fma::detect().map(Path::Avx2Fma));
            paths.extend(exp::Avx512::detect().map(Path::Avx512));
        }
        paths
    }

    #[test]
    fn kernel_path_names_the_widest_instantiation() {
        let widest = *instantiations().last().unwrap();
        assert_eq!(kernel_path(), widest.name());
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A score drawn from a spread of `scale`, now and then `±∞` or NaN.
    fn score(rng: &mut impl Rng, scale: f64, special: f64) -> f64 {
        let u: f64 = rng.gen();
        if u < special {
            [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.gen_range(0..3usize)]
        } else {
            scale * (2.0 * rng.gen::<f64>() - 1.0)
        }
    }

    /// One random block of `H` heads of the given widths (plus an
    /// uncovered last column when `uncovered`) and weighted residual rows,
    /// checked bitwise on every instantiation against the oracle head by
    /// head.
    fn check_block<const H: usize>(rng: &mut impl Rng, widths: [usize; H], uncovered: bool) {
        let mut heads: [Range<usize>; H] = std::array::from_fn(|_| 0..0);
        let mut width = 0;
        for (head, w) in heads.iter_mut().zip(widths) {
            *head = width..width + w;
            width += w;
        }
        width += usize::from(uncovered);
        let rows = rng.gen_range(1..40usize);
        let scale = [0.5, 8.0, 300.0, 2000.0][rng.gen_range(0..4usize)];
        let special = [0.0, 0.0, 0.02, 0.2][rng.gen_range(0..4usize)];
        let mut block: Vec<f64> = (0..rows * width)
            .map(|_| score(rng, scale, special))
            .collect();
        for row in block.chunks_exact_mut(width) {
            match rng.gen_range(0..12usize) {
                0 => row.fill(f64::NEG_INFINITY),
                1 => row[heads[0].clone()].fill(f64::NEG_INFINITY),
                _ => {}
            }
        }
        let targets: Vec<[usize; H]> = (0..rows)
            .map(|_| std::array::from_fn(|h| rng.gen_range(0..heads[h].len())))
            .collect();
        let weights: Vec<f64> = (0..rows).map(|_| rng.gen_range(0.0..3.0)).collect();
        let residuals = |row: &mut [f64], i: usize| {
            for (head, &t) in heads.iter().zip(&targets[i]) {
                for (c, p) in row[head.clone()].iter_mut().enumerate() {
                    *p = weights[i] * (*p - if c == t { 1.0 } else { 0.0 });
                }
            }
        };

        let mut expected = block.clone();
        let mut expected_losses = Vec::new();
        for (i, row) in expected.chunks_exact_mut(width).enumerate() {
            let losses: [f64; H] = std::array::from_fn(|h| {
                oracle_cross_entropy_softmax_in_place(&mut row[heads[h].clone()], targets[i][h])
            });
            residuals(row, i);
            expected_losses.push(bits(&losses));
        }
        for path in instantiations() {
            let mut got = block.clone();
            let mut losses = Vec::new();
            path.run(Heads {
                block: &mut got,
                width,
                heads: &heads,
                targets: |i| targets[i],
                finish_row: |i, row: &mut [f64], l: [f64; H]| {
                    assert_eq!(i, losses.len(), "rows finish in order");
                    residuals(row, i);
                    losses.push(bits(&l));
                },
            });
            let name = path.name();
            assert_eq!(
                losses, expected_losses,
                "{name}: losses of {heads:?}, {block:?}"
            );
            assert_eq!(
                bits(&got),
                bits(&expected),
                "{name}: rows of {heads:?}, {block:?}"
            );
        }
    }

    /// Head widths 1–20 cover every lane tail; the DMCP shapes are two
    /// 8-class heads, and an 8-class head beside the uncovered column of a
    /// 1-class duration head.
    #[test]
    fn block_kernel_matches_the_per_element_oracle_bitwise() {
        let mut rng = crate::rng::seeded_rng(0x736f6674);
        for _ in 0..300 {
            let widths: [usize; 3] = std::array::from_fn(|_| rng.gen_range(1..21usize));
            let uncovered = rng.gen::<f64>() < 0.3;
            check_block(&mut rng, [widths[0]], uncovered);
            check_block(&mut rng, [widths[1], widths[2]], uncovered);
            check_block(&mut rng, widths, uncovered);
            check_block(&mut rng, [8, 8], false);
            check_block(&mut rng, [8], true);
        }
    }

    /// The one-head entry points equal the oracle on every instantiation's
    /// widest path (the one they run) for random rows.
    #[test]
    fn one_head_entry_points_match_the_oracle_bitwise() {
        let mut rng = crate::rng::seeded_rng(11);
        for _ in 0..2000 {
            let n = rng.gen_range(1..21usize);
            let scale = [0.5, 30.0, 1500.0][rng.gen_range(0..3usize)];
            let row: Vec<f64> = (0..n).map(|_| score(&mut rng, scale, 0.05)).collect();
            assert_eq!(
                log_sum_exp(&row).to_bits(),
                oracle_log_sum_exp(&row).to_bits()
            );
            for path in instantiations() {
                assert_eq!(
                    path.run(LogSumExp(&row)).to_bits(),
                    oracle_log_sum_exp(&row).to_bits(),
                    "{}: {row:?}",
                    path.name()
                );
            }
            let target = rng.gen_range(0..n);
            let mut expected = row.clone();
            let loss = oracle_cross_entropy_softmax_in_place(&mut expected, target);
            let mut got = row.clone();
            let got_loss = cross_entropy_softmax_in_place(&mut got, target);
            assert_eq!(got_loss.to_bits(), loss.to_bits(), "{row:?}");
            assert_eq!(bits(&got), bits(&expected), "{row:?}");
            let mut probs = row.clone();
            softmax_in_place(&mut probs);
            assert_eq!(bits(&probs), bits(&expected), "{row:?}");
        }
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
        softmax_in_place(&mut []);
    }
}
