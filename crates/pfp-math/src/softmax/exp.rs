//! `exp` over SIMD lanes, bit for bit the `exp` that `f64::exp` calls.
//!
//! On x86-64 Linux, `f64::exp` calls glibc's `exp`.  From glibc 2.28 on,
//! that is Arm optimized-routines' `exp` (a 128-entry table and a degree-5
//! polynomial, MIT OR Apache-2.0 WITH LLVM-exception), and on a CPU with
//! AVX2 and FMA glibc's IFUNC picks the build compiled with FMA.  That build
//! is what the workspace's golden values were recorded against.  This module
//! ports its main path lane for lane, so a vector of `exp`s costs about one
//! scalar call instead of one call per lane.
//!
//! # Determinism contract
//!
//! For `2⁻⁵⁴ ≤ |x| < 512`, every lane runs exactly the libm binary's
//! sequence, fused where it fuses and nowhere else (each `fma` below rounds
//! once, as does every other operation):
//!
//! ```text
//! z   = fma(x, InvLn2N, Shift);   ki = bits(z);   kd = z − Shift
//! r   = fma(kd, NegLn2loN, fma(kd, NegLn2hiN, x));   r2 = r·r
//! i   = 2·(ki & 127);   tail = T[i];   sbits = T[i+1] + (ki << 45)
//! tmp = fma(r2·r2, fma(r, C5, C4), fma(fma(r, C3, C2), r2, r + tail))
//! exp = fma(scale, tmp, scale),   scale = from_bits(sbits)
//! ```
//!
//! * `|x| < 2⁻⁵⁴`, NaN and `+∞` lanes return `1 + x`, as libm does.
//! * Every other lane (`|x| ≥ 512`, `−∞`) calls `f64::exp` itself.
//! * The table `T` is glibc's `__exp_data.tab` (the same 256 words in every
//!   glibc from 2.28 on), read from `libm.so.6` and committed below.
//! * Instantiations: AVX-512F runs 8 lanes and AVX2 + FMA runs 4, each with
//!   explicit FMA intrinsics; [`Libm`] calls `f64::exp` per lane.  Dispatch
//!   is by CPU detection only (see `softmax::kernel_path`).
//!
//! A libm that computes `exp` differently (another C library, or a CPU
//! without FMA, where glibc picks a non-FMA build) would disagree with the
//! vector lanes in the last bit; the tests here compare every instantiation
//! the CPU can run with `f64::exp` and name such a host.

/// The widest lane count of any instantiation.
pub(super) const MAX_LANES: usize = 8;

/// How a softmax kernel takes `exp` of a chunk of at most `LANES` scores.
pub(super) trait LaneExp: Copy {
    /// Lanes per chunk (at most [`MAX_LANES`]).
    const LANES: usize;

    /// `exp(x_j − shift)` for each entry of `x` (`x.len() ≤ LANES`), in the
    /// first `x.len()` lanes of the result; the other lanes are unspecified.
    fn exp_shifted(self, x: &[f64], shift: f64) -> [f64; MAX_LANES];

    /// `x_j ← exp(x_j − shift)` for each entry of `x` (`x.len() ≤ LANES`).
    fn exp_shifted_in_place(self, x: &mut [f64], shift: f64);
}

/// The portable instantiation: `f64::exp` per lane.
#[derive(Clone, Copy)]
pub(super) struct Libm;

impl LaneExp for Libm {
    const LANES: usize = MAX_LANES;

    #[inline(always)]
    fn exp_shifted(self, x: &[f64], shift: f64) -> [f64; MAX_LANES] {
        let mut out = [0.0; MAX_LANES];
        for (o, &v) in out.iter_mut().zip(x) {
            *o = (v - shift).exp();
        }
        out
    }

    #[inline(always)]
    fn exp_shifted_in_place(self, x: &mut [f64], shift: f64) {
        x.iter_mut().for_each(|v| *v = (*v - shift).exp());
    }
}

#[cfg(target_arch = "x86_64")]
pub(super) use x86::{Avx2Fma, Avx512};

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use super::{LaneExp, MAX_LANES};

    /// `N / ln 2` with `N = 128` table entries per octave.
    const INV_LN2_N: f64 = f64::from_bits(0x4067_1547_652b_82fe);
    /// `0x1.8p52`: adding it rounds `x · N / ln 2` to the integer `k` in the low
    /// mantissa bits.
    const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
    /// `−ln 2 / N`, high part (its low bits are zero, so `k · NEG_LN2_HI_N` is
    /// exact).
    const NEG_LN2_HI_N: f64 = f64::from_bits(0xbf76_2e42_fefa_0000);
    /// `−ln 2 / N`, low part.
    const NEG_LN2_LO_N: f64 = f64::from_bits(0xbd0c_f79a_bc9e_3b3a);
    /// Polynomial coefficients `C2…C5` of `exp(r) − 1 − r`.
    const C: [f64; 4] = [
        f64::from_bits(0x3fdf_ffff_ffff_fdbd),
        f64::from_bits(0x3fc5_5555_5555_543c),
        f64::from_bits(0x3fa5_5555_cf17_2b91),
        f64::from_bits(0x3f81_1111_67a4_d017),
    ];

    /// glibc's `__exp_data.tab`: for `j` in `0..128`, `T[2j]` is the tail and
    /// `T[2j+1]` the bits of `2^(j/128)` less `j << 45`, so that adding
    /// `ki << 45` yields the scale `2^(k/128)`.
    #[rustfmt::skip]
    const TAB: [u64; 256] = [
        0x0000000000000000, 0x3ff0000000000000,
        0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335,
        0xbc7160139cd8dc5d, 0x3fefec9a3e778061,
        0xbc905e7a108766d1, 0x3fefe315e86e7f85,
        0x3c8cd2523567f613, 0x3fefd9b0d3158574,
        0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
        0x3c60f74e61e6c861, 0x3fefc74518759bc8,
        0x3c90a3e45b33d399, 0x3fefbe3ecac6f383,
        0x3c979aa65d837b6d, 0x3fefb5586cf9890f,
        0x3c8eb51a92fdeffc, 0x3fefac922b7247f7,
        0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2,
        0xbc6a033489906e0b, 0x3fef9b66affed31b,
        0xbc9556522a2fbd0e, 0x3fef9301d0125b51,
        0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc,
        0xbc91c923b9d5f416, 0x3fef829aaea92de0,
        0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51,
        0xbc801b15eaa59348, 0x3fef72b83c7d517b,
        0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
        0x3c8b898c3f1353bf, 0x3fef635beb6fcb75,
        0xbc96d99c7611eb26, 0x3fef5be084045cd4,
        0x3c9aecf73e3a2f60, 0x3fef54873168b9aa,
        0xbc8fe782cb86389d, 0x3fef4d5022fcd91d,
        0x3c8a6f4144a6c38d, 0x3fef463b88628cd6,
        0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
        0x3c968efde3a8a894, 0x3fef387a6e756238,
        0x3c875e18f274487d, 0x3fef31ce4fb2a63f,
        0x3c80472b981fe7f2, 0x3fef2b4565e27cdd,
        0xbc96b87b3f71085e, 0x3fef24dfe1f56381,
        0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1,
        0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
        0x3c8b3782720c0ab4, 0x3fef1285a6e4030b,
        0x3c6e149289cecb8f, 0x3fef0cafa93e2f56,
        0x3c834d754db0abb6, 0x3fef06fe0a31b715,
        0x3c864201e2ac744c, 0x3fef0170fc4cd831,
        0x3c8fdd395dd3f84a, 0x3feefc08b26416ff,
        0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
        0xbc924aedcc4b5068, 0x3feef1a7373aa9cb,
        0xbc9907f81b512d8e, 0x3feeecae6d05d866,
        0xbc71d1e83e9436d2, 0x3feee7db34e59ff7,
        0xbc991919b3ce1b15, 0x3feee32dc313a8e5,
        0x3c859f48a72a4c6d, 0x3feedea64c123422,
        0xbc9312607a28698a, 0x3feeda4504ac801c,
        0xbc58a78f4817895b, 0x3feed60a21f72e2a,
        0xbc7c2c9b67499a1b, 0x3feed1f5d950a897,
        0x3c4363ed60c2ac11, 0x3feece086061892d,
        0x3c9666093b0664ef, 0x3feeca41ed1d0057,
        0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0,
        0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
        0x3c7690cebb7aafb0, 0x3feebfdad5362a27,
        0x3c931dbdeb54e077, 0x3feebcb299fddd0d,
        0xbc8f94340071a38e, 0x3feeb9b2769d2ca7,
        0xbc87deccdc93a349, 0x3feeb6daa2cf6642,
        0xbc78dec6bd0f385f, 0x3feeb42b569d4f82,
        0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
        0x3c93350518fdd78e, 0x3feeaf4736b527da,
        0x3c7b98b72f8a9b05, 0x3feead12d497c7fd,
        0x3c9063e1e21c5409, 0x3feeab07dd485429,
        0x3c34c7855019c6ea, 0x3feea9268a5946b7,
        0x3c9432e62b64c035, 0x3feea76f15ad2148,
        0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
        0xbc8c33c53bef4da8, 0x3feea47eb03a5585,
        0xbc845378892be9ae, 0x3feea34634ccc320,
        0xbc93cedd78565858, 0x3feea23882552225,
        0x3c5710aa807e1964, 0x3feea155d44ca973,
        0xbc93b3efbf5e2228, 0x3feea09e667f3bcd,
        0xbc6a12ad8734b982, 0x3feea012750bdabf,
        0xbc6367efb86da9ee, 0x3fee9fb23c651a2f,
        0xbc80dc3d54e08851, 0x3fee9f7df9519484,
        0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74,
        0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174,
        0xbc8619321e55e68a, 0x3fee9feb564267c9,
        0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
        0xbc7b32dcb94da51d, 0x3feea11473eb0187,
        0x3c94ecfd5467c06b, 0x3feea1ed0130c132,
        0x3c65ebe1abd66c55, 0x3feea2f336cf4e62,
        0xbc88a1c52fb3cf42, 0x3feea427543e1a12,
        0xbc9369b6f13b3734, 0x3feea589994cce13,
        0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
        0xbc94d450d872576e, 0x3feea8d99b4492ed,
        0x3c90ad675b0e8a00, 0x3feeaac7d98a6699,
        0x3c8db72fc1f0eab4, 0x3feeace5422aa0db,
        0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c,
        0x3c7bf68359f35f44, 0x3feeb1ae99157736,
        0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
        0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5,
        0xbc6c23f97c90b959, 0x3feeba44cbc8520f,
        0xbc92434322f4f9aa, 0x3feebd829fde4e50,
        0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba,
        0x3c71affc2b91ce27, 0x3feec49182a3f090,
        0x3c6dd235e10a73bb, 0x3feec86319e32323,
        0xbc87c50422622263, 0x3feecc667b5de565,
        0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33,
        0xbc91bbd1d3bcbb15, 0x3feed503b23e255d,
        0x3c90cc319cee31d2, 0x3feed99e1330b358,
        0x3c8469846e735ab3, 0x3feede6b5579fdbf,
        0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
        0x3c8c1a7792cb3387, 0x3feee89f995ad3ad,
        0xbc907b8f4ad1d9fa, 0x3feeee07298db666,
        0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb,
        0xbc90a40e3da6f640, 0x3feef9728de5593a,
        0xbc68d6f438ad9334, 0x3feeff76f2fb5e47,
        0xbc91eee26b588a35, 0x3fef05b030a1064a,
        0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2,
        0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09,
        0x3c736eae30af0cb3, 0x3fef199bdd85529c,
        0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a,
        0x3c84e08fd10959ac, 0x3fef27f12e57d14b,
        0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
        0x3c676b2c6c921968, 0x3fef3720dcef9069,
        0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa,
        0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c,
        0xbc900dae3875a949, 0x3fef4f87080d89f2,
        0x3c74a385a63d07a7, 0x3fef5818dcfba487,
        0xbc82919e2040220f, 0x3fef60e316c98398,
        0x3c8e5a50d5c192ac, 0x3fef69e603db3285,
        0x3c843a59ac016b4b, 0x3fef7321f301b460,
        0xbc82d52107b43e1f, 0x3fef7c97337b9b5f,
        0xbc892ab93b470dc9, 0x3fef864614f5a129,
        0x3c74b604603a88d3, 0x3fef902ee78b3ff6,
        0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
        0xbc8ff7128fd391f0, 0x3fefa4afa2a490da,
        0xbc8dae98e223747d, 0x3fefaf482d8e67f1,
        0x3c8ec3bc41aa2008, 0x3fefba1bee615a27,
        0x3c842b94c3a9eb32, 0x3fefc52b376bba97,
        0x3c8a64a931d185ee, 0x3fefd0765b6e4540,
        0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
        0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8,
        0x3c5305c14160cc89, 0x3feff3c22b8f71f1,
    ];

    /// `−∞`, the one lane with a `0x7ff` exponent that does not take `1 + x`.
    const NEG_INF_BITS: i64 = 0xfff0_0000_0000_0000_u64 as i64;

    /// The AVX-512F instantiation: 8 lanes.  A value exists only on a CPU
    /// with AVX-512F.
    #[derive(Clone, Copy)]
    pub(in crate::softmax) struct Avx512(());

    impl Avx512 {
        /// The token, if the running CPU supports AVX-512F.
        #[inline]
        pub(in crate::softmax) fn detect() -> Option<Self> {
            is_x86_feature_detected!("avx512f").then_some(Self(()))
        }
    }

    /// The AVX2 + FMA instantiation: 4 lanes.  A value exists only on a CPU
    /// with AVX2 and FMA.
    #[derive(Clone, Copy)]
    pub(in crate::softmax) struct Avx2Fma(());

    impl Avx2Fma {
        /// The token, if the running CPU supports AVX2 and FMA.
        #[inline]
        pub(in crate::softmax) fn detect() -> Option<Self> {
            (is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
                .then_some(Self(()))
        }
    }

    impl LaneExp for Avx512 {
        const LANES: usize = 8;

        #[inline(always)]
        fn exp_shifted(self, x: &[f64], shift: f64) -> [f64; MAX_LANES] {
            let mut out = [0.0; MAX_LANES];
            // SAFETY: an `Avx512` exists only on a CPU with AVX-512F, and
            // `out` holds 8 lanes.
            unsafe {
                let (y, _) = avx512_exp_shifted(x, shift);
                _mm512_storeu_pd(out.as_mut_ptr(), y);
            }
            out
        }

        #[inline(always)]
        fn exp_shifted_in_place(self, x: &mut [f64], shift: f64) {
            // SAFETY: an `Avx512` exists only on a CPU with AVX-512F, and the
            // store writes only the `x.len()` lanes of the load mask.
            unsafe {
                let (y, valid) = avx512_exp_shifted(x, shift);
                if x.len() == 8 {
                    _mm512_storeu_pd(x.as_mut_ptr(), y);
                } else {
                    _mm512_mask_storeu_pd(x.as_mut_ptr(), valid, y);
                }
            }
        }
    }

    impl LaneExp for Avx2Fma {
        const LANES: usize = 4;

        #[inline(always)]
        fn exp_shifted(self, x: &[f64], shift: f64) -> [f64; MAX_LANES] {
            let mut out = [0.0; MAX_LANES];
            // SAFETY: an `Avx2Fma` exists only on a CPU with AVX2 and FMA,
            // and `out` holds at least 4 lanes.
            unsafe {
                let (y, _) = avx2_exp_shifted(x, shift);
                _mm256_storeu_pd(out.as_mut_ptr(), y);
            }
            out
        }

        #[inline(always)]
        fn exp_shifted_in_place(self, x: &mut [f64], shift: f64) {
            // SAFETY: an `Avx2Fma` exists only on a CPU with AVX2 and FMA,
            // and the store writes only the `x.len()` lanes of the mask.
            unsafe {
                let (y, valid) = avx2_exp_shifted(x, shift);
                if x.len() == 4 {
                    _mm256_storeu_pd(x.as_mut_ptr(), y);
                } else {
                    _mm256_maskstore_pd(x.as_mut_ptr(), valid, y);
                }
            }
        }
    }

    /// `exp(x_j − shift)` on the first `x.len() ≤ 8` lanes, and the mask of
    /// those lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn avx512_exp_shifted(x: &[f64], shift: f64) -> (__m512d, __mmask8) {
        debug_assert!(x.len() <= 8);
        let valid = (0xff_u16 >> (8 - x.len())) as __mmask8;
        // SAFETY: either load reads only the `x.len()` lanes of `x`.
        let v = unsafe {
            if x.len() == 8 {
                _mm512_loadu_pd(x.as_ptr())
            } else {
                _mm512_maskz_loadu_pd(valid, x.as_ptr())
            }
        };
        let v = _mm512_sub_pd(v, _mm512_set1_pd(shift));
        let splat = _mm512_set1_epi64;
        let bits = _mm512_castpd_si512(v);
        let abstop = _mm512_and_si512(_mm512_srli_epi64::<52>(bits), splat(0x7ff));

        let z = _mm512_fmadd_pd(v, _mm512_set1_pd(INV_LN2_N), _mm512_set1_pd(SHIFT));
        let ki = _mm512_castpd_si512(z);
        let kd = _mm512_sub_pd(z, _mm512_set1_pd(SHIFT));
        let r = _mm512_fmadd_pd(kd, _mm512_set1_pd(NEG_LN2_HI_N), v);
        let r = _mm512_fmadd_pd(kd, _mm512_set1_pd(NEG_LN2_LO_N), r);
        let r2 = _mm512_mul_pd(r, r);
        let i = _mm512_slli_epi64::<1>(_mm512_and_si512(ki, splat(127)));
        // SAFETY: every index is even and below 256, so both gathers stay
        // inside the 256-word table.
        let (tail, top) = unsafe {
            (
                _mm512_i64gather_pd::<8>(i, TAB.as_ptr().cast()),
                _mm512_i64gather_epi64::<8>(i, TAB.as_ptr().add(1).cast()),
            )
        };
        let scale = _mm512_castsi512_pd(_mm512_add_epi64(top, _mm512_slli_epi64::<45>(ki)));
        let p23 = _mm512_fmadd_pd(r, _mm512_set1_pd(C[1]), _mm512_set1_pd(C[0]));
        let p45 = _mm512_fmadd_pd(r, _mm512_set1_pd(C[3]), _mm512_set1_pd(C[2]));
        let tmp = _mm512_fmadd_pd(p23, r2, _mm512_add_pd(r, tail));
        let tmp = _mm512_fmadd_pd(_mm512_mul_pd(r2, r2), p45, tmp);
        let y = _mm512_fmadd_pd(scale, tmp, scale);

        // 2⁻⁵⁴ ≤ |x| < 512 took the lines above; |x| < 2⁻⁵⁴, NaN and +∞
        // take 1 + x; the rest go to libm.
        let main = _mm512_cmplt_epu64_mask(_mm512_sub_epi64(abstop, splat(0x3c9)), splat(0x3f));
        let one_plus = _mm512_cmplt_epu64_mask(abstop, splat(0x3c9))
            | (_mm512_cmpeq_epi64_mask(abstop, splat(0x7ff))
                & !_mm512_cmpeq_epi64_mask(bits, splat(NEG_INF_BITS)));
        let y = _mm512_mask_add_pd(y, one_plus, v, _mm512_set1_pd(1.0));
        let rest = valid & !(main | one_plus);
        if rest == 0 {
            return (y, valid);
        }
        let (mut lanes, mut xs) = ([0.0; 8], [0.0; 8]);
        // SAFETY: both arrays hold 8 lanes.
        unsafe {
            _mm512_storeu_pd(lanes.as_mut_ptr(), y);
            _mm512_storeu_pd(xs.as_mut_ptr(), v);
        }
        libm_lanes(&mut lanes, &xs, u32::from(rest));
        // SAFETY: `lanes` holds 8 lanes.
        (unsafe { _mm512_loadu_pd(lanes.as_ptr()) }, valid)
    }

    /// `exp(x_j − shift)` on the first `x.len() ≤ 4` lanes, and the mask of
    /// those lanes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn avx2_exp_shifted(x: &[f64], shift: f64) -> (__m256d, __m256i) {
        debug_assert!(x.len() <= 4);
        let splat = _mm256_set1_epi64x;
        let valid = _mm256_cmpgt_epi64(splat(x.len() as i64), _mm256_setr_epi64x(0, 1, 2, 3));
        // SAFETY: either load reads only the `x.len()` lanes of `x`.
        let v = unsafe {
            if x.len() == 4 {
                _mm256_loadu_pd(x.as_ptr())
            } else {
                _mm256_maskload_pd(x.as_ptr(), valid)
            }
        };
        let v = _mm256_sub_pd(v, _mm256_set1_pd(shift));
        let bits = _mm256_castpd_si256(v);
        // At most 0x7ff, so the signed compares below are exact.
        let abstop = _mm256_and_si256(_mm256_srli_epi64::<52>(bits), splat(0x7ff));

        let z = _mm256_fmadd_pd(v, _mm256_set1_pd(INV_LN2_N), _mm256_set1_pd(SHIFT));
        let ki = _mm256_castpd_si256(z);
        let kd = _mm256_sub_pd(z, _mm256_set1_pd(SHIFT));
        let r = _mm256_fmadd_pd(kd, _mm256_set1_pd(NEG_LN2_HI_N), v);
        let r = _mm256_fmadd_pd(kd, _mm256_set1_pd(NEG_LN2_LO_N), r);
        let r2 = _mm256_mul_pd(r, r);
        let i = _mm256_slli_epi64::<1>(_mm256_and_si256(ki, splat(127)));
        // SAFETY: every index is even and below 256, so both gathers stay
        // inside the 256-word table.
        let (tail, top) = unsafe {
            (
                _mm256_i64gather_pd::<8>(TAB.as_ptr().cast(), i),
                _mm256_i64gather_epi64::<8>(TAB.as_ptr().add(1).cast(), i),
            )
        };
        let scale = _mm256_castsi256_pd(_mm256_add_epi64(top, _mm256_slli_epi64::<45>(ki)));
        let p23 = _mm256_fmadd_pd(r, _mm256_set1_pd(C[1]), _mm256_set1_pd(C[0]));
        let p45 = _mm256_fmadd_pd(r, _mm256_set1_pd(C[3]), _mm256_set1_pd(C[2]));
        let tmp = _mm256_fmadd_pd(p23, r2, _mm256_add_pd(r, tail));
        let tmp = _mm256_fmadd_pd(_mm256_mul_pd(r2, r2), p45, tmp);
        let y = _mm256_fmadd_pd(scale, tmp, scale);

        // 2⁻⁵⁴ ≤ |x| < 512 took the lines above; |x| < 2⁻⁵⁴, NaN and +∞
        // take 1 + x; the rest go to libm.
        let main = _mm256_and_si256(
            _mm256_cmpgt_epi64(abstop, splat(0x3c8)),
            _mm256_cmpgt_epi64(splat(0x408), abstop),
        );
        let one_plus = _mm256_or_si256(
            _mm256_cmpgt_epi64(splat(0x3c9), abstop),
            _mm256_andnot_si256(
                _mm256_cmpeq_epi64(bits, splat(NEG_INF_BITS)),
                _mm256_cmpeq_epi64(abstop, splat(0x7ff)),
            ),
        );
        let y = _mm256_blendv_pd(
            y,
            _mm256_add_pd(v, _mm256_set1_pd(1.0)),
            _mm256_castsi256_pd(one_plus),
        );
        let rest = _mm256_andnot_si256(_mm256_or_si256(main, one_plus), valid);
        let rest = _mm256_movemask_pd(_mm256_castsi256_pd(rest)) as u32;
        if rest == 0 {
            return (y, valid);
        }
        let (mut lanes, mut xs) = ([0.0; 4], [0.0; 4]);
        // SAFETY: both arrays hold 4 lanes.
        unsafe {
            _mm256_storeu_pd(lanes.as_mut_ptr(), y);
            _mm256_storeu_pd(xs.as_mut_ptr(), v);
        }
        libm_lanes(&mut lanes, &xs, rest);
        // SAFETY: `lanes` holds 4 lanes.
        (unsafe { _mm256_loadu_pd(lanes.as_ptr()) }, valid)
    }

    /// `lanes[j] = f64::exp(xs[j])` for every set bit `j` of `mask`: the
    /// lanes outside the ported range (`|x| ≥ 512`, `−∞`).
    #[cold]
    #[inline(never)]
    fn libm_lanes(lanes: &mut [f64], xs: &[f64], mask: u32) {
        for (j, (lane, &x)) in lanes.iter_mut().zip(xs).enumerate() {
            if mask >> j & 1 == 1 {
                *lane = x.exp();
            }
        }
    }

    /// The reference the workspace's golden values were recorded against is
    /// glibc's FMA `exp`, the function `f64::exp` calls on this kind of host.
    /// Every vector instantiation the CPU can run must equal it bit for bit;
    /// a failure here names a host whose libm computes `exp` differently.
    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::rng::seeded_rng;
        use rand::Rng;

        type ExpChunk = fn(&[f64]) -> Vec<f64>;

        /// Every vector instantiation this CPU can run, as `exp` of a chunk,
        /// through both of its entry points (the shifted copy and the
        /// in-place form, each with `shift = 0`, which changes no input:
        /// `x − 0 = x` for every `x`, `−0` included).
        fn vector_instantiations() -> Vec<(&'static str, usize, ExpChunk, ExpChunk)> {
            let mut paths: Vec<(&'static str, usize, ExpChunk, ExpChunk)> = Vec::new();
            if Avx2Fma::detect().is_some() {
                paths.push((
                    "avx2",
                    Avx2Fma::LANES,
                    |x| Avx2Fma::detect().unwrap().exp_shifted(x, 0.0)[..x.len()].to_vec(),
                    |x| {
                        let mut y = x.to_vec();
                        Avx2Fma::detect().unwrap().exp_shifted_in_place(&mut y, 0.0);
                        y
                    },
                ));
            }
            if Avx512::detect().is_some() {
                paths.push((
                    "avx512",
                    Avx512::LANES,
                    |x| Avx512::detect().unwrap().exp_shifted(x, 0.0)[..x.len()].to_vec(),
                    |x| {
                        let mut y = x.to_vec();
                        Avx512::detect().unwrap().exp_shifted_in_place(&mut y, 0.0);
                        y
                    },
                ));
            }
            paths
        }

        /// Every chunking of `xs` (full chunks and every shorter tail) on
        /// every instantiation equals `f64::exp` bit for bit.
        fn assert_matches_libm(xs: &[f64]) {
            for (name, lanes, copy, in_place) in vector_instantiations() {
                for len in 1..=lanes {
                    for chunk in xs.chunks(len) {
                        for (kind, got) in [("copy", copy(chunk)), ("in place", in_place(chunk))] {
                            for (&x, y) in chunk.iter().zip(got) {
                                assert_eq!(
                                    y.to_bits(),
                                    x.exp().to_bits(),
                                    "{name} ({kind}, {len}-lane chunks): exp({x:e} = {:#018x})",
                                    x.to_bits()
                                );
                            }
                        }
                    }
                }
            }
        }

        #[test]
        fn seeded_inputs_match_libm_bitwise() {
            let mut rng = seeded_rng(0x65787021);
            let xs: Vec<f64> = (0..1_000_000)
                .map(|_| rng.gen_range(-746.0..710.0))
                .collect();
            for (name, lanes, copy, _) in vector_instantiations() {
                for chunk in xs.chunks(lanes) {
                    for (&x, y) in chunk.iter().zip(copy(chunk)) {
                        assert_eq!(y.to_bits(), x.exp().to_bits(), "{name}: exp({x:e})");
                    }
                }
            }
            assert_matches_libm(&xs[..4096]);
        }

        /// The table index `ki & 127` of `x` in libm's reduction.
        fn table_index(x: f64) -> usize {
            (x.mul_add(INV_LN2_N, SHIFT).to_bits() & 127) as usize
        }

        #[test]
        fn every_table_index_matches_libm_bitwise() {
            let mut xs = Vec::new();
            for k in -8..8 {
                for j in 0..128 {
                    let x = (f64::from(k) + f64::from(j) / 128.0) * std::f64::consts::LN_2;
                    xs.extend([x, x + 1e-3, x - 1e-3, x * (1.0 + 1e-12)]);
                }
            }
            let mut hit = [false; 128];
            xs.iter().for_each(|&x| hit[table_index(x)] = true);
            assert!(hit.iter().all(|&h| h), "every table index is exercised");
            assert_matches_libm(&xs);
        }

        #[test]
        fn edge_inputs_match_libm_bitwise() {
            let tiny = f64::from_bits(0x3c90_0000_0000_0000); // 2⁻⁵⁴
            let mut xs = vec![
                0.0,
                -0.0,
                f64::NAN,
                -f64::NAN,
                f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MAX,
                f64::MIN,
                f64::MIN_POSITIVE,
                -f64::MIN_POSITIVE,
                5e-324,
                -5e-324,
            ];
            for x in [tiny, 512.0, 1024.0, 708.4, 709.78, 709.79, 745.13, 745.14] {
                for v in [x, -x] {
                    let b = v.to_bits();
                    xs.extend((b - 4..=b + 4).map(f64::from_bits));
                }
            }
            // Subnormal results below −708.4 and overflow past 709.78.
            xs.extend((0..400).map(|i| -708.4 - f64::from(i) * 0.1));
            xs.extend((0..100).map(|i| 709.7 + f64::from(i) * 0.001));
            assert_matches_libm(&xs);
        }
    }
}
