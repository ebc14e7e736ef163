//! Activation functions used by MoE feed-forward blocks, the gating and
//! the attention softmax.
//!
//! # One `exp`
//!
//! Every exponential here is [`exp`]: a fixed sequence of correctly
//! rounded IEEE operations, so its SIMD arms ([`exp_inplace`] at
//! AVX-512 and AVX2) issue the same operations on 16 or 8 lanes and give
//! the scalar function's bits at every level, as the GEMV and attention
//! kernels do. For `x` clamped to `[-104, 89]`:
//!
//! 1. `n = round_ties_even(x · log2 e)`;
//! 2. `r = fma(-n, LN2_HI, x)`, then `r = fma(-n, LN2_LO, r)` — a
//!    two-step Cody–Waite reduction, `|r| ≲ ln 2 / 2`;
//! 3. `p` = Horner in `fma` over the `EXP_POLY` coefficients, then
//!    `y = fma(p, r·r, r) + 1`;
//! 4. `y · 2^h · 2^(n-h)` with `h = n >> 1`: both factors are normal
//!    powers of two, so the first product is exact and the second rounds
//!    once, into the subnormals or to `+∞` where the true value lies.
//!
//! Edges: `-∞` and every `x` whose result is below half the smallest
//! subnormal give exactly `0` (a masked softmax score stays 0), `+∞` and
//! overflow give `+∞`, NaN stays NaN. Elsewhere the relative error
//! against f64 `exp` is at most 2 ulp (a unit test sweeps `[-87, 88]`).
//!
//! [`silu`], [`sigmoid`], [`swiglu_combine`], [`sigmoid_inplace`] and
//! [`softmax_inplace`] are built on it. The slice functions vectorise only the elementwise
//! `exp`; the softmax sum stays serial in ascending position, so the
//! attention kernel's fixed order holds.

use crate::simd::{effective_simd_level, SimdLevel};

/// `ln 2` split for the Cody–Waite reduction: the high part has 9
/// significant bits, so `n · LN2_HI` is exact for every `n` in range.
const LN2_HI: f32 = 355.0 / 512.0;
/// The low part: `ln 2 - LN2_HI`.
const LN2_LO: f32 = -2.121_944_4e-4;
/// Inputs are clamped to `[X_LO, X_HI]` before the reduction: every
/// result below `X_LO` rounds to 0, every one above `X_HI` overflows.
const X_LO: f32 = -104.0;
const X_HI: f32 = 89.0;

/// Coefficients, highest degree first, of `P` in
/// `exp(r) ≈ 1 + r + r²·P(r)` on `|r| ≤ ln 2 / 2` (the Cephes `expf`
/// minimax fit).
const EXP_POLY: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    0.5,
];

/// `2^e` for a normal exponent `e` in `-126..=127`.
#[inline]
fn pow2(e: i32) -> f32 {
    f32::from_bits(((e + 127) as u32) << 23)
}

/// The exponential, as the scalar golden of the module's fixed
/// sequence (see the module doc for the steps and the edge contract).
///
/// At the AVX2 and AVX-512 levels the same sequence runs compiled with
/// the FMA and SSE4.1 instructions; without them each `mul_add` and the
/// rounding are library calls, about 7× slower. The operations, and so
/// the bits, are the same.
#[inline]
pub fn exp(x: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if effective_simd_level() >= SimdLevel::Avx2Fma {
        // SAFETY: the level never exceeds the runtime-detected features.
        return unsafe { x86::exp_fma(x) };
    }
    exp_seq(x)
}

/// The body of [`exp`], inlined into each instruction-set variant.
#[inline(always)]
fn exp_seq(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    let x = x.clamp(X_LO, X_HI);
    let n = (x * std::f32::consts::LOG2_E).round_ties_even();
    let r = (-n).mul_add(LN2_HI, x);
    let r = (-n).mul_add(LN2_LO, r);
    let mut p = EXP_POLY[0];
    for &c in &EXP_POLY[1..] {
        p = p.mul_add(r, c);
    }
    let y = p.mul_add(r * r, r) + 1.0;
    let n = n as i32;
    let h = n >> 1;
    y * pow2(h) * pow2(n - h)
}

/// `v[i] = exp(v[i])` for every element, 16 or 8 lanes at a time where
/// the effective SIMD level allows; bitwise [`exp`] at every level.
pub fn exp_inplace(v: &mut [f32]) {
    let done = match effective_simd_level() {
        // SAFETY: the level never exceeds the runtime-detected features.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { x86::exp_inplace_avx512(v) },
        // SAFETY: As above.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => unsafe { x86::exp_inplace_avx2(v) },
        _ => 0,
    };
    for x in &mut v[done..] {
        *x = exp(*x);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{EXP_POLY, LN2_HI, LN2_LO, X_HI, X_LO};
    use std::arch::x86_64::*;

    /// [`super::exp`] compiled with FMA (and the SSE4.1 rounding AVX2
    /// implies).
    ///
    /// # Safety
    ///
    /// The caller must ensure AVX2 and FMA are available.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn exp_fma(x: f32) -> f32 {
        super::exp_seq(x)
    }

    /// [`super::exp`] on 16 lanes.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn exp16(x: __m512) -> __m512 {
        let xc = _mm512_max_ps(_mm512_min_ps(x, _mm512_set1_ps(X_HI)), _mm512_set1_ps(X_LO));
        let n = _mm512_roundscale_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm512_mul_ps(xc, _mm512_set1_ps(std::f32::consts::LOG2_E)),
        );
        let r = _mm512_fnmadd_ps(n, _mm512_set1_ps(LN2_HI), xc);
        let r = _mm512_fnmadd_ps(n, _mm512_set1_ps(LN2_LO), r);
        let mut p = _mm512_set1_ps(EXP_POLY[0]);
        for &c in &EXP_POLY[1..] {
            p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(c));
        }
        let y = _mm512_add_ps(
            _mm512_fmadd_ps(p, _mm512_mul_ps(r, r), r),
            _mm512_set1_ps(1.0),
        );
        let n = _mm512_cvtps_epi32(n);
        let h = _mm512_srai_epi32::<1>(n);
        let bias = _mm512_set1_epi32(127);
        let s1 = _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_add_epi32(h, bias)));
        let s2 = _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_add_epi32(
            _mm512_sub_epi32(n, h),
            bias,
        )));
        let y = _mm512_mul_ps(_mm512_mul_ps(y, s1), s2);
        // NaN lanes return their input.
        let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(x, x);
        _mm512_mask_blend_ps(nan, y, x)
    }

    /// [`super::exp`] on 8 lanes.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn exp8(x: __m256) -> __m256 {
        let xc = _mm256_max_ps(_mm256_min_ps(x, _mm256_set1_ps(X_HI)), _mm256_set1_ps(X_LO));
        let n = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_ps(xc, _mm256_set1_ps(std::f32::consts::LOG2_E)),
        );
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(LN2_HI), xc);
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(LN2_LO), r);
        let mut p = _mm256_set1_ps(EXP_POLY[0]);
        for &c in &EXP_POLY[1..] {
            p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(c));
        }
        let y = _mm256_add_ps(
            _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r),
            _mm256_set1_ps(1.0),
        );
        let n = _mm256_cvtps_epi32(n);
        let h = _mm256_srai_epi32::<1>(n);
        let bias = _mm256_set1_epi32(127);
        let s1 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(h, bias)));
        let s2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_sub_epi32(n, h),
            bias,
        )));
        let y = _mm256_mul_ps(_mm256_mul_ps(y, s1), s2);
        // NaN lanes return their input.
        let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
        _mm256_blendv_ps(y, x, nan)
    }

    /// Maps [`exp16`] over the whole 16-lane chunks of `v`; returns how
    /// many elements it did.
    ///
    /// # Safety
    ///
    /// The caller must ensure AVX-512F is available.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn exp_inplace_avx512(v: &mut [f32]) -> usize {
        for c in v.chunks_exact_mut(16) {
            // SAFETY: `c` is 16 contiguous f32, one __m512.
            unsafe { _mm512_storeu_ps(c.as_mut_ptr(), exp16(_mm512_loadu_ps(c.as_ptr()))) };
        }
        v.len() / 16 * 16
    }

    /// [`exp_inplace_avx512`] on 8-lane chunks.
    ///
    /// # Safety
    ///
    /// The caller must ensure AVX2 and FMA are available.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn exp_inplace_avx2(v: &mut [f32]) -> usize {
        for c in v.chunks_exact_mut(8) {
            // SAFETY: `c` is 8 contiguous f32, one __m256.
            unsafe { _mm256_storeu_ps(c.as_mut_ptr(), exp8(_mm256_loadu_ps(c.as_ptr()))) };
        }
        v.len() / 8 * 8
    }
}

/// SiLU (sigmoid-weighted linear unit), the gate activation of the
/// DeepSeek/Qwen expert MLPs: `silu(x) = x / (1 + exp(-x))`.
pub fn silu(x: f32) -> f32 {
    x / (1.0 + exp(-x))
}

/// Applies `dst[i] = silu(gate[i]) * up[i]` — the fused SwiGLU combine
/// between the Gate and Up projections of an expert. The `exp` runs
/// through [`exp_inplace`]; the result is bitwise [`silu`]`(g) * u`.
pub fn swiglu_combine(gate: &[f32], up: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(gate.len(), up.len());
    debug_assert_eq!(gate.len(), dst.len());
    for (d, &g) in dst.iter_mut().zip(gate) {
        *d = -g;
    }
    exp_inplace(dst);
    for ((d, &g), &u) in dst.iter_mut().zip(gate).zip(up) {
        *d = g / (1.0 + *d) * u;
    }
}

/// Numerically stable in-place softmax: exact max, [`exp`] of each
/// shifted score, sum in ascending position, one divide each.
pub fn softmax_inplace(v: &mut [f32]) {
    if v.is_empty() {
        return;
    }
    let max = v.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    for x in v.iter_mut() {
        *x -= max;
    }
    exp_inplace(v);
    let sum = v.iter().fold(0.0f32, |s, &x| s + x);
    if sum > 0.0 {
        for x in v.iter_mut() {
            *x /= sum;
        }
    }
}

/// Sigmoid, used by DeepSeek-V3's gating scores.
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// `v[i] = sigmoid(v[i])` for every element, the `exp` through
/// [`exp_inplace`]; bitwise [`sigmoid`].
pub fn sigmoid_inplace(v: &mut [f32]) {
    for x in v.iter_mut() {
        *x = -*x;
    }
    exp_inplace(v);
    for x in v.iter_mut() {
        *x = 1.0 / (1.0 + *x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{simd_level, with_forced_simd_level};

    const LEVELS: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Avx512];

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The edge inputs of the contract, plus values around the clamp
    /// bounds, the overflow and underflow thresholds and zero.
    fn edges() -> Vec<f32> {
        vec![
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            88.72283,
            88.722_84,
            88.8,
            X_HI,
            100.0,
            -87.33654,
            -103.9,
            -103.98,
            X_LO,
            -105.0,
            -1e30,
            1e-30,
            0.5,
            -0.5,
        ]
    }

    #[test]
    fn exp_edges_follow_the_contract() {
        assert!(exp(f32::NAN).is_nan());
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(1000.0), f32::INFINITY);
        assert_eq!(exp(88.8), f32::INFINITY);
        assert_eq!(exp(f32::MAX), f32::INFINITY);
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(exp(-104.0).to_bits(), 0);
        assert_eq!(exp(f32::MIN).to_bits(), 0);
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        // Subnormal results round once: within one subnormal step of
        // the f64 value rounded to f32.
        for x in [-88.0f32, -90.0, -100.0, -103.0] {
            let (got, want) = (exp(x), (x as f64).exp() as f32);
            assert!(got < f32::MIN_POSITIVE && want > 0.0, "exp({x}) = {got}");
            assert!(
                got.to_bits().abs_diff(want.to_bits()) <= 1,
                "exp({x}) = {got} vs {want}"
            );
        }
        assert!(exp(88.7).is_finite());
    }

    #[test]
    fn exp_is_within_two_ulp_of_f64_on_the_normal_range() {
        // Every 1021st f32 bit pattern in [-87, 88]: ~2.2e6 values,
        // thousands in every binade of the input.
        let (lo, hi) = (-87.0f32, 88.0f32);
        let mut worst = 0.0f64;
        let mut check = |x: f32| {
            let want = (x as f64).exp();
            let ulp = 2f64.powi((want.log2().floor() as i32) - 23);
            let err = (exp(x) as f64 - want).abs() / ulp;
            assert!(
                err <= 2.0,
                "exp({x:e}) = {:e}, f64 {want:e}: {err} ulp",
                exp(x)
            );
            worst = worst.max(err);
        };
        for b in (0..hi.to_bits()).step_by(1021) {
            check(f32::from_bits(b));
        }
        for b in ((1u32 << 31)..lo.to_bits()).step_by(1021) {
            check(f32::from_bits(b));
        }
        check(lo);
        check(hi);
        assert!(worst > 0.0);
    }

    #[test]
    fn exp_inplace_is_bitwise_the_scalar_golden_at_every_level() {
        // A strided sweep of all 2^32 bit patterns (2^21 values, odd
        // stride so every lane position and exponent is hit) plus the
        // edges, in a slice whose length leaves a tail for every level.
        let mut xs: Vec<f32> = (0..1u32 << 21)
            .map(|i| f32::from_bits(i.wrapping_mul(2047).wrapping_add(i >> 11)))
            .collect();
        xs.extend(edges());
        xs.push(1.0);
        let exp_all = |xs: &[f32]| xs.iter().map(|&x| exp(x)).collect::<Vec<_>>();
        let want = with_forced_simd_level(SimdLevel::Scalar, || exp_all(&xs));
        for level in LEVELS {
            if simd_level() < level {
                continue;
            }
            let scalar = with_forced_simd_level(level, || exp_all(&xs));
            assert!(bits(&want) == bits(&scalar), "exp at {level:?}");
            let mut got = xs.clone();
            with_forced_simd_level(level, || exp_inplace(&mut got));
            assert!(bits(&want) == bits(&got), "exp_inplace at {level:?}");
            for (&x, &y) in edges().iter().zip(&got[got.len() - edges().len() - 1..]) {
                assert_eq!(exp(x).to_bits(), y.to_bits(), "edge {x} at {level:?}");
            }
        }
    }

    #[test]
    fn slice_functions_are_bitwise_the_scalar_golden_at_every_level() {
        let mut rng = kt_tensor::rng::seeded(3);
        for n in [1usize, 7, 16, 37, 512] {
            let mut gate = vec![0.0f32; n];
            let mut up = vec![0.0f32; n];
            kt_tensor::rng::fill_uniform(&mut rng, &mut gate, 12.0);
            kt_tensor::rng::fill_uniform(&mut rng, &mut up, 2.0);
            let mut scores = gate.clone();
            scores[0] = f32::NEG_INFINITY;
            let (want, want_sig, want_soft) = with_forced_simd_level(SimdLevel::Scalar, || {
                let want: Vec<f32> = gate.iter().zip(&up).map(|(&g, &u)| silu(g) * u).collect();
                let want_sig: Vec<f32> = gate.iter().map(|&g| sigmoid(g)).collect();
                let max = scores.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
                let e: Vec<f32> = scores.iter().map(|&x| exp(x - max)).collect();
                let sum = e.iter().fold(0.0f32, |s, &x| s + x);
                (
                    want,
                    want_sig,
                    e.iter().map(|&x| x / sum).collect::<Vec<_>>(),
                )
            });
            for level in LEVELS {
                if simd_level() < level {
                    continue;
                }
                let mut got = vec![f32::NAN; n];
                with_forced_simd_level(level, || swiglu_combine(&gate, &up, &mut got));
                assert_eq!(bits(&want), bits(&got), "swiglu n={n} {level:?}");
                let mut sig = gate.clone();
                with_forced_simd_level(level, || sigmoid_inplace(&mut sig));
                assert_eq!(bits(&want_sig), bits(&sig), "sigmoid n={n} {level:?}");
                let mut soft = scores.clone();
                with_forced_simd_level(level, || softmax_inplace(&mut soft));
                assert_eq!(bits(&want_soft), bits(&soft), "softmax n={n} {level:?}");
            }
        }
    }

    #[test]
    fn silu_known_values() {
        assert_eq!(silu(0.0), 0.0);
        assert!((silu(1.0) - 0.731_058_6).abs() < 1e-5);
        assert!(silu(-10.0).abs() < 1e-3);
        // SiLU is asymptotically identity for large x.
        assert!((silu(20.0) - 20.0).abs() < 1e-3);
    }

    #[test]
    fn swiglu_combines_elementwise() {
        let gate = [0.0, 1.0];
        let up = [3.0, 2.0];
        let mut dst = [0.0f32; 2];
        swiglu_combine(&gate, &up, &mut dst);
        assert_eq!(dst[0], 0.0);
        assert!((dst[1] - 2.0 * silu(1.0)).abs() < 1e-6);
    }

    #[test]
    fn softmax_sums_to_one_and_is_shift_invariant() {
        let mut a = [1.0f32, 2.0, 3.0];
        let mut b = [101.0f32, 102.0, 103.0];
        softmax_inplace(&mut a);
        softmax_inplace(&mut b);
        assert!((a.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_extremes() {
        let mut v = [f32::NEG_INFINITY, 0.0];
        softmax_inplace(&mut v);
        assert_eq!(v[0], 0.0);
        assert!((v[1] - 1.0).abs() < 1e-6);
        let mut empty: [f32; 0] = [];
        softmax_inplace(&mut empty);
    }

    #[test]
    fn sigmoid_is_bounded_and_centered() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!(sigmoid(100.0) <= 1.0);
        assert!(sigmoid(-100.0) >= 0.0);
    }
}
