//! SIMD kernels with runtime feature detection.
//!
//! The packed layout's [`kt_tensor::NR`] = 16 panel width was chosen to
//! match one AMX tile row — and it is also exactly one AVX-512 `zmm`
//! register of `f32`, or two AVX2 `ymm` registers. Every kernel here
//! walks the reduction dimension one K-step at a time, turns that
//! K-step's 16 stored weights of a panel into one `f32` vector and
//! issues fused multiply-adds against broadcast activations — the inner
//! loop of the paper's §3.2 kernels.
//!
//! # The block kernel
//!
//! There is **one kernel per (dtype, SIMD level)**, const-generic over
//! a block of `R` activation rows × `P` adjacent panels
//! (`gemv_{f32,bf16,int8,int4}_{avx512,avx2}::<R, P>`):
//!
//! * **Shared across the `R` rows:** the decode. Per K-step and panel
//!   the stored codes are loaded, widened (exact integer / bf16 → f32
//!   conversion) and multiplied by the group scale (one IEEE `mul`)
//!   **once**, and the resulting weight vector feeds all `R` rows.
//! * **Shared across the `P` panels:** the activation broadcasts.
//! * **Per (row, panel):** one accumulator register (two at AVX2) that
//!   sees exactly `acc = fma(x[kk], wv, acc)` in ascending `kk`. The
//!   `R·P` accumulators are independent dependency chains, so the FMA
//!   latency (~4 cycles) of one chain is hidden behind the others; a
//!   lone chain caps a kernel at 16 weights per FMA latency no matter
//!   how cheap the decode is.
//!
//! Because each accumulator's operation sequence does not depend on `R`
//! or `P`, a block's output for (row, panel) is **bitwise** the output
//! of the `1 × 1` instantiation, which is bitwise the scalar golden
//! reference (`gemv_*_scalar`: same widen, same `mul`, and
//! `f32::mul_add` is correctly rounded like the hardware FMA). Blocking
//! and the SIMD level are scheduling, not numerics.
//!
//! Register budget. AVX-512 has 32 `zmm` and takes two shapes, each
//! with 16 accumulators:
//!
//! * **`8 × 2`**, while 8 or more rows of the block remain: 16
//!   accumulators + 2 scale rows + activation broadcasts (foldable into
//!   the FMA as memory operands) + 2–3 decode temporaries. Each decoded
//!   weight vector feeds 8 rows, so a prefill bucket decodes every
//!   int4/int8 weight once per 8 rows.
//! * **`4 × 4`** (or fewer rows), for blocks and tails below 8 rows: 16
//!   accumulators + 4 scale rows + broadcasts + temporaries. A 1-row
//!   decode task still has 4 independent chains; an `8 × 2` cut of it
//!   would have 2 and be latency-bound.
//!
//! AVX2 has 16 `ymm` and needs two per panel row, so its largest block
//! is `2 × 2` (8 accumulators + 4 scale halves + 2 broadcasts +
//! temporaries). The dispatching entry points ([`gemv_f32`],
//! [`gemv_bf16`], [`gemv_int8`], [`gemv_int4`]) accept any block and cut
//! it into the running level's shapes; [`BLOCK_ROWS`] × [`BLOCK_PANELS`]
//! (8 × 4) is the block the callers in [`crate::gemm`] use as their task
//! granule.
//!
//! The tiled GEMM's register-blocked [`microkernel`] is the f32 block
//! kernel at `P = 1` over a staged panel.
//!
//! Tests can cap dispatch on the current thread with
//! [`with_forced_simd_level`]; the disabled-path cost is one relaxed
//! atomic load.

use kt_tensor::{Bf16, NR};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Available instruction level, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar fallback.
    Scalar,
    /// AVX2 + FMA (two 8-lane registers per panel row).
    Avx2Fma,
    /// AVX-512F (one 16-lane register per panel row).
    Avx512,
}

/// Detects the best available level (cached after first call).
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return SimdLevel::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return SimdLevel::Avx2Fma;
            }
        }
        SimdLevel::Scalar
    })
}

/// Count of live [`with_forced_simd_level`] scopes across all threads.
/// Zero (the overwhelmingly common case) means dispatch can skip the
/// thread-local lookup entirely.
static FORCE_SCOPES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread dispatch cap installed by [`with_forced_simd_level`].
    static FORCED_LEVEL: Cell<Option<SimdLevel>> = const { Cell::new(None) };
}

/// Runs `f` with SIMD dispatch on the **calling thread** capped at
/// `level`. Kernels executed by other threads (e.g. a `ThreadPool`)
/// are unaffected, so tests that need a pinned level call kernels with
/// `pool = None`. Scopes nest; the outer cap is restored on exit.
pub fn with_forced_simd_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    struct Guard(Option<SimdLevel>);
    impl Drop for Guard {
        fn drop(&mut self) {
            FORCED_LEVEL.with(|c| c.set(self.0));
            FORCE_SCOPES.fetch_sub(1, Ordering::Relaxed);
        }
    }
    let prev = FORCED_LEVEL.with(|c| c.replace(Some(level)));
    FORCE_SCOPES.fetch_add(1, Ordering::Relaxed);
    let _restore = Guard(prev);
    f()
}

/// The level dispatch actually uses: the detected level, capped by the
/// current thread's forced level when a forcing scope is active.
#[inline]
pub fn effective_simd_level() -> SimdLevel {
    let detected = simd_level();
    if FORCE_SCOPES.load(Ordering::Relaxed) == 0 {
        return detected;
    }
    FORCED_LEVEL
        .with(|c| c.get())
        .map_or(detected, |l| l.min(detected))
}

/// Portable scalar microkernel (the golden reference): accumulates `M`
/// activation rows against one staged K-major panel block, one
/// `acc = fma(a[kk], w[kk], acc)` per K-step like every other kernel.
///
/// Not inlined: without a target FMA, each `mul_add` is a libm call, and
/// inlined into [`microkernel`]'s fallback arm they would bloat every
/// tiled-GEMM caller for a level AVX hosts never run.
#[allow(clippy::needless_range_loop)] // fixed-trip loops vectorize best
#[inline(never)]
pub fn microkernel_scalar<const M: usize>(
    a: [&[f32]; M],
    staged: &[f32],
    kb: usize,
    acc: &mut [[f32; NR]; M],
) {
    for kk in 0..kb {
        let wrow = &staged[kk * NR..kk * NR + NR];
        for i in 0..M {
            let ai = a[i][kk];
            let t = &mut acc[i];
            for j in 0..NR {
                t[j] = ai.mul_add(wrow[j], t[j]);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fused-dequant kernels (the vector class; quantized serving hot path).
//
// Contract shared by every implementation below: for each K-step `kk`
// and each lane `j` of every (row, panel) accumulator, exactly
//
//     w      = widen(code[kk][j])            (exact int/bf16 -> f32)
//     wv     = w * scale[kk/group][j]        (one IEEE mul; skipped for f32/bf16)
//     acc[j] = fma(x[kk], wv, acc[j])        (correctly rounded FMA)
//
// in ascending `kk` order. `f32::mul_add` is correctly rounded, as are
// the AVX FMA instructions, and the widenings are exact, so scalar,
// AVX2 and AVX-512 paths agree bit for bit, whatever the block shape.
// ---------------------------------------------------------------------

/// Scalar golden reference: fused-dequant GEMV over one BF16 panel.
#[allow(clippy::needless_range_loop)]
pub fn gemv_bf16_scalar(x: &[f32], panel: &[Bf16], acc: &mut [f32; NR]) {
    debug_assert!(panel.len() >= x.len() * NR);
    for (kk, &xv) in x.iter().enumerate() {
        let wrow = &panel[kk * NR..kk * NR + NR];
        for j in 0..NR {
            acc[j] = xv.mul_add(wrow[j].to_f32(), acc[j]);
        }
    }
}

/// Scalar golden reference: fused-dequant GEMV over one Int8 panel.
#[allow(clippy::needless_range_loop)]
pub fn gemv_int8_scalar(
    x: &[f32],
    bytes: &[u8],
    scales: &[f32],
    group: usize,
    acc: &mut [f32; NR],
) {
    debug_assert!(bytes.len() >= x.len() * NR);
    for (kk, &xv) in x.iter().enumerate() {
        let srow = &scales[(kk / group) * NR..(kk / group) * NR + NR];
        let brow = &bytes[kk * NR..kk * NR + NR];
        for j in 0..NR {
            let wv = (brow[j] as i8) as f32 * srow[j];
            acc[j] = xv.mul_add(wv, acc[j]);
        }
    }
}

/// Scalar golden reference: fused-dequant GEMV over one Int4 panel
/// (two codes per byte: low nibble = even `kk`, high nibble = odd).
#[allow(clippy::needless_range_loop)]
pub fn gemv_int4_scalar(
    x: &[f32],
    bytes: &[u8],
    scales: &[f32],
    group: usize,
    acc: &mut [f32; NR],
) {
    debug_assert!(bytes.len() >= x.len().div_ceil(2) * NR);
    for (kk, &xv) in x.iter().enumerate() {
        let srow = &scales[(kk / group) * NR..(kk / group) * NR + NR];
        let brow = &bytes[(kk / 2) * NR..(kk / 2) * NR + NR];
        if kk % 2 == 0 {
            for j in 0..NR {
                let code = ((brow[j] & 0x0F) as i8) << 4 >> 4;
                acc[j] = xv.mul_add(code as f32 * srow[j], acc[j]);
            }
        } else {
            for j in 0..NR {
                let code = (brow[j] as i8) >> 4;
                acc[j] = xv.mul_add(code as f32 * srow[j], acc[j]);
            }
        }
    }
}

// Block-kernel calling convention (all eight kernels): `x[..R]` are the
// activation rows, all of one length `k`; the first `P` entries of the
// panel slices are adjacent panels of one weight matrix; tile
// `(r, p)` of the block lives in `acc[r * stride + p]` and is both the
// initial and the final accumulator value.

/// Loads the `R x P` accumulator tiles of a block into registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
#[allow(clippy::needless_range_loop)]
unsafe fn load_acc_avx512<const R: usize, const P: usize>(
    acc: &[[f32; NR]],
    stride: usize,
) -> [[std::arch::x86_64::__m512; P]; R] {
    use std::arch::x86_64::*;
    let mut v = [[_mm512_setzero_ps(); P]; R];
    for r in 0..R {
        for p in 0..P {
            // SAFETY: a tile is NR == 16 contiguous f32, one __m512.
            v[r][p] = unsafe { _mm512_loadu_ps(acc[r * stride + p].as_ptr()) };
        }
    }
    v
}

/// Stores the accumulator registers of a block back to its tiles.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
#[allow(clippy::needless_range_loop)]
unsafe fn store_acc_avx512<const R: usize, const P: usize>(
    v: [[std::arch::x86_64::__m512; P]; R],
    acc: &mut [[f32; NR]],
    stride: usize,
) {
    use std::arch::x86_64::*;
    for r in 0..R {
        for p in 0..P {
            // SAFETY: a tile is NR == 16 contiguous f32, one __m512.
            unsafe { _mm512_storeu_ps(acc[r * stride + p].as_mut_ptr(), v[r][p]) };
        }
    }
}

/// AVX-512 f32 block kernel: panels are K-major `f32` rows (a packed
/// f32 panel, or a staged block of the tiled GEMM).
///
/// # Safety
///
/// Caller must ensure AVX-512F is available, every `x[..R]` row has the
/// length of `x[0]` (= `k`) and every `panels[..P]` entry holds at least
/// `k * NR` values.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::needless_range_loop)] // fixed-trip loops unroll into registers
pub unsafe fn gemv_f32_avx512<const R: usize, const P: usize>(
    x: &[&[f32]],
    panels: &[&[f32]],
    acc: &mut [[f32; NR]],
    stride: usize,
) {
    use std::arch::x86_64::*;
    let k = x[0].len();
    debug_assert!(x[..R].iter().all(|row| row.len() == k));
    debug_assert!(panels[..P].iter().all(|w| w.len() >= k * NR));
    // SAFETY: per the contract above, row reads stay below `k` and
    // panel reads are one 16-lane row at `kk * NR`, `kk < k`.
    unsafe {
        let xp: [*const f32; R] = std::array::from_fn(|r| x[r].as_ptr());
        let wp: [*const f32; P] = std::array::from_fn(|p| panels[p].as_ptr());
        let mut vacc = load_acc_avx512::<R, P>(acc, stride);
        let mut kk = 0usize;
        while kk < k {
            let mut xv = [_mm512_setzero_ps(); R];
            for r in 0..R {
                xv[r] = _mm512_set1_ps(*xp[r].add(kk));
            }
            for p in 0..P {
                let w = _mm512_loadu_ps(wp[p].add(kk * NR));
                for r in 0..R {
                    vacc[r][p] = _mm512_fmadd_ps(xv[r], w, vacc[r][p]);
                }
            }
            kk += 1;
        }
        store_acc_avx512::<R, P>(vacc, acc, stride);
    }
}

/// AVX-512 fused-dequant BF16 block kernel: 16 halves are zero-extended
/// to `i32` and shifted into f32 position (exact).
///
/// # Safety
///
/// As for [`gemv_f32_avx512`], with `panels` holding [`Bf16`] rows.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::needless_range_loop)]
pub unsafe fn gemv_bf16_avx512<const R: usize, const P: usize>(
    x: &[&[f32]],
    panels: &[&[Bf16]],
    acc: &mut [[f32; NR]],
    stride: usize,
) {
    use std::arch::x86_64::*;
    let k = x[0].len();
    debug_assert!(x[..R].iter().all(|row| row.len() == k));
    debug_assert!(panels[..P].iter().all(|w| w.len() >= k * NR));
    // SAFETY: `Bf16` is repr(transparent) over u16; all loads stay
    // within their panel (one 16-lane row per K-step) per the contract.
    unsafe {
        let xp: [*const f32; R] = std::array::from_fn(|r| x[r].as_ptr());
        let wp: [*const u16; P] = std::array::from_fn(|p| panels[p].as_ptr().cast());
        let mut vacc = load_acc_avx512::<R, P>(acc, stride);
        let mut kk = 0usize;
        while kk < k {
            let mut xv = [_mm512_setzero_ps(); R];
            for r in 0..R {
                xv[r] = _mm512_set1_ps(*xp[r].add(kk));
            }
            for p in 0..P {
                let h = _mm256_loadu_si256(wp[p].add(kk * NR).cast());
                let w = _mm512_castsi512_ps(_mm512_slli_epi32(_mm512_cvtepu16_epi32(h), 16));
                for r in 0..R {
                    vacc[r][p] = _mm512_fmadd_ps(xv[r], w, vacc[r][p]);
                }
            }
            kk += 1;
        }
        store_acc_avx512::<R, P>(vacc, acc, stride);
    }
}

/// AVX-512 fused-dequant Int8 block kernel: 16 codes sign-extend to
/// `i32` in-register, one scale mul per (K-step, panel) with the scale
/// rows reloaded once per quantization group.
///
/// # Safety
///
/// As for [`gemv_f32_avx512`], with every `bytes[..P]` entry holding at
/// least `k * NR` codes and every `scales[..P]` entry one 16-wide row
/// per group; `group > 0`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::needless_range_loop)]
pub unsafe fn gemv_int8_avx512<const R: usize, const P: usize>(
    x: &[&[f32]],
    bytes: &[&[u8]],
    scales: &[&[f32]],
    group: usize,
    acc: &mut [[f32; NR]],
    stride: usize,
) {
    use std::arch::x86_64::*;
    let k = x[0].len();
    debug_assert!(x[..R].iter().all(|row| row.len() == k));
    debug_assert!(bytes[..P].iter().all(|b| b.len() >= k * NR));
    debug_assert!(scales[..P]
        .iter()
        .all(|s| s.len() >= k.div_ceil(group) * NR));
    // SAFETY: code-row loads are 16 bytes at `kk * NR` and scale loads
    // 64 bytes at `(kk/group) * NR`, both in bounds per the contract.
    unsafe {
        let xp: [*const f32; R] = std::array::from_fn(|r| x[r].as_ptr());
        let bp: [*const u8; P] = std::array::from_fn(|p| bytes[p].as_ptr());
        let sp: [*const f32; P] = std::array::from_fn(|p| scales[p].as_ptr());
        let mut vacc = load_acc_avx512::<R, P>(acc, stride);
        let mut g0 = 0usize;
        let mut gi = 0usize;
        while g0 < k {
            let gend = (g0 + group).min(k);
            let mut s = [_mm512_setzero_ps(); P];
            for p in 0..P {
                s[p] = _mm512_loadu_ps(sp[p].add(gi * NR));
            }
            let mut kk = g0;
            while kk < gend {
                let mut xv = [_mm512_setzero_ps(); R];
                for r in 0..R {
                    xv[r] = _mm512_set1_ps(*xp[r].add(kk));
                }
                for p in 0..P {
                    let codes = _mm_loadu_si128(bp[p].add(kk * NR).cast());
                    let wv = _mm512_mul_ps(_mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(codes)), s[p]);
                    for r in 0..R {
                        vacc[r][p] = _mm512_fmadd_ps(xv[r], wv, vacc[r][p]);
                    }
                }
                kk += 1;
            }
            g0 = gend;
            gi += 1;
        }
        store_acc_avx512::<R, P>(vacc, acc, stride);
    }
}

/// AVX-512 fused-dequant Int4 block kernel. Each 16-byte row holds the
/// codes of two adjacent K-steps; nibbles sign-extend via shift pairs
/// (even: `<< 28 >> 28`, odd: `<< 24 >> 28`). Int4 groups are even, so
/// both K-steps of a byte row share one scale row. An odd trailing
/// K-step cannot occur for packed weights (their even group divides
/// `k`) and is handled for robustness.
///
/// # Safety
///
/// As for [`gemv_int8_avx512`], with every `bytes[..P]` entry holding at
/// least `ceil(k/2) * NR` packed bytes; `group` is even.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::needless_range_loop)]
pub unsafe fn gemv_int4_avx512<const R: usize, const P: usize>(
    x: &[&[f32]],
    bytes: &[&[u8]],
    scales: &[&[f32]],
    group: usize,
    acc: &mut [[f32; NR]],
    stride: usize,
) {
    use std::arch::x86_64::*;
    let k = x[0].len();
    debug_assert!(x[..R].iter().all(|row| row.len() == k));
    debug_assert!(bytes[..P].iter().all(|b| b.len() >= k.div_ceil(2) * NR));
    debug_assert!(scales[..P]
        .iter()
        .all(|s| s.len() >= k.div_ceil(group) * NR));
    debug_assert!(group.is_multiple_of(2));
    // SAFETY: byte-row loads are 16 bytes at `(kk/2) * NR`; scale loads
    // 64 bytes at the group row — in bounds per the contract.
    unsafe {
        let xp: [*const f32; R] = std::array::from_fn(|r| x[r].as_ptr());
        let bp: [*const u8; P] = std::array::from_fn(|p| bytes[p].as_ptr());
        let sp: [*const f32; P] = std::array::from_fn(|p| scales[p].as_ptr());
        let mut vacc = load_acc_avx512::<R, P>(acc, stride);
        let mut g0 = 0usize;
        let mut gi = 0usize;
        while g0 < k {
            let gend = (g0 + group).min(k);
            let mut s = [_mm512_setzero_ps(); P];
            for p in 0..P {
                s[p] = _mm512_loadu_ps(sp[p].add(gi * NR));
            }
            let mut kk = g0;
            while kk < gend {
                let pair = kk + 1 < gend;
                for p in 0..P {
                    let w32 =
                        _mm512_cvtepu8_epi32(_mm_loadu_si128(bp[p].add((kk / 2) * NR).cast()));
                    let we = _mm512_srai_epi32(_mm512_slli_epi32(w32, 28), 28);
                    let wve = _mm512_mul_ps(_mm512_cvtepi32_ps(we), s[p]);
                    for r in 0..R {
                        vacc[r][p] =
                            _mm512_fmadd_ps(_mm512_set1_ps(*xp[r].add(kk)), wve, vacc[r][p]);
                    }
                    if pair {
                        let wo = _mm512_srai_epi32(_mm512_slli_epi32(w32, 24), 28);
                        let wvo = _mm512_mul_ps(_mm512_cvtepi32_ps(wo), s[p]);
                        for r in 0..R {
                            vacc[r][p] = _mm512_fmadd_ps(
                                _mm512_set1_ps(*xp[r].add(kk + 1)),
                                wvo,
                                vacc[r][p],
                            );
                        }
                    }
                }
                kk += 2;
            }
            g0 = gend;
            gi += 1;
        }
        store_acc_avx512::<R, P>(vacc, acc, stride);
    }
}

/// AVX2 accumulators of one tile: lanes `0..8` and `8..16`.
#[cfg(target_arch = "x86_64")]
type Halves = [std::arch::x86_64::__m256; 2];

/// Loads the `R x P` accumulator tiles of a block into `ymm` halves.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
#[allow(clippy::needless_range_loop)]
unsafe fn load_acc_avx2<const R: usize, const P: usize>(
    acc: &[[f32; NR]],
    stride: usize,
) -> [[Halves; P]; R] {
    use std::arch::x86_64::*;
    let mut v = [[[_mm256_setzero_ps(); 2]; P]; R];
    for r in 0..R {
        for p in 0..P {
            let t = acc[r * stride + p].as_ptr();
            // SAFETY: a tile is NR == 16 contiguous f32, two __m256.
            v[r][p] = unsafe { [_mm256_loadu_ps(t), _mm256_loadu_ps(t.add(8))] };
        }
    }
    v
}

/// Stores the accumulator halves of a block back to its tiles.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
#[allow(clippy::needless_range_loop)]
unsafe fn store_acc_avx2<const R: usize, const P: usize>(
    v: [[Halves; P]; R],
    acc: &mut [[f32; NR]],
    stride: usize,
) {
    use std::arch::x86_64::*;
    for r in 0..R {
        for p in 0..P {
            let t = acc[r * stride + p].as_mut_ptr();
            // SAFETY: a tile is NR == 16 contiguous f32, two __m256.
            unsafe {
                _mm256_storeu_ps(t, v[r][p][0]);
                _mm256_storeu_ps(t.add(8), v[r][p][1]);
            }
        }
    }
}

/// AVX2+FMA f32 block kernel (two 8-lane halves per panel row).
///
/// # Safety
///
/// Caller must ensure AVX2 and FMA are available; bounds as for
/// [`gemv_f32_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::needless_range_loop)]
pub unsafe fn gemv_f32_avx2<const R: usize, const P: usize>(
    x: &[&[f32]],
    panels: &[&[f32]],
    acc: &mut [[f32; NR]],
    stride: usize,
) {
    use std::arch::x86_64::*;
    let k = x[0].len();
    debug_assert!(x[..R].iter().all(|row| row.len() == k));
    debug_assert!(panels[..P].iter().all(|w| w.len() >= k * NR));
    // SAFETY: As for `gemv_f32_avx512`, split into ymm halves.
    unsafe {
        let xp: [*const f32; R] = std::array::from_fn(|r| x[r].as_ptr());
        let wp: [*const f32; P] = std::array::from_fn(|p| panels[p].as_ptr());
        let mut vacc = load_acc_avx2::<R, P>(acc, stride);
        let mut kk = 0usize;
        while kk < k {
            let mut xv = [_mm256_setzero_ps(); R];
            for r in 0..R {
                xv[r] = _mm256_set1_ps(*xp[r].add(kk));
            }
            for p in 0..P {
                let w = [
                    _mm256_loadu_ps(wp[p].add(kk * NR)),
                    _mm256_loadu_ps(wp[p].add(kk * NR + 8)),
                ];
                for r in 0..R {
                    vacc[r][p][0] = _mm256_fmadd_ps(xv[r], w[0], vacc[r][p][0]);
                    vacc[r][p][1] = _mm256_fmadd_ps(xv[r], w[1], vacc[r][p][1]);
                }
            }
            kk += 1;
        }
        store_acc_avx2::<R, P>(vacc, acc, stride);
    }
}

/// AVX2+FMA fused-dequant BF16 block kernel.
///
/// # Safety
///
/// Caller must ensure AVX2 and FMA are available; bounds as for
/// [`gemv_bf16_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::needless_range_loop)]
pub unsafe fn gemv_bf16_avx2<const R: usize, const P: usize>(
    x: &[&[f32]],
    panels: &[&[Bf16]],
    acc: &mut [[f32; NR]],
    stride: usize,
) {
    use std::arch::x86_64::*;
    let k = x[0].len();
    debug_assert!(x[..R].iter().all(|row| row.len() == k));
    debug_assert!(panels[..P].iter().all(|w| w.len() >= k * NR));
    // SAFETY: As for `gemv_bf16_avx512`, split into ymm halves.
    unsafe {
        let xp: [*const f32; R] = std::array::from_fn(|r| x[r].as_ptr());
        let wp: [*const u16; P] = std::array::from_fn(|p| panels[p].as_ptr().cast());
        let mut vacc = load_acc_avx2::<R, P>(acc, stride);
        let mut kk = 0usize;
        while kk < k {
            let mut xv = [_mm256_setzero_ps(); R];
            for r in 0..R {
                xv[r] = _mm256_set1_ps(*xp[r].add(kk));
            }
            for p in 0..P {
                let h = _mm256_loadu_si256(wp[p].add(kk * NR).cast());
                let w = [
                    _mm256_castsi256_ps(_mm256_slli_epi32(
                        _mm256_cvtepu16_epi32(_mm256_castsi256_si128(h)),
                        16,
                    )),
                    _mm256_castsi256_ps(_mm256_slli_epi32(
                        _mm256_cvtepu16_epi32(_mm256_extracti128_si256(h, 1)),
                        16,
                    )),
                ];
                for r in 0..R {
                    vacc[r][p][0] = _mm256_fmadd_ps(xv[r], w[0], vacc[r][p][0]);
                    vacc[r][p][1] = _mm256_fmadd_ps(xv[r], w[1], vacc[r][p][1]);
                }
            }
            kk += 1;
        }
        store_acc_avx2::<R, P>(vacc, acc, stride);
    }
}

/// AVX2+FMA fused-dequant Int8 block kernel.
///
/// # Safety
///
/// Caller must ensure AVX2 and FMA are available; bounds as for
/// [`gemv_int8_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::needless_range_loop)]
pub unsafe fn gemv_int8_avx2<const R: usize, const P: usize>(
    x: &[&[f32]],
    bytes: &[&[u8]],
    scales: &[&[f32]],
    group: usize,
    acc: &mut [[f32; NR]],
    stride: usize,
) {
    use std::arch::x86_64::*;
    let k = x[0].len();
    debug_assert!(x[..R].iter().all(|row| row.len() == k));
    debug_assert!(bytes[..P].iter().all(|b| b.len() >= k * NR));
    debug_assert!(scales[..P]
        .iter()
        .all(|s| s.len() >= k.div_ceil(group) * NR));
    // SAFETY: As for `gemv_int8_avx512`, split into ymm halves.
    unsafe {
        let xp: [*const f32; R] = std::array::from_fn(|r| x[r].as_ptr());
        let bp: [*const u8; P] = std::array::from_fn(|p| bytes[p].as_ptr());
        let sp: [*const f32; P] = std::array::from_fn(|p| scales[p].as_ptr());
        let mut vacc = load_acc_avx2::<R, P>(acc, stride);
        let mut g0 = 0usize;
        let mut gi = 0usize;
        while g0 < k {
            let gend = (g0 + group).min(k);
            let mut s = [[_mm256_setzero_ps(); 2]; P];
            for p in 0..P {
                s[p] = [
                    _mm256_loadu_ps(sp[p].add(gi * NR)),
                    _mm256_loadu_ps(sp[p].add(gi * NR + 8)),
                ];
            }
            let mut kk = g0;
            while kk < gend {
                let mut xv = [_mm256_setzero_ps(); R];
                for r in 0..R {
                    xv[r] = _mm256_set1_ps(*xp[r].add(kk));
                }
                for p in 0..P {
                    let codes = _mm_loadu_si128(bp[p].add(kk * NR).cast());
                    let wv = [
                        _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(codes)), s[p][0]),
                        _mm256_mul_ps(
                            _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_srli_si128(codes, 8))),
                            s[p][1],
                        ),
                    ];
                    for r in 0..R {
                        vacc[r][p][0] = _mm256_fmadd_ps(xv[r], wv[0], vacc[r][p][0]);
                        vacc[r][p][1] = _mm256_fmadd_ps(xv[r], wv[1], vacc[r][p][1]);
                    }
                }
                kk += 1;
            }
            g0 = gend;
            gi += 1;
        }
        store_acc_avx2::<R, P>(vacc, acc, stride);
    }
}

/// AVX2+FMA fused-dequant Int4 block kernel.
///
/// # Safety
///
/// Caller must ensure AVX2 and FMA are available; bounds as for
/// [`gemv_int4_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::needless_range_loop)]
pub unsafe fn gemv_int4_avx2<const R: usize, const P: usize>(
    x: &[&[f32]],
    bytes: &[&[u8]],
    scales: &[&[f32]],
    group: usize,
    acc: &mut [[f32; NR]],
    stride: usize,
) {
    use std::arch::x86_64::*;
    let k = x[0].len();
    debug_assert!(x[..R].iter().all(|row| row.len() == k));
    debug_assert!(bytes[..P].iter().all(|b| b.len() >= k.div_ceil(2) * NR));
    debug_assert!(scales[..P]
        .iter()
        .all(|s| s.len() >= k.div_ceil(group) * NR));
    debug_assert!(group.is_multiple_of(2));
    // SAFETY: As for `gemv_int4_avx512`, split into ymm halves.
    unsafe {
        let xp: [*const f32; R] = std::array::from_fn(|r| x[r].as_ptr());
        let bp: [*const u8; P] = std::array::from_fn(|p| bytes[p].as_ptr());
        let sp: [*const f32; P] = std::array::from_fn(|p| scales[p].as_ptr());
        let mut vacc = load_acc_avx2::<R, P>(acc, stride);
        let mut g0 = 0usize;
        let mut gi = 0usize;
        while g0 < k {
            let gend = (g0 + group).min(k);
            let mut s = [[_mm256_setzero_ps(); 2]; P];
            for p in 0..P {
                s[p] = [
                    _mm256_loadu_ps(sp[p].add(gi * NR)),
                    _mm256_loadu_ps(sp[p].add(gi * NR + 8)),
                ];
            }
            let mut kk = g0;
            while kk < gend {
                let pair = kk + 1 < gend;
                for p in 0..P {
                    let b = _mm_loadu_si128(bp[p].add((kk / 2) * NR).cast());
                    let b32 = [
                        _mm256_cvtepu8_epi32(b),
                        _mm256_cvtepu8_epi32(_mm_srli_si128(b, 8)),
                    ];
                    for h in 0..2 {
                        let we = _mm256_srai_epi32(_mm256_slli_epi32(b32[h], 28), 28);
                        let wve = _mm256_mul_ps(_mm256_cvtepi32_ps(we), s[p][h]);
                        for r in 0..R {
                            vacc[r][p][h] =
                                _mm256_fmadd_ps(_mm256_set1_ps(*xp[r].add(kk)), wve, vacc[r][p][h]);
                        }
                    }
                    if pair {
                        for h in 0..2 {
                            let wo = _mm256_srai_epi32(_mm256_slli_epi32(b32[h], 24), 28);
                            let wvo = _mm256_mul_ps(_mm256_cvtepi32_ps(wo), s[p][h]);
                            for r in 0..R {
                                vacc[r][p][h] = _mm256_fmadd_ps(
                                    _mm256_set1_ps(*xp[r].add(kk + 1)),
                                    wvo,
                                    vacc[r][p][h],
                                );
                            }
                        }
                    }
                }
                kk += 2;
            }
            g0 = gend;
            gi += 1;
        }
        store_acc_avx2::<R, P>(vacc, acc, stride);
    }
}

/// Activation rows per block the callers in [`crate::gemm`] hand to the
/// dispatching kernels: the most any level takes in one kernel call.
pub const BLOCK_ROWS: usize = 8;

/// Adjacent panels per block, likewise.
pub const BLOCK_PANELS: usize = 4;

/// Calls `f(r0, rows, p0, panels)` for every sub-block of an
/// `nr x np` block, cut to a level's register budget: `shape(left)`
/// gives the height and panel width of the row chunk that starts with
/// `left` rows to go; its panels run in chunks of that width and single
/// panels for the tail — the shapes [`dispatch_block`] instantiates.
#[cfg(target_arch = "x86_64")]
fn sub_blocks(
    nr: usize,
    np: usize,
    shape: impl Fn(usize) -> (usize, usize),
    mut f: impl FnMut(usize, usize, usize, usize),
) {
    let mut r0 = 0;
    while r0 < nr {
        let (rb, pmax) = shape(nr - r0);
        let mut p0 = 0;
        while p0 < np {
            let pb = if np - p0 >= pmax { pmax } else { 1 };
            f(r0, rb, p0, pb);
            p0 += pb;
        }
        r0 += rb;
    }
}

/// AVX-512 sub-block shape for a row chunk with `left` rows to go:
/// `8 x 2` while 8 rows remain (each decoded weight vector feeds 8
/// rows), else up to `4 x 4` (fewer rows need more panels for 16
/// independent chains).
#[cfg(target_arch = "x86_64")]
fn avx512_shape(left: usize) -> (usize, usize) {
    if left >= 8 {
        (8, 2)
    } else {
        (left.min(4), 4)
    }
}

/// Expands to `$kernel::<R, P> $args` for the runtime shape
/// `($rb, $pb)`, over the listed instantiations.
#[cfg(target_arch = "x86_64")]
macro_rules! block_call {
    ($kernel:ident [$(($r:literal, $p:literal)),+] ($rb:expr, $pb:expr) $args:tt) => {
        match ($rb, $pb) {
            $(($r, $p) => $kernel::<$r, $p> $args,)+
            shape => unreachable!("{} has no {shape:?} block", stringify!($kernel)),
        }
    };
}

/// Runs the `x.len() x $np` block `$acc` at the effective SIMD level.
/// The AVX arms cut it into their register shapes — AVX-512 8 rows x
/// (2 panels | 1 tail panel) while 8 rows remain, then up to 4 x
/// (4 | 1); AVX2 up to 2 x (2 | 1) — and call
/// `$avx512` / `$avx2` with `x`, the per-panel slices `$panels` (each
/// offset to the sub-block), the `$extra` arguments, and the sub-block's
/// first tile with row stride `$np`. The scalar level evaluates
/// `$golden` for every `($row, $p)` with `$tile = &mut acc[r * np + p]`.
/// Callers assert every length the kernels' `# Safety` sections name.
macro_rules! dispatch_block {
    ($x:ident, $np:ident, $acc:ident, $avx512:ident, $avx2:ident,
     [$($panels:ident),+] $(, $extra:expr)*;
     |$row:ident, $p:ident, $tile:ident| $golden:expr) => {
        match effective_simd_level() {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => sub_blocks($x.len(), $np, avx512_shape, |r0, rb, p0, pb| {
                // SAFETY: the level never exceeds the runtime-detected
                // features; the caller asserted the slice lengths.
                unsafe {
                    block_call!(
                        $avx512 [(1, 1), (2, 1), (3, 1), (4, 1), (8, 1),
                                 (1, 4), (2, 4), (3, 4), (4, 4), (8, 2)]
                        (rb, pb)
                        (&$x[r0..], $(&$panels[p0..],)+ $($extra,)* &mut $acc[r0 * $np + p0..], $np)
                    )
                }
            }),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2Fma => sub_blocks($x.len(), $np, |left| (left.min(2), 2), |r0, rb, p0, pb| {
                // SAFETY: As above.
                unsafe {
                    block_call!(
                        $avx2 [(1, 1), (2, 1), (1, 2), (2, 2)]
                        (rb, pb)
                        (&$x[r0..], $(&$panels[p0..],)+ $($extra,)* &mut $acc[r0 * $np + p0..], $np)
                    )
                }
            }),
            _ => {
                for (r, &$row) in $x.iter().enumerate() {
                    for $p in 0..$np {
                        let $tile = &mut $acc[r * $np + $p];
                        $golden;
                    }
                }
            }
        }
    };
}

/// Checks the row side of a block (`acc` is `x.len() x np` tiles, every
/// row the same length) and returns that length `k`. The AVX kernels
/// read through raw pointers, so these are real assertions.
fn block_k(x: &[&[f32]], np: usize, acc: &[[f32; NR]]) -> usize {
    let k = x.first().map_or(0, |row| row.len());
    assert!(
        x.iter().all(|row| row.len() == k),
        "block rows differ in length"
    );
    assert_eq!(acc.len(), x.len() * np, "acc must hold rows x panels tiles");
    k
}

/// Dispatching microkernel of the tiled GEMM: accumulates `M`
/// activation rows against one staged K-major panel block — the f32
/// block kernel at `P = 1`.
#[inline]
pub fn microkernel<const M: usize>(
    a: [&[f32]; M],
    staged: &[f32],
    kb: usize,
    acc: &mut [[f32; NR]; M],
) {
    match effective_simd_level() {
        #[cfg(target_arch = "x86_64")]
        level @ (SimdLevel::Avx512 | SimdLevel::Avx2Fma) => {
            let a = a.map(|row| &row[..kb]);
            let staged = [&staged[..kb * NR]];
            // SAFETY: `effective_simd_level` never exceeds the detected
            // level, which verified the features at runtime; the slices
            // above have exactly the lengths the kernels require.
            unsafe {
                if level == SimdLevel::Avx512 {
                    gemv_f32_avx512::<M, 1>(&a, &staged, acc, 1)
                } else {
                    gemv_f32_avx2::<M, 1>(&a, &staged, acc, 1)
                }
            }
        }
        _ => microkernel_scalar::<M>(a, staged, kb, acc),
    }
}

/// Dispatching f32 block GEMV: `acc[r * panels.len() + p]` accumulates
/// row `x[r]` against K-major f32 panel `panels[p]`, for any number of
/// rows and panels.
///
/// # Panics
///
/// Panics if rows differ in length, a panel is shorter than
/// `k * NR`, or `acc` is not `x.len() * panels.len()` tiles.
pub fn gemv_f32(x: &[&[f32]], panels: &[&[f32]], acc: &mut [[f32; NR]]) {
    let np = panels.len();
    let k = block_k(x, np, acc);
    assert!(
        panels.iter().all(|w| w.len() >= k * NR),
        "f32 panel shorter than k rows"
    );
    dispatch_block!(x, np, acc, gemv_f32_avx512, gemv_f32_avx2, [panels];
        |row, p, tile| microkernel_scalar::<1>([row], panels[p], k, std::array::from_mut(tile)));
}

/// Dispatching fused-dequant BF16 block GEMV (layout as [`gemv_f32`]).
///
/// # Panics
///
/// As for [`gemv_f32`].
pub fn gemv_bf16(x: &[&[f32]], panels: &[&[Bf16]], acc: &mut [[f32; NR]]) {
    let np = panels.len();
    let k = block_k(x, np, acc);
    assert!(
        panels.iter().all(|w| w.len() >= k * NR),
        "bf16 panel shorter than k rows"
    );
    dispatch_block!(x, np, acc, gemv_bf16_avx512, gemv_bf16_avx2, [panels];
        |row, p, tile| gemv_bf16_scalar(row, panels[p], tile));
}

/// Checks the panel side of a quantized block: `rows` code rows of
/// [`NR`] bytes and one scale row per `group` K-steps, per panel.
fn check_quant(bytes: &[&[u8]], scales: &[&[f32]], rows: usize, k: usize, group: usize) {
    assert!(group > 0, "quantization group must be positive");
    assert_eq!(bytes.len(), scales.len(), "one scale slice per panel");
    assert!(
        bytes.iter().all(|b| b.len() >= rows * NR),
        "code panel too short"
    );
    assert!(
        scales.iter().all(|s| s.len() >= k.div_ceil(group) * NR),
        "scale panel too short"
    );
}

/// Dispatching fused-dequant Int8 block GEMV (layout as [`gemv_f32`];
/// `scales[p]` holds one [`NR`]-wide row per `group` K-steps).
///
/// # Panics
///
/// As for [`gemv_f32`], and if a scale slice is too short.
pub fn gemv_int8(
    x: &[&[f32]],
    bytes: &[&[u8]],
    scales: &[&[f32]],
    group: usize,
    acc: &mut [[f32; NR]],
) {
    let np = bytes.len();
    let k = block_k(x, np, acc);
    check_quant(bytes, scales, k, k, group);
    dispatch_block!(x, np, acc, gemv_int8_avx512, gemv_int8_avx2, [bytes, scales], group;
        |row, p, tile| gemv_int8_scalar(row, bytes[p], scales[p], group, tile));
}

/// Dispatching fused-dequant Int4 block GEMV (layout as [`gemv_int8`];
/// two codes per byte: low nibble = even `kk`, high nibble = odd).
///
/// # Panics
///
/// As for [`gemv_int8`], and if `group` is odd (a byte row would
/// straddle two scale rows).
pub fn gemv_int4(
    x: &[&[f32]],
    bytes: &[&[u8]],
    scales: &[&[f32]],
    group: usize,
    acc: &mut [[f32; NR]],
) {
    let np = bytes.len();
    let k = block_k(x, np, acc);
    check_quant(bytes, scales, k.div_ceil(2), k, group);
    assert!(group.is_multiple_of(2), "int4 groups are even");
    dispatch_block!(x, np, acc, gemv_int4_avx512, gemv_int4_avx2, [bytes, scales], group;
        |row, p, tile| gemv_int4_scalar(row, bytes[p], scales[p], group, tile));
}

// ---------------------------------------------------------------------
// SIMD dequant-to-buffer (staging) helpers for the tiled GEMM path.
//
// The tiled kernel dequantizes one KC-block of a panel exactly once and
// reuses it for every activation row — that staging pass is where its
// dequant cost lives, so it gets the same in-register treatment. Every
// staged value is exactly `widen(code) * scale` (one IEEE mul), the
// same value the scalar staging produced, so the staged buffer is
// bitwise level-independent.
// ---------------------------------------------------------------------

/// Dequantizes BF16 K-steps `k0..k1` into `buf` (K-major, NR lanes).
pub fn stage_bf16(panel: &[Bf16], k0: usize, k1: usize, buf: &mut [f32]) {
    debug_assert!(buf.len() >= (k1 - k0) * NR);
    #[cfg(target_arch = "x86_64")]
    if effective_simd_level() >= SimdLevel::Avx2Fma {
        // SAFETY: AVX2 verified by the level check; bounds per the
        // debug assertion and the panel layout.
        unsafe { stage_bf16_avx2(panel, k0, k1, buf) };
        return;
    }
    for (dst, src) in buf[..(k1 - k0) * NR]
        .iter_mut()
        .zip(&panel[k0 * NR..k1 * NR])
    {
        *dst = src.to_f32();
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn stage_bf16_avx2(panel: &[Bf16], k0: usize, k1: usize, buf: &mut [f32]) {
    use std::arch::x86_64::*;
    // SAFETY: Caller verified AVX2; each iteration reads one 16-lane
    // u16 row and writes one 16-lane f32 row, in bounds.
    unsafe {
        let wp = panel.as_ptr().cast::<u16>();
        let dp = buf.as_mut_ptr();
        for kk in k0..k1 {
            let h = _mm256_loadu_si256(wp.add(kk * NR).cast());
            let lo = _mm256_castsi256_ps(_mm256_slli_epi32(
                _mm256_cvtepu16_epi32(_mm256_castsi256_si128(h)),
                16,
            ));
            let hi = _mm256_castsi256_ps(_mm256_slli_epi32(
                _mm256_cvtepu16_epi32(_mm256_extracti128_si256(h, 1)),
                16,
            ));
            _mm256_storeu_ps(dp.add((kk - k0) * NR), lo);
            _mm256_storeu_ps(dp.add((kk - k0) * NR + 8), hi);
        }
    }
}

/// Dequantizes Int8 K-steps `k0..k1` into `buf` (K-major, NR lanes).
#[allow(clippy::needless_range_loop)]
pub fn stage_int8(
    bytes: &[u8],
    scales: &[f32],
    group: usize,
    k0: usize,
    k1: usize,
    buf: &mut [f32],
) {
    debug_assert!(buf.len() >= (k1 - k0) * NR);
    #[cfg(target_arch = "x86_64")]
    if effective_simd_level() >= SimdLevel::Avx2Fma {
        // SAFETY: AVX2 verified by the level check; bounds per the
        // debug assertion and the panel layout.
        unsafe { stage_int8_avx2(bytes, scales, group, k0, k1, buf) };
        return;
    }
    for kk in k0..k1 {
        let srow = &scales[(kk / group) * NR..(kk / group) * NR + NR];
        let brow = &bytes[kk * NR..kk * NR + NR];
        let drow = &mut buf[(kk - k0) * NR..(kk - k0) * NR + NR];
        for j in 0..NR {
            drow[j] = (brow[j] as i8) as f32 * srow[j];
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn stage_int8_avx2(
    bytes: &[u8],
    scales: &[f32],
    group: usize,
    k0: usize,
    k1: usize,
    buf: &mut [f32],
) {
    use std::arch::x86_64::*;
    // SAFETY: Caller verified AVX2; loads/stores are one 16-lane row
    // per K-step, in bounds per the layout contract.
    unsafe {
        let bp = bytes.as_ptr();
        let sp = scales.as_ptr();
        let dp = buf.as_mut_ptr();
        for kk in k0..k1 {
            let codes = _mm_loadu_si128(bp.add(kk * NR).cast());
            let wlo = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(codes));
            let whi = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_srli_si128(codes, 8)));
            let slo = _mm256_loadu_ps(sp.add((kk / group) * NR));
            let shi = _mm256_loadu_ps(sp.add((kk / group) * NR + 8));
            _mm256_storeu_ps(dp.add((kk - k0) * NR), _mm256_mul_ps(wlo, slo));
            _mm256_storeu_ps(dp.add((kk - k0) * NR + 8), _mm256_mul_ps(whi, shi));
        }
    }
}

/// Dequantizes Int4 K-steps `k0..k1` into `buf` (K-major, NR lanes).
#[allow(clippy::needless_range_loop)]
pub fn stage_int4(
    bytes: &[u8],
    scales: &[f32],
    group: usize,
    k0: usize,
    k1: usize,
    buf: &mut [f32],
) {
    debug_assert!(buf.len() >= (k1 - k0) * NR);
    #[cfg(target_arch = "x86_64")]
    if effective_simd_level() >= SimdLevel::Avx2Fma {
        // SAFETY: AVX2 verified by the level check; bounds per the
        // debug assertion and the panel layout.
        unsafe { stage_int4_avx2(bytes, scales, group, k0, k1, buf) };
        return;
    }
    for kk in k0..k1 {
        let srow = &scales[(kk / group) * NR..(kk / group) * NR + NR];
        let brow = &bytes[(kk / 2) * NR..(kk / 2) * NR + NR];
        let drow = &mut buf[(kk - k0) * NR..(kk - k0) * NR + NR];
        if kk % 2 == 0 {
            for j in 0..NR {
                let code = ((brow[j] & 0x0F) as i8) << 4 >> 4;
                drow[j] = code as f32 * srow[j];
            }
        } else {
            for j in 0..NR {
                let code = (brow[j] as i8) >> 4;
                drow[j] = code as f32 * srow[j];
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn stage_int4_avx2(
    bytes: &[u8],
    scales: &[f32],
    group: usize,
    k0: usize,
    k1: usize,
    buf: &mut [f32],
) {
    use std::arch::x86_64::*;
    // SAFETY: Caller verified AVX2; byte-row loads are 16 bytes at
    // `(kk/2) * NR`, in bounds per the layout contract.
    unsafe {
        let bp = bytes.as_ptr();
        let sp = scales.as_ptr();
        let dp = buf.as_mut_ptr();
        for kk in k0..k1 {
            let b = _mm_loadu_si128(bp.add((kk / 2) * NR).cast());
            let blo = _mm256_cvtepu8_epi32(b);
            let bhi = _mm256_cvtepu8_epi32(_mm_srli_si128(b, 8));
            let (clo, chi) = if kk % 2 == 0 {
                (
                    _mm256_srai_epi32(_mm256_slli_epi32(blo, 28), 28),
                    _mm256_srai_epi32(_mm256_slli_epi32(bhi, 28), 28),
                )
            } else {
                (
                    _mm256_srai_epi32(_mm256_slli_epi32(blo, 24), 28),
                    _mm256_srai_epi32(_mm256_slli_epi32(bhi, 24), 28),
                )
            };
            let slo = _mm256_loadu_ps(sp.add((kk / group) * NR));
            let shi = _mm256_loadu_ps(sp.add((kk / group) * NR + 8));
            _mm256_storeu_ps(
                dp.add((kk - k0) * NR),
                _mm256_mul_ps(_mm256_cvtepi32_ps(clo), slo),
            );
            _mm256_storeu_ps(
                dp.add((kk - k0) * NR + 8),
                _mm256_mul_ps(_mm256_cvtepi32_ps(chi), shi),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_tensor::rng::seeded;

    fn random_inputs(kb: usize, m: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<f32>) {
        let mut rng = seeded(seed);
        let mut staged = vec![0.0f32; kb * NR];
        kt_tensor::rng::fill_uniform(&mut rng, &mut staged, 1.0);
        let a = (0..m)
            .map(|_| {
                let mut row = vec![0.0f32; kb];
                kt_tensor::rng::fill_uniform(&mut rng, &mut row, 1.0);
                row
            })
            .collect();
        (a, staged)
    }

    fn check_level<const M: usize>(level: SimdLevel, kb: usize, seed: u64) {
        if simd_level() < level {
            return; // feature not available on this host
        }
        let (a_rows, staged) = random_inputs(kb, M, seed);
        let a: [&[f32]; M] = std::array::from_fn(|i| a_rows[i].as_slice());
        let mut expect = [[0.1f32; NR]; M];
        let mut got = [[0.1f32; NR]; M];
        microkernel_scalar::<M>(a, &staged, kb, &mut expect);
        with_forced_simd_level(level, || microkernel::<M>(a, &staged, kb, &mut got));
        for i in 0..M {
            for j in 0..NR {
                let (e, g) = (expect[i][j], got[i][j]);
                assert_eq!(
                    e.to_bits(),
                    g.to_bits(),
                    "{level:?} M={M} kb={kb} [{i}][{j}]: {e} vs {g}"
                );
            }
        }
    }

    #[test]
    fn detection_is_stable() {
        assert_eq!(simd_level(), simd_level());
        // CI greps this line: the forced-level tests cover every level
        // up to the detected one and skip the rest.
        println!("simd_level() = {:?}", simd_level());
    }

    #[test]
    fn avx512_matches_scalar() {
        for kb in [1usize, 3, 17, 256] {
            check_level::<1>(SimdLevel::Avx512, kb, 1);
            check_level::<2>(SimdLevel::Avx512, kb, 2);
            check_level::<4>(SimdLevel::Avx512, kb, 3);
        }
    }

    #[test]
    fn avx2_matches_scalar() {
        for kb in [1usize, 5, 64] {
            check_level::<1>(SimdLevel::Avx2Fma, kb, 4);
            check_level::<3>(SimdLevel::Avx2Fma, kb, 5);
            check_level::<4>(SimdLevel::Avx2Fma, kb, 6);
        }
    }

    #[test]
    fn dispatcher_accumulates_into_existing_tiles() {
        let (a_rows, staged) = random_inputs(8, 2, 7);
        let a: [&[f32]; 2] = [a_rows[0].as_slice(), a_rows[1].as_slice()];
        let mut acc = [[1.0f32; NR]; 2];
        microkernel::<2>(a, &staged, 8, &mut acc);
        let mut fresh = [[0.0f32; NR]; 2];
        microkernel::<2>(a, &staged, 8, &mut fresh);
        for i in 0..2 {
            for j in 0..NR {
                assert!((acc[i][j] - fresh[i][j] - 1.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn zero_kb_is_identity() {
        let (a_rows, staged) = random_inputs(4, 1, 8);
        let a: [&[f32]; 1] = [a_rows[0].as_slice()];
        let mut acc = [[2.5f32; NR]; 1];
        microkernel::<1>(a, &staged, 0, &mut acc);
        assert!(acc[0].iter().all(|&v| v == 2.5));
    }

    #[test]
    fn forced_level_caps_at_detected_and_restores() {
        let detected = simd_level();
        assert_eq!(effective_simd_level(), detected);
        with_forced_simd_level(SimdLevel::Scalar, || {
            assert_eq!(effective_simd_level(), SimdLevel::Scalar);
            with_forced_simd_level(SimdLevel::Avx512, || {
                // Forcing above the host level clamps to detected.
                assert_eq!(effective_simd_level(), SimdLevel::Avx512.min(detected));
            });
            assert_eq!(effective_simd_level(), SimdLevel::Scalar);
        });
        assert_eq!(effective_simd_level(), detected);
    }

    /// Random quantized panel material: codes for `k` K-steps (Int8
    /// layout k*NR bytes, Int4 ceil(k/2)*NR), scales per group row.
    fn quant_fixture(k: usize, group: usize, seed: u64) -> (Vec<f32>, Vec<u8>, Vec<f32>) {
        let mut rng = seeded(seed);
        let mut x = vec![0.0f32; k];
        kt_tensor::rng::fill_uniform(&mut rng, &mut x, 1.0);
        let mut raw = vec![0.0f32; k * NR];
        kt_tensor::rng::fill_uniform(&mut rng, &mut raw, 128.0);
        let bytes: Vec<u8> = raw.iter().map(|&v| v as i32 as u8).collect();
        let groups = k.div_ceil(group);
        let mut scales = vec![0.0f32; groups * NR];
        kt_tensor::rng::fill_uniform(&mut rng, &mut scales, 0.1);
        (x, bytes, scales)
    }

    fn assert_acc_bits_eq(a: &[f32; NR], b: &[f32; NR], what: &str) {
        for j in 0..NR {
            assert_eq!(
                a[j].to_bits(),
                b[j].to_bits(),
                "{what} lane {j}: {} vs {}",
                a[j],
                b[j]
            );
        }
    }

    #[test]
    fn fused_dequant_gemv_bitwise_matches_scalar_at_every_level() {
        for level in [SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Avx512] {
            if simd_level() < level {
                continue;
            }
            for (k, group) in [(8usize, 8usize), (16, 8), (64, 16), (96, 32), (24, 8)] {
                let (x, bytes, scales) = quant_fixture(k, group, 11 + k as u64);
                let halves: Vec<Bf16> = x.iter().map(|&v| Bf16::from_f32(v * 3.0)).collect();
                let panel: Vec<Bf16> = (0..k * NR).map(|i| halves[i % k]).collect();

                let mut want = [0.25f32; NR];
                gemv_int8_scalar(&x, &bytes, &scales, group, &mut want);
                let mut got = [0.25f32; NR];
                with_forced_simd_level(level, || {
                    gemv_int8(
                        &[&x],
                        &[&bytes],
                        &[&scales],
                        group,
                        std::slice::from_mut(&mut got),
                    )
                });
                assert_acc_bits_eq(&want, &got, &format!("int8 {level:?} k={k} g={group}"));

                let mut want = [-0.5f32; NR];
                gemv_int4_scalar(&x, &bytes, &scales, group, &mut want);
                let mut got = [-0.5f32; NR];
                with_forced_simd_level(level, || {
                    gemv_int4(
                        &[&x],
                        &[&bytes],
                        &[&scales],
                        group,
                        std::slice::from_mut(&mut got),
                    )
                });
                assert_acc_bits_eq(&want, &got, &format!("int4 {level:?} k={k} g={group}"));

                let mut want = [1.5f32; NR];
                gemv_bf16_scalar(&x, &panel, &mut want);
                let mut got = [1.5f32; NR];
                with_forced_simd_level(level, || {
                    gemv_bf16(&[&x], &[&panel], std::slice::from_mut(&mut got))
                });
                assert_acc_bits_eq(&want, &got, &format!("bf16 {level:?} k={k}"));
            }
        }
    }

    #[test]
    fn staged_dequant_bitwise_matches_scalar_at_every_level() {
        let k = 64usize;
        let group = 16usize;
        let (x, bytes, scales) = quant_fixture(k, group, 99);
        let panel: Vec<Bf16> = x
            .iter()
            .cycle()
            .take(k * NR)
            .map(|&v| Bf16::from_f32(v))
            .collect();
        for (k0, k1) in [(0usize, k), (16, 48), (8, 24)] {
            let mut want = vec![0.0f32; (k1 - k0) * NR];
            with_forced_simd_level(SimdLevel::Scalar, || {
                stage_int8(&bytes, &scales, group, k0, k1, &mut want)
            });
            for level in [SimdLevel::Avx2Fma, SimdLevel::Avx512] {
                if simd_level() < level {
                    continue;
                }
                let mut got = vec![f32::NAN; (k1 - k0) * NR];
                with_forced_simd_level(level, || {
                    stage_int8(&bytes, &scales, group, k0, k1, &mut got)
                });
                assert!(
                    want.iter()
                        .zip(&got)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "stage_int8 {level:?} [{k0},{k1})"
                );
            }

            let mut want4 = vec![0.0f32; (k1 - k0) * NR];
            with_forced_simd_level(SimdLevel::Scalar, || {
                stage_int4(&bytes, &scales, group, k0, k1, &mut want4)
            });
            let mut wantb = vec![0.0f32; (k1 - k0) * NR];
            with_forced_simd_level(SimdLevel::Scalar, || stage_bf16(&panel, k0, k1, &mut wantb));
            for level in [SimdLevel::Avx2Fma, SimdLevel::Avx512] {
                if simd_level() < level {
                    continue;
                }
                let mut got4 = vec![f32::NAN; (k1 - k0) * NR];
                with_forced_simd_level(level, || {
                    stage_int4(&bytes, &scales, group, k0, k1, &mut got4)
                });
                assert!(
                    want4
                        .iter()
                        .zip(&got4)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "stage_int4 {level:?} [{k0},{k1})"
                );
                let mut gotb = vec![f32::NAN; (k1 - k0) * NR];
                with_forced_simd_level(level, || stage_bf16(&panel, k0, k1, &mut gotb));
                assert!(
                    wantb
                        .iter()
                        .zip(&gotb)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "stage_bf16 {level:?} [{k0},{k1})"
                );
            }
        }
    }
}
