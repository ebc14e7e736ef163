//! The attention core: causal scaled-dot-product attention of a block of
//! query rows over already-resolved KV rows, one kernel per SIMD level.
//!
//! [`attention`] serves both of `kt-model`'s attention variants. GQA
//! passes `kv_heads` key/value heads; MLA passes one head-shared KV head
//! whose key row is `[c ; k_rope]` and whose value row is the latent
//! prefix `c` of that same row.
//!
//! # The fixed order
//!
//! For query row `t` (absolute position `start + t`, which sees positions
//! `0..=start + t`) and query head `h` of KV head `g`:
//!
//! * **Score.** `s[pos] = tree(acc) * scale`. `acc` is 16 partial sums
//!   starting at `+0`: lane `j` runs
//!   `acc[j] = fma(q[c*16 + j], k[c*16 + j], acc[j])` over the 16-wide
//!   chunks `c` of the key width in ascending order, and a final partial
//!   chunk reads zeros past the width (`fma(0, 0, acc[j])`). `tree` is the
//!   fixed pairwise sum 16 → 8 → 4 → 2 → 1: `a[j] + a[j + w]` for
//!   `w` = 8, 4, 2, 1.
//! * **Softmax.** [`softmax_inplace`] over the `(row, head)` score row:
//!   exact max, [`crate::act::exp`], sum in ascending position, one
//!   divide each.
//! * **PV.** Every output lane runs `o = fma(w[pos], v[pos][i], o)` from
//!   `+0` in ascending position.
//!
//! Each step is a correctly rounded IEEE operation (`act::exp` is a
//! fixed sequence of them, vectorised bitwise) in an order no level
//! changes. AVX-512 holds a 16-lane partial sum in one register; AVX2
//! holds it as two 8-lane halves whose add is the tree's 16 → 8 step. So **every level is bitwise the scalar
//! golden** (the non-AVX2 level, which spells the same sequence with
//! `f32::mul_add`), as it is for the GEMV and GEMM kernels.
//!
//! A row's bits are a function of its query row and the KV rows of its
//! own visible prefix alone: not of `t_new`, of the rows that share the
//! call, or of where the KV rows live. That is what keeps chunked prefill
//! bitwise equal to monolithic prefill, a prefix-seeded row equal to a
//! cold one, and page size pure placement. The score row of one
//! `(row, head)` is at most `max_seq` floats, so no running (flash-style)
//! max is needed.
//!
//! # What the kernels share
//!
//! Both kernels take up to four heads of one KV group per pass.
//! The score kernel loads each key chunk once and feeds it to every head
//! of the pass; the PV kernel loads each value chunk once and feeds every
//! head's weight to it. The heads' accumulators are independent FMA
//! chains, so one chain's latency hides behind the others, as in the
//! block GEMV of [`crate::simd`].

use crate::act::softmax_inplace;
use crate::simd::{effective_simd_level, SimdLevel};

/// Lanes of one partial-sum vector: one AVX-512 register, two AVX2.
const LANES: usize = 16;

/// Heads of one KV group handled per kernel pass.
const HEAD_BLOCK: usize = 4;

/// Head geometry of an [`attention`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttnDims {
    /// Query heads. A query row is `n_heads * kw` wide, head `h` at
    /// `h * kw`; an output row is `n_heads * vw` wide, head `h` at `h * vw`.
    pub n_heads: usize,
    /// KV heads; KV head `g` serves query heads
    /// `g * n_heads / kv_heads ..` of the next group. A key row holds
    /// `kv_heads * kw` floats and a value row `kv_heads * vw`.
    pub kv_heads: usize,
    /// Key width per head: the dot-product length.
    pub kw: usize,
    /// Value width per head.
    pub vw: usize,
}

/// Causal attention of the query rows `q` over the KV rows of every
/// visible position, written into `out` (overwritten, not accumulated).
///
/// Query row `t` has absolute position `start + t` and attends over
/// `krows[..=start + t]` / `vrows[..=start + t]`, so there must be exactly
/// `start + t_new` rows of each. `scale` multiplies each raw dot product.
/// The module doc gives the operation order every SIMD level follows.
///
/// # Panics
///
/// Panics if `kv_heads` is zero or does not divide `n_heads`, `kw` is
/// zero, `q` is not whole rows of `n_heads * kw`, a KV row is shorter
/// than its heads, the row counts differ from `start + t_new`, or `out`
/// is not `t_new` rows of `n_heads * vw`. The AVX kernels read through
/// raw pointers, so these are real assertions.
pub fn attention(
    q: &[f32],
    krows: &[&[f32]],
    vrows: &[&[f32]],
    dims: AttnDims,
    scale: f32,
    start: usize,
    out: &mut [f32],
) {
    let AttnDims {
        n_heads,
        kv_heads,
        kw,
        vw,
    } = dims;
    assert!(
        kv_heads > 0 && n_heads.is_multiple_of(kv_heads),
        "kv_heads {kv_heads} must divide n_heads {n_heads}"
    );
    assert!(kw > 0, "key width must be nonzero");
    let (qw, ow) = (n_heads * kw, n_heads * vw);
    assert!(q.len().is_multiple_of(qw), "query is not whole rows");
    let t_new = q.len() / qw;
    let total = start + t_new;
    assert_eq!(krows.len(), total, "one key row per visible position");
    assert_eq!(vrows.len(), total, "one value row per visible position");
    assert!(
        krows.iter().all(|k| k.len() >= kv_heads * kw),
        "key row shorter than its heads"
    );
    assert!(
        vrows.iter().all(|v| v.len() >= kv_heads * vw),
        "value row shorter than its heads"
    );
    assert_eq!(out.len(), t_new * ow, "output must be t_new rows");

    let level = effective_simd_level();
    let group = n_heads / kv_heads;
    let mut scores = vec![0.0f32; HEAD_BLOCK.min(group) * total];
    for t in 0..t_new {
        let visible = start + t + 1;
        let (keys, values) = (&krows[..visible], &vrows[..visible]);
        let qrow = &q[t * qw..(t + 1) * qw];
        let orow = &mut out[t * ow..(t + 1) * ow];
        for g in 0..kv_heads {
            let mut h0 = g * group;
            while h0 < (g + 1) * group {
                let hn = ((g + 1) * group - h0).min(HEAD_BLOCK);
                let w = &mut scores[..hn * visible];
                score(
                    level,
                    &qrow[h0 * kw..(h0 + hn) * kw],
                    keys,
                    g * kw,
                    kw,
                    scale,
                    w,
                );
                for s in w.chunks_exact_mut(visible) {
                    softmax_inplace(s);
                }
                weigh(
                    level,
                    w,
                    values,
                    g * vw,
                    vw,
                    &mut orow[h0 * vw..(h0 + hn) * vw],
                );
                h0 += hn;
            }
        }
    }
}

/// Expands `$f::<H>($args)` for `H = $hn` in `1..=HEAD_BLOCK`.
macro_rules! by_heads {
    ($hn:expr, $f:ident $args:tt) => {
        match $hn {
            1 => $f::<1> $args,
            2 => $f::<2> $args,
            3 => $f::<3> $args,
            _ => $f::<4> $args,
        }
    };
}

/// Scores the `hn = q.len() / kw` heads of `q` against `keys[pos][koff..
/// koff + kw]`, writing head `h`'s score for `pos` to
/// `s[h * keys.len() + pos]`.
fn score(
    level: SimdLevel,
    q: &[f32],
    keys: &[&[f32]],
    koff: usize,
    kw: usize,
    scale: f32,
    s: &mut [f32],
) {
    let hn = q.len() / kw;
    assert!((1..=HEAD_BLOCK).contains(&hn) && s.len() == hn * keys.len());
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the level never exceeds the runtime-detected features;
        // `attention` asserted every key row holds `koff + kw` floats and
        // the assertion above the lengths of `q` and `s`.
        SimdLevel::Avx512 => unsafe { by_heads!(hn, score_avx512(q, keys, koff, kw, scale, s)) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: As above.
        SimdLevel::Avx2Fma => unsafe { by_heads!(hn, score_avx2(q, keys, koff, kw, scale, s)) },
        _ => {
            for (h, qh) in q.chunks_exact(kw).enumerate() {
                for (pos, key) in keys.iter().enumerate() {
                    s[h * keys.len() + pos] = lane_dot(qh, &key[koff..koff + kw]) * scale;
                }
            }
        }
    }
}

/// Writes `out[h * vw + i] = Σ_pos w[h * values.len() + pos] *
/// values[pos][voff + i]` for the `hn = w.len() / values.len()` heads.
fn weigh(level: SimdLevel, w: &[f32], values: &[&[f32]], voff: usize, vw: usize, out: &mut [f32]) {
    let visible = values.len();
    let hn = w.len() / visible;
    assert!((1..=HEAD_BLOCK).contains(&hn) && w.len() == hn * visible && out.len() == hn * vw);
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the level never exceeds the runtime-detected features;
        // `attention` asserted every value row holds `voff + vw` floats and
        // the assertion above the lengths of `w` and `out`.
        SimdLevel::Avx512 => unsafe { by_heads!(hn, weigh_avx512(w, values, voff, vw, out)) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: As above.
        SimdLevel::Avx2Fma => unsafe { by_heads!(hn, weigh_avx2(w, values, voff, vw, out)) },
        _ => {
            out.fill(0.0);
            for h in 0..hn {
                let o = &mut out[h * vw..(h + 1) * vw];
                for (&wp, v) in w[h * visible..(h + 1) * visible].iter().zip(values) {
                    for (oi, &vi) in o.iter_mut().zip(&v[voff..voff + vw]) {
                        *oi = wp.mul_add(vi, *oi);
                    }
                }
            }
        }
    }
}

/// The scalar golden of one score: 16 partial sums over `a · b`
/// (zero-padded to whole chunks), then the fixed tree.
#[allow(clippy::needless_range_loop)]
fn lane_dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    for (ca, cb) in a.chunks(LANES).zip(b.chunks(LANES)) {
        for j in 0..LANES {
            let (x, y) = (
                ca.get(j).copied().unwrap_or(0.0),
                cb.get(j).copied().unwrap_or(0.0),
            );
            acc[j] = x.mul_add(y, acc[j]);
        }
    }
    let mut w = LANES / 2;
    while w > 0 {
        for j in 0..w {
            acc[j] += acc[j + w];
        }
        w /= 2;
    }
    acc[0]
}

/// Tree steps 8 → 4 → 2 → 1 of an 8-lane partial sum.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn tree8(t8: std::arch::x86_64::__m256) -> f32 {
    use std::arch::x86_64::*;
    let t4 = _mm_add_ps(_mm256_castps256_ps128(t8), _mm256_extractf128_ps(t8, 1));
    let t2 = _mm_add_ps(t4, _mm_movehl_ps(t4, t4));
    _mm_cvtss_f32(_mm_add_ss(t2, _mm_shuffle_ps(t2, t2, 1)))
}

/// AVX-512 mask of the first `n.min(16)` lanes.
#[cfg(target_arch = "x86_64")]
fn mask16(n: usize) -> u16 {
    if n >= LANES {
        u16::MAX
    } else {
        (1u16 << n) - 1
    }
}

/// AVX2 `maskload` / `maskstore` mask of the first `n.min(8)` lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn mask8(n: usize) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let n = n.min(8) as i32;
    _mm256_cmpgt_epi32(
        _mm256_set1_epi32(n),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    )
}

/// AVX-512 score kernel for `H` heads (see [`score`]).
///
/// # Safety
///
/// AVX-512F must be available; `q` holds `H * kw` floats, every key row
/// at least `koff + kw`, and `s` is `H * keys.len()` long.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::needless_range_loop)] // fixed-trip loops unroll into registers
unsafe fn score_avx512<const H: usize>(
    q: &[f32],
    keys: &[&[f32]],
    koff: usize,
    kw: usize,
    scale: f32,
    s: &mut [f32],
) {
    use std::arch::x86_64::*;
    let (full, tail) = (kw / LANES, kw % LANES);
    let tmask = mask16(tail);
    let visible = keys.len();
    // SAFETY: chunk loads stay below `kw` per head and per key row; the
    // tail chunk's masked-off lanes are never read.
    unsafe {
        let qp: [*const f32; H] = std::array::from_fn(|h| q.as_ptr().add(h * kw));
        for (pos, key) in keys.iter().enumerate() {
            let kp = key.as_ptr().add(koff);
            let mut acc = [_mm512_setzero_ps(); H];
            for c in 0..full {
                let kv = _mm512_loadu_ps(kp.add(c * LANES));
                for h in 0..H {
                    acc[h] = _mm512_fmadd_ps(_mm512_loadu_ps(qp[h].add(c * LANES)), kv, acc[h]);
                }
            }
            if tail > 0 {
                let kv = _mm512_maskz_loadu_ps(tmask, kp.add(full * LANES));
                for h in 0..H {
                    let qv = _mm512_maskz_loadu_ps(tmask, qp[h].add(full * LANES));
                    acc[h] = _mm512_fmadd_ps(qv, kv, acc[h]);
                }
            }
            for h in 0..H {
                let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(acc[h]), 1));
                let t8 = _mm256_add_ps(_mm512_castps512_ps256(acc[h]), hi);
                s[h * visible + pos] = tree8(t8) * scale;
            }
        }
    }
}

/// AVX2+FMA score kernel for `H` heads: each 16-lane partial sum is two
/// 8-lane halves.
///
/// # Safety
///
/// AVX2 and FMA must be available; bounds as for [`score_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::needless_range_loop)]
unsafe fn score_avx2<const H: usize>(
    q: &[f32],
    keys: &[&[f32]],
    koff: usize,
    kw: usize,
    scale: f32,
    s: &mut [f32],
) {
    use std::arch::x86_64::*;
    let (full, tail) = (kw / LANES, kw % LANES);
    let tmask = [mask8(tail), mask8(tail.saturating_sub(8))];
    let visible = keys.len();
    // SAFETY: As for `score_avx512`; the tail's second half may start
    // past the row (hence `wrapping_add`) but its mask reads nothing there.
    unsafe {
        let qp: [*const f32; H] = std::array::from_fn(|h| q.as_ptr().add(h * kw));
        for (pos, key) in keys.iter().enumerate() {
            let kp = key.as_ptr().add(koff);
            let mut acc = [[_mm256_setzero_ps(); 2]; H];
            for c in 0..full {
                let kc = kp.add(c * LANES);
                let kv = [_mm256_loadu_ps(kc), _mm256_loadu_ps(kc.add(8))];
                for h in 0..H {
                    let qc = qp[h].add(c * LANES);
                    acc[h][0] = _mm256_fmadd_ps(_mm256_loadu_ps(qc), kv[0], acc[h][0]);
                    acc[h][1] = _mm256_fmadd_ps(_mm256_loadu_ps(qc.add(8)), kv[1], acc[h][1]);
                }
            }
            if tail > 0 {
                let kc = kp.add(full * LANES);
                let kv = [
                    _mm256_maskload_ps(kc, tmask[0]),
                    _mm256_maskload_ps(kc.wrapping_add(8), tmask[1]),
                ];
                for h in 0..H {
                    let qc = qp[h].add(full * LANES);
                    let qv = [
                        _mm256_maskload_ps(qc, tmask[0]),
                        _mm256_maskload_ps(qc.wrapping_add(8), tmask[1]),
                    ];
                    acc[h][0] = _mm256_fmadd_ps(qv[0], kv[0], acc[h][0]);
                    acc[h][1] = _mm256_fmadd_ps(qv[1], kv[1], acc[h][1]);
                }
            }
            for h in 0..H {
                let t8 = _mm256_add_ps(acc[h][0], acc[h][1]);
                s[h * visible + pos] = tree8(t8) * scale;
            }
        }
    }
}

/// AVX-512 PV kernel for `H` heads (see [`weigh`]): 32 output lanes per
/// pass, two registers per head.
///
/// # Safety
///
/// AVX-512F must be available; `w` is `H * values.len()` long, every
/// value row holds at least `voff + vw` floats and `out` is `H * vw` long.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::needless_range_loop)]
unsafe fn weigh_avx512<const H: usize>(
    w: &[f32],
    values: &[&[f32]],
    voff: usize,
    vw: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let visible = values.len();
    // SAFETY: loads and stores are masked to lanes below `vw`; a pass's
    // second register may start past the row (hence `wrapping_add`) with
    // an empty mask. Weight reads stay below `H * visible` = `w.len()`.
    unsafe {
        let (wp, op) = (w.as_ptr(), out.as_mut_ptr());
        let mut c0 = 0;
        while c0 < vw {
            let m = [mask16(vw - c0), mask16(vw.saturating_sub(c0 + LANES))];
            let mut acc = [[_mm512_setzero_ps(); 2]; H];
            for (pos, v) in values.iter().enumerate() {
                let vp = v.as_ptr().add(voff + c0);
                let vv = [
                    _mm512_maskz_loadu_ps(m[0], vp),
                    _mm512_maskz_loadu_ps(m[1], vp.wrapping_add(LANES)),
                ];
                for h in 0..H {
                    let wv = _mm512_set1_ps(*wp.add(h * visible + pos));
                    acc[h][0] = _mm512_fmadd_ps(wv, vv[0], acc[h][0]);
                    acc[h][1] = _mm512_fmadd_ps(wv, vv[1], acc[h][1]);
                }
            }
            for h in 0..H {
                let o = op.add(h * vw + c0);
                _mm512_mask_storeu_ps(o, m[0], acc[h][0]);
                _mm512_mask_storeu_ps(o.wrapping_add(LANES), m[1], acc[h][1]);
            }
            c0 += 2 * LANES;
        }
    }
}

/// AVX2+FMA PV kernel for `H` heads: 16 output lanes per pass, two
/// 8-lane halves per head.
///
/// # Safety
///
/// AVX2 and FMA must be available; bounds as for [`weigh_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::needless_range_loop)]
unsafe fn weigh_avx2<const H: usize>(
    w: &[f32],
    values: &[&[f32]],
    voff: usize,
    vw: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let visible = values.len();
    // SAFETY: As for `weigh_avx512`, in 8-lane halves.
    unsafe {
        let (wp, op) = (w.as_ptr(), out.as_mut_ptr());
        let mut c0 = 0;
        while c0 < vw {
            let m = [mask8(vw - c0), mask8(vw.saturating_sub(c0 + 8))];
            let mut acc = [[_mm256_setzero_ps(); 2]; H];
            for (pos, v) in values.iter().enumerate() {
                let vp = v.as_ptr().add(voff + c0);
                let vv = [
                    _mm256_maskload_ps(vp, m[0]),
                    _mm256_maskload_ps(vp.wrapping_add(8), m[1]),
                ];
                for h in 0..H {
                    let wv = _mm256_set1_ps(*wp.add(h * visible + pos));
                    acc[h][0] = _mm256_fmadd_ps(wv, vv[0], acc[h][0]);
                    acc[h][1] = _mm256_fmadd_ps(wv, vv[1], acc[h][1]);
                }
            }
            for h in 0..H {
                let o = op.add(h * vw + c0);
                _mm256_maskstore_ps(o, m[0], acc[h][0]);
                _mm256_maskstore_ps(o.wrapping_add(8), m[1], acc[h][1]);
            }
            c0 += LANES;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_dot_is_the_fixed_tree() {
        // 17 ones: lane 0 sees two chunks, the tail chunk is zero-padded.
        let a = vec![1.0f32; 17];
        assert_eq!(lane_dot(&a, &a), 17.0);
        // The tree pairs lane j with j + 8 first: 1e8 and -1e8 cancel
        // before the small lanes are added, exactly.
        let mut x = [0.0f32; 16];
        x[0] = 1e8;
        x[8] = -1e8;
        x[1] = 1.0;
        assert_eq!(lane_dot(&x, &[1.0; 16]), 1.0);
    }

    #[test]
    fn one_position_attends_to_itself() {
        // A single visible row gets softmax weight 1: out = v exactly.
        let dims = AttnDims {
            n_heads: 2,
            kv_heads: 1,
            kw: 5,
            vw: 3,
        };
        let q = [0.3f32; 10];
        let k = [1.0f32; 5];
        let v = [1.5f32, -2.0, 0.25];
        let mut out = [0.0f32; 6];
        attention(&q, &[&k], &[&v], dims, 0.5, 0, &mut out);
        assert_eq!(out, [1.5, -2.0, 0.25, 1.5, -2.0, 0.25]);
    }

    #[test]
    #[should_panic(expected = "one key row per visible position")]
    fn missing_kv_rows_are_rejected() {
        let dims = AttnDims {
            n_heads: 1,
            kv_heads: 1,
            kw: 4,
            vw: 4,
        };
        let row = [0.0f32; 4];
        let mut out = [0.0f32; 8];
        attention(&[0.0; 8], &[&row], &[&row], dims, 1.0, 0, &mut out);
    }
}
