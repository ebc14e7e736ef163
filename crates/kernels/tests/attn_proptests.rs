//! Property tests for the attention kernel (`kt_kernels::attn`).
//!
//! The kernel's contract is bitwise: at every SIMD level its output is
//! exactly the scalar golden's (the non-AVX2 level), and each output row
//! is a function of its query row and its own visible prefix alone, so
//! a row computed inside a block of `t_new` rows carries the bits of the
//! same row computed alone. Those two properties are what the model's
//! chunked-prefill, prefix-seeding and page-placement gates rest on.

use kt_kernels::attn::{attention, AttnDims};
use kt_kernels::simd::{simd_level, with_forced_simd_level};
use kt_kernels::SimdLevel;
use kt_tensor::rng::{fill_uniform, seeded};
use proptest::prelude::*;

const LEVELS: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Avx512];

/// Key widths: whole 16-lane chunks, a half chunk and odd widths, so
/// both the full-vector path and the masked tail run.
const KEY_WIDTHS: [usize; 7] = [16, 32, 96, 24, 13, 37, 8];

/// One attention problem: `t_new` query rows at positions `start..`,
/// over `start + t_new` KV rows. With `shared_value` the value row is the
/// key row's prefix (MLA's layout) and there is one KV head.
struct Case {
    dims: AttnDims,
    start: usize,
    q: Vec<f32>,
    keys: Vec<Vec<f32>>,
    values: Vec<Vec<f32>>,
    shared_value: bool,
}

impl Case {
    #[allow(clippy::too_many_arguments)]
    fn new(
        seed: u64,
        n_heads: usize,
        kv_heads: usize,
        kw: usize,
        vw: usize,
        start: usize,
        t_new: usize,
        shared_value: bool,
    ) -> Case {
        let mut rng = seeded(seed);
        let total = start + t_new;
        let mut q = vec![0.0f32; t_new * n_heads * kw];
        fill_uniform(&mut rng, &mut q, 2.0);
        let mut keys = vec![vec![0.0f32; kv_heads * kw]; total];
        let mut values = vec![vec![0.0f32; kv_heads * vw]; total];
        for (k, v) in keys.iter_mut().zip(&mut values) {
            fill_uniform(&mut rng, k, 2.0);
            fill_uniform(&mut rng, v, 1.0);
        }
        Case {
            dims: AttnDims {
                n_heads,
                kv_heads,
                kw,
                vw,
            },
            start,
            q,
            keys,
            values,
            shared_value,
        }
    }

    fn t_new(&self) -> usize {
        self.q.len() / (self.dims.n_heads * self.dims.kw)
    }

    /// Runs query rows `rows` (positions `start + rows.start..`) over
    /// their visible prefix at the forced `level`.
    fn run(&self, level: SimdLevel, rows: std::ops::Range<usize>) -> Vec<f32> {
        let AttnDims {
            n_heads, kw, vw, ..
        } = self.dims;
        let total = self.start + rows.end;
        let krows: Vec<&[f32]> = self.keys[..total].iter().map(Vec::as_slice).collect();
        let vrows: Vec<&[f32]> = if self.shared_value {
            krows.iter().map(|k| &k[..vw]).collect()
        } else {
            self.values[..total].iter().map(Vec::as_slice).collect()
        };
        let q = &self.q[rows.start * n_heads * kw..rows.end * n_heads * kw];
        let mut out = vec![f32::NAN; rows.len() * n_heads * vw];
        let start = self.start + rows.start;
        with_forced_simd_level(level, || {
            attention(q, &krows, &vrows, self.dims, 0.3, start, &mut out)
        });
        out
    }

    /// f64 attention over the same rows, for a semantic check of the
    /// golden.
    fn reference(&self) -> Vec<f64> {
        let AttnDims {
            n_heads,
            kv_heads,
            kw,
            vw,
        } = self.dims;
        let group = n_heads / kv_heads;
        let mut out = Vec::new();
        for t in 0..self.t_new() {
            let visible = self.start + t + 1;
            for h in 0..n_heads {
                let g = h / group;
                let qh = &self.q[(t * n_heads + h) * kw..(t * n_heads + h + 1) * kw];
                let s: Vec<f64> = self.keys[..visible]
                    .iter()
                    .map(|k| {
                        let kh = &k[g * kw..(g + 1) * kw];
                        0.3 * qh
                            .iter()
                            .zip(kh)
                            .map(|(&a, &b)| a as f64 * b as f64)
                            .sum::<f64>()
                    })
                    .collect();
                let max = s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let e: Vec<f64> = s.iter().map(|v| (v - max).exp()).collect();
                let sum: f64 = e.iter().sum();
                for i in 0..vw {
                    out.push(
                        (0..visible)
                            .map(|p| {
                                let v = if self.shared_value {
                                    self.keys[p][i]
                                } else {
                                    self.values[p][g * vw + i]
                                };
                                e[p] / sum * v as f64
                            })
                            .sum(),
                    );
                }
            }
        }
        out
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every SIMD level up to the detected one is bitwise the scalar
    /// golden, and every row of a `t_new`-row block is bitwise the same
    /// row computed alone — for random head counts, GQA groupings and the
    /// MLA layout (value = key prefix), key widths on and off the
    /// 16-lane grid, value widths up to the key width, and start
    /// positions. The golden itself tracks an f64 reference.
    #[test]
    fn every_level_is_the_golden_and_rows_are_independent(
        seed in 0u64..1_000,
        n_heads in 1usize..9,
        layout in 0usize..12,
        kw_sel in 0usize..KEY_WIDTHS.len(),
        widths in 0usize..16,
        start in 0usize..40,
    ) {
        // One case in three is MLA-shaped; the rest pick a KV-head count
        // among the divisors of `n_heads`.
        let divisors: Vec<usize> = (1..=n_heads).filter(|d| n_heads % d == 0).collect();
        let shared_value = layout % 3 == 0;
        let kv_heads = if shared_value { 1 } else { divisors[(layout / 3) % divisors.len()] };
        let kw = KEY_WIDTHS[kw_sel];
        let vw = (kw * (1 + widths % 4)).div_ceil(4);
        let t_new = [1usize, 2, 17, 64][widths / 4];
        let case = Case::new(seed, n_heads, kv_heads, kw, vw, start, t_new, shared_value);
        let what = format!("{:?} start {} t_new {} mla {}", case.dims, start, t_new, shared_value);

        let golden = case.run(SimdLevel::Scalar, 0..t_new);
        let want = case.reference();
        let err = golden
            .iter()
            .zip(&want)
            .map(|(&g, w)| (g as f64 - w).abs())
            .fold(0.0f64, f64::max);
        prop_assert!(err < 1e-5, "{}: golden off the f64 reference by {}", what, err);

        let row = case.dims.n_heads * case.dims.vw;
        for level in LEVELS.into_iter().filter(|&l| l <= simd_level()) {
            let block = case.run(level, 0..t_new);
            prop_assert_eq!(bits(&golden), bits(&block), "{} at {:?}: block vs golden", what, level);
            for t in 0..t_new {
                let alone = case.run(level, t..t + 1);
                prop_assert_eq!(
                    bits(&block[t * row..(t + 1) * row]),
                    bits(&alone),
                    "{} at {:?}: row {} alone vs in its block", what, level, t
                );
            }
        }
    }
}
