//! Property tests for the fused-dequant block kernels and the
//! quantized checkpoint round-trip.
//!
//! The serving contract of the vector kernel class is **bitwise**
//! independence from both the SIMD level and the block shape: for every
//! dtype, group size, reduction length, forced SIMD level and
//! rows × panels block, each (row, panel) output must be exactly the
//! bytes of the single-panel scalar golden reference (same widen, one
//! IEEE scale multiply, one correctly-rounded FMA per K-step, ascending
//! order). That property is what keeps chunked prefill bitwise-identical
//! to monolithic prefill, and a batched row identical to the same row
//! alone, regardless of which instantiation the dispatcher picks.
//!
//! The round-trip property pins the checkpoint format: pack →
//! write_to → read_from must reproduce the packed payload exactly
//! (same panel bytes, scales and stored size), so a model loaded from
//! disk serves bit-identical logits to the freshly packed one.

use kt_kernels::gemm::{gemm_rowwise, gemv_vector};
use kt_kernels::simd::{
    self, gemv_bf16_scalar, gemv_int4_scalar, gemv_int8_scalar, microkernel_scalar,
    with_forced_simd_level,
};
use kt_kernels::{SimdLevel, ThreadPool};
use kt_tensor::rng::{fill_uniform, seeded};
use kt_tensor::{Matrix, PackedWeights, WeightDtype, NR};
use proptest::prelude::*;

const LEVELS: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Avx512];

/// A random matrix packed at `dtype`, plus a random input vector.
fn packed_fixture(n: usize, k: usize, dtype: WeightDtype, seed: u64) -> (PackedWeights, Vec<f32>) {
    let mut rng = seeded(seed);
    let w = Matrix::random_uniform(n, k, 1.0, &mut rng).expect("weights");
    let packed = PackedWeights::pack(&w, dtype).expect("pack");
    let mut x = vec![0.0f32; k];
    fill_uniform(&mut rng, &mut x, 1.0);
    (packed, x)
}

/// Dequantized matvec on the unpacked weights (independent reference;
/// plain mul/add, so compared with a tolerance, not bitwise).
fn unpacked_matvec(packed: &PackedWeights, x: &[f32]) -> Vec<f32> {
    let w = packed.unpack();
    (0..packed.n())
        .map(|r| {
            w.row(r)
                .iter()
                .zip(x)
                .map(|(&wv, &xv)| wv as f64 * xv as f64)
                .sum::<f64>() as f32
        })
        .collect()
}

fn dtype_of(which: usize, group: usize) -> WeightDtype {
    match which {
        0 => WeightDtype::F32,
        1 => WeightDtype::Bf16,
        2 => WeightDtype::Int8 { group },
        _ => WeightDtype::Int4 { group },
    }
}

/// The single-panel golden for `x` against panel `p`, accumulating into
/// `acc`: the scalar references of `kt_kernels::simd`, except f32 at
/// the FMA levels, whose per-lane sequence is `acc = fma(x, w, acc)`
/// (the f32 scalar microkernel rounds the product first).
fn golden_panel(packed: &PackedWeights, p: usize, x: &[f32], fma: bool, acc: &mut [f32; NR]) {
    match packed.dtype() {
        WeightDtype::F32 if fma => {
            for (kk, &xv) in x.iter().enumerate() {
                for (a, &w) in acc.iter_mut().zip(&packed.panel_f32(p)[kk * NR..]) {
                    *a = xv.mul_add(w, *a);
                }
            }
        }
        WeightDtype::F32 => {
            microkernel_scalar::<1>([x], packed.panel_f32(p), x.len(), std::array::from_mut(acc))
        }
        WeightDtype::Bf16 => gemv_bf16_scalar(x, packed.panel_bf16(p), acc),
        WeightDtype::Int8 { group } => {
            gemv_int8_scalar(x, packed.panel_bytes(p), packed.panel_scales(p), group, acc)
        }
        WeightDtype::Int4 { group } => {
            gemv_int4_scalar(x, packed.panel_bytes(p), packed.panel_scales(p), group, acc)
        }
    }
}

/// One dispatching block-kernel call over `rows` × every panel of
/// `packed`, accumulating into `acc` (`rows.len() * n_panels` tiles).
fn block_gemv(packed: &PackedWeights, rows: &[&[f32]], acc: &mut [[f32; NR]]) {
    let panels = 0..packed.n_panels();
    let bytes: Vec<&[u8]> = panels.clone().map(|p| packed.panel_bytes(p)).collect();
    let scales: Vec<&[f32]> = panels.clone().map(|p| packed.panel_scales(p)).collect();
    match packed.dtype() {
        WeightDtype::F32 => {
            let w: Vec<&[f32]> = panels.map(|p| packed.panel_f32(p)).collect();
            simd::gemv_f32(rows, &w, acc);
        }
        WeightDtype::Bf16 => {
            let w: Vec<_> = panels.map(|p| packed.panel_bf16(p)).collect();
            simd::gemv_bf16(rows, &w, acc);
        }
        WeightDtype::Int8 { group } => simd::gemv_int8(rows, &bytes, &scales, group, acc),
        WeightDtype::Int4 { group } => simd::gemv_int4(rows, &bytes, &scales, group, acc),
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every (row, panel) output of the block kernel, for every dtype,
    /// at every SIMD level and for every block shape, is exactly the
    /// single-panel scalar golden's bytes: 1-4 rows, 1-10 panels
    /// (multiples of the panel block and not, so full blocks and tail
    /// instantiations both run), `n` not a multiple of NR, all group
    /// sizes, reduction lengths and seeded non-zero accumulators; and
    /// the golden tracks the unpacked-weight matvec within
    /// quantization-free rounding error.
    #[test]
    fn block_kernel_is_bitwise_the_single_panel_golden(
        seed in 0u64..1_000,
        n in 1usize..160,
        group_sel in 0usize..3,
        mult in 1usize..5,
    ) {
        let group = [8usize, 16, 32][group_sel];
        let k = group * mult;
        let mut rng = seeded(seed ^ 0x5eed);
        let mut rows = vec![vec![0.0f32; k]; 4];
        for x in &mut rows {
            fill_uniform(&mut rng, x, 1.0);
        }
        let rows: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();

        for which in 0..4 {
            let dtype = dtype_of(which, group);
            let (packed, _x) = packed_fixture(n, k, dtype, seed);
            let np = packed.n_panels();

            for n_rows in 1..=4 {
                let rows = &rows[..n_rows];
                let mut seeds = vec![[0.0f32; NR]; n_rows * np];
                for tile in &mut seeds {
                    fill_uniform(&mut rng, tile, 2.0);
                }
                for level in LEVELS {
                    let fma = level.min(simd::simd_level()) != SimdLevel::Scalar;
                    let mut acc = seeds.clone();
                    with_forced_simd_level(level, || block_gemv(&packed, rows, &mut acc));
                    for (r, x) in rows.iter().enumerate() {
                        for p in 0..np {
                            let mut want = seeds[r * np + p];
                            golden_panel(&packed, p, x, fma, &mut want);
                            prop_assert_eq!(
                                bits(&want), bits(&acc[r * np + p]),
                                "row {} panel {} of a {}x{} block diverged from the golden at {:?} ({:?})",
                                r, p, n_rows, np, level, dtype
                            );
                        }
                    }
                }
            }

            // Semantic cross-check of the golden against the unpacked
            // weights for the output rows each panel actually covers.
            let reference = unpacked_matvec(&packed, rows[0]);
            for p in 0..np {
                let mut got = [0.0f32; NR];
                golden_panel(&packed, p, rows[0], false, &mut got);
                for (j, &got) in got.iter().enumerate() {
                    let r = p * NR + j;
                    if r >= packed.n() {
                        continue;
                    }
                    let err = (got as f64 - reference[r] as f64).abs();
                    let tol = 1e-4 * (1.0 + reference[r].abs() as f64) * k as f64;
                    prop_assert!(
                        err <= tol,
                        "row {} off by {} (got {}, want {})", r, err, got, reference[r]
                    );
                }
            }
        }
    }

    /// The (row-block, panel-group) task loop is pure scheduling: an
    /// M-row `gemm_rowwise` carries, row for row, the bits of
    /// `gemv_vector` on that row alone, and both are the same serial or
    /// on a pool — for row counts around the row block, panel counts
    /// around the panel group and `n` not a multiple of NR.
    #[test]
    fn rowwise_batch_is_per_row_gemv_pooled_or_serial(
        seed in 0u64..1_000,
        m in 1usize..10,
        n in 1usize..150,
        group_sel in 0usize..3,
        mult in 1usize..5,
    ) {
        let group = [8usize, 16, 32][group_sel];
        let k = group * mult;
        let a = Matrix::random_uniform(m, k, 1.0, &mut seeded(seed + 1)).expect("activations");
        let pool = ThreadPool::new(3).expect("pool");

        for which in 0..4 {
            let dtype = dtype_of(which, group);
            let (w, _x) = packed_fixture(n, k, dtype, seed);
            let mut serial = Matrix::zeros(m, n).expect("out");
            gemm_rowwise(&a, &w, &mut serial, None).expect("rowwise");
            let mut pooled = Matrix::zeros(m, n).expect("out");
            gemm_rowwise(&a, &w, &mut pooled, Some(&pool)).expect("rowwise pooled");
            prop_assert_eq!(
                bits(serial.as_slice()), bits(pooled.as_slice()),
                "rowwise pooled vs serial ({:?})", dtype
            );

            for i in 0..m {
                let mut y = vec![0.0f32; n];
                gemv_vector(a.row(i), &w, &mut y, None).expect("gemv");
                prop_assert_eq!(
                    bits(serial.row(i)), bits(&y),
                    "row {} of {} vs gemv ({:?})", i, m, dtype
                );
                let mut yp = vec![f32::NAN; n];
                gemv_vector(a.row(i), &w, &mut yp, Some(&pool)).expect("gemv pooled");
                prop_assert_eq!(bits(&y), bits(&yp), "gemv pooled vs serial, row {} ({:?})", i, dtype);
            }
        }
    }

    /// Staged dequantization (the tiled-GEMM path) is bitwise
    /// SIMD-level independent over arbitrary `[k0, k1)` windows.
    #[test]
    fn staged_dequant_is_bitwise_simd_level_independent(
        seed in 0u64..1_000,
        group_sel in 0usize..3,
        mult in 1usize..5,
        cut_a in 0usize..160,
        cut_b in 0usize..160,
        which in 0usize..3,
    ) {
        let group = [8usize, 16, 32][group_sel];
        let k = group * mult;
        let (k0, k1) = {
            let a = cut_a % (k + 1);
            let b = cut_b % (k + 1);
            (a.min(b), a.max(b))
        };
        let dtype = match which {
            0 => WeightDtype::Bf16,
            1 => WeightDtype::Int8 { group },
            _ => WeightDtype::Int4 { group },
        };
        let (packed, _x) = packed_fixture(20, k, dtype, seed);

        for p in 0..packed.n_panels() {
            let mut want = vec![f32::NAN; (k1 - k0) * NR];
            with_forced_simd_level(SimdLevel::Scalar, || match dtype {
                WeightDtype::Bf16 => simd::stage_bf16(packed.panel_bf16(p), k0, k1, &mut want),
                WeightDtype::Int8 { group } => simd::stage_int8(
                    packed.panel_bytes(p), packed.panel_scales(p), group, k0, k1, &mut want,
                ),
                WeightDtype::Int4 { group } => simd::stage_int4(
                    packed.panel_bytes(p), packed.panel_scales(p), group, k0, k1, &mut want,
                ),
                WeightDtype::F32 => unreachable!(),
            });
            for level in LEVELS {
                let mut buf = vec![f32::NAN; (k1 - k0) * NR];
                with_forced_simd_level(level, || match dtype {
                    WeightDtype::Bf16 => simd::stage_bf16(packed.panel_bf16(p), k0, k1, &mut buf),
                    WeightDtype::Int8 { group } => simd::stage_int8(
                        packed.panel_bytes(p), packed.panel_scales(p), group, k0, k1, &mut buf,
                    ),
                    WeightDtype::Int4 { group } => simd::stage_int4(
                        packed.panel_bytes(p), packed.panel_scales(p), group, k0, k1, &mut buf,
                    ),
                    WeightDtype::F32 => unreachable!(),
                });
                let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                let buf_bits: Vec<u32> = buf.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(
                    &want_bits, &buf_bits,
                    "stage window [{}, {}) diverged at {:?} ({:?})", k0, k1, level, dtype
                );
            }
        }
    }

    /// The checkpoint round-trip of quantized weights is exact: the
    /// reloaded `PackedWeights` has the same dtype, shape, stored
    /// size, panel payloads and scales — and therefore serves bitwise
    /// the same GEMV results.
    #[test]
    fn quantized_checkpoint_roundtrip_is_exact(
        seed in 0u64..1_000,
        n in 1usize..40,
        group_sel in 0usize..3,
        mult in 1usize..5,
        which in 0usize..4,
    ) {
        let group = [8usize, 16, 32][group_sel];
        let k = group * mult;
        let dtype = match which {
            0 => WeightDtype::F32,
            1 => WeightDtype::Bf16,
            2 => WeightDtype::Int8 { group },
            _ => WeightDtype::Int4 { group },
        };
        let (packed, x) = packed_fixture(n, k, dtype, seed);

        let mut blob = Vec::new();
        packed.write_to(&mut blob).expect("serialize");
        let reloaded = PackedWeights::read_from(&mut blob.as_slice()).expect("deserialize");

        prop_assert_eq!(reloaded.dtype(), packed.dtype());
        prop_assert_eq!(reloaded.n(), packed.n());
        prop_assert_eq!(reloaded.k(), packed.k());
        prop_assert_eq!(reloaded.stored_bytes(), packed.stored_bytes());
        for p in 0..packed.n_panels() {
            prop_assert_eq!(reloaded.panel_bytes(p), packed.panel_bytes(p), "panel {} payload", p);
            prop_assert_eq!(reloaded.panel_scales(p), packed.panel_scales(p), "panel {} scales", p);
        }

        // The reloaded weights serve the same bits.
        if let WeightDtype::Int8 { group } = dtype {
            for p in 0..packed.n_panels() {
                let mut a = [0.0f32; NR];
                let mut b = [0.0f32; NR];
                simd::gemv_int8(
                    &[&x], &[packed.panel_bytes(p)], &[packed.panel_scales(p)], group,
                    std::slice::from_mut(&mut a),
                );
                simd::gemv_int8(
                    &[&x], &[reloaded.panel_bytes(p)], &[reloaded.panel_scales(p)], group,
                    std::slice::from_mut(&mut b),
                );
                let a_bits: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
                let b_bits: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(a_bits, b_bits);
            }
        }
    }
}
