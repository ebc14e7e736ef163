//! Tiled ("AMX-class") GEMM and lightweight ("AVX-512-class") GEMV.
//!
//! Both kernel classes consume the packed tile-major weight layout from
//! `kt-tensor` and implement the execution process of Figure 6:
//!
//! 1. The weight matrix is vertically partitioned into tasks that are
//!    dynamically scheduled across threads.
//! 2. **Tiled class** — a task is one panel ([`kt_tensor::NR`] output
//!    neurons). It walks the reduction dimension in **L2-sized blocks**
//!    ([`KC`] K-steps), stages (dequantizes) the packed weights of the
//!    block exactly once, and a register-blocked **microkernel**
//!    processes [`MR`] activation rows at a time against the staged
//!    panel, accumulating into local tiles before spilling to the
//!    output.
//! 3. **Vector class** — a task is one block of up to
//!    [`simd::BLOCK_ROWS`] activation rows × [`simd::BLOCK_PANELS`]
//!    adjacent panels, handed to the fused-dequant block kernel of
//!    [`crate::simd`]: the packed bytes are decoded inline per K-step
//!    with no staging or M-padding, once for all rows of the block, and
//!    every (row, panel) pair has its own accumulator. This is the
//!    paper's "lightweight AVX-512 kernel fully compatible with the AMX
//!    memory layout", which wins whenever tokens-per-expert is small
//!    (Figure 7). A row's output bits do not depend on the block it
//!    rides in, so [`gemv_vector`], [`gemm_rowwise`] and the fused MoE
//!    operator's vector tasks all go through the same task loop and an
//!    M-row call is one pool dispatch.

use kt_tensor::{Matrix, PackedWeights, WeightDtype, NR};

use crate::dispatch::KernelClass;
use crate::error::KernelError;
use crate::schedule::ThreadPool;
use crate::simd::{self, microkernel, BLOCK_PANELS, BLOCK_ROWS};

/// Activation rows processed per microkernel invocation.
pub const MR: usize = 4;

/// K-steps per cache block (staging granularity); `KC * NR * 4` bytes of
/// staged weights (16 KiB) plus `MR * KC` activations fit comfortably in
/// a per-core L2.
pub const KC: usize = 256;

/// Shared mutable output pointer for disjoint task writes.
///
/// Tasks write non-overlapping (row range, column range) rectangles of
/// the output matrix, so concurrent use is race-free by construction.
#[derive(Clone, Copy)]
pub(crate) struct OutPtr(pub(crate) *mut f32);
// SAFETY: A tiled task owns all rows of its panel's columns; a vector
// task owns its row block of its panel group's columns. No two tasks of
// one product share an element, so no two threads write the same one.
unsafe impl Send for OutPtr {}
unsafe impl Sync for OutPtr {}

/// Stages (decodes to f32) K-steps `k0..k1` of panel `p` into `buf`,
/// K-major: `buf[(kk - k0) * NR + j]`.
///
/// Quantized dtypes route through the SIMD staging helpers in
/// [`crate::simd`]; each staged value is the same `widen(code) * scale`
/// the scalar decode produces, so staged buffers — and hence tiled GEMM
/// outputs — are bitwise independent of the SIMD level.
fn stage_panel(w: &PackedWeights, p: usize, k0: usize, k1: usize, buf: &mut [f32]) {
    debug_assert!(buf.len() >= (k1 - k0) * NR);
    match w.dtype() {
        WeightDtype::F32 => {
            let panel = w.panel_f32(p);
            buf[..(k1 - k0) * NR].copy_from_slice(&panel[k0 * NR..k1 * NR]);
        }
        WeightDtype::Bf16 => simd::stage_bf16(w.panel_bf16(p), k0, k1, buf),
        WeightDtype::Int8 { group } => {
            simd::stage_int8(w.panel_bytes(p), w.panel_scales(p), group, k0, k1, buf);
        }
        WeightDtype::Int4 { group } => {
            simd::stage_int4(w.panel_bytes(p), w.panel_scales(p), group, k0, k1, buf);
        }
    }
}

/// Tasks an `m`-row product against `w` splits into under `class`:
/// panels for the tiled class, (row-block, panel-group) pairs for the
/// vector class.
pub(crate) fn n_tasks(class: KernelClass, m: usize, w: &PackedWeights) -> usize {
    match class {
        KernelClass::Tiled => w.n_panels(),
        KernelClass::Vector => m.div_ceil(BLOCK_ROWS) * w.n_panels().div_ceil(BLOCK_PANELS),
    }
}

/// Executes task `task < n_tasks(class, a.rows(), w)` of `a * w^T`,
/// writing its share of an `a.rows() x out_cols` output whose column 0
/// is `out`.
///
/// This is the task granule of the fused MoE operator, dispatched
/// dynamically across worker threads.
pub(crate) fn run_task(
    a: &Matrix,
    w: &PackedWeights,
    out: OutPtr,
    out_cols: usize,
    task: usize,
    class: KernelClass,
) {
    match class {
        KernelClass::Tiled => panel_task(a, w, out, out_cols, task),
        KernelClass::Vector => vector_task(a.as_slice(), a.rows(), w, out, out_cols, task),
    }
}

/// Executes one vector-class task over the `m` rows of row-major `a`
/// (`m x w.k()`): tasks are panel-group major, so consecutive tasks
/// re-read the same panels against different rows.
fn vector_task(a: &[f32], m: usize, w: &PackedWeights, out: OutPtr, out_cols: usize, task: usize) {
    let row_blocks = m.div_ceil(BLOCK_ROWS);
    let i0 = (task % row_blocks) * BLOCK_ROWS;
    let p0 = (task / row_blocks) * BLOCK_PANELS;
    let nr = BLOCK_ROWS.min(m - i0);
    let np = BLOCK_PANELS.min(w.n_panels() - p0);
    let k = w.k();
    // Unused slots repeat the last row/panel so the arrays need no
    // placeholder value; only the first `nr` / `np` entries are passed on.
    let row = |r: usize| {
        let i = i0 + r.min(nr - 1);
        &a[i * k..(i + 1) * k]
    };
    let panel = |p: usize| p0 + p.min(np - 1);
    let x: [&[f32]; BLOCK_ROWS] = std::array::from_fn(row);
    let x = &x[..nr];

    let mut tiles = [[0.0f32; NR]; BLOCK_ROWS * BLOCK_PANELS];
    let acc = &mut tiles[..nr * np];
    match w.dtype() {
        WeightDtype::F32 => {
            let panels: [&[f32]; BLOCK_PANELS] = std::array::from_fn(|p| w.panel_f32(panel(p)));
            simd::gemv_f32(x, &panels[..np], acc);
        }
        WeightDtype::Bf16 => {
            let panels: [_; BLOCK_PANELS] = std::array::from_fn(|p| w.panel_bf16(panel(p)));
            simd::gemv_bf16(x, &panels[..np], acc);
        }
        dtype @ (WeightDtype::Int8 { group } | WeightDtype::Int4 { group }) => {
            let bytes: [&[u8]; BLOCK_PANELS] = std::array::from_fn(|p| w.panel_bytes(panel(p)));
            let scales: [&[f32]; BLOCK_PANELS] = std::array::from_fn(|p| w.panel_scales(panel(p)));
            let kernel = match dtype {
                WeightDtype::Int8 { .. } => simd::gemv_int8,
                _ => simd::gemv_int4,
            };
            kernel(x, &bytes[..np], &scales[..np], group, acc);
        }
    }

    for r in 0..nr {
        for p in 0..np {
            let col = (p0 + p) * NR;
            let valid = NR.min(w.n() - col);
            // SAFETY: `out` points to an `m x out_cols` matrix that
            // outlives this call; row `i0 + r < m`, and this task
            // exclusively owns rows `i0..i0+nr` of columns
            // `p0*NR .. (p0+np)*NR` (see `OutPtr`).
            unsafe {
                let dst = out.0.add((i0 + r) * out_cols + col);
                std::ptr::copy_nonoverlapping(acc[r * np + p].as_ptr(), dst, valid);
            }
        }
    }
}

/// Runs every vector-class task of `a * w^T` (`a`: `m` rows, row-major)
/// in one pool dispatch — the one task loop behind [`gemv_vector`],
/// [`gemm_rowwise`] and [`gemm_auto`]'s small-M branch.
fn gemm_vector(
    a: &[f32],
    m: usize,
    w: &PackedWeights,
    out: OutPtr,
    out_cols: usize,
    pool: Option<&ThreadPool>,
) {
    let n = n_tasks(KernelClass::Vector, m, w);
    let task = |t: usize| vector_task(a, m, w, out, out_cols, t);
    match pool {
        Some(pool) => pool.run_dynamic(n, task),
        None => (0..n).for_each(task),
    }
}

/// Executes one panel task of the tiled GEMM: all M rows, all K blocks,
/// writing output columns `p*NR .. p*NR+valid`.
#[allow(clippy::needless_range_loop)] // raw-pointer writes, see SAFETY
fn panel_task(a: &Matrix, w: &PackedWeights, out: OutPtr, out_cols: usize, p: usize) {
    let m = a.rows();
    let k = a.cols();
    let valid = NR.min(w.n() - p * NR);
    let mut staged = [0.0f32; KC * NR];

    // Accumulators spill into the output; zero our columns first.
    for i in 0..m {
        // SAFETY: `out` points to an `m x out_cols` matrix that outlives
        // this call; this task exclusively owns columns
        // `p*NR .. p*NR+valid` (see `OutPtr`).
        unsafe {
            let row = out.0.add(i * out_cols + p * NR);
            std::ptr::write_bytes(row, 0, valid);
        }
    }

    let mut k0 = 0;
    while k0 < k {
        let k1 = (k0 + KC).min(k);
        let kb = k1 - k0;
        stage_panel(w, p, k0, k1, &mut staged);

        let mut i = 0;
        while i < m {
            let mb = MR.min(m - i);
            let mut acc = [[0.0f32; NR]; MR];
            match mb {
                4 => microkernel::<4>(
                    [
                        &a.row(i)[k0..k1],
                        &a.row(i + 1)[k0..k1],
                        &a.row(i + 2)[k0..k1],
                        &a.row(i + 3)[k0..k1],
                    ],
                    &staged,
                    kb,
                    (&mut acc[..4]).try_into().unwrap(),
                ),
                3 => microkernel::<3>(
                    [
                        &a.row(i)[k0..k1],
                        &a.row(i + 1)[k0..k1],
                        &a.row(i + 2)[k0..k1],
                    ],
                    &staged,
                    kb,
                    (&mut acc[..3]).try_into().unwrap(),
                ),
                2 => microkernel::<2>(
                    [&a.row(i)[k0..k1], &a.row(i + 1)[k0..k1]],
                    &staged,
                    kb,
                    (&mut acc[..2]).try_into().unwrap(),
                ),
                _ => microkernel::<1>(
                    [&a.row(i)[k0..k1]],
                    &staged,
                    kb,
                    (&mut acc[..1]).try_into().unwrap(),
                ),
            }
            for (r, tile) in acc.iter().enumerate().take(mb) {
                // SAFETY: As above — exclusive column ownership; row
                // index `i + r < m` by the loop bounds.
                unsafe {
                    let row = out.0.add((i + r) * out_cols + p * NR);
                    for j in 0..valid {
                        *row.add(j) += tile[j];
                    }
                }
            }
            i += mb;
        }
        k0 = k1;
    }
}

/// Tiled GEMM: `out = a * w^T` (`a`: `m x k`, `w`: packed `n x k`,
/// `out`: `m x n`), parallelized over panel tasks.
///
/// # Errors
///
/// Returns [`KernelError::Shape`] when `a.cols() != w.k()` or `out` has
/// the wrong shape.
pub fn gemm_tiled(
    a: &Matrix,
    w: &PackedWeights,
    out: &mut Matrix,
    pool: Option<&ThreadPool>,
) -> Result<(), KernelError> {
    check_shapes(a, w, out)?;
    let out_cols = out.cols();
    let outp = OutPtr(out.as_mut_slice().as_mut_ptr());
    let n_panels = w.n_panels();
    match pool {
        Some(pool) => pool.run_dynamic(n_panels, |p| panel_task(a, w, outp, out_cols, p)),
        None => {
            for p in 0..n_panels {
                panel_task(a, w, outp, out_cols, p);
            }
        }
    }
    Ok(())
}

/// Vector kernel: `y = w * x` for a single activation row, decoding the
/// packed weights inline with no staging or M-padding.
///
/// # Errors
///
/// Returns [`KernelError::Shape`] when `x.len() != w.k()` or
/// `y.len() != w.n()`.
pub fn gemv_vector(
    x: &[f32],
    w: &PackedWeights,
    y: &mut [f32],
    pool: Option<&ThreadPool>,
) -> Result<(), KernelError> {
    if x.len() != w.k() {
        return Err(KernelError::shape(format!(
            "gemv: x.len()={} but w.k()={}",
            x.len(),
            w.k()
        )));
    }
    if y.len() != w.n() {
        return Err(KernelError::shape(format!(
            "gemv: y.len()={} but w.n()={}",
            y.len(),
            w.n()
        )));
    }
    gemm_vector(x, 1, w, OutPtr(y.as_mut_ptr()), y.len(), pool);
    Ok(())
}

/// Hybrid dispatch: uses the vector kernel when `a.rows()` is at or
/// below the arithmetic-intensity crossover, the tiled kernel otherwise
/// (§3.2, Figure 7).
///
/// # Examples
///
/// ```
/// use kt_kernels::gemm::gemm_auto;
/// use kt_tensor::{Matrix, PackedWeights, WeightDtype};
///
/// let a = Matrix::from_rows(1, 2, &[1.0, 2.0]).unwrap();
/// let w = Matrix::from_rows(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
/// let packed = PackedWeights::pack(&w, WeightDtype::F32).unwrap();
/// let mut out = Matrix::zeros(1, 3).unwrap();
/// gemm_auto(&a, &packed, &mut out, None).unwrap();
/// assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
/// ```
///
/// # Errors
///
/// Propagates shape errors from the selected kernel.
pub fn gemm_auto(
    a: &Matrix,
    w: &PackedWeights,
    out: &mut Matrix,
    pool: Option<&ThreadPool>,
) -> Result<(), KernelError> {
    if a.rows() <= crate::dispatch::ARI_CROSSOVER {
        gemm_rowwise(a, w, out, pool)
    } else {
        gemm_tiled(a, w, out, pool)
    }
}

/// Row-stable GEMM: every output row is computed by the vector kernel
/// regardless of how many rows the batch holds, so row `i` of `out` is
/// a function of row `i` of `a` **only** — bit-for-bit independent of
/// the batch composition, for every dtype and every `k`.
///
/// Rows are processed in blocks that share each panel's decode, which
/// preserves the contract: the block kernel gives every (row, panel)
/// pair its own accumulator and feeds it the same operation sequence
/// (`fma(x[kk], widen(code) * scale, acc)`, ascending `kk`) whatever the
/// block's shape, so a row's bits are those of [`gemv_vector`] on that
/// row alone.
///
/// `gemm_auto` cannot promise this in general: its vector/tiled dispatch
/// flips at the arithmetic-intensity crossover, and the two kernel
/// classes only agree bitwise for f32 weights whose `k` fits a single
/// tiled k-block. Position-dependent computations that must be
/// invariant under re-chunking (attention projections, the LM head —
/// the chunked-prefill contract) use this entry point; throughput-bound
/// batch work (expert FFNs) keeps the hybrid dispatch.
///
/// # Errors
///
/// Returns [`KernelError::Shape`] on the same mismatches as
/// [`gemm_auto`].
pub fn gemm_rowwise(
    a: &Matrix,
    w: &PackedWeights,
    out: &mut Matrix,
    pool: Option<&ThreadPool>,
) -> Result<(), KernelError> {
    check_shapes(a, w, out)?;
    let out_cols = out.cols();
    let outp = OutPtr(out.as_mut_slice().as_mut_ptr());
    gemm_vector(a.as_slice(), a.rows(), w, outp, out_cols, pool);
    Ok(())
}

fn check_shapes(a: &Matrix, w: &PackedWeights, out: &Matrix) -> Result<(), KernelError> {
    if a.cols() != w.k() {
        return Err(KernelError::shape(format!(
            "a is {}x{} but w.k()={}",
            a.rows(),
            a.cols(),
            w.k()
        )));
    }
    if out.rows() != a.rows() || out.cols() != w.n() {
        return Err(KernelError::shape(format!(
            "out is {}x{} but expected {}x{}",
            out.rows(),
            out.cols(),
            a.rows(),
            w.n()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_tensor::rng::seeded;

    fn dtypes() -> Vec<(WeightDtype, f32)> {
        vec![
            (WeightDtype::F32, 1e-4),
            (WeightDtype::Bf16, 2e-2),
            (WeightDtype::Int8 { group: 32 }, 2e-2),
            (WeightDtype::Int4 { group: 32 }, 2e-1),
        ]
    }

    /// Golden check: optimized kernel vs dequantized reference matmul.
    fn check_gemm(m: usize, n: usize, k: usize, seed: u64) {
        let mut rng = seeded(seed);
        let a = Matrix::random_uniform(m, k, 1.0, &mut rng).unwrap();
        let wmat = Matrix::random_uniform(n, k, 1.0, &mut rng).unwrap();
        for (dt, _tol) in dtypes() {
            let w = PackedWeights::pack(&wmat, dt).unwrap();
            // Reference on the *dequantized* weights so only kernel
            // arithmetic (not quantization) is under test.
            let wref = w.unpack();
            let expect = a.matmul_wt(&wref).unwrap();
            let mut out = Matrix::zeros(m, n).unwrap();
            gemm_tiled(&a, &w, &mut out, None).unwrap();
            let err = expect.relative_error(&out);
            assert!(err < 1e-4, "tiled {dt:?} m={m} n={n} k={k} err={err}");

            let mut out2 = Matrix::zeros(m, n).unwrap();
            gemm_auto(&a, &w, &mut out2, None).unwrap();
            let err2 = expect.relative_error(&out2);
            assert!(err2 < 1e-4, "auto {dt:?} err={err2}");
        }
    }

    #[test]
    fn gemm_matches_reference_small() {
        check_gemm(1, 16, 32, 1);
        check_gemm(3, 17, 64, 2);
        check_gemm(4, 16, 32, 3);
    }

    #[test]
    fn gemm_matches_reference_odd_shapes() {
        check_gemm(5, 33, 96, 4);
        check_gemm(7, 48, 160, 5);
        check_gemm(13, 31, 320, 6); // K spans multiple KC? (no, KC=256: 320 does)
    }

    #[test]
    fn gemm_handles_multiple_k_blocks() {
        check_gemm(6, 32, 2 * KC + 64, 7);
    }

    #[test]
    fn gemv_matches_tiled_for_single_row() {
        let mut rng = seeded(8);
        let k = 128;
        let n = 48;
        let a = Matrix::random_uniform(1, k, 1.0, &mut rng).unwrap();
        let wmat = Matrix::random_uniform(n, k, 1.0, &mut rng).unwrap();
        for (dt, _) in dtypes() {
            let w = PackedWeights::pack(&wmat, dt).unwrap();
            let mut tiled = Matrix::zeros(1, n).unwrap();
            gemm_tiled(&a, &w, &mut tiled, None).unwrap();
            let mut y = vec![0.0f32; n];
            gemv_vector(a.row(0), &w, &mut y, None).unwrap();
            for (x, t) in y.iter().zip(tiled.row(0)) {
                assert!((x - t).abs() <= 1e-3 * t.abs().max(1.0), "{dt:?}");
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let mut rng = seeded(9);
        let a = Matrix::random_uniform(9, 384, 1.0, &mut rng).unwrap();
        let wmat = Matrix::random_uniform(100, 384, 1.0, &mut rng).unwrap();
        let w = PackedWeights::pack(&wmat, WeightDtype::Int8 { group: 64 }).unwrap();
        let pool = ThreadPool::new(4).unwrap();
        let mut serial = Matrix::zeros(9, 100).unwrap();
        let mut parallel = Matrix::zeros(9, 100).unwrap();
        gemm_tiled(&a, &w, &mut serial, None).unwrap();
        gemm_tiled(&a, &w, &mut parallel, Some(&pool)).unwrap();
        assert_eq!(serial.as_slice(), parallel.as_slice());

        let mut ys = vec![0.0f32; 100];
        let mut yp = vec![0.0f32; 100];
        gemv_vector(a.row(0), &w, &mut ys, None).unwrap();
        gemv_vector(a.row(0), &w, &mut yp, Some(&pool)).unwrap();
        assert_eq!(ys, yp);
    }

    #[test]
    fn rowwise_is_batch_invariant_bitwise() {
        // The whole point of `gemm_rowwise`: row i of a 13-row batch
        // carries exactly the bits of the same row computed alone, for
        // every dtype — including the multi-k-block and quantized cases
        // where gemv and tiled kernels legitimately disagree.
        let mut rng = seeded(11);
        let m = 13;
        let n = 48;
        let k = 2 * KC + 64;
        let a = Matrix::random_uniform(m, k, 1.0, &mut rng).unwrap();
        let wmat = Matrix::random_uniform(n, k, 1.0, &mut rng).unwrap();
        for (dt, _) in dtypes() {
            let w = PackedWeights::pack(&wmat, dt).unwrap();
            let mut batch = Matrix::zeros(m, n).unwrap();
            gemm_rowwise(&a, &w, &mut batch, None).unwrap();
            // Against each row alone, and against direct gemv.
            for i in 0..m {
                let one = Matrix::from_rows(1, k, a.row(i)).unwrap();
                let mut alone = Matrix::zeros(1, n).unwrap();
                gemm_rowwise(&one, &w, &mut alone, None).unwrap();
                assert_eq!(batch.row(i), alone.row(0), "{dt:?} row {i}");
                let mut y = vec![0.0f32; n];
                gemv_vector(a.row(i), &w, &mut y, None).unwrap();
                assert_eq!(batch.row(i), &y[..], "{dt:?} row {i} vs gemv");
            }
        }
    }

    #[test]
    fn rowwise_matches_reference() {
        let mut rng = seeded(12);
        let a = Matrix::random_uniform(6, 96, 1.0, &mut rng).unwrap();
        let wmat = Matrix::random_uniform(33, 96, 1.0, &mut rng).unwrap();
        let w = PackedWeights::pack(&wmat, WeightDtype::F32).unwrap();
        let expect = a.matmul_wt(&w.unpack()).unwrap();
        let mut out = Matrix::zeros(6, 33).unwrap();
        gemm_rowwise(&a, &w, &mut out, None).unwrap();
        let err = expect.relative_error(&out);
        assert!(err < 1e-4, "err={err}");
        assert!(gemm_rowwise(&a, &w, &mut Matrix::zeros(7, 33).unwrap(), None).is_err());
    }

    #[test]
    fn shape_errors_are_reported() {
        let a = Matrix::zeros(2, 8).unwrap();
        let wmat = Matrix::zeros(16, 16).unwrap();
        let w = PackedWeights::pack(&wmat, WeightDtype::F32).unwrap();
        let mut out = Matrix::zeros(2, 16).unwrap();
        assert!(gemm_tiled(&a, &w, &mut out, None).is_err());
        let a2 = Matrix::zeros(2, 16).unwrap();
        let mut bad_out = Matrix::zeros(3, 16).unwrap();
        assert!(gemm_tiled(&a2, &w, &mut bad_out, None).is_err());
        let mut y = vec![0.0; 8];
        assert!(gemv_vector(&[0.0; 16], &w, &mut y, None).is_err());
        assert!(gemv_vector(&[0.0; 8], &w, &mut [0.0; 16], None).is_err());
    }

    #[test]
    fn quantized_gemm_is_close_to_full_precision() {
        // End-to-end quantization error should stay small in relative
        // Frobenius norm: Int8 ~ group absmax / 127.
        let mut rng = seeded(10);
        let a = Matrix::random_uniform(8, 256, 1.0, &mut rng).unwrap();
        let wmat = Matrix::random_uniform(64, 256, 0.1, &mut rng).unwrap();
        let wf = PackedWeights::pack(&wmat, WeightDtype::F32).unwrap();
        let wq = PackedWeights::pack(&wmat, WeightDtype::Int8 { group: 64 }).unwrap();
        let mut of = Matrix::zeros(8, 64).unwrap();
        let mut oq = Matrix::zeros(8, 64).unwrap();
        gemm_tiled(&a, &wf, &mut of, None).unwrap();
        gemm_tiled(&a, &wq, &mut oq, None).unwrap();
        let err = of.relative_error(&oq);
        assert!(err < 0.02, "int8 end-to-end err={err}");
    }
}
