//! Regenerates Figure 7: MoE-layer latency of the KT AMX vs AVX-512
//! kernels at low tokens-per-expert, per model (simulated), then the
//! real-host arm: `gemm_tiled` (tiled class) vs `gemm_rowwise` (vector
//! class) on one expert projection of this machine.

use kt_bench::{section, series_table, table};
use kt_hwsim::experiments::fig7_kernel_latency;
use kt_hwsim::Calibration;
use kt_kernels::gemm::{gemm_rowwise, gemm_tiled};
use kt_kernels::{KernelError, ThreadPool};
use kt_tensor::rng::seeded;
use kt_tensor::{Matrix, PackedWeights, WeightDtype};
use std::time::Instant;

/// Rows per call (tokens per expert, the arithmetic-intensity axis).
const MS: [usize; 8] = [1, 2, 4, 8, 12, 16, 32, 64];
/// Timed calls per cell after one warm-up call; the cell is their median.
const REPS: usize = 501;

type Gemm =
    fn(&Matrix, &PackedWeights, &mut Matrix, Option<&ThreadPool>) -> Result<(), KernelError>;

fn main() {
    for (model, series) in fig7_kernel_latency(&Calibration::default()) {
        section(&format!("Figure 7: MoE layer latency (ms), {model}"));
        series_table("tokens/expert", &series, |v| format!("{v:.2}"));
    }
    println!();
    println!("Paper reference: AVX-512 wins at <= 4 tokens/expert (crossover),");
    println!("AMX wins above; hybrid dispatch uses AVX-512 at ARI <= 4.");

    real_host_arm();
}

/// Times both kernel classes on one 256x256 projection, single thread,
/// for f32 and int4 weights, and prints GFLOP/s per (M, dtype, kernel)
/// cell plus the M where the tiled kernel first beats the vector kernel.
fn real_host_arm() {
    section("Figure 7, real host: one 256x256 projection, 1 thread (GFLOP/s)");
    let (n, k) = (256, 256);
    let mut rng = seeded(1);
    let wmat = Matrix::random_uniform(n, k, 1.0, &mut rng).unwrap();
    let dtypes = [
        ("f32", WeightDtype::F32),
        ("int4", WeightDtype::Int4 { group: 16 }),
    ];
    // gflops[d][i] = [tiled, vector] for dtypes[d] at MS[i].
    let gflops: Vec<Vec<[f64; 2]>> = dtypes
        .iter()
        .map(|&(name, dtype)| {
            let w = PackedWeights::pack(&wmat, dtype).unwrap();
            let wref = w.unpack();
            MS.iter()
                .map(|&m| {
                    let a = Matrix::random_uniform(m, k, 1.0, &mut rng).unwrap();
                    let expect = a.matmul_wt(&wref).unwrap();
                    time_cell(&a, &w, &expect, &format!("{name} M={m}"))
                })
                .collect()
        })
        .collect();
    let rows: Vec<Vec<String>> = MS
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let mut row = vec![m.to_string()];
            for g in &gflops {
                row.extend(g[i].map(|v| format!("{v:.1}")));
            }
            row
        })
        .collect();
    table(
        &["M", "f32 tiled", "f32 vector", "int4 tiled", "int4 vector"],
        &rows,
    );
    for (g, (name, _)) in gflops.iter().zip(dtypes) {
        match MS.iter().zip(g).find(|(_, [tiled, vector])| tiled > vector) {
            Some((m, _)) => println!("Crossover ({name}): tiled first beats vector at M = {m}"),
            None => println!("Crossover ({name}): none up to M = {}", MS[MS.len() - 1]),
        }
    }
}

/// GFLOP/s of `gemm_tiled` and `gemm_rowwise` computing `a * w^T`.
/// One warm-up call each must match `expect` (the dequantized
/// reference), so a fast but wrong kernel panics here. Each figure is
/// then the median of [`REPS`] timed calls, the two kernels alternating
/// call by call so both see the same host noise.
fn time_cell(a: &Matrix, w: &PackedWeights, expect: &Matrix, label: &str) -> [f64; 2] {
    let kernels: [(&str, Gemm); 2] = [("tiled", gemm_tiled), ("vector", gemm_rowwise)];
    let mut out = Matrix::zeros(a.rows(), w.n()).unwrap();
    for (name, kernel) in kernels {
        kernel(a, w, &mut out, None).unwrap();
        let err = expect.relative_error(&out);
        assert!(
            err < 1e-4,
            "{name} {label}: relative error {err:e} vs the dequantized reference"
        );
    }
    let mut ns = [Vec::with_capacity(REPS), Vec::with_capacity(REPS)];
    for _ in 0..REPS {
        for ((_, kernel), ns) in kernels.iter().zip(&mut ns) {
            let t0 = Instant::now();
            kernel(a, w, &mut out, None).unwrap();
            ns.push(t0.elapsed().as_nanos() as f64);
        }
    }
    let flops = (2 * a.rows() * w.n() * w.k()) as f64;
    ns.map(|mut ns| {
        ns.sort_by(f64::total_cmp);
        flops / ns[REPS / 2]
    })
}
