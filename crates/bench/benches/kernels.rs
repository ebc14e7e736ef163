//! Criterion microbenchmarks of the real CPU kernels: the Figure 3/7
//! analog on this host — tiled ("AMX-class") vs vector ("AVX-512
//! class") kernels across arithmetic intensity and weight dtype.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use kt_kernels::gemm::{gemm_rowwise, gemm_tiled};
use kt_tensor::rng::seeded;
use kt_tensor::{Matrix, PackedWeights, WeightDtype};

fn bench_ari_sweep(c: &mut Criterion) {
    // One "expert" projection: n x k weights, m tokens (the ARI axis),
    // through each kernel class. The m where `tiled` overtakes `vector`
    // is this host's Figure 7 crossover (EXPERIMENTS.md records it;
    // `dispatch::ARI_CROSSOVER` is the paper's 4).
    let n = 256;
    let k = 256;
    let mut rng = seeded(1);
    let wmat = Matrix::random_uniform(n, k, 1.0, &mut rng).unwrap();
    for (name, dtype) in [
        ("ari_sweep_f32", WeightDtype::F32),
        ("ari_sweep_int4", WeightDtype::Int4 { group: 16 }),
    ] {
        let w = PackedWeights::pack(&wmat, dtype).unwrap();
        let mut group = c.benchmark_group(name);
        for m in [1usize, 2, 4, 8, 12, 16, 32, 64] {
            let a = Matrix::random_uniform(m, k, 1.0, &mut rng).unwrap();
            group.throughput(Throughput::Elements((2 * m * n * k) as u64));
            group.bench_with_input(BenchmarkId::new("tiled", m), &m, |b, _| {
                let mut out = Matrix::zeros(m, n).unwrap();
                b.iter(|| gemm_tiled(&a, &w, &mut out, None).unwrap());
            });
            group.bench_with_input(BenchmarkId::new("vector", m), &m, |b, _| {
                let mut out = Matrix::zeros(m, n).unwrap();
                b.iter(|| gemm_rowwise(&a, &w, &mut out, None).unwrap());
            });
        }
        group.finish();
    }
}

fn bench_dtypes(c: &mut Criterion) {
    let n = 256;
    let k = 256;
    let m = 16;
    let mut rng = seeded(2);
    let wmat = Matrix::random_uniform(n, k, 1.0, &mut rng).unwrap();
    let a = Matrix::random_uniform(m, k, 1.0, &mut rng).unwrap();
    let mut group = c.benchmark_group("gemm_dtype");
    group.throughput(Throughput::Elements((2 * m * n * k) as u64));
    for (name, dt) in [
        ("f32", WeightDtype::F32),
        ("bf16", WeightDtype::Bf16),
        ("int8", WeightDtype::Int8 { group: 64 }),
        ("int4", WeightDtype::Int4 { group: 64 }),
    ] {
        let w = PackedWeights::pack(&wmat, dt).unwrap();
        group.bench_function(name, |b| {
            let mut out = Matrix::zeros(m, n).unwrap();
            b.iter(|| gemm_tiled(&a, &w, &mut out, None).unwrap());
        });
    }
    group.finish();
}

fn bench_simd_levels(c: &mut Criterion) {
    // Scalar vs AVX2 vs AVX-512 microkernels on one staged panel block
    // (skipping levels the host lacks).
    use kt_kernels::simd::{microkernel, simd_level, with_forced_simd_level, SimdLevel};
    use kt_tensor::NR;
    let kb = 256;
    let mut rng = seeded(9);
    let mut staged = vec![0.0f32; kb * NR];
    kt_tensor::rng::fill_uniform(&mut rng, &mut staged, 1.0);
    let mut rows = vec![vec![0.0f32; kb]; 4];
    for r in &mut rows {
        kt_tensor::rng::fill_uniform(&mut rng, r, 1.0);
    }
    let a: [&[f32]; 4] = std::array::from_fn(|i| rows[i].as_slice());
    let mut group = c.benchmark_group("simd_microkernel_m4_k256");
    group.throughput(Throughput::Elements((2 * 4 * kb * NR) as u64));
    for (name, level) in [
        ("scalar", SimdLevel::Scalar),
        ("avx2_fma", SimdLevel::Avx2Fma),
        ("avx512", SimdLevel::Avx512),
    ] {
        if simd_level() < level {
            continue;
        }
        group.bench_function(name, |b| {
            with_forced_simd_level(level, || {
                b.iter(|| {
                    let mut acc = [[0.0f32; NR]; 4];
                    microkernel::<4>(a, &staged, kb, &mut acc);
                    std::hint::black_box(acc);
                })
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ari_sweep, bench_dtypes, bench_simd_levels);
criterion_main!(benches);
