//! Concurrency tests for the parallel weighted scatter-add in
//! [`FusedMoE`]: every parallel task owns a disjoint chunk of output
//! token rows and walks the expert buckets in bucket order, so the
//! floating-point accumulation order per token is exactly the serial
//! order — outputs must match the serial path **bitwise**, even under
//! adversarial routings.

use kt_kernels::dispatch::Backend;
use kt_kernels::{FusedMoE, MoeRouting, SchedulePolicy, ThreadPool};
use kt_tensor::rng::seeded;
use kt_tensor::{Matrix, WeightDtype};

const HIDDEN: usize = 32;
const INTER: usize = 40;
const N_EXPERTS: usize = 5;

fn pool_of_experts(seed: u64) -> FusedMoE {
    let mut rng = seeded(seed);
    FusedMoE::random(
        N_EXPERTS,
        HIDDEN,
        INTER,
        WeightDtype::F32,
        Backend::HybridAmxAvx512,
        &mut rng,
    )
    .unwrap()
}

/// Serial and pooled scatter-add must agree bitwise for `routing`,
/// across worker counts (1 worker, fewer workers than chunks, more
/// workers than chunks) and both scheduling policies.
fn assert_bitwise_parallel(moe: &FusedMoE, x: &Matrix, routing: &MoeRouting, what: &str) {
    let serial = moe
        .forward(x, routing, None, SchedulePolicy::Dynamic)
        .unwrap();
    for n_workers in [1usize, 3, 8] {
        let pool = ThreadPool::new(n_workers).unwrap();
        for policy in [SchedulePolicy::Static, SchedulePolicy::Dynamic] {
            let par = moe.forward(x, routing, Some(&pool), policy).unwrap();
            assert_eq!(
                serial.as_slice(),
                par.as_slice(),
                "{what}: {n_workers} workers, {policy:?}"
            );
        }
    }
}

/// All tokens collapse onto a single expert: one giant bucket spanning
/// every row chunk, maximal contention on the bucket's output rows.
#[test]
fn all_tokens_to_one_expert_matches_serial() {
    let moe = pool_of_experts(21);
    let mut rng = seeded(22);
    // 37 rows > several 8-row scatter chunks, so many tasks touch the
    // same bucket.
    let x = Matrix::random_uniform(37, HIDDEN, 1.0, &mut rng).unwrap();
    let routing = MoeRouting::new(vec![vec![(2, 0.7)]; 37]);
    assert_bitwise_parallel(&moe, &x, &routing, "all→one");
}

/// One token activates every expert: every bucket holds the same single
/// token, so one row receives contributions from all buckets and the
/// bucket iteration order IS the accumulation order.
#[test]
fn one_token_to_all_experts_matches_serial() {
    let moe = pool_of_experts(23);
    let mut rng = seeded(24);
    let x = Matrix::random_uniform(1, HIDDEN, 1.0, &mut rng).unwrap();
    let weights: Vec<(usize, f32)> = (0..N_EXPERTS).map(|e| (e, 0.1 + 0.15 * e as f32)).collect();
    let routing = MoeRouting::new(vec![weights]);
    assert_bitwise_parallel(&moe, &x, &routing, "one→all");
}

/// Sparse adversarial mix: most experts empty, the active ones shared
/// by interleaved token subsets, plus rows routed nowhere at all (their
/// output rows must stay exactly zero).
#[test]
fn empty_experts_and_unrouted_rows_match_serial() {
    let moe = pool_of_experts(25);
    let mut rng = seeded(26);
    let n_tokens = 29;
    let x = Matrix::random_uniform(n_tokens, HIDDEN, 1.0, &mut rng).unwrap();
    let assignments: Vec<Vec<(usize, f32)>> = (0..n_tokens)
        .map(|t| match t % 4 {
            0 => vec![(0, 0.9)],
            1 => vec![(4, 0.4), (0, 0.6)],
            2 => Vec::new(), // routed to no expert at all
            _ => vec![(4, 1.0)],
        })
        .collect();
    let routing = MoeRouting::new(assignments);
    assert_bitwise_parallel(&moe, &x, &routing, "sparse");

    // Unrouted rows are exactly zero in the pooled output too.
    let pool = ThreadPool::new(4).unwrap();
    let out = moe
        .forward(&x, &routing, Some(&pool), SchedulePolicy::Dynamic)
        .unwrap();
    for t in (0..n_tokens).filter(|t| t % 4 == 2) {
        assert!(out.row(t).iter().all(|&v| v == 0.0), "row {t} not zero");
    }
}

/// Skewed weights with heavy expert overlap across chunk boundaries:
/// token t activates experts {t % E, (t+1) % E, (t+2) % E} so every
/// chunk boundary splits several buckets.
#[test]
fn overlapping_buckets_across_chunks_match_serial() {
    let moe = pool_of_experts(27);
    let mut rng = seeded(28);
    let n_tokens = 41;
    let x = Matrix::random_uniform(n_tokens, HIDDEN, 1.0, &mut rng).unwrap();
    let assignments: Vec<Vec<(usize, f32)>> = (0..n_tokens)
        .map(|t| {
            (0..3)
                .map(|j| ((t + j) % N_EXPERTS, 1.0 / (1.0 + j as f32)))
                .collect()
        })
        .collect();
    let routing = MoeRouting::new(assignments);
    assert_bitwise_parallel(&moe, &x, &routing, "overlap");
}
