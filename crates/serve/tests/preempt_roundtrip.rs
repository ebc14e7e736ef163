//! Preemption is pure scheduling: a server forced into page-pressure
//! preemption — victims paused with their rows swapped to the host tier
//! and restored at resume — must emit token streams bitwise identical
//! to an unpressured run, complete every request, and hand every page
//! back to the allocator.
//!
//! The pressured pool is sized just above the largest single request,
//! so concurrent growth overflows it quickly and sequences bounce
//! through preempt/resume round trips (including nested ones: a
//! resumed victim is the newest admission, hence the next victim).
//! The other side of the same accounting: admission charges only the
//! pages a sequence grows into, so short requests pack far denser than
//! whole-cache reservation would allow.

use kt_core::{EngineConfig, HybridEngine, SchedMode};
use kt_model::ModelPreset;
use kt_serve::{Request, Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N_NEW: usize = 8;
const PAGE_ROWS: usize = 4;

fn engine(seed: u64) -> HybridEngine {
    let cfg = ModelPreset::DeepSeekV3.tiny_config();
    HybridEngine::random(
        &cfg,
        EngineConfig {
            n_cpu_workers: 2,
            mode: SchedMode::AsyncGraph,
            n_deferred: 2,
            seed,
            ..Default::default()
        },
    )
    .unwrap()
}

fn prompts() -> Vec<Vec<u32>> {
    // Mixed lengths: long prompts create the pressure, short ones
    // keep admission interleaving (and victim churn) nontrivial.
    vec![
        (0..12).map(|j| (j * 7 + 3) as u32).collect(),
        vec![9, 8, 7, 6, 5, 4],
        (0..10).map(|j| (j * 13 + 1) as u32).collect(),
        vec![42, 41, 40, 39, 38, 37, 36, 35],
        vec![200, 100, 50, 25],
        (0..11).map(|j| (j * 5 + 2) as u32).collect(),
    ]
}

fn run(cfg: ServerConfig) -> (Vec<Vec<u32>>, kt_core::ServeStats) {
    run_prompts(cfg, &prompts(), 0)
}

/// Runs the first `primed` prompts to completion one at a time, then
/// submits the rest together.
fn run_prompts(
    cfg: ServerConfig,
    prompts: &[Vec<u32>],
    primed: usize,
) -> (Vec<Vec<u32>>, kt_core::ServeStats) {
    let server = Server::start(Arc::new(engine(7)), cfg).unwrap();
    let mut results: Vec<_> = prompts[..primed]
        .iter()
        .map(|p| server.submit(Request::greedy(p, N_NEW)).wait())
        .collect();
    let handles: Vec<_> = prompts[primed..]
        .iter()
        .map(|p| server.submit(Request::greedy(p, N_NEW)))
        .collect();
    results.extend(handles.iter().map(|h| h.wait()));
    for (i, r) in results.iter().enumerate() {
        assert!(r.is_completed(), "request {i}: {:?}", r.outcome);
    }
    // Resolution races lease release by a hair; wait for the scheduler
    // to fully drain before snapshotting page gauges.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active() != 0 || server.queued() != 0 {
        assert!(Instant::now() < deadline, "scheduler failed to drain");
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = server.stats();
    server.shutdown();
    (results.into_iter().map(|r| r.tokens).collect(), stats)
}

#[test]
fn preempted_streams_match_unpressured_run_bitwise() {
    let model = ModelPreset::DeepSeekV3.tiny_config();
    let longest = prompts().iter().map(Vec::len).max().unwrap() + N_NEW;
    // Just above one full-length sequence: any two concurrent growers
    // must collide and trigger preemption.
    let pool_pages = model.n_layers * longest.div_ceil(PAGE_ROWS) + 1;

    let base = ServerConfig {
        max_batch: 3,
        prefill_chunk: 4,
        step_token_budget: 8,
        // No prefix retention: at drain, every page must be free.
        prefix_cache_bytes: 0,
        ..Default::default()
    };

    // Reference: auto-sized pool (max_batch full-capacity sequences)
    // never comes under pressure.
    let (reference, ref_stats) = run(base.clone());
    assert_eq!(ref_stats.preempt_swap, 0);

    let (tokens, stats) = run(ServerConfig {
        page_rows: PAGE_ROWS,
        kv_pool_pages: pool_pages,
        ..base
    });
    assert_eq!(tokens, reference, "preemption changed the token streams");
    assert!(stats.preempt_swap > 0, "pool never came under pressure");
    // Every page handed back, nothing stranded in the host tier.
    assert_eq!(stats.kv_pages_total, pool_pages as u64);
    assert_eq!(stats.kv_pages_free, stats.kv_pages_total);
    assert_eq!(stats.kv_pages_swapped, 0);
    assert_eq!(stats.kv_pages_shared, 0);
}

#[test]
fn paged_admission_packs_short_requests_past_whole_cache_reservation() {
    // A pool of the bytes of four full `max_seq` caches, in 16-row
    // pages. Reserving a whole cache per sequence would admit four at a
    // time; charging the pages a 24 + 16-row request grows into must
    // keep at least twice that many leases live at once.
    const FLAT_SLOTS: usize = 4;
    let page_rows = 16;
    let model = ModelPreset::DeepSeekV3.tiny_config();
    let prompts: Vec<Vec<u32>> = (0..32)
        .map(|r| {
            (0..24)
                .map(|j| ((r * 31 + j * 7 + 5) % 251) as u32)
                .collect()
        })
        .collect();
    let server = Server::start(
        Arc::new(engine(7)),
        ServerConfig {
            max_batch: prompts.len(),
            prefill_chunk: 32,
            step_token_budget: 64,
            prefix_cache_bytes: 0,
            page_rows,
            kv_pool_pages: FLAT_SLOTS * model.n_layers * model.max_seq / page_rows,
            ..Default::default()
        },
    )
    .unwrap();
    let handles: Vec<_> = prompts
        .iter()
        .map(|p| server.submit(Request::greedy(p, 16)))
        .collect();
    for (i, h) in handles.iter().enumerate() {
        let r = h.wait();
        assert!(r.is_completed(), "request {i}: {:?}", r.outcome);
    }
    let stats = server.stats();
    server.shutdown();
    assert!(
        stats.kv_leases_peak >= 2 * FLAT_SLOTS as u64,
        "{} concurrent leases at the bytes of {FLAT_SLOTS} whole caches",
        stats.kv_leases_peak
    );
    assert_eq!(stats.preempt_swap, 0, "{stats:?}");
}

#[test]
fn victim_holding_prefix_shared_pages_swaps_back_bitwise() {
    // A primer freezes an 8-token hot prefix (two whole pages); every
    // later admission seeds it by reference, so the victims a tight pool
    // preempts hold pages they share with the index. Swap-out copies
    // their rows and drops the references, swap-in restores private
    // copies: the streams must not move, and the index keeps serving
    // the hot prefix throughout.
    let model = ModelPreset::DeepSeekV3.tiny_config();
    let hot: Vec<u32> = (0..8).map(|j| j * 11 + 5).collect();
    let prompts: Vec<Vec<u32>> = (0..6)
        .map(|i| {
            hot.iter()
                .copied()
                .chain((0..2 + i % 3).map(|j| 100 + i * 4 + j))
                .collect()
        })
        .collect();
    // Per layer: the primer's five frozen pages plus three free, so the
    // first wave of three admits by seeding (one private page each) and
    // collides as soon as it grows.
    let pool_pages = model.n_layers * 8;
    let base = ServerConfig {
        max_batch: 3,
        prefill_chunk: 4,
        step_token_budget: 8,
        min_prefix_len: 4,
        ..Default::default()
    };
    let (reference, _) = run_prompts(base.clone(), &prompts, 1);
    let (tokens, stats) = run_prompts(
        ServerConfig {
            page_rows: PAGE_ROWS,
            kv_pool_pages: pool_pages,
            ..base
        },
        &prompts,
        1,
    );
    assert_eq!(
        tokens, reference,
        "a swapped prefix-sharing victim diverged"
    );
    assert!(
        stats.preempt_swap > 0,
        "pool never came under pressure: {stats:?}"
    );
    // The first wave (three admissions) seeds from the primer before
    // anyone grows into the index's pages; later admissions keep hitting.
    assert!(stats.prefix_hits > 3, "hot-prefix hits stopped: {stats:?}");
    assert_eq!(stats.kv_pages_swapped, 0, "{stats:?}");
}

#[test]
fn prefix_index_gives_pages_back_before_anyone_is_preempted() {
    // Twelve requests share an 8-token hot prefix, two at a time, in a
    // pool of exactly two full-length sequences. Every finished request
    // freezes its pages into the prefix index, so the index fills the
    // pool; the next sequences' growth must come from evicting its
    // least-recently-touched tails, not from preempting a batchmate —
    // and the hot prefix, touched by every admission, stays cached.
    let model = ModelPreset::DeepSeekV3.tiny_config();
    let hot: Vec<u32> = (0..8).map(|j| j * 11 + 5).collect();
    let prompts: Vec<Vec<u32>> = (0..12)
        .map(|i| {
            hot.iter()
                .copied()
                .chain((0..4).map(|j| 100 + i * 4 + j))
                .collect()
        })
        .collect();
    let pool_pages = 2 * model.n_layers * (12 + N_NEW).div_ceil(PAGE_ROWS);
    let base = ServerConfig {
        max_batch: 2,
        prefill_chunk: 4,
        step_token_budget: 8,
        min_prefix_len: 4,
        ..Default::default()
    };
    let (reference, _) = run_prompts(base.clone(), &prompts, 0);
    let (tokens, stats) = run_prompts(
        ServerConfig {
            page_rows: PAGE_ROWS,
            kv_pool_pages: pool_pages,
            ..base
        },
        &prompts,
        0,
    );
    assert_eq!(
        tokens, reference,
        "the page valve changed the token streams"
    );
    assert!(
        stats.prefix_evictions > 0,
        "the index never had to give pages back: {stats:?}"
    );
    assert_eq!(stats.preempt_swap, 0, "{stats:?}");
    assert!(
        stats.prefix_hits >= (prompts.len() - base.max_batch) as u64,
        "hot-prefix hits stopped: {stats:?}"
    );
}
