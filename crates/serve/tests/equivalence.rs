//! The serving layer's determinism contract: N requests decoded
//! concurrently through the continuous-batching scheduler emit
//! token-for-token what N sequential `generate_greedy` calls emit —
//! with Expert Deferral enabled, so per-row deferral gating is
//! exercised under a mixed, shifting batch.

use kt_core::{EngineConfig, HybridEngine, SchedMode};
use kt_model::ModelPreset;
use kt_serve::{Request, Server, ServerConfig, SloClass, SloPolicy, SloTarget};
use std::sync::Arc;

fn engine(seed: u64) -> HybridEngine {
    let cfg = ModelPreset::DeepSeekV3.tiny_config();
    HybridEngine::random(
        &cfg,
        EngineConfig {
            n_cpu_workers: 2,
            mode: SchedMode::AsyncGraph,
            // Expert Deferral ON: deferral must stay per-sequence
            // under batching.
            n_deferred: 2,
            seed,
            ..Default::default()
        },
    )
    .unwrap()
}

#[test]
fn concurrent_batching_matches_sequential_greedy_exactly() {
    let prompts: Vec<Vec<u32>> = vec![
        vec![1, 2, 3],
        vec![9, 8, 7, 6],
        vec![42],
        vec![5, 5, 5, 5, 5],
        vec![200, 100],
        vec![17, 34, 51],
    ];
    let n_new = 8;

    // Sequential reference: one conversation at a time on a private
    // engine with the same weights (same seed).
    let reference: Vec<Vec<u32>> = {
        let e = engine(7);
        prompts
            .iter()
            .map(|p| e.generate_greedy(p, n_new).unwrap())
            .collect()
    };

    // Concurrent: all six submitted up front, batch width 4, so the
    // scheduler mixes prefill and decode and churns membership as
    // requests finish and queued ones are admitted. Run with monolithic
    // prefill, with a tiny chunk size, and under SLO scheduling
    // (priority admission and class-aware step composition, shedding on,
    // targets no request can miss): the token streams must match the
    // sequential reference exactly every time.
    for (label, cfg) in [
        (
            "monolithic",
            ServerConfig {
                max_batch: 4,
                prefill_chunk: 64,
                step_token_budget: 64,
                ..Default::default()
            },
        ),
        (
            "chunked",
            ServerConfig {
                max_batch: 4,
                prefill_chunk: 2,
                step_token_budget: 6,
                ..Default::default()
            },
        ),
        (
            "slo",
            ServerConfig {
                max_batch: 4,
                prefill_chunk: 2,
                step_token_budget: 6,
                slo: Some(SloPolicy {
                    targets: [SloTarget::from_millis(600_000, 600_000); 3],
                    shed: true,
                }),
                ..Default::default()
            },
        ),
    ] {
        let server = Server::start(Arc::new(engine(7)), cfg).unwrap();
        // Classes round-robin over the prompts; only the SLO config
        // admits by them.
        let handles: Vec<_> = prompts
            .iter()
            .zip(SloClass::ALL.iter().cycle())
            .map(|(p, &class)| server.submit(Request::greedy(p, n_new).with_class(class)))
            .collect();
        let results: Vec<_> = handles.iter().map(|h| h.wait()).collect();

        for (i, (result, expect)) in results.iter().zip(&reference).enumerate() {
            assert!(
                result.is_completed(),
                "{label} request {i}: {:?}",
                result.outcome
            );
            assert_eq!(
                &result.tokens, expect,
                "{label} request {i} diverged from its sequential reference"
            );
        }

        let stats = server.stats();
        assert_eq!(stats.completed, prompts.len() as u64);
        assert_eq!(stats.tokens_generated, (prompts.len() * n_new) as u64);
        // The six requests really ran concurrently, not back to back.
        assert!(
            stats.mean_occupancy() >= 2.0,
            "{label}: expected real batching, got mean occupancy {}",
            stats.mean_occupancy()
        );
        server.shutdown();
    }
}

#[test]
fn repeated_runs_are_reproducible() {
    // The whole serving pipeline is deterministic for greedy requests:
    // two separate server instances over identical weights produce
    // identical streams, whatever the admission interleaving.
    let prompts: Vec<Vec<u32>> = (0..5).map(|i| vec![i * 11 + 1, i + 2]).collect();
    let run = || -> Vec<Vec<u32>> {
        let server = Server::start(
            Arc::new(engine(23)),
            ServerConfig {
                max_batch: 3,
                prefill_chunk: 2,
                step_token_budget: 5,
                ..Default::default()
            },
        )
        .unwrap();
        let handles: Vec<_> = prompts
            .iter()
            .map(|p| server.submit(Request::greedy(p, 6)))
            .collect();
        let out = handles.iter().map(|h| h.wait().tokens).collect();
        server.shutdown();
        out
    };
    assert_eq!(run(), run());
}
