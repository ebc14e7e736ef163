//! Serving-layer stress test: many client threads, random
//! cancellations, and injected expert-path faults. The contract under
//! chaos is liveness and accounting — no deadlock, no panic, and
//! every submitted request resolves (completed, cancelled, or failed)
//! within the timeout.

use kt_core::{EngineConfig, HybridEngine, SchedMode};
use kt_inject::Pattern;
use kt_model::ModelPreset;
use kt_serve::{Request, RequestOutcome, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 6;
const RESOLVE_TIMEOUT: Duration = Duration::from_secs(120);

#[test]
fn stress_with_cancellations_and_expert_faults() {
    let cfg = ModelPreset::DeepSeekV3.tiny_config();
    let engine = Arc::new(
        HybridEngine::random(
            &cfg,
            EngineConfig {
                n_cpu_workers: 2,
                mode: SchedMode::AsyncGraph,
                n_deferred: 2,
                seed: 97,
                ..Default::default()
            },
        )
        .unwrap(),
    );

    // Fault injection on the expert path, driven by a kt-inject
    // pattern: every 23rd submission to a matching MoE layer fails,
    // so faults land mid-generation at shifting positions.
    let pattern = Pattern::compile(r"^model\.layers\..*\.mlp\.experts$").unwrap();
    let strikes = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&strikes);
    engine.set_fault_injector(move |path| {
        pattern.is_match(path) && counter.fetch_add(1, Ordering::Relaxed) % 23 == 22
    });

    // A small prefill chunk forces even short prompts through the
    // chunked path, so cancellations and faults land between chunks
    // too.
    let server = Arc::new(
        Server::start(
            Arc::clone(&engine),
            ServerConfig {
                max_batch: 8,
                prefill_chunk: 2,
                step_token_budget: 12,
                ..Default::default()
            },
        )
        .unwrap(),
    );

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let server = Arc::clone(&server);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(client as u64);
                for r in 0..REQUESTS_PER_CLIENT {
                    let prompt: Vec<u32> = (0..rng.gen_range(1usize..5))
                        .map(|_| rng.gen_range(0u32..256))
                        .collect();
                    let handle = server.submit(Request::greedy(&prompt, rng.gen_range(1usize..12)));
                    // Roughly a third of requests get cancelled at a
                    // random point in their lifetime.
                    if rng.gen_bool(0.33) {
                        std::thread::sleep(Duration::from_micros(rng.gen_range(0u64..2000)));
                        handle.cancel();
                    }
                    let result = handle
                        .wait_timeout(RESOLVE_TIMEOUT)
                        .unwrap_or_else(|| panic!("client {client} request {r} did not resolve"));
                    match result.outcome {
                        RequestOutcome::Completed => {
                            assert!(!result.tokens.is_empty());
                        }
                        RequestOutcome::Shed => {
                            unreachable!("no SLO policy configured: nothing may shed")
                        }
                        RequestOutcome::Cancelled => {}
                        RequestOutcome::Failed { error } => {
                            assert!(
                                error.contains("injected fault"),
                                "only injected faults may fail requests: {error}"
                            );
                        }
                    }
                }
            });
        }
    });

    // Accounting: every submission resolved exactly once, and the
    // engine survived enough traffic for faults to actually fire.
    let stats = server.stats();
    assert_eq!(stats.resolved(), (CLIENTS * REQUESTS_PER_CLIENT) as u64);
    assert!(
        strikes.load(Ordering::Relaxed) > 23,
        "fault injector never consulted"
    );
    assert!(stats.failed > 0, "no injected fault ever struck a request");
    assert!(stats.completed > 0, "nothing completed under chaos");

    // The server stays usable after the storm: clear faults and run a
    // clean request end to end.
    engine.clear_fault_injector();
    let clean = server.submit(Request::greedy(&[1, 2, 3], 5)).wait();
    assert!(clean.is_completed(), "{:?}", clean.outcome);
    Arc::try_unwrap(server)
        .unwrap_or_else(|_| panic!("all client threads joined"))
        .shutdown();
}
