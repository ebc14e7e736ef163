//! Continuous-batching serving layer for the KTransformers engine.
//!
//! The paper's engine serves one request at a time (batch-1 local
//! serving, §6.1). This crate layers a multi-request front end on top:
//!
//! * [`Server`] owns a scheduler thread that runs the continuous
//!   batching loop: between engine steps it admits newly arrived
//!   requests and retires finished or cancelled sequences, so the
//!   batch composition changes step by step without ever draining.
//! * Admission is controlled by a [`kt_model::pool::KvCachePool`]:
//!   a request is admitted only when a per-sequence KV cache can be
//!   leased, bounding resident KV memory.
//! * Each step drives every active sequence through
//!   [`kt_core::HybridEngine::forward_batch`], composed under a token
//!   budget: every established sequence decodes one token, and pending
//!   prompts prefill in chunks of at most
//!   [`ServerConfig::prefill_chunk`] tokens, as many as fit in
//!   [`ServerConfig::step_token_budget`]. A long prompt no longer
//!   stalls everyone else's inter-token latency — it streams through
//!   several steps while decode rows keep flowing (decode rows are
//!   always admitted first). Expert Deferral stays correct per
//!   sequence: the engine defers only decode rows, never a prefill
//!   chunk, even a 1-token final chunk.
//! * Scheduling is pure orchestration: a request's tokens are
//!   bit-identical to running [`kt_core::HybridEngine::generate`]
//!   alone, for *any* chunking — position-dependent projections use a
//!   row-stable GEMM, so a chunked prefill writes exactly the bits a
//!   monolithic prefill would, and the expert kernel class (and SIMD
//!   level) is scheduling too: every kernel backend gives the same
//!   bits at every batch and chunk shape.
//! * Per-request latency lands in [`kt_core::RequestMetrics`] (queue
//!   wait, TTFT, inter-token gaps) and aggregate behavior in
//!   [`kt_core::ServeStats`] (outcome counts, queue depth, batch
//!   occupancy).
//! * Every request carries an [`SloClass`]
//!   (interactive/standard/batch). Starting the server with
//!   [`ServerConfig::slo`] set to an [`SloPolicy`] turns on SLO-aware
//!   serving: admission picks the most urgent class first (FIFO within
//!   a class), an admission controller predicts queued requests' TTFT
//!   slack from the server's own latency histograms and sheds
//!   negative-slack lower-class work ([`RequestOutcome::Shed`]), and
//!   step composition throttles prefill when decode rows are at risk
//!   of ITL violations. Without a policy the server is exactly the
//!   pure-FIFO scheduler described above.
//! * With tracing enabled (`KT_TRACE=1` or [`kt_trace::enable`]),
//!   every request is traced end to end: a tail-latency flight
//!   recorder keeps recent per-request waterfalls — SLO-violating,
//!   shed, and failed requests frozen so ordinary traffic cannot
//!   evict them — each decomposed into named latency
//!   [`Component`]s that sum to the measured end-to-end time.
//!   Surfaced via [`Server::breakdown`],
//!   [`Server::export_request_trace`] (a per-request Perfetto track
//!   group), and the `kt_latency_component_seconds` histogram family
//!   in [`Server::stats_text`].
//!
//! ```
//! use kt_core::{EngineConfig, HybridEngine};
//! use kt_model::ModelPreset;
//! use kt_serve::{Request, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let cfg = ModelPreset::DeepSeekV3.tiny_config();
//! let engine = Arc::new(
//!     HybridEngine::random(&cfg, EngineConfig::default()).unwrap(),
//! );
//! let server = Server::start(
//!     engine,
//!     ServerConfig {
//!         max_batch: 4,
//!         ..Default::default()
//!     },
//! )
//! .unwrap();
//! let handle = server.submit(Request::greedy(&[1, 2, 3], 8));
//! let result = handle.wait();
//! assert!(result.is_completed());
//! assert_eq!(result.tokens.len(), 8);
//! server.shutdown();
//! ```

mod metrics;
pub mod preempt;
mod request;
pub mod sched;
mod server;
pub mod slo;

pub use kt_trace::{Component, RequestBreakdown};
pub use request::{Request, RequestHandle, RequestOutcome, RequestResult};
pub use server::{Server, ServerConfig};
pub use slo::{ClassCounters, SloClass, SloPolicy, SloTarget};

#[cfg(test)]
mod tests {
    use super::*;
    use kt_core::{EngineConfig, HybridEngine, SchedMode};
    use kt_model::ModelPreset;
    use std::sync::Arc;
    use std::time::Duration;

    fn cfg(max_batch: usize) -> ServerConfig {
        ServerConfig {
            max_batch,
            ..Default::default()
        }
    }

    fn engine(seed: u64) -> Arc<HybridEngine> {
        let cfg = ModelPreset::DeepSeekV3.tiny_config();
        Arc::new(
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
            .unwrap(),
        )
    }

    #[test]
    fn single_request_completes() {
        let server = Server::start(engine(1), cfg(2)).unwrap();
        let result = server.submit(Request::greedy(&[1, 2, 3], 6)).wait();
        assert!(result.is_completed(), "{:?}", result.outcome);
        assert_eq!(result.tokens.len(), 6);
        assert!(result.metrics.ttft_ns.is_some());
        assert_eq!(result.metrics.n_tokens(), 6);
        let stats = server.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.tokens_generated, 6);
        server.shutdown();
    }

    #[test]
    fn invalid_requests_fail_fast() {
        let server = Server::start(engine(2), ServerConfig::default()).unwrap();
        let empty = server.submit(Request::greedy(&[], 4)).wait();
        assert!(matches!(empty.outcome, RequestOutcome::Failed { .. }));
        let oov = server.submit(Request::greedy(&[70_000], 4)).wait();
        assert!(matches!(oov.outcome, RequestOutcome::Failed { .. }));
        let long = server.submit(Request::greedy(&[1], usize::MAX / 2)).wait();
        assert!(matches!(long.outcome, RequestOutcome::Failed { .. }));
        // Failed validation never touches the engine or the pool.
        assert_eq!(server.stats().steps, 0);
        assert_eq!(server.active(), 0);
        server.shutdown();
    }

    #[test]
    fn request_the_empty_pool_cannot_admit_fails_at_submit() {
        // An 8-token prompt with max_new 0 fills 2 pages per layer, but
        // admission also charges the first sampled token's row: 3 pages
        // per layer, more than the pool. Submit counts the same rows.
        let layers = ModelPreset::DeepSeekV3.tiny_config().n_layers;
        let server = Server::start(
            engine(15),
            ServerConfig {
                page_rows: 4,
                kv_pool_pages: 2 * layers,
                prefix_cache_bytes: 0,
                ..cfg(2)
            },
        )
        .unwrap();
        let stuck = server.submit(Request::greedy(&[1; 8], 0)).wait();
        let needs = format!("needs {} KV pages", 3 * layers);
        assert!(
            matches!(&stuck.outcome, RequestOutcome::Failed { error } if error.contains(&needs)),
            "{:?}",
            stuck.outcome
        );
        assert_eq!(
            server.stats().steps,
            0,
            "refused before it reached the engine"
        );
        let fits = server.submit(Request::greedy(&[1, 2, 3], 2)).wait();
        assert!(fits.is_completed(), "{:?}", fits.outcome);
        server.shutdown();
    }

    #[test]
    fn stop_token_ends_generation_early() {
        let server = Server::start(engine(3), ServerConfig::default()).unwrap();
        // Learn what greedy emits first, then replay with it as stop.
        let probe = server.submit(Request::greedy(&[4, 5], 3)).wait();
        let stop = probe.tokens[0];
        let mut req = Request::greedy(&[4, 5], 64);
        req.stop_token = Some(stop);
        let result = server.submit(req).wait();
        assert!(result.is_completed());
        assert_eq!(result.tokens, vec![stop], "stops after the stop token");
        server.shutdown();
    }

    #[test]
    fn stop_token_as_final_prompt_token_resolves_immediately() {
        let server = Server::start(engine(14), ServerConfig::default()).unwrap();
        let mut req = Request::greedy(&[4, 5, 9], 64);
        req.stop_token = Some(9);
        let result = server.submit(req).wait();
        assert!(result.is_completed(), "{:?}", result.outcome);
        assert!(
            result.tokens.is_empty(),
            "nothing to generate past the stop"
        );
        let stats = server.stats();
        assert_eq!(stats.completed, 1);
        // Resolved at submission: the engine never ran a step for it.
        assert_eq!(stats.steps, 0);
        assert_eq!(server.active(), 0);
        // A stop token *inside* the prompt does not trigger the fast
        // path — generation proceeds normally.
        let mut mid = Request::greedy(&[9, 4, 5], 4);
        mid.stop_token = Some(9);
        let r = server.submit(mid).wait();
        assert!(r.is_completed());
        assert!(
            !r.tokens.is_empty(),
            "mid-prompt stop token still generates"
        );
        server.shutdown();
    }

    #[test]
    fn shared_prefix_reuse_is_bitwise_identical_and_observable() {
        let prompt: Vec<u32> = (0..32u32).map(|i| (i * 7 + 1) % 250).collect();
        let n_new = 6;

        // Reference: prefix cache disabled — every request cold-prefills.
        let cold_server = Server::start(
            engine(15),
            ServerConfig {
                prefix_cache_bytes: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let cold = cold_server.submit(Request::greedy(&prompt, n_new)).wait();
        assert!(cold.is_completed());
        assert_eq!(
            cold_server.stats().prefix_lookups,
            0,
            "prefix cache disabled"
        );
        cold_server.shutdown();

        // Same weights, prefix cache on: first request misses and
        // freezes its prefix on release; the second seeds 31 rows from
        // the cache and prefills only the final prompt token.
        let server = Server::start(engine(15), ServerConfig::default()).unwrap();
        let first = server.submit(Request::greedy(&prompt, n_new)).wait();
        assert!(first.is_completed());
        let second = server.submit(Request::greedy(&prompt, n_new)).wait();
        assert!(second.is_completed());
        assert_eq!(
            first.tokens, cold.tokens,
            "cold path unchanged by the cache"
        );
        assert_eq!(second.tokens, cold.tokens, "warm path is bitwise-identical");

        let stats = server.stats();
        assert_eq!(stats.prefix_lookups, 2);
        assert_eq!(stats.prefix_misses, 1);
        assert_eq!(stats.prefix_hits, 1);
        assert_eq!(stats.prefix_hit_tokens, (prompt.len() - 1) as u64);
        // Prefill fed the whole prompt cold, then only the uncached
        // final token warm.
        assert_eq!(stats.prefill_tokens, (prompt.len() + 1) as u64);
        assert!(stats.prefix_insertions >= 1);
        assert!(stats.prefix_resident_bytes > 0);
        assert!(stats.prefix_entries >= 1);
        assert!(stats.kv_leases_peak >= 1);
        server.shutdown();
    }

    #[test]
    fn cancellation_resolves_queued_and_active() {
        let server = Server::start(engine(4), cfg(1)).unwrap();
        // Keep the batch busy so a second request must queue.
        let busy = server.submit(Request::greedy(&[1, 2, 3], 64));
        let queued = server.submit(Request::greedy(&[6, 7], 64));
        queued.cancel();
        let q = queued.wait_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(q.outcome, RequestOutcome::Cancelled);
        assert_eq!(q.tokens.len(), 0, "cancelled before admission");
        busy.cancel();
        let b = busy.wait_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(b.outcome, RequestOutcome::Cancelled);
        server.shutdown();
    }

    #[test]
    fn shutdown_resolves_everything() {
        let server = Server::start(engine(5), cfg(1)).unwrap();
        let a = server.submit(Request::greedy(&[1, 2], 50));
        let handles: Vec<_> = (0..4)
            .map(|i| server.submit(Request::greedy(&[i + 1], 50)))
            .collect();
        server.shutdown();
        // Every handle resolves (completed before shutdown, or
        // cancelled by it) — nothing hangs.
        let _ = a.wait_timeout(Duration::from_secs(5)).expect("resolved");
        for h in handles {
            let _ = h.wait_timeout(Duration::from_secs(5)).expect("resolved");
        }
    }

    #[test]
    fn invalid_config_is_rejected_at_start() {
        let max_seq = ModelPreset::DeepSeekV3.tiny_config().max_seq;
        for (bad, field) in [
            (
                ServerConfig {
                    max_batch: 0,
                    ..Default::default()
                },
                "max_batch",
            ),
            (
                ServerConfig {
                    prefill_chunk: 0,
                    ..Default::default()
                },
                "prefill_chunk",
            ),
            (
                ServerConfig {
                    prefill_chunk: 64,
                    step_token_budget: 63,
                    ..Default::default()
                },
                "step_token_budget",
            ),
            (
                ServerConfig {
                    page_rows: 0,
                    ..Default::default()
                },
                "page_rows",
            ),
            (
                ServerConfig {
                    page_rows: max_seq + 1,
                    ..Default::default()
                },
                "page_rows",
            ),
            (
                // Would overflow the pool auto-sizing if it got that far.
                ServerConfig {
                    page_rows: usize::MAX,
                    ..Default::default()
                },
                "page_rows",
            ),
        ] {
            let err = Server::start(engine(7), bad).expect_err("config must be rejected");
            assert!(
                err.to_string().contains(field),
                "error should name the offending field: {err}"
            );
        }
        // The upper bound itself (one page per layer) is a valid size.
        let single_page = ServerConfig {
            page_rows: max_seq,
            ..Default::default()
        };
        Server::start(engine(7), single_page)
            .expect("page_rows == max_seq is accepted")
            .shutdown();
    }

    #[test]
    fn chunked_prefill_serves_identical_tokens_to_monolithic() {
        let prompt: Vec<u32> = (0..23).map(|i| (i * 11 + 2) % 250).collect();
        // Monolithic: the whole prompt fits one chunk.
        let mono_server = Server::start(
            engine(8),
            ServerConfig {
                max_batch: 2,
                prefill_chunk: 512,
                step_token_budget: 512,
                ..Default::default()
            },
        )
        .unwrap();
        let mono = mono_server.submit(Request::greedy(&prompt, 8)).wait();
        assert!(mono.is_completed());
        assert_eq!(mono_server.stats().prefill_chunks, 1);
        mono_server.shutdown();

        // Chunked: 23 tokens in chunks of 5 → 5 chunks over 5 steps.
        let server = Server::start(
            engine(8),
            ServerConfig {
                max_batch: 2,
                prefill_chunk: 5,
                step_token_budget: 8,
                ..Default::default()
            },
        )
        .unwrap();
        let chunked = server.submit(Request::greedy(&prompt, 8)).wait();
        assert!(chunked.is_completed());
        assert_eq!(
            chunked.tokens, mono.tokens,
            "chunking must not change output"
        );
        let stats = server.stats();
        assert_eq!(stats.prefill_chunks, 5);
        assert_eq!(stats.prefill_tokens, prompt.len() as u64);
        server.shutdown();
    }

    #[test]
    fn cancel_between_prefill_chunks_releases_the_lease() {
        // Slow launches + 1-token chunks stretch a 400-token prompt's
        // prefill across hundreds of steps, leaving a wide window to
        // cancel mid-prefill.
        let cfg_model = ModelPreset::DeepSeekV3.tiny_config();
        let engine = Arc::new(
            HybridEngine::random(
                &cfg_model,
                EngineConfig {
                    n_cpu_workers: 2,
                    mode: SchedMode::AsyncGraph,
                    vgpu: kt_core::VgpuConfig {
                        launch_latency: Duration::from_micros(200),
                        ..Default::default()
                    },
                    seed: 9,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let server = Server::start(
            engine,
            ServerConfig {
                max_batch: 1,
                prefill_chunk: 1,
                step_token_budget: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(server.active(), 0, "lease baseline");
        let prompt: Vec<u32> = (0..400).map(|i| (i % 250) as u32).collect();
        let handle = server.submit(Request::greedy(&prompt, 16));
        // Wait until prefill has demonstrably started but not finished.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let done = server.stats().prefill_tokens;
            if done > 0 {
                assert!((done as usize) < prompt.len(), "prefill outran the test");
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "prefill never started"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.cancel();
        let result = handle.wait_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(result.outcome, RequestOutcome::Cancelled);
        assert!(
            result.tokens.is_empty(),
            "cancelled mid-prefill, before the first sample"
        );
        // The KV lease went back to the pool at the step boundary.
        assert_eq!(server.active(), 0, "lease count back to baseline");
        assert_eq!(server.stats().cancelled, 1);
        server.shutdown();
    }

    #[test]
    fn stats_text_exposes_counters_gauges_and_histograms() {
        let server = Server::start(engine(10), cfg(2)).unwrap();
        let result = server.submit(Request::greedy(&[1, 2, 3], 4)).wait();
        assert!(result.is_completed());
        let text = server.stats_text();
        for metric in [
            "# TYPE kt_requests_completed_total counter",
            "kt_requests_completed_total 1",
            "kt_tokens_generated_total 4",
            "# TYPE kt_queue_depth gauge",
            "# TYPE kt_request_queue_wait_ns histogram",
            "kt_request_queue_wait_ns_count 1",
            "kt_request_ttft_ns_count 1",
            // 4 tokens → 3 inter-token gaps.
            "kt_request_inter_token_ns_count 3",
            "_bucket{le=\"+Inf\"} 1",
        ] {
            assert!(text.contains(metric), "missing {metric:?} in:\n{text}");
        }
        // Satellite of PR 4: the vGPU launch counters ride along in
        // ServeStats like the arena counters do.
        let stats = server.stats();
        assert!(
            stats.gpu_graph_replays > 0 || stats.gpu_kernel_launches > 0,
            "launch counters folded in: {stats:?}"
        );
        assert!(text.contains("kt_gpu_host_funcs_total"));
        server.shutdown();
    }

    #[test]
    fn stats_text_reports_expert_weight_bytes_with_dtype_label() {
        use kt_tensor::PrecisionPolicy;
        let cfg_model = ModelPreset::DeepSeekV3.tiny_config();
        let engine = Arc::new(
            HybridEngine::random(
                &cfg_model,
                EngineConfig {
                    n_cpu_workers: 2,
                    precision: PrecisionPolicy::quantized_serving(8),
                    seed: 21,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        assert_eq!(engine.expert_weight_dtype().unwrap().name(), "int4");
        let bytes = engine.expert_weight_bytes().unwrap();
        assert!(bytes > 0);
        let server = Server::start(engine, cfg(2)).unwrap();
        let result = server.submit(Request::greedy(&[1, 2, 3], 4)).wait();
        assert!(result.is_completed());
        let text = server.stats_text();
        let line = format!("kt_expert_weight_bytes{{dtype=\"int4\"}} {bytes}");
        assert!(text.contains(&line), "missing {line:?} in:\n{text}");
        server.shutdown();
    }

    #[test]
    fn queue_wait_recorded_for_requests_cancelled_while_queued() {
        let server = Server::start(engine(11), cfg(1)).unwrap();
        // Keep the single batch slot busy so the next request queues.
        let busy = server.submit(Request::greedy(&[1, 2, 3], 64));
        let queued = server.submit(Request::greedy(&[6, 7], 64));
        std::thread::sleep(Duration::from_millis(2));
        queued.cancel();
        let q = queued.wait_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(q.outcome, RequestOutcome::Cancelled);
        assert!(q.metrics.queue_wait_ns > 0, "queued time was measured");
        busy.cancel();
        let _ = busy.wait_timeout(Duration::from_secs(30)).unwrap();
        // Both resolutions (cancelled-queued and cancelled-active)
        // contributed queue-wait samples — no survivorship bias.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let (queue_wait, _, _) = server.latency_histograms();
            if queue_wait.count() == 2 {
                assert!(queue_wait.max().unwrap() > 0);
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "histograms never saw both requests: {}",
                queue_wait.count()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        server.shutdown();
    }

    #[test]
    fn concurrent_requests_all_complete_and_are_deterministic() {
        let server = Server::start(engine(6), cfg(4)).unwrap();
        let prompts: Vec<Vec<u32>> = (0..6).map(|i| vec![i + 1, 2 * i + 3]).collect();
        let handles: Vec<_> = prompts
            .iter()
            .map(|p| server.submit(Request::greedy(p, 5)))
            .collect();
        let first: Vec<Vec<u32>> = handles.iter().map(|h| h.wait().tokens).collect();
        // Same prompts again — batching composition may differ, tokens
        // must not.
        let again: Vec<Vec<u32>> = prompts
            .iter()
            .map(|p| server.submit(Request::greedy(p, 5)))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.wait().tokens)
            .collect();
        assert_eq!(first, again);
        let stats = server.stats();
        assert_eq!(stats.completed, 12);
        assert!(stats.mean_occupancy() >= 1.0);
        server.shutdown();
    }

    #[test]
    fn slo_config_rejects_unmeetable_targets() {
        let mut zero = SloPolicy::default();
        zero.targets[SloClass::Standard.index()] = SloTarget {
            ttft_ns: 0,
            itl_ns: 0,
        };
        let err = Server::start(
            engine(20),
            ServerConfig {
                slo: Some(zero),
                ..Default::default()
            },
        )
        .expect_err("zero target must be rejected");
        assert!(err.to_string().contains("SloPolicy"), "{err}");

        // A TTFT target below the ITL target is below one step's worth
        // of budget: the first token cannot arrive faster than a step.
        let mut inverted = SloPolicy::default();
        inverted.targets[SloClass::Batch.index()] = SloTarget::from_millis(1, 2);
        let err = Server::start(
            engine(20),
            ServerConfig {
                slo: Some(inverted),
                ..Default::default()
            },
        )
        .expect_err("ttft below one step's budget must be rejected");
        assert!(err.to_string().contains("below one step"), "{err}");
    }

    #[test]
    fn slo_policy_defaults_preserve_fifo_outputs() {
        // The same workload with and without a (loose) SLO policy
        // produces bitwise-identical tokens: scheduling stays pure
        // orchestration.
        let prompts: Vec<Vec<u32>> = (0..5).map(|i| vec![i + 1, 2 * i + 3, 7]).collect();
        let fifo = Server::start(engine(22), cfg(4)).unwrap();
        let base: Vec<Vec<u32>> = prompts
            .iter()
            .map(|p| fifo.submit(Request::greedy(p, 5)))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.wait().tokens)
            .collect();
        fifo.shutdown();

        let slo = Server::start(
            engine(22),
            ServerConfig {
                slo: Some(SloPolicy::default()),
                ..cfg(4)
            },
        )
        .unwrap();
        let classed: Vec<Vec<u32>> = prompts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let class = SloClass::ALL[i % 3];
                slo.submit(Request::greedy(p, 5).with_class(class))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.wait().tokens)
            .collect();
        assert_eq!(base, classed, "SLO scheduling must not change any bits");
        let cs = slo.class_stats();
        assert_eq!(cs[SloClass::Interactive.index()].submitted, 2);
        assert_eq!(cs[SloClass::Standard.index()].submitted, 2);
        assert_eq!(cs[SloClass::Batch.index()].submitted, 1);
        assert_eq!(
            cs.iter().map(|c| c.completed).sum::<u64>(),
            5,
            "per-class completions add up: {cs:?}"
        );
        slo.shutdown();
    }

    #[test]
    fn negative_slack_sheds_batch_but_never_interactive() {
        // Slow launches + 1-token chunks keep the single batch slot
        // busy for a long, controllable window.
        let cfg_model = ModelPreset::DeepSeekV3.tiny_config();
        let slow_engine = Arc::new(
            HybridEngine::random(
                &cfg_model,
                EngineConfig {
                    n_cpu_workers: 2,
                    mode: SchedMode::AsyncGraph,
                    vgpu: kt_core::VgpuConfig {
                        launch_latency: Duration::from_micros(200),
                        ..Default::default()
                    },
                    seed: 21,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        // Batch class gets an impossible 2 ms TTFT target; the other
        // classes are effectively unbounded.
        let policy = SloPolicy {
            targets: [
                SloTarget::from_millis(60_000, 60_000),
                SloTarget::from_millis(60_000, 60_000),
                SloTarget::from_millis(2, 2),
            ],
            shed: true,
        };
        let server = Server::start(
            slow_engine,
            ServerConfig {
                max_batch: 1,
                prefill_chunk: 1,
                step_token_budget: 1,
                prefix_cache_bytes: 0,
                slo: Some(policy),
                ..Default::default()
            },
        )
        .unwrap();
        // Populate the latency histograms: the admission controller
        // never sheds without evidence.
        let warm = server.submit(Request::greedy(&[1, 2], 2)).wait();
        assert!(warm.is_completed());
        // Occupy the only slot with a long prefill, then queue a
        // doomed batch request and a protected interactive one.
        let prompt: Vec<u32> = (0..400).map(|i| (i % 250) as u32).collect();
        let busy = server.submit(Request::greedy(&prompt, 8));
        let doomed = server.submit(Request::greedy(&[3, 4], 4).with_class(SloClass::Batch));
        let vip = server.submit(Request::greedy(&[5, 6], 4).with_class(SloClass::Interactive));
        let d = doomed
            .wait_timeout(Duration::from_secs(30))
            .expect("shed resolves");
        assert_eq!(d.outcome, RequestOutcome::Shed);
        assert!(d.tokens.is_empty(), "shed before admission, no tokens");
        assert!(d.metrics.queue_wait_ns > 0, "queue wait still measured");
        // The interactive request outlived the shed pass that killed
        // the batch request.
        if let Some(v) = vip.try_result() {
            assert_ne!(v.outcome, RequestOutcome::Shed, "interactive is never shed");
        }
        let text = server.stats_text();
        assert!(
            text.contains("kt_requests_shed_total 1"),
            "missing shed counter:\n{text}"
        );
        assert!(
            text.contains("kt_slo_class_shed_total{class=\"batch\"} 1"),
            "missing per-class shed counter:\n{text}"
        );
        busy.cancel();
        vip.cancel();
        let v = vip.wait_timeout(Duration::from_secs(30)).expect("resolves");
        assert_ne!(v.outcome, RequestOutcome::Shed, "interactive is never shed");
        // The ledger counts a request before its handle resolves, so
        // once `busy` resolves it cannot move under the reads below.
        busy.wait_timeout(Duration::from_secs(30))
            .expect("busy resolves");
        let stats = server.stats();
        assert_eq!(stats.shed, 1);
        let cs = server.class_stats();
        assert_eq!(cs[SloClass::Batch.index()].shed, 1);
        assert_eq!(cs[SloClass::Interactive.index()].shed, 0);
        assert_eq!(
            cs.iter().map(|c| c.resolved()).sum::<u64>(),
            stats.resolved(),
            "the aggregate is the sum over classes"
        );
        server.shutdown();
    }
}
