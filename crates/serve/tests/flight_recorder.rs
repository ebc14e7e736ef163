//! End-to-end acceptance test for the tentpole: an induced
//! SLO-violating request is captured by the flight recorder
//! automatically, its exported waterfall carries queue/prefill/expert/
//! merge spans labeled with its request id, and its latency breakdown
//! components sum to the measured end-to-end time within tolerance.
//!
//! Lives in its own integration-test binary, as one sequential test:
//! enabling the global trace sink and differencing the global phase
//! table are process-wide, so a concurrently serving second server
//! would pollute the attribution deltas.

use kt_core::{EngineConfig, HybridEngine, SchedMode};
use kt_model::ModelPreset;
use kt_serve::{Component, Request, Server, ServerConfig, SloClass, SloPolicy, SloTarget};
use std::sync::Arc;

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
fn violating_requests_are_captured_with_attributed_waterfalls() {
    kt_trace::enable();
    // 1 ns targets no real request can meet, with shedding off: every
    // request is served, completes, violates, and must end up frozen
    // in the flight recorder without any manual capture step.
    let policy = SloPolicy {
        targets: [SloTarget {
            ttft_ns: 1,
            itl_ns: 1,
        }; 3],
        shed: false,
    };
    let server = Server::start(
        engine(33),
        ServerConfig {
            max_batch: 2,
            prefill_chunk: 8,
            step_token_budget: 16,
            slo: Some(policy),
            ..Default::default()
        },
    )
    .unwrap();

    // 24-token prompts prefill across 3 chunks; 6 generated tokens add
    // decode steps — both step flavors appear in each waterfall.
    let prompts: Vec<Vec<u32>> = (0..3u32)
        .map(|i| (0..24).map(|t| (t * 7 + i + 1) % 250).collect())
        .collect();
    let handles: Vec<_> = prompts
        .iter()
        .map(|p| server.submit(Request::greedy(p, 6).with_class(SloClass::Interactive)))
        .collect();
    let ids: Vec<u64> = handles.iter().map(|h| h.id()).collect();
    for (h, &id) in handles.iter().zip(&ids) {
        let r = h.wait();
        assert!(r.is_completed(), "{:?}", r.outcome);
        assert_eq!(r.request_id, id, "result carries the handle's id");
        assert!(id >= 1, "ids start at 1");
    }

    // Every request violated its 1 ns TTFT target, so the recorder
    // froze all of them.
    let captured = server.captured_request_ids();
    for &id in &ids {
        assert!(captured.contains(&id), "request {id} frozen: {captured:?}");
    }

    for &id in &ids {
        let b = server.breakdown(id).expect("breakdown retained");
        assert_eq!(b.request_id, id);
        assert_eq!(b.tokens, 6);
        assert_eq!(b.prefill_steps, 3, "24 tokens / chunks of 8");
        assert_eq!(b.decode_steps, 5, "first token samples on the last chunk");
        assert!(b.component_ns(Component::PrefillChunk) > 0);
        assert!(b.component_ns(Component::Attention) > 0, "{b:?}");
        assert!(
            b.component_ns(Component::CpuExpert) + b.component_ns(Component::GpuExpert) > 0,
            "expert time attributed: {b:?}"
        );
        assert!(b.component_ns(Component::Merge) > 0, "{b:?}");
        // THE attribution invariant: components sum to the measured
        // queue wait + TTFT + decode time within tolerance. Below 1
        // only through unattributed inter-step scheduler gaps, above
        // only through clock-read jitter at step boundaries.
        let coverage = b.coverage();
        assert!(
            (0.75..=1.05).contains(&coverage),
            "coverage {coverage} out of tolerance: {b:?}"
        );
    }

    // The frozen waterfall exports as a per-request Perfetto track
    // group: queue wait, prefill chunks, expert + merge component
    // spans, every event labeled with the request id.
    let id = ids[0];
    let json = server.export_request_trace(id).expect("export retained");
    for name in [
        "queue_wait",
        "prefill_chunk",
        "attention",
        "merge",
        "request.step",
        "request.first_token",
    ] {
        assert!(
            json.contains(&format!("\"name\":\"{name}\"")),
            "missing {name} span in:\n{json}"
        );
    }
    assert!(
        json.contains("\"name\":\"cpu_expert\"") || json.contains("\"name\":\"gpu_expert\""),
        "expert span present:\n{json}"
    );
    let id_label = format!("\"request_id\":{id}");
    let spans = json.lines().filter(|l| l.contains("\"ph\":\"X\"")).count();
    let with_id = json
        .lines()
        .filter(|l| l.contains("\"ph\":\"X\"") && l.contains(&id_label))
        .count();
    assert!(spans > 0 && spans == with_id, "every span carries the id");
    assert!(
        json.contains("SLO-VIOLATED"),
        "track name flags the violation"
    );
    assert!(
        json.contains(&format!(
            "\"tid\":{}",
            kt_trace::REQUEST_TRACK_BASE + id as u32
        )),
        "request renders on its reserved track"
    );
    // The combined captured export holds all frozen waterfalls.
    let all = server.export_captured_traces();
    for &id in &ids {
        assert!(all.contains(&format!("\"request_id\":{id}")));
    }

    // The component histograms surfaced in the exposition, with the
    // worst request ids attached to buckets as exemplars, and the
    // build-info gauge identifies the replica.
    let text = server.stats_text();
    assert!(
        text.contains("# TYPE kt_latency_component_seconds histogram"),
        "{text}"
    );
    for c in ["queue_wait", "attention", "other"] {
        assert!(
            text.contains(&format!(
                "kt_latency_component_seconds_bucket{{component=\"{c}\",le="
            )),
            "component {c} missing in:\n{text}"
        );
    }
    assert!(
        text.contains("# {request_id=\""),
        "bucket exemplars attached:\n{text}"
    );
    assert!(text.contains("kt_build_info{version=\""), "{text}");
    assert!(text.contains("git_hash=\""), "{text}");
    assert!(text.contains("simd=\""), "{text}");
    assert!(text.contains("kt_expert_hits_total{layer=\""), "{text}");
    server.shutdown();

    // Second phase, same process (the trace sink stays enabled): with
    // no SLO policy nothing can violate, so nothing freezes — but
    // completions still circulate through the recent ring with full
    // breakdowns.
    let server = Server::start(
        engine(34),
        ServerConfig {
            max_batch: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let h = server.submit(Request::greedy(&[1, 2, 3, 4], 4));
    let id = h.id();
    assert!(h.wait().is_completed());
    assert!(server.captured_request_ids().is_empty(), "nothing froze");
    let b = server.breakdown(id).expect("recent ring retains it");
    assert!(b.measured_ttft_ns.is_some());
    assert!(
        !server.recent_breakdowns().is_empty(),
        "recent ring populated"
    );
    assert!(server.export_request_trace(id).is_some());
    assert!(server.breakdown(id + 1000).is_none(), "unknown id");
    server.shutdown();
}
