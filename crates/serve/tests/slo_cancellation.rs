//! Regression tests for cancellation racing the shed path:
//! cancellation-while-queued and cancellation-mid-prefill must resolve
//! as `Cancelled` (not `Shed`) even while the admission controller is
//! actively shedding, and the survivorship-corrected queue-wait
//! histogram must still count every one of them.

use kt_core::{EngineConfig, HybridEngine, SchedMode, VgpuConfig};
use kt_model::ModelPreset;
use kt_serve::{Request, RequestOutcome, Server, ServerConfig, SloClass, SloPolicy, SloTarget};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn cancellation_under_shedding_pressure_is_cancelled_not_shed() {
    // Slow launches + 1-token chunks stretch a long prompt's prefill
    // across hundreds of steps: a wide window for queued requests to
    // be shed and for cancellations to land mid-prefill.
    let cfg = ModelPreset::DeepSeekV3.tiny_config();
    let engine = Arc::new(
        HybridEngine::random(
            &cfg,
            EngineConfig {
                n_cpu_workers: 2,
                mode: SchedMode::AsyncGraph,
                vgpu: VgpuConfig {
                    launch_latency: Duration::from_micros(200),
                    ..Default::default()
                },
                seed: 23,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    // Batch class is unmeetable (2 ms TTFT), interactive and standard
    // effectively unbounded — so batch work sheds while everything
    // else survives.
    let policy = SloPolicy {
        targets: [
            SloTarget::from_millis(60_000, 60_000),
            SloTarget::from_millis(60_000, 60_000),
            SloTarget::from_millis(2, 2),
        ],
        shed: true,
    };
    let server = Server::start(
        engine,
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

    // Evidence for the slack predictor (it never sheds blind).
    let warm = server.submit(Request::greedy(&[1, 2], 2)).wait();
    assert!(warm.is_completed());

    // Occupy the only slot with a long prefill.
    let prompt: Vec<u32> = (0..400).map(|i| (i % 250) as u32).collect();
    let busy = server.submit(Request::greedy(&prompt, 8).with_class(SloClass::Interactive));
    // Wait until its prefill demonstrably started (it is admitted and
    // mid-prompt, not queued).
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let fed = server.stats().prefill_tokens;
        if fed > 4 {
            assert!((fed as usize) < prompt.len(), "prefill outran the test");
            break;
        }
        assert!(Instant::now() < deadline, "prefill never started");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Shedding pressure: a doomed batch-class request...
    let doomed = server.submit(Request::greedy(&[3, 4], 4).with_class(SloClass::Batch));
    // ...and the victim: a standard-class request that will be
    // cancelled while queued. Its targets are loose, so only the
    // client's cancel may resolve it.
    let victim = server.submit(Request::greedy(&[5, 6], 4).with_class(SloClass::Standard));
    let d = doomed
        .wait_timeout(Duration::from_secs(30))
        .expect("doomed resolves");
    assert_eq!(d.outcome, RequestOutcome::Shed, "pressure confirmed");

    // Cancellation-while-queued, with the shed pass running hot.
    std::thread::sleep(Duration::from_millis(2));
    victim.cancel();
    let v = victim
        .wait_timeout(Duration::from_secs(30))
        .expect("victim resolves");
    assert_eq!(
        v.outcome,
        RequestOutcome::Cancelled,
        "client cancellation wins, not the shed path"
    );
    assert!(v.tokens.is_empty(), "cancelled before admission");
    assert!(v.metrics.queue_wait_ns > 0, "queued time was measured");

    // Cancellation-mid-prefill under the same pressure.
    busy.cancel();
    let b = busy
        .wait_timeout(Duration::from_secs(30))
        .expect("busy resolves");
    assert_eq!(b.outcome, RequestOutcome::Cancelled);
    assert!(b.tokens.is_empty(), "cancelled before the first sample");

    // The lease went back at the step boundary; nothing leaked.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active() != 0 {
        assert!(
            Instant::now() < deadline,
            "mid-prefill cancel leaked its lease"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Survivorship correction: the queue-wait histogram counted every
    // resolution — completed, shed, cancelled-queued, and
    // cancelled-mid-prefill alike.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (queue_wait, _, _) = server.latency_histograms();
        if queue_wait.count() == 4 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "queue-wait histogram missed a resolution: {} of 4",
            queue_wait.count()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = server.stats();
    assert_eq!(stats.completed, 1, "{stats:?}");
    assert_eq!(stats.shed, 1, "{stats:?}");
    assert_eq!(stats.cancelled, 2, "{stats:?}");
    let cs = server.class_stats();
    assert_eq!(
        cs[SloClass::Standard.index()].cancelled,
        1,
        "the queued victim"
    );
    assert_eq!(
        cs[SloClass::Interactive.index()].cancelled,
        1,
        "the mid-prefill busy"
    );
    assert_eq!(cs[SloClass::Batch.index()].shed, 1);
    server.shutdown();
}
