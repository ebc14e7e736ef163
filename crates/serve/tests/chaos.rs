//! Chaos test: fault injection + 2x-saturation open-loop overload
//! against the SLO scheduler. The contract is liveness and
//! conservation — whatever combination of faults, shedding, and
//! cancellation pressure hits the scheduler, it must never wedge,
//! never leak a KV lease (pool occupancy returns to zero), and never
//! drop a request without exactly one outcome.
//!
//! Arrivals come from the seeded `kt_bench::workload` generator, so the
//! overload shape is reproducible. This is the test that drives the
//! SLO scheduler past capacity: `kt_benchmark`'s `serve_mixed_open`
//! offers 0.6x, where nothing is shed.

use kt_bench::workload::{assign_classes, offsets_ns, ArrivalPattern};
use kt_core::{EngineConfig, HybridEngine, SchedMode};
use kt_inject::Pattern;
use kt_model::ModelPreset;
use kt_serve::{
    Request, RequestHandle, RequestOutcome, Server, ServerConfig, SloClass, SloPolicy, SloTarget,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N_REQUESTS: usize = 120;
const MAX_BATCH: usize = 4;
const RESOLVE_TIMEOUT: Duration = Duration::from_secs(120);

fn request_for(i: usize, class: SloClass) -> Request {
    let (prompt_len, max_new) = match class {
        SloClass::Interactive => (6, 4),
        SloClass::Standard => (12, 6),
        SloClass::Batch => (24, 8),
    };
    let prompt: Vec<u32> = (0..prompt_len)
        .map(|j| ((i * 13 + j * 7 + 5) % 251) as u32)
        .collect();
    Request::greedy(&prompt, max_new).with_class(class)
}

#[test]
fn overload_with_faults_never_wedges_or_leaks() {
    let cfg = ModelPreset::DeepSeekV3.tiny_config();
    let engine = Arc::new(
        HybridEngine::random(
            &cfg,
            EngineConfig {
                n_cpu_workers: 2,
                mode: SchedMode::AsyncGraph,
                n_deferred: 2,
                seed: 53,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    // Every 97th expert-path submission fails, so faults poison
    // batches at shifting, overload-dependent positions. (A strike
    // fails the *whole* step's batch, and a request needs many
    // consecutive clean steps to finish — much hotter than this and
    // nothing ever completes.)
    let pattern = Pattern::compile(r"^model\.layers\..*\.mlp\.experts$").unwrap();
    let strikes = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&strikes);
    engine.set_fault_injector(move |path| {
        pattern.is_match(path) && counter.fetch_add(1, Ordering::Relaxed) % 97 == 96
    });

    // Calibrate saturation with a closed burst against a throwaway
    // FIFO server on the same engine, so the policy targets below are
    // in measured service-wave units rather than absolute wall-clock —
    // the shed pressure then survives whatever contention the rest of
    // the test suite puts on the host.
    let classes: Vec<SloClass> = assign_classes(3, N_REQUESTS, &[0.4, 0.3, 0.3])
        .into_iter()
        .map(|c| SloClass::ALL[c])
        .collect();
    let serve_cfg = ServerConfig {
        max_batch: MAX_BATCH,
        prefill_chunk: 2,
        step_token_budget: 8,
        ..Default::default()
    };
    let calib = Server::start(Arc::clone(&engine), serve_cfg.clone()).unwrap();
    let t0 = Instant::now();
    let probes: Vec<RequestHandle> = (0..2 * MAX_BATCH)
        .map(|i| calib.submit(request_for(i, classes[i])))
        .collect();
    for h in probes {
        let _ = h.wait_timeout(RESOLVE_TIMEOUT).expect("calibration resolves");
    }
    let wall = t0.elapsed();
    calib.shutdown();
    let rate_sat = (2 * MAX_BATCH) as f64 / wall.as_secs_f64();
    // One "service wave" is the wall-clock to drain a full batch.
    let wave_ns = (wall.as_nanos() / 2) as u64;

    // Aggressive policy: tight targets + shedding on, so the shed
    // path runs hot alongside the fault path. Under 2x overload the
    // terminal backlog reaches ~N/2 queued requests (~15 waves), far
    // past the batch class's 3-wave budget.
    let tgt = |waves: u64| SloTarget {
        ttft_ns: waves * wave_ns,
        itl_ns: waves * wave_ns,
    };
    let policy = SloPolicy {
        targets: [tgt(10_000), tgt(8), tgt(3)],
        shed: true,
    };
    let server = Server::start(
        Arc::clone(&engine),
        ServerConfig {
            slo: Some(policy),
            ..serve_cfg
        },
    )
    .unwrap();

    // Warm the real server so its latency histograms hold evidence for
    // the slack predictor (it never sheds blind).
    let warm: Vec<RequestHandle> = (0..2 * MAX_BATCH)
        .map(|i| server.submit(request_for(i, classes[i])))
        .collect();
    for h in warm {
        let _ = h.wait_timeout(RESOLVE_TIMEOUT).expect("warmup resolves");
    }

    let offs = offsets_ns(
        &ArrivalPattern::Bursty {
            rate_per_s: 2.0 * rate_sat,
            burst: 6,
            spread_ns: 500_000,
        },
        41,
        N_REQUESTS,
    );
    let start = Instant::now();
    let handles: Vec<RequestHandle> = offs
        .iter()
        .enumerate()
        .map(|(i, &off)| {
            let due = Duration::from_nanos(off);
            let elapsed = start.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
            let h = server.submit(request_for(i, classes[i]));
            // A slice of requests also gets cancelled immediately, so
            // cancellation races shedding and admission.
            if i % 11 == 7 {
                h.cancel();
            }
            h
        })
        .collect();

    // Conservation: every request resolves with exactly one outcome.
    let mut completed = 0u64;
    let mut cancelled = 0u64;
    let mut failed = 0u64;
    let mut shed = 0u64;
    for (i, h) in handles.iter().enumerate() {
        let r = h
            .wait_timeout(RESOLVE_TIMEOUT)
            .unwrap_or_else(|| panic!("request {i} never resolved — scheduler wedged"));
        match r.outcome {
            RequestOutcome::Completed => {
                completed += 1;
                assert!(!r.tokens.is_empty());
            }
            RequestOutcome::Cancelled => cancelled += 1,
            RequestOutcome::Shed => {
                shed += 1;
                assert!(r.tokens.is_empty(), "shed requests never produce tokens");
                assert_ne!(
                    classes[i],
                    SloClass::Interactive,
                    "interactive request {i} was shed"
                );
            }
            RequestOutcome::Failed { ref error } => {
                failed += 1;
                assert!(
                    error.contains("injected fault"),
                    "only injected faults may fail requests: {error}"
                );
            }
        }
        // Exactly one outcome: the slot's first resolution stands.
        assert_eq!(
            h.try_result().expect("still resolved").outcome,
            r.outcome,
            "request {i} changed outcome after resolution"
        );
    }
    assert_eq!(
        completed + cancelled + failed + shed,
        N_REQUESTS as u64,
        "every request has exactly one outcome"
    );
    let stats = server.stats();
    assert_eq!(
        stats.resolved(),
        (N_REQUESTS + 2 * MAX_BATCH) as u64,
        "server ledger matches: {stats:?}"
    );
    let class_stats = server.class_stats();
    assert_eq!(
        class_stats.iter().map(|c| c.resolved()).sum::<u64>(),
        stats.resolved(),
        "per-class ledger matches the aggregate"
    );
    assert_eq!(class_stats[SloClass::Interactive.index()].shed, 0);
    assert!(
        strikes.load(Ordering::Relaxed) > 97,
        "fault injector never consulted"
    );
    assert!(failed > 0, "no injected fault ever struck a request");
    assert!(completed > 0, "nothing completed under chaos");
    assert!(shed > 0, "2x overload with tight targets must shed something");

    // No KV-lease leak: once everything resolved, pool occupancy is
    // back to zero and the queue is empty.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if server.active() == 0 && server.queued() == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "leases leaked: active={} queued={}",
            server.active(),
            server.queued()
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // The server stays usable after the storm.
    engine.clear_fault_injector();
    let clean = server
        .submit(request_for(0, SloClass::Interactive))
        .wait_timeout(RESOLVE_TIMEOUT)
        .expect("clean request resolves");
    assert!(clean.is_completed(), "{:?}", clean.outcome);
    server.shutdown();
}

#[test]
fn preemption_storm_with_faults_conserves_outcomes_and_pages() {
    // Page-pressure variant: the KV pool holds barely more pages than
    // the single largest request, so a saturated batch preempts
    // constantly (swapping victims' rows out and back) while the fault
    // injector keeps poisoning steps and a slice of
    // requests cancels mid-flight — including while parked on the
    // preempted list. The contract is the same: exactly one outcome
    // per request, only injected faults fail anything, and when the
    // dust settles every page is back in the allocator with nothing
    // stranded in the host swap tier.
    const N: usize = 90;
    const PAGE_ROWS: usize = 4;
    let model_cfg = ModelPreset::DeepSeekV3.tiny_config();
    let engine = Arc::new(
        HybridEngine::random(
            &model_cfg,
            EngineConfig {
                n_cpu_workers: 2,
                mode: SchedMode::AsyncGraph,
                n_deferred: 2,
                seed: 59,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let pattern = Pattern::compile(r"^model\.layers\..*\.mlp\.experts$").unwrap();
    let strikes = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&strikes);
    engine.set_fault_injector(move |path| {
        pattern.is_match(path) && counter.fetch_add(1, Ordering::Relaxed) % 97 == 96
    });

    // Just above the largest admissible request (Batch: 24 prompt + 8
    // new = 32 rows), so any resume eventually fits once the batch
    // drains but two concurrent growers always collide.
    let largest = model_cfg.n_layers * 32usize.div_ceil(PAGE_ROWS);
    let pool_pages = largest + largest / 5;
    let server = Server::start(
        Arc::clone(&engine),
        ServerConfig {
            max_batch: MAX_BATCH,
            prefill_chunk: 2,
            step_token_budget: 8,
            // No prefix retention: at the end, free == total exactly.
            prefix_cache_bytes: 0,
            page_rows: PAGE_ROWS,
            kv_pool_pages: pool_pages,
            ..Default::default()
        },
    )
    .unwrap();

    let classes: Vec<SloClass> = assign_classes(3, N, &[0.4, 0.3, 0.3])
        .into_iter()
        .map(|c| SloClass::ALL[c])
        .collect();
    let handles: Vec<RequestHandle> = (0..N)
        .map(|i| {
            let h = server.submit(request_for(i, classes[i]));
            if i % 11 == 7 {
                h.cancel();
            }
            h
        })
        .collect();

    let (mut completed, mut cancelled, mut failed) = (0u64, 0u64, 0u64);
    for (i, h) in handles.iter().enumerate() {
        let r = h
            .wait_timeout(RESOLVE_TIMEOUT)
            .unwrap_or_else(|| panic!("request {i} never resolved — scheduler wedged"));
        match r.outcome {
            RequestOutcome::Completed => {
                completed += 1;
                assert!(!r.tokens.is_empty());
            }
            RequestOutcome::Cancelled => cancelled += 1,
            RequestOutcome::Shed => panic!("no SLO policy, nothing may shed"),
            RequestOutcome::Failed { ref error } => {
                failed += 1;
                assert!(
                    error.contains("injected fault"),
                    "only injected faults may fail requests: {error}"
                );
            }
        }
        assert_eq!(
            h.try_result().expect("still resolved").outcome,
            r.outcome,
            "request {i} changed outcome after resolution"
        );
    }
    assert_eq!(completed + cancelled + failed, N as u64);
    assert!(completed > 0, "nothing completed under the storm");
    assert!(cancelled > 0, "cancellation slice never landed");

    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active() != 0 || server.queued() != 0 {
        assert!(
            Instant::now() < deadline,
            "leases leaked: active={} queued={}",
            server.active(),
            server.queued()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = server.stats();
    assert!(
        stats.preempt_swap + stats.preempt_recompute > 0,
        "a pool this tight must have preempted something"
    );
    assert_eq!(stats.kv_pages_total, pool_pages as u64);
    assert_eq!(
        stats.kv_pages_free, stats.kv_pages_total,
        "pages leaked: {stats:?}"
    );
    assert_eq!(stats.kv_pages_swapped, 0, "rows stranded in the swap tier");

    // Still serviceable afterwards.
    engine.clear_fault_injector();
    let clean = server
        .submit(request_for(1, SloClass::Interactive))
        .wait_timeout(RESOLVE_TIMEOUT)
        .expect("clean request resolves");
    assert!(clean.is_completed(), "{:?}", clean.outcome);
    server.shutdown();
}
