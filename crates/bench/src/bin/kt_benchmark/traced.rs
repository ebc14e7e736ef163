//! The traced run: the workload at one third length with
//! `kt_trace::enable()`, then the layer probes. It produces the
//! per-layer table and the span file. End-to-end numbers are never
//! taken from it; an untraced window of the same load beside the
//! traced one gives `trace.overhead_frac`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use kt_core::{HybridEngine, ServeStats};
use kt_serve::Server;
use kt_trace::SpanKind;

use crate::deploy::{self, Spec};
use crate::driver::{self, PhaseCounts, Verify, Window};
use crate::metrics::{self, Table};
use crate::spans::SpanLog;
use crate::{probes, procfs, RunOutput};

/// Share of `--seconds` the traced window runs for, and the untraced
/// reference window before it.
const TRACED_SHARE: f64 = 1.0 / 3.0;
const REFERENCE_SHARE: f64 = 1.0 / 6.0;
/// First request index of the reference window, far past the traced
/// window's.
const REFERENCE_FIRST: u64 = 1 << 32;
/// Share of `--seconds` the squeezed-pool sub-window runs for, and its
/// first request index.
const SQUEEZED_SHARE: f64 = 1.0 / 6.0;
const SQUEEZED_FIRST: u64 = 2 << 32;
/// How long the idle server's CPU use is watched.
const IDLE_WATCH: Duration = Duration::from_secs(1);

fn default_span_file(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("kt_benchmark")
        .join(format!("spans-{workload}.json"))
}

/// `request` -> `queue_wait` / `first_token` / `decode`, from the
/// public `RequestMetrics` of every request of the traced window.
fn record_requests(log: &mut SpanLog, parent: usize, base_ns: u64, window: &Window) {
    for d in &window.done {
        let id = d.result.request_id;
        let at = |ns: u64| base_ns + ns;
        let req = log.push(
            "request",
            at(d.dispatch.due_ns),
            at(d.done_ns()),
            Some(parent),
            id,
        );
        log.push(
            "queue_wait",
            at(d.dispatch.due_ns),
            at(d.admitted_ns()),
            Some(req),
            id,
        );
        log.push(
            "first_token",
            at(d.admitted_ns()),
            at(d.first_token_ns()),
            Some(req),
            id,
        );
        log.push(
            "decode",
            at(d.first_token_ns()),
            at(d.done_ns()),
            Some(req),
            id,
        );
    }
}

/// What the squeezed-pool sub-window of `prefix_pressure` did.
struct Squeezed {
    warm: PhaseCounts,
    timed: PhaseCounts,
    verify: Verify,
    preempt_swap: u64,
    preempt_recompute: u64,
}

/// The same load against a second server whose page pool is too small
/// for it, so the block allocator exhausts and the scheduler swaps or
/// recomputes victims: the path the timed window stays off, because
/// its storms differ several-fold between identical runs. Only counts
/// are taken; every request must still complete and replay.
fn squeezed(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    engine: &Arc<HybridEngine>,
) -> Result<Squeezed, String> {
    let server = Server::start(Arc::clone(engine), deploy::squeezed_server_config(spec))
        .map_err(|e| format!("squeezed server: {e}"))?;
    let warm = driver::warm_up(&server, spec, seed);
    let before = server.stats();
    let window = driver::run_window(
        &server,
        spec,
        seed,
        SQUEEZED_FIRST,
        seconds * SQUEEZED_SHARE,
        &mut |_| {},
    );
    let after = server.stats();
    let verify = driver::verify(&server, spec, seed, &window);
    server.shutdown();
    let q = Squeezed {
        warm,
        timed: window.counts,
        preempt_swap: after.preempt_swap - before.preempt_swap,
        preempt_recompute: after.preempt_recompute - before.preempt_recompute,
        verify,
    };
    println!(
        "   phase squeezed ({} pages): {} preempt swap={} recompute={}; verify: {} match_frac={:.4}",
        deploy::SQUEEZED_POOL_PAGES,
        q.timed,
        q.preempt_swap,
        q.preempt_recompute,
        q.verify.counts,
        q.verify.match_frac
    );
    Ok(q)
}

pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    span_file: Option<&str>,
) -> Result<RunOutput, String> {
    println!("== {} seed={seed} seconds={seconds} (traced) ==", spec.name);
    let mut log = SpanLog::new();
    let root = log.open("traced_run", None);
    let mut t = Table::new(metrics::PER_LAYER);
    let host_before = procfs::host_probe();

    let (dep, _) = driver::set_up(spec)?;
    let warm = driver::warm_up(&dep.server, spec, seed);

    // Untraced reference window on later requests of the same seed:
    // other prompts, so the traced window meets nothing it cached, but
    // the same shared prefixes on `prefix_pressure`.
    kt_trace::disable();
    let reference = driver::run_window(
        &dep.server,
        spec,
        seed,
        REFERENCE_FIRST,
        seconds * REFERENCE_SHARE,
        &mut |_| {},
    );
    let ref_sum = driver::summarize(spec, &reference, &[]);

    // Traced window, with server counters differenced around it and
    // the page gauges sampled at every completion.
    let before: ServeStats = dep.server.stats();
    let phases_before = kt_trace::sink().phase_snapshot();
    let cpu_before = procfs::cpu_seconds();
    let ticks_before = procfs::cpu_ticks();
    let (mut pages_used_peak, mut pages_shared_peak) = (0u64, 0u64);
    kt_trace::enable();
    let window_span = log.open("workload", Some(root));
    let base_ns = log.now_ns();
    let window = driver::run_window(
        &dep.server,
        spec,
        seed,
        0,
        seconds * TRACED_SHARE,
        &mut |server| {
            let s = server.stats();
            pages_used_peak = pages_used_peak.max(s.kv_pages_total - s.kv_pages_free);
            pages_shared_peak = pages_shared_peak.max(s.kv_pages_shared);
        },
    );
    log.close(window_span);
    kt_trace::disable();
    let cpu_after = procfs::cpu_seconds();
    let stolen = procfs::steal_frac(ticks_before, procfs::cpu_ticks());
    let phases_after = kt_trace::sink().phase_snapshot();
    let after: ServeStats = dep.server.stats();
    record_requests(&mut log, window_span, base_ns, &window);

    let verify = driver::verify(&dep.server, spec, seed, &window);
    let sum = driver::summarize(spec, &window, &verify.mismatched);
    driver::print_phases(&warm, &window, &verify, &sum, spec);

    let breakdowns = dep.server.recent_breakdowns();
    let coverage = if breakdowns.is_empty() {
        f64::NAN
    } else {
        breakdowns.iter().map(|b| b.coverage()).sum::<f64>() / breakdowns.len() as f64
    };
    let spans_recorded = kt_trace::sink().snapshot().spans.len();

    // The started, idle server: how much CPU it burns doing nothing.
    let idle_before = procfs::cpu_seconds();
    std::thread::sleep(IDLE_WATCH);
    let idle_cpu = procfs::cpu_seconds().zip(idle_before).map(|(a, b)| a - b);
    let threads = procfs::threads();
    dep.server.shutdown();
    let squeezed = if spec.name == "prefix_pressure" {
        Some(squeezed(spec, seed, seconds, &dep.engine)?)
    } else {
        None
    };

    // Server counters over the traced window.
    let d = |f: fn(&ServeStats) -> u64| (f(&after) - f(&before)) as f64;
    let steps = d(|s| s.steps).max(1.0);
    let wall_ns = window.wall_s * 1e9;
    t.set("serve.steps", d(|s| s.steps));
    t.set("serve.prefill_tokens", d(|s| s.prefill_tokens));
    t.set("serve.prefill_chunks", d(|s| s.prefill_chunks));
    t.set("serve.mean_occupancy", d(|s| s.occupancy_sum) / steps);
    t.set("serve.mean_queue_depth", d(|s| s.queue_depth_sum) / steps);
    t.set("serve.peak_queue_depth", after.peak_queue_depth as f64);
    t.set("serve.queue_wait_p50_ms", sum.queue_wait_p50_ms);
    t.set("serve.queue_wait_p90_ms", sum.queue_wait_p90_ms);
    t.set("serve.ttft_p90_ms", sum.ttft_p90_ms);
    t.set("serve.itl_p50_ms", sum.itl_p50_ms);
    t.set("serve.itl_tail_ms", sum.itl_tail_ms);
    t.set("serve.itl_tail_pct", sum.itl_tail_pct);
    t.set("serve.submit_us", sum.submit_p50_us);
    // From the squeezed sub-window where there is one: the traced
    // window itself does not exhaust its pool.
    t.set(
        "serve.preempt_swap",
        squeezed
            .as_ref()
            .map_or(d(|s| s.preempt_swap), |q| q.preempt_swap as f64),
    );
    t.set(
        "serve.preempt_recompute",
        squeezed
            .as_ref()
            .map_or(d(|s| s.preempt_recompute), |q| q.preempt_recompute as f64),
    );
    t.set("serve.shed", d(|s| s.shed));
    t.set("serve.gen_late_p99_ms", sum.gen_late_p99_ms);
    t.set("serve.match_frac", verify.match_frac);

    t.set(
        "tensor.arena_allocs_per_step",
        d(|s| s.arena_allocations) / steps,
    );
    t.set(
        "tensor.arena_high_water_mb",
        after.arena_high_water_bytes as f64 / 1e6,
    );
    t.set(
        "tensor.arena_served_frac",
        d(|s| s.arena_bytes_served) / d(|s| s.arena_bytes_requested).max(1.0),
    );

    t.set(
        "model.prefix_hit_frac",
        d(|s| s.prefix_hit_tokens) / sum.in_tokens.max(1) as f64,
    );
    t.set(
        "model.prefix_lookups_per_req",
        d(|s| s.prefix_lookups) / window.counts.sent.max(1) as f64,
    );
    t.set("model.prefix_evictions", d(|s| s.prefix_evictions));
    t.set(
        "model.kv_pages_peak_frac",
        pages_used_peak as f64 / after.kv_pages_total.max(1) as f64,
    );
    t.set("model.kv_pages_shared_peak", pages_shared_peak as f64);

    let launches =
        d(|s| s.gpu_kernel_launches) + d(|s| s.gpu_host_funcs) + d(|s| s.gpu_graph_replays);
    t.set("core.launches_per_step", launches / steps);
    t.set(
        "core.graph_replays_per_step",
        d(|s| s.gpu_graph_replays) / steps,
    );
    t.set(
        "core.launch_overhead_frac",
        d(|s| s.gpu_launch_overhead_ns) / wall_ns,
    );
    t.set("core.gpu_busy_frac", d(|s| s.gpu_busy_ns) / wall_ns);

    // The public phase table, per engine step of the traced window.
    let phase_us = |kinds: &[SpanKind]| {
        let ns: u64 = kinds
            .iter()
            .map(|&k| phases_after[k as usize] - phases_before[k as usize])
            .sum();
        ns as f64 / steps / 1e3
    };
    let on_stream = [
        ("core.phase.embed_us", phase_us(&[SpanKind::Embed])),
        ("core.phase.attention_us", phase_us(&[SpanKind::Attention])),
        (
            "core.phase.gating_us",
            phase_us(&[SpanKind::ExpertDispatch]),
        ),
        (
            "core.phase.shared_expert_us",
            phase_us(&[SpanKind::SharedExperts, SpanKind::GpuExperts]),
        ),
        ("core.phase.merge_spin_us", phase_us(&[SpanKind::MergeSpin])),
        (
            "core.phase.scatter_add_us",
            phase_us(&[SpanKind::ScatterAdd, SpanKind::DeferralFlush]),
        ),
        ("core.phase.lm_head_us", phase_us(&[SpanKind::LmHead])),
    ];
    let named: f64 = on_stream.iter().map(|(_, us)| us).sum();
    let step_us = phase_us(&[SpanKind::EngineStep]);
    for (name, us) in on_stream {
        t.set(name, us);
    }
    t.set("core.phase.other_us", (step_us - named).max(0.0));
    // CPU expert busy time overlaps the stream phases; it is reported,
    // not summed.
    t.set(
        "core.phase.cpu_expert_us",
        phase_us(&[SpanKind::CpuExpertImmediate, SpanKind::CpuExpertDeferred]),
    );
    println!(
        "   phases on the device stream: {:.1} us/step named + {:.1} us other = {:.1} us = {:.3} of traced itl_p50 ({:.1} us)",
        named,
        (step_us - named).max(0.0),
        step_us.max(named),
        step_us.max(named) / (sum.itl_p50_ms * 1e3),
        sum.itl_p50_ms * 1e3
    );

    t.set(
        "trace.overhead_frac",
        1.0 - sum.out_tok_s / ref_sum.out_tok_s,
    );
    t.set("trace.coverage_frac", coverage);
    t.set("trace.spans_recorded", spans_recorded as f64);
    println!(
        "   untraced reference window: out_tok_s {:.2} itl_p50 {:.4} ms; traced: out_tok_s {:.2} itl_p50 {:.4} ms",
        ref_sum.out_tok_s, ref_sum.itl_p50_ms, sum.out_tok_s, sum.itl_p50_ms
    );

    let cpu_s = cpu_after.zip(cpu_before).map(|(a, b)| a - b);
    t.set(
        "proc.cpu_s_per_ktok",
        cpu_s.map_or(f64::NAN, |c| c / (sum.out_tokens.max(1) as f64 / 1e3)),
    );
    t.set(
        "proc.idle_cpu_frac",
        idle_cpu.map_or(f64::NAN, |c| c / IDLE_WATCH.as_secs_f64()),
    );
    t.set("proc.threads", threads.map_or(f64::NAN, |n| n as f64));
    t.set(
        "proc.peak_rss_mb",
        procfs::peak_rss_mb().unwrap_or(f64::NAN),
    );

    // Layer probes: no server alive, tracing off, one thread.
    let probe_root = log.open("probes", Some(root));
    probes::kernels(&mut log, probe_root, &mut t);
    probes::tensor(&mut log, probe_root, &mut t);
    probes::model(&mut log, probe_root, &dep.engine, &mut t);
    probes::core(&mut log, probe_root, &dep.engine, &mut t);
    probes::serve(&mut log, probe_root, &mut t);
    log.close(probe_root);
    drop(dep.engine);

    // What the scheduler thread and the hand-off add to one engine
    // step: untraced median gap minus the bare step, so the two sum to
    // the gap by construction (meaningful on `decode_stream`).
    let step_b1 = t.get("core.step_decode_b1_us").unwrap_or(f64::NAN);
    t.set(
        "serve.sched_overhead_us",
        ref_sum.itl_p50_ms * 1e3 - step_b1,
    );

    let host_after = procfs::host_probe();
    t.set("host.ref_stream_gbs", host_before.stream_gbs);
    t.set("host.ref_fma_gflops", host_before.fma_gflops);
    t.set(
        "host.ref_drift_frac",
        (host_after.stream_gbs / host_before.stream_gbs
            + host_after.fma_gflops / host_before.fma_gflops)
            / 2.0,
    );
    // 0 where the kernel reports no steal (bare metal, or off Linux).
    t.set(
        "host.steal_frac",
        if stolen.is_finite() { stolen } else { 0.0 },
    );
    log.close(root);

    println!("   self time by span name (ms, calls):");
    for (name, ns, calls) in log.self_time_by_name().into_iter().take(12) {
        println!("     {name:<34} {:>10.3} {calls:>7}", ns as f64 / 1e6);
    }
    let path = span_file.map_or_else(|| default_span_file(spec.name), PathBuf::from);
    let rows = t.rows()?;
    log.write_json(&path, spec.name, seed, &rows)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("   {} spans written to {}", log.len(), path.display());

    let mut out = RunOutput {
        table: t,
        correct: driver::check(spec, &warm, &window.counts, &verify),
        attempted: window.counts.sent + verify.counts.sent,
        failed: driver::failed_operations(spec, &window.counts, &verify),
    };
    if let Some(q) = &squeezed {
        out.correct = out.correct.and_then(|()| {
            driver::check(spec, &q.warm, &q.timed, &q.verify).map_err(|e| format!("squeezed: {e}"))
        });
        out.attempted += q.timed.sent + q.verify.counts.sent;
        out.failed += driver::failed_operations(spec, &q.timed, &q.verify);
    }
    Ok(out)
}
