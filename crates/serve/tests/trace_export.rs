//! End-to-end acceptance test for the tracing pipeline: run a real
//! serving workload with tracing enabled, export Chrome-trace JSON,
//! parse it back, and assert the §3.3 CPU/GPU overlap is *visible in
//! the artifact* — a CPU expert-execution span on a worker-thread
//! track overlapping a vGPU op span on a stream track.
//!
//! This test lives in its own integration-test binary on purpose:
//! enabling the global trace sink is process-wide, and no other test
//! in this process should observe tracing switched on.

use kt_core::{EngineConfig, HybridEngine, SchedMode};
use kt_model::ModelPreset;
use kt_serve::{Request, Server, ServerConfig};
use std::collections::HashMap;
use std::sync::Arc;

/// One `"ph":"X"` event parsed back out of the exported JSON.
#[derive(Debug, Clone)]
struct Ev {
    name: String,
    tid: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Extracts the string value of `"key":"..."` from a single-line JSON
/// object (the exporter writes one event per line, no nesting except
/// the flat `args` object).
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Extracts a numeric field (integer or the exporter's `us.nnn`
/// microsecond form) as nanoseconds-scale integer: `"ts":1234.567`
/// parses to 1_234_567; `"tid":3` parses to 3.
fn num_field(line: &str, key: &str, scale_us: bool) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest: String = line[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    match rest.split_once('.') {
        Some((us, frac)) => {
            assert!(scale_us, "unexpected fractional {key}");
            let us: u64 = us.parse().ok()?;
            let frac: u64 = frac.parse().ok()?;
            assert_eq!(rest.split_once('.').unwrap().1.len(), 3, "ns precision");
            Some(us * 1_000 + frac)
        }
        None => {
            let v: u64 = rest.parse().ok()?;
            Some(if scale_us { v * 1_000 } else { v })
        }
    }
}

fn parse_chrome(json: &str) -> (HashMap<u64, String>, Vec<Ev>) {
    assert!(
        json.starts_with("[\n") && json.ends_with("\n]\n"),
        "JSON array format"
    );
    let mut tracks = HashMap::new();
    let mut events = Vec::new();
    for raw in json.lines() {
        let line = raw.trim_end_matches(',');
        if line.contains("\"ph\":\"M\"") {
            let tid = num_field(line, "tid", false).expect("metadata tid");
            let name = str_field(line, "name").expect("metadata name field");
            assert_eq!(name, "thread_name");
            // The track's display name lives in args: {"name":"..."}.
            let args_at = line.find("\"args\"").expect("metadata args");
            let display = str_field(&line[args_at..], "name").expect("args.name");
            tracks.insert(tid, display);
        } else if line.contains("\"ph\":\"X\"") {
            let start_ns = num_field(line, "ts", true).expect("ts");
            let dur_ns = num_field(line, "dur", true).expect("dur");
            events.push(Ev {
                name: str_field(line, "name").expect("event name"),
                tid: num_field(line, "tid", false).expect("tid"),
                start_ns,
                end_ns: start_ns + dur_ns,
            });
        }
    }
    (tracks, events)
}

fn overlaps(a: &Ev, b: &Ev) -> bool {
    a.start_ns < b.end_ns && b.start_ns < a.end_ns
}

#[test]
fn exported_trace_shows_cpu_expert_overlapping_gpu_stream() {
    kt_trace::enable();
    let cfg = ModelPreset::DeepSeekV3.tiny_config();
    let engine = Arc::new(
        HybridEngine::random(
            &cfg,
            EngineConfig {
                n_cpu_workers: 2,
                mode: SchedMode::AsyncGraph,
                n_deferred: 2,
                seed: 21,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let server = Server::start(
        engine,
        ServerConfig {
            max_batch: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let handles: Vec<_> = (0..3)
        .map(|i| server.submit(Request::greedy(&[i + 1, 2 * i + 5, 3], 16)))
        .collect();
    for h in handles {
        assert!(h.wait().is_completed());
    }
    let stats_text = server.stats_text();
    server.shutdown();

    let json = kt_trace::sink().export_chrome();
    let (tracks, events) = parse_chrome(&json);

    // Track layout: worker threads (CPU workers, the scheduler, which
    // drains the stream) plus one named track per vGPU stream.
    let cpu_tracks: Vec<u64> = tracks
        .iter()
        .filter(|(_, n)| n.starts_with("kt-cpu-"))
        .map(|(&t, _)| t)
        .collect();
    assert!(
        !cpu_tracks.is_empty(),
        "CPU worker tracks present: {tracks:?}"
    );
    let stream_tracks: Vec<u64> = tracks
        .iter()
        .filter(|(_, n)| n.starts_with("vGPU stream "))
        .map(|(&t, _)| t)
        .collect();
    assert!(
        !stream_tracks.is_empty(),
        "stream tracks present: {tracks:?}"
    );
    for &t in &stream_tracks {
        assert!(
            t >= u64::from(kt_trace::STREAM_TRACK_BASE),
            "stream tracks live in the reserved id range"
        );
    }

    // The decode path ran as a graph: replay markers on the stream.
    assert!(
        events.iter().any(|e| e.name == "vgpu.graph_replay"),
        "graph replays recorded"
    );
    // Engine phases and scheduler steps made it into the trace.
    for required in [
        "engine.step",
        "engine.attention",
        "serve.step",
        "vgpu.kernel",
    ] {
        assert!(
            events.iter().any(|e| e.name == required),
            "span kind {required} present"
        );
    }

    // THE acceptance check: some CPU expert execution span (on a CPU
    // worker's track) overlaps some vGPU op span (on a stream track) —
    // the paper's CPU/GPU overlap, visible in the exported artifact.
    let cpu_spans: Vec<&Ev> = events
        .iter()
        .filter(|e| {
            (e.name == "cpu.expert_immediate" || e.name == "cpu.expert_deferred")
                && cpu_tracks.contains(&e.tid)
        })
        .collect();
    assert!(!cpu_spans.is_empty(), "CPU expert spans recorded");
    let gpu_spans: Vec<&Ev> = events
        .iter()
        .filter(|e| {
            (e.name == "vgpu.kernel" || e.name == "vgpu.host_func")
                && stream_tracks.contains(&e.tid)
        })
        .collect();
    assert!(!gpu_spans.is_empty(), "vGPU op spans recorded");
    assert!(
        cpu_spans
            .iter()
            .any(|c| gpu_spans.iter().any(|g| overlaps(c, g))),
        "a CPU expert span overlaps a vGPU stream span"
    );

    // The metrics exposition rode along on the same run: three
    // distinct 3-token prompts → three prefix lookups, all misses
    // (below min_prefix_len), zero hits.
    assert!(stats_text.contains("kt_requests_completed_total 3"));
    assert!(stats_text.contains("kt_gpu_graph_replays_total"));
    assert!(stats_text.contains("kt_request_ttft_ns_bucket{le=\"+Inf\"} 3"));
    assert!(stats_text.contains("kt_prefix_lookups_total 3"));
    assert!(stats_text.contains("kt_prefix_misses_total 3"));
    assert!(stats_text.contains("kt_prefix_hits_total 0"));
    assert!(stats_text.contains("kt_prefix_insertions_total 3"));
    assert!(stats_text.contains("kt_kv_leases_peak"));
}
