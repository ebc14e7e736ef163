//! Golden conformance test for the Prometheus text exposition.
//!
//! Parses the entire `Server::stats_text()` output back, line by line,
//! and checks the exposition-format invariants the [`kt_serve`]
//! metrics helpers promise:
//!
//! * every family has exactly one `# HELP` and one `# TYPE` line,
//!   HELP immediately followed by TYPE, both before any sample;
//! * every metric and label name matches `[a-zA-Z_:][a-zA-Z0-9_:]*`;
//! * every sample belongs to a declared family — bare name for
//!   counters/gauges, `_bucket`/`_sum`/`_count` suffixes for
//!   histograms — and every value parses as a finite float;
//! * label values are properly quoted (escapes consumed), and
//!   histogram `_bucket` series close with an `le="+Inf"` bucket
//!   whose count equals the series' `_count`;
//! * OpenMetrics-style exemplar suffixes (` # {label="v"} value`)
//!   appear only on `_bucket` lines of histogram families.
//!
//! Runs in its own test binary: it enables tracing so the
//! `kt_latency_component_seconds` family (with exemplars) is
//! populated, and the trace sink is process-global.

use kt_core::{EngineConfig, HybridEngine};
use kt_model::ModelPreset;
use kt_serve::{Request, Server, ServerConfig, SloPolicy, SloTarget};
use std::collections::HashMap;
use std::sync::Arc;

fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Splits one sample line into (name, labels, value), consuming a
/// trailing exemplar if present. Panics (failing the test) on any
/// malformed piece.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
    exemplar: bool,
}

fn parse_sample(line: &str) -> Sample {
    let (series, rest) = match line.find('{') {
        Some(open) => {
            let close = scan_label_block(line, open);
            (&line[..close + 1], &line[close + 1..])
        }
        None => {
            let sp = line.find(' ').expect("sample has a value");
            (&line[..sp], &line[sp..])
        }
    };
    let (name, labels) = match series.find('{') {
        Some(open) => {
            assert!(series.ends_with('}'), "label block closes: {line}");
            (
                &series[..open],
                parse_labels(&series[open + 1..series.len() - 1], line),
            )
        }
        None => (series, Vec::new()),
    };
    let rest = rest.trim_start();
    // `value [# {labels} exemplar_value]`
    let (value_str, exemplar) = match rest.split_once(" # ") {
        Some((v, ex)) => {
            let (exl, exv) = ex.split_once("} ").expect("exemplar closes: {line}");
            assert!(exl.starts_with('{'), "exemplar labels braced: {line}");
            parse_labels(&exl[1..], line);
            let exv: f64 = exv.trim().parse().expect("exemplar value parses");
            assert!(exv.is_finite());
            (v, true)
        }
        None => (rest, false),
    };
    let value: f64 = value_str.trim().parse().unwrap_or_else(|_| {
        panic!("value {value_str:?} parses in: {line}");
    });
    assert!(value.is_finite(), "finite value in: {line}");
    Sample {
        name: name.to_string(),
        labels,
        value,
        exemplar,
    }
}

/// Returns the index of the `}` closing the label block opened at
/// `open`, honoring quoted (and escaped) label values.
fn scan_label_block(line: &str, open: usize) -> usize {
    let bytes = line.as_bytes();
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate().skip(open + 1) {
        match b {
            _ if escaped => escaped = false,
            b'\\' if in_quotes => escaped = true,
            b'"' => in_quotes = !in_quotes,
            b'}' if !in_quotes => return i,
            _ => {}
        }
    }
    panic!("unterminated label block: {line}");
}

fn parse_labels(block: &str, line: &str) -> Vec<(String, String)> {
    let mut labels = Vec::new();
    let mut rest = block;
    while !rest.is_empty() {
        let eq = rest
            .find("=\"")
            .unwrap_or_else(|| panic!("label has =\" in: {line}"));
        let name = &rest[..eq];
        assert!(valid_name(name), "label name {name:?} valid in: {line}");
        // Find the closing quote, skipping escapes.
        let bytes = rest.as_bytes();
        let mut end = None;
        let mut escaped = false;
        for (i, &b) in bytes.iter().enumerate().skip(eq + 2) {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => {
                    end = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let end = end.unwrap_or_else(|| panic!("label value closes in: {line}"));
        let value = &rest[eq + 2..end];
        assert!(!value.contains('\n'), "raw newline in label value: {line}");
        labels.push((name.to_string(), value.to_string()));
        rest = rest[end + 1..].trim_start_matches(',');
    }
    labels
}

#[test]
fn stats_text_conforms_to_the_exposition_format() {
    kt_trace::enable();
    let cfg = ModelPreset::DeepSeekV3.tiny_config();
    let engine = Arc::new(
        HybridEngine::random(
            &cfg,
            EngineConfig {
                n_cpu_workers: 2,
                seed: 44,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    // A policy with 1 ns targets guarantees violations, populating the
    // SLO counters and freezing traces so the exemplar-bearing
    // component histograms are non-empty.
    let policy = SloPolicy {
        targets: [SloTarget {
            ttft_ns: 1,
            itl_ns: 1,
        }; 3],
        shed: false,
    };
    let server = Server::start(
        engine,
        ServerConfig {
            max_batch: 2,
            slo: Some(policy),
            ..Default::default()
        },
    )
    .unwrap();
    for i in 0..3u32 {
        assert!(server
            .submit(Request::greedy(&[i + 1, 2 * i + 5, 3], 5))
            .wait()
            .is_completed());
    }
    let text = server.stats_text();
    server.shutdown();

    let mut help: HashMap<String, usize> = HashMap::new();
    let mut kind: HashMap<String, String> = HashMap::new();
    let mut samples: Vec<Sample> = Vec::new();
    let mut last_meta: Option<(String, &str)> = None;
    for line in text.lines() {
        assert!(!line.is_empty(), "no blank lines in the exposition");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, doc) = rest.split_once(' ').expect("HELP has text");
            assert!(valid_name(name), "family name {name:?}");
            assert!(!doc.is_empty(), "HELP text non-empty for {name}");
            *help.entry(name.to_string()).or_default() += 1;
            last_meta = Some((name.to_string(), "help"));
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, k) = rest.split_once(' ').expect("TYPE has a kind");
            assert!(
                matches!(k, "counter" | "gauge" | "histogram"),
                "known kind {k:?} for {name}"
            );
            // TYPE directly follows its own HELP: the pair is atomic.
            assert_eq!(
                last_meta,
                Some((name.to_string(), "help")),
                "TYPE for {name} must immediately follow its HELP"
            );
            let prev = kind.insert(name.to_string(), k.to_string());
            assert!(prev.is_none(), "exactly one TYPE for {name}");
            last_meta = Some((name.to_string(), "type"));
        } else {
            assert!(!line.starts_with('#'), "only HELP/TYPE comments: {line}");
            samples.push(parse_sample(line));
            last_meta = None;
        }
    }
    for (name, n) in &help {
        assert_eq!(*n, 1, "exactly one HELP for {name}");
        assert!(kind.contains_key(name), "{name} has a TYPE");
    }

    // Every sample resolves to a declared family with the right
    // suffix discipline, and exemplars only ride on histogram buckets.
    let mut seen: HashMap<String, u64> = HashMap::new();
    for s in &samples {
        assert!(valid_name(&s.name), "sample name {:?}", s.name);
        let family = if let Some(base) = s
            .name
            .strip_suffix("_bucket")
            .or_else(|| s.name.strip_suffix("_sum"))
            .or_else(|| s.name.strip_suffix("_count"))
            .filter(|base| kind.get(*base).is_some_and(|k| k == "histogram"))
        {
            base
        } else {
            s.name.as_str()
        };
        let k = kind
            .get(family)
            .unwrap_or_else(|| panic!("sample {} has a declared family", s.name));
        if family == s.name.as_str() {
            assert_ne!(
                k, "histogram",
                "histogram families only emit suffixed samples: {}",
                s.name
            );
        }
        if s.exemplar {
            assert!(
                s.name.ends_with("_bucket"),
                "exemplar outside a bucket line: {}",
                s.name
            );
        }
        if s.name.ends_with("_bucket") && k == "histogram" {
            let series_key: String = format!(
                "{family}|{}",
                s.labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(",")
            );
            let le = s
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.clone())
                .expect("bucket has le");
            // Cumulative: counts never decrease along a series.
            let prev = seen.entry(series_key.clone()).or_insert(0);
            assert!(
                s.value as u64 >= *prev,
                "cumulative buckets for {series_key}"
            );
            *prev = s.value as u64;
            if le == "+Inf" {
                seen.insert(format!("{series_key}|inf"), s.value as u64);
            }
        }
    }
    // Every histogram series closed with +Inf and its _count agrees.
    for s in &samples {
        if let Some(base) = s.name.strip_suffix("_count") {
            if kind.get(base).is_some_and(|k| k == "histogram") {
                let series_key = format!(
                    "{base}|{}",
                    s.labels
                        .iter()
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect::<Vec<_>>()
                        .join(",")
                );
                let inf = seen
                    .get(&format!("{series_key}|inf"))
                    .unwrap_or_else(|| panic!("+Inf bucket present for {series_key}"));
                assert_eq!(*inf, s.value as u64, "+Inf equals _count for {series_key}");
            }
        }
    }

    // The families this PR added are present and correctly typed.
    assert_eq!(kind.get("kt_build_info").map(String::as_str), Some("gauge"));
    assert_eq!(
        kind.get("kt_latency_component_seconds").map(String::as_str),
        Some("histogram")
    );
    assert!(
        samples.iter().any(|s| s.exemplar),
        "component histograms carry at least one exemplar"
    );
    let build = samples
        .iter()
        .find(|s| s.name == "kt_build_info")
        .expect("build info sample");
    assert_eq!(build.value, 1.0);
    for label in ["version", "git_hash", "simd"] {
        assert!(
            build
                .labels
                .iter()
                .any(|(k, v)| k == label && !v.is_empty()),
            "kt_build_info carries {label}: {:?}",
            build.labels
        );
    }

    // Paged-KV families: the four page gauges and the preemption
    // counter. The counter is always exported (zero-valued when the
    // pool never came under pressure) so dashboards can rate() it
    // without the series appearing mid-flight.
    for g in [
        "kt_kv_pages_total",
        "kt_kv_pages_free",
        "kt_kv_pages_shared",
        "kt_kv_pages_swapped",
    ] {
        assert_eq!(kind.get(g).map(String::as_str), Some("gauge"), "{g}");
        assert!(samples.iter().any(|s| s.name == g), "{g} sample present");
    }
    // Parked caches hold no KV state (reset returns every page), so no
    // gauge reports their bytes.
    assert!(!kind.contains_key("kt_kv_pooled_bytes"));
    // Each value is exposed once: shed requests as
    // `kt_requests_shed_total`, admitted sequences as
    // `kt_kv_leases_in_use`.
    assert!(!kind.contains_key("kt_slo_shed_total"));
    assert!(!kind.contains_key("kt_active_sequences"));
    assert_eq!(
        kind.get("kt_preempt_total").map(String::as_str),
        Some("counter")
    );
    // One mechanism, so one unlabelled series.
    let preempt: Vec<_> = samples
        .iter()
        .filter(|s| s.name == "kt_preempt_total")
        .collect();
    assert_eq!(preempt.len(), 1, "one kt_preempt_total series");
    assert!(preempt[0].labels.is_empty(), "{:?}", preempt[0].labels);
}
