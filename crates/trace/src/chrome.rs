//! Chrome-trace-format (Perfetto JSON) export.
//!
//! Produces the JSON Array Format both `chrome://tracing` and
//! <https://ui.perfetto.dev> load directly: one `"ph":"M"` metadata
//! event naming each track, then one `"ph":"X"` complete (duration)
//! event per span. Everything shares `pid` 0; the span's track becomes
//! the `tid`, so worker threads and vGPU streams render as separate
//! rows and CPU/GPU overlap is visible at a glance. Timestamps are
//! microseconds (fractional, nanosecond precision preserved) since the
//! sink epoch. One event per line, which also keeps the output trivial
//! to parse in tests.

use crate::sink::TraceSnapshot;

/// Escapes a string for a JSON string literal.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Microseconds with nanosecond precision, as a JSON number.
pub(crate) fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Renders a snapshot as Chrome-trace JSON.
pub fn chrome_trace(snap: &TraceSnapshot) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    let mut push = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };
    for (track, name) in &snap.tracks {
        push(
            format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{track},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(name)
            ),
            &mut out,
        );
    }
    for s in &snap.spans {
        push(
            format!(
                "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"kt\",\"pid\":0,\"tid\":{},\
                 \"ts\":{},\"dur\":{},\"args\":{{\"a\":{},\"b\":{}}}}}",
                s.kind.as_str(),
                s.track,
                us(s.start_ns),
                us(s.dur_ns),
                s.a,
                s.b
            ),
            &mut out,
        );
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{Span, SpanKind};

    #[test]
    fn renders_metadata_and_events() {
        let snap = TraceSnapshot {
            spans: vec![Span {
                kind: SpanKind::Attention,
                track: 3,
                start_ns: 1_234_567,
                dur_ns: 890,
                a: 2,
                b: 0,
            }],
            tracks: vec![(3, "kt-vgpu".to_string())],
        };
        let json = chrome_trace(&snap);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("\n]\n"));
        assert!(json.contains(
            "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":3,\
             \"args\":{\"name\":\"kt-vgpu\"}}"
        ));
        assert!(json.contains("\"name\":\"engine.attention\""));
        assert!(json.contains("\"ts\":1234.567"));
        assert!(json.contains("\"dur\":0.890"));
        assert!(json.contains("\"args\":{\"a\":2,\"b\":0}"));
    }

    #[test]
    fn empty_snapshot_is_valid_json_array() {
        let json = chrome_trace(&TraceSnapshot::default());
        assert_eq!(json, "[\n\n]\n");
    }

    #[test]
    fn escapes_track_names() {
        let snap = TraceSnapshot {
            spans: vec![],
            tracks: vec![(1, "we\"ird\\name".to_string())],
        };
        let json = chrome_trace(&snap);
        assert!(json.contains("we\\\"ird\\\\name"));
    }
}
