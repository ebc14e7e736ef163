//! Prometheus text-exposition helpers.
//!
//! `Server::stats_text` used to hand-format every line; the formatting
//! and label-escaping rules now live here so each family is emitted
//! exactly once with one `# HELP`/`# TYPE` pair, label values are
//! escaped per the exposition format (`\\`, `\"`, `\n`), and the
//! histogram renderers agree on the cumulative-bucket form. The
//! conformance test (`tests/prom_conformance.rs`) parses the whole
//! exposition back and checks these invariants hold for every family.
//!
//! The component-latency renderer additionally attaches
//! OpenMetrics-style exemplars — `# {request_id="42"} 1.25e-3` after a
//! bucket line — pointing at the worst request each bucket has seen,
//! so a dashboard's slowest bucket links straight to a flight-recorder
//! lookup.

use kt_trace::hist::N_BUCKETS;
use kt_trace::LogHistogram;

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double-quote, and newline get backslash-escaped.
pub(crate) fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Writes the one `# HELP`/`# TYPE` pair a family gets.
pub(crate) fn push_family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Formats a `{label="value",...}` block (empty string for no labels),
/// escaping every value.
pub(crate) fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", parts.join(","))
}

/// Writes one sample line.
pub(crate) fn push_sample(
    out: &mut String,
    name: &str,
    labels: &[(&str, &str)],
    value: impl std::fmt::Display,
) {
    out.push_str(&format!("{name}{} {value}\n", label_block(labels)));
}

/// One-sample counter family.
pub(crate) fn push_counter(out: &mut String, name: &str, help: &str, v: u64) {
    push_family(out, name, "counter", help);
    push_sample(out, name, &[], v);
}

/// One-sample gauge family.
pub(crate) fn push_gauge(out: &mut String, name: &str, help: &str, v: f64) {
    push_family(out, name, "gauge", help);
    push_sample(out, name, &[], v);
}

/// Renders one histogram in Prometheus text format: cumulative
/// `_bucket{le="..."}` lines (one per log₂ bucket up to the highest
/// occupied one, then `+Inf`), `_sum`, and `_count`. Values stay in
/// the histogram's native unit (nanoseconds for the latency hists).
pub(crate) fn push_histogram(out: &mut String, name: &str, help: &str, h: &LogHistogram) {
    push_family(out, name, "histogram", help);
    push_histogram_samples(out, name, &[], h);
}

/// The sample lines of one (possibly labeled) histogram, without the
/// family header — callers emitting one family across several label
/// sets write the header once and call this per label set.
pub(crate) fn push_histogram_samples(
    out: &mut String,
    name: &str,
    labels: &[(&str, &str)],
    h: &LogHistogram,
) {
    let top_occupied = (0..N_BUCKETS).rev().find(|&i| h.bucket_count(i) > 0);
    let mut cum = 0u64;
    if let Some(top) = top_occupied {
        // Bucket 64's upper bound is u64::MAX; it folds into +Inf.
        for i in 0..=top.min(63) {
            cum += h.bucket_count(i);
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            let le = LogHistogram::bucket_upper_bound(i).to_string();
            with_le.push(("le", &le));
            push_sample(out, &format!("{name}_bucket"), &with_le, cum);
        }
    }
    let mut with_inf: Vec<(&str, &str)> = labels.to_vec();
    with_inf.push(("le", "+Inf"));
    push_sample(out, &format!("{name}_bucket"), &with_inf, h.count());
    push_sample(out, &format!("{name}_sum"), labels, h.sum());
    push_sample(out, &format!("{name}_count"), labels, h.count());
}

/// Like [`push_histogram_samples`] but scaled nanoseconds → seconds
/// (Prometheus base units), with an OpenMetrics-style exemplar
/// appended to every bucket line whose bucket has one: the worst
/// request id that landed there.
pub(crate) fn push_histogram_samples_seconds(
    out: &mut String,
    name: &str,
    labels: &[(&str, &str)],
    h: &LogHistogram,
) {
    let secs = |ns: u64| ns as f64 / 1e9;
    let top_occupied = (0..N_BUCKETS).rev().find(|&i| h.bucket_count(i) > 0);
    let mut cum = 0u64;
    if let Some(top) = top_occupied {
        for i in 0..=top.min(63) {
            cum += h.bucket_count(i);
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            let le = format!("{}", secs(LogHistogram::bucket_upper_bound(i)));
            with_le.push(("le", &le));
            let exemplar = h
                .exemplar(i)
                .map(|e| format!(" # {{request_id=\"{}\"}} {}", e.id, secs(e.value)))
                .unwrap_or_default();
            out.push_str(&format!(
                "{name}_bucket{} {cum}{exemplar}\n",
                label_block(&with_le)
            ));
        }
    }
    let mut with_inf: Vec<(&str, &str)> = labels.to_vec();
    with_inf.push(("le", "+Inf"));
    push_sample(out, &format!("{name}_bucket"), &with_inf, h.count());
    push_sample(out, &format!("{name}_sum"), labels, secs(h.sum()));
    push_sample(out, &format!("{name}_count"), labels, h.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_label_values() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        assert_eq!(escape_label_value("\\\"\n"), "\\\\\\\"\\n");
    }

    #[test]
    fn label_block_forms() {
        assert_eq!(label_block(&[]), "");
        assert_eq!(
            label_block(&[("class", "interactive")]),
            "{class=\"interactive\"}"
        );
        assert_eq!(
            label_block(&[("a", "x\"y"), ("b", "2")]),
            "{a=\"x\\\"y\",b=\"2\"}"
        );
    }

    #[test]
    fn counter_and_gauge_form_one_family() {
        let mut out = String::new();
        push_counter(&mut out, "kt_things_total", "Things.", 3);
        push_gauge(&mut out, "kt_level", "Level.", 1.5);
        assert_eq!(
            out,
            "# HELP kt_things_total Things.\n# TYPE kt_things_total counter\nkt_things_total 3\n\
             # HELP kt_level Level.\n# TYPE kt_level gauge\nkt_level 1.5\n"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_close_with_inf() {
        let mut h = LogHistogram::new();
        h.record_all([1, 2, 3, 100]);
        let mut out = String::new();
        push_histogram(&mut out, "kt_x_ns", "X.", &h);
        assert!(out.contains("kt_x_ns_bucket{le=\"1\"} 1\n"));
        assert!(out.contains("kt_x_ns_bucket{le=\"3\"} 3\n"));
        assert!(out.contains("kt_x_ns_bucket{le=\"127\"} 4\n"));
        assert!(out.contains("kt_x_ns_bucket{le=\"+Inf\"} 4\n"));
        assert!(out.contains("kt_x_ns_sum 106\n"));
        assert!(out.contains("kt_x_ns_count 4\n"));
    }

    #[test]
    fn seconds_histogram_attaches_exemplars() {
        let mut h = LogHistogram::new();
        h.record_with_exemplar(1_500_000, 7); // 1.5ms, request 7
        h.record_with_exemplar(1_900_000, 9); // same bucket, worse
        let mut out = String::new();
        push_histogram_samples_seconds(&mut out, "kt_lat_seconds", &[("component", "merge")], &h);
        // The bucket line carries the worst exemplar in that bucket.
        assert!(
            out.contains("# {request_id=\"9\"} 0.0019"),
            "missing exemplar in:\n{out}"
        );
        assert!(out.contains("kt_lat_seconds_bucket{component=\"merge\",le=\"+Inf\"} 2\n"));
        assert!(out.contains("kt_lat_seconds_count{component=\"merge\"} 2\n"));
        // Sum is in seconds.
        assert!(out.contains("kt_lat_seconds_sum{component=\"merge\"} 0.0034"));
    }
}
