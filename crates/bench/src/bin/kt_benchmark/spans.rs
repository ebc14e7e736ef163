//! The benchmark's own span list: name, start, end, parent, request.
//!
//! Spans are recorded from this directory only, around each call the
//! benchmark makes into a layer; nothing is added to the crates under
//! test. They live in memory and are written once, when the traced
//! run ends.

use std::io::Write;
use std::time::Instant;

use crate::json;
use crate::stats;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Server-assigned request id; 0 outside a request.
    pub request: u64,
}

pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn push(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; [`SpanLog::close`] ends it.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.push(name, now, now, parent, 0)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Runs `f` as a child span of `parent`; returns its result and
    /// duration in ns.
    pub fn time<R>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> R) -> (R, u64) {
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        self.push(name, start, end, Some(parent), 0);
        (r, end - start)
    }

    /// Self time of every span: duration minus the part its children
    /// cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, c)| stats::self_time_ns(s.start_ns, s.end_ns, c))
            .collect()
    }

    /// Total self time per span name, largest first.
    pub fn self_time_by_name(&self) -> Vec<(String, u64, usize)> {
        let mut by_name: Vec<(String, u64, usize)> = Vec::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += t;
                    row.2 += 1;
                }
                None => by_name.push((s.name.clone(), t, 1)),
            }
        }
        by_name.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        by_name
    }

    /// Writes the spans and the per-layer table as one JSON document.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or writing the file.
    pub fn write_json(
        &self,
        path: &std::path::Path,
        workload: &str,
        seed: u64,
        per_layer: &[(&str, &str, f64)],
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\": {}, \"seed\": {seed},",
            json::quote(workload)
        )?;
        writeln!(w, " \"per_layer\": {{")?;
        for (i, (name, unit, value)) in per_layer.iter().enumerate() {
            let sep = if i + 1 < per_layer.len() { "," } else { "" };
            writeln!(
                w,
                "  {}: {{\"value\": {value}, \"unit\": {}}}{sep}",
                json::quote(name),
                json::quote(unit)
            )?;
        }
        writeln!(w, " }},")?;
        writeln!(w, " \"spans\": [")?;
        let self_times = self.self_times_ns();
        for (i, (s, self_ns)) in self.spans.iter().zip(&self_times).enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "  {{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"parent\": {parent}, \"request\": {}}}{sep}",
                json::quote(&s.name),
                s.start_ns,
                s.end_ns,
                s.request
            )?;
        }
        writeln!(w, " ]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_coverage_and_json_parses() {
        let mut log = SpanLog::new();
        let root = log.push("request", 0, 100, None, 7);
        log.push("queue_wait", 0, 10, Some(root), 7);
        let decode = log.push("decode", 40, 100, Some(root), 7);
        log.push("step", 50, 70, Some(decode), 7);
        log.push("step", 60, 90, Some(decode), 7);
        assert_eq!(log.self_times_ns(), vec![30, 10, 20, 20, 30]);
        let by_name = log.self_time_by_name();
        assert_eq!(by_name[0], ("step".to_string(), 50, 2));

        let path =
            std::env::temp_dir().join(format!("kt_benchmark_spans_{}.json", std::process::id()));
        log.write_json(&path, "w", 3, &[("a.b_us", "us", 1.5)])
            .unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 5);
        assert_eq!(
            spans[3].get("parent").and_then(json::Value::as_f64),
            Some(2.0)
        );
        assert_eq!(
            spans[0].get("self_ns").and_then(json::Value::as_f64),
            Some(30.0)
        );
        let m = doc.get("per_layer").unwrap().get("a.b_us").unwrap();
        assert_eq!(m.get("value").and_then(json::Value::as_f64), Some(1.5));
    }
}
