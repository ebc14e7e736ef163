//! Shared helpers for the table/figure regeneration binaries.
//!
//! Every binary prints (a) the simulated/measured values and (b) the
//! paper's reference numbers where the paper states them, so
//! `EXPERIMENTS.md` can be assembled directly from the output.

use kt_hwsim::experiments::NamedSeries;
use kt_hwsim::{Segment, SegmentKind, SimResult};

/// Prints a titled section header.
pub fn section(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Prints a simple fixed-width table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Prints x-indexed series side by side (one row per x value).
pub fn series_table(x_label: &str, series: &[NamedSeries], fmt: fn(f64) -> String) {
    let mut headers: Vec<&str> = vec![x_label];
    for s in series {
        headers.push(&s.name);
    }
    let n = series.first().map_or(0, |s| s.points.len());
    let mut rows = Vec::new();
    for i in 0..n {
        let mut row = vec![format!("{}", series[0].points[i].x)];
        for s in series {
            row.push(fmt(s.points[i].y));
        }
        rows.push(row);
    }
    table(&headers, &rows);
}

/// Renders an ASCII execution timeline (Figure 10-style) of a time
/// window: one row per resource, `#` for work, `.` for overhead, spaces
/// for idle.
pub fn render_timeline(
    result: &SimResult,
    resource_names: &[&str],
    t0: f64,
    t1: f64,
    width: usize,
) -> String {
    let mut out = String::new();
    let span = (t1 - t0).max(1e-12);
    let name_w = resource_names.iter().map(|n| n.len()).max().unwrap_or(4);
    for (r, name) in resource_names.iter().enumerate() {
        let mut row = vec![' '; width];
        for seg in result.timelines.get(r).map(Vec::as_slice).unwrap_or(&[]) {
            let Segment { start, end, kind, .. } = seg;
            if *end <= t0 || *start >= t1 {
                continue;
            }
            let a = (((start.max(t0) - t0) / span) * width as f64) as usize;
            let b = ((((end.min(t1)) - t0) / span) * width as f64).ceil() as usize;
            let ch = match kind {
                SegmentKind::Work => '#',
                SegmentKind::Overhead => '.',
            };
            for cell in row.iter_mut().take(b.min(width)).skip(a) {
                *cell = ch;
            }
        }
        out.push_str(&format!("{name:<name_w$} |"));
        out.extend(row);
        out.push_str("|
");
    }
    out.push_str(&format!(
        "{:<name_w$}  {}..{} ms ('#' work, '.' overhead)
",
        "",
        (t0 * 1e3).round(),
        (t1 * 1e3).round()
    ));
    out
}

/// Formats a throughput value.
pub fn tput(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    format!("{v:+.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_hwsim::experiments::SeriesPoint;

    #[test]
    fn formatting_helpers() {
        assert_eq!(tput(123.4), "123");
        assert_eq!(tput(4.678), "4.68");
        assert_eq!(pct(-0.5), "-0.5%");
        assert_eq!(pct(12.0), "+12.0%");
    }

    #[test]
    fn timeline_renders_work_and_overhead() {
        use kt_hwsim::{Sim, TaskSpec};
        let mut sim = Sim::new(2);
        let a = sim.push(TaskSpec::overhead(0, 0.5, vec![], "launch")).unwrap();
        sim.push(TaskSpec::work(0, 0.5, vec![a], "kernel")).unwrap();
        sim.push(TaskSpec::work(1, 1.0, vec![], "cpu")).unwrap();
        let r = sim.run();
        let s = render_timeline(&r, &["GPU", "CPU"], 0.0, 1.0, 20);
        assert!(s.contains("GPU"));
        assert!(s.contains('#'));
        assert!(s.contains('.'));
        // CPU row is fully busy: 20 '#' cells.
        let cpu_line = s.lines().nth(1).unwrap();
        assert_eq!(cpu_line.matches('#').count(), 20);
    }

    #[test]
    fn tables_print_without_panicking() {
        section("demo");
        table(
            &["a", "b"],
            &[vec!["1".into(), "very-long-cell".into()]],
        );
        series_table(
            "x",
            &[NamedSeries {
                name: "s".into(),
                points: vec![SeriesPoint { x: 1.0, y: 2.0 }],
            }],
            tput,
        );
    }
}
