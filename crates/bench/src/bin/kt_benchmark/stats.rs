//! Order statistics and span self-time.

/// Samples that must lie beyond a reported tail percentile: with
/// fewer, the value is one or two outliers, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
/// `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Why a tail percentile was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    pub have: usize,
    pub beyond: usize,
}

/// Like [`percentile`], but refuses a percentile that has fewer than
/// [`MIN_BEYOND`] samples above its rank.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    let n = sorted.len();
    let rank = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(TooFewSamples { have: n, beyond });
    }
    Ok(sorted[rank - 1])
}

/// The highest percentile at or below `p` that the sample supports,
/// with the percentile actually used. Short runs (`--smoke`, the
/// traced third) fall back here instead of printing an outlier under a
/// tail's name. `None` when even the median is unsupported.
pub fn supported_tail(sorted: &[f64], p: f64) -> Option<(f64, f64)> {
    if let Ok(v) = tail_percentile(sorted, p) {
        return Some((v, p));
    }
    let n = sorted.len();
    if n < 2 * MIN_BEYOND {
        return None;
    }
    let rank = n - MIN_BEYOND;
    Some((sorted[rank - 1], 100.0 * rank as f64 / n as f64))
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median by linear interpolation between the middle pair.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// `(q1, median, q3)` by the exclusive method — the definition
/// Python's `statistics.quantiles(values, n=4)` uses, so the spreads
/// `--repeat` prints are the spreads the acceptance rule computes.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64, f64)> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k * (n + 1) / 4, 1-based; the pair is clamped into
        // the data and the fraction is not, exactly as Python does.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
    };
    Some((at(1), at(2), at(3)))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(sorted: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(sorted)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// `(max - min) / median`.
pub fn relative_range(sorted: &[f64]) -> Option<f64> {
    let med = median(sorted)?;
    (med != 0.0).then(|| (sorted[sorted.len() - 1] - sorted[0]) / med.abs())
}

/// Self time of a span: its duration minus the part of its interval
/// its children cover. Children may overlap each other and may stick
/// out of the parent; covered time is the union of the children
/// clipped to the parent.
pub fn self_time_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_refuses_without_ten_samples_beyond() {
        // p99 of 1000 has exactly 10 beyond; of 999 only 9.
        assert_eq!(tail_percentile(&ramp(1000), 99.0), Ok(990.0));
        assert_eq!(
            tail_percentile(&ramp(999), 99.0),
            Err(TooFewSamples {
                have: 999,
                beyond: 9
            })
        );
        assert!(tail_percentile(&ramp(20), 50.0).is_ok());
        assert!(tail_percentile(&ramp(19), 50.0).is_err());
        assert!(tail_percentile(&[], 50.0).is_err());
    }

    #[test]
    fn supported_tail_falls_back_to_the_highest_supported_percentile() {
        assert_eq!(supported_tail(&ramp(1000), 99.0), Some((990.0, 99.0)));
        let (v, p) = supported_tail(&ramp(200), 99.0).unwrap();
        assert_eq!(v, 190.0);
        assert!((p - 95.0).abs() < 1e-9);
        assert_eq!(supported_tail(&ramp(20), 99.0), Some((10.0, 50.0)));
        assert_eq!(supported_tail(&ramp(19), 99.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let (q1, med, q3) = quartiles(&ramp(10)).unwrap();
        assert!(
            (q1 - 2.75).abs() < 1e-12 && (med - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12
        );
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, med, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]).unwrap();
        assert_eq!((q1, med, q3), (1.5, 4.0, 12.0));
        assert_eq!(median(&[1.0, 3.0]), Some(2.0));
        assert_eq!(median(&[1.0, 3.0, 9.0]), Some(3.0));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&ramp(10)).unwrap() - 1.0).abs() < 1e-12);
        assert!((relative_range(&ramp(10)).unwrap() - 9.0 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn self_time_with_overlapping_children() {
        // Disjoint children.
        assert_eq!(self_time_ns(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children are counted once.
        assert_eq!(self_time_ns(0, 100, &[(10, 40), (30, 50)]), 60);
        // Nested child adds nothing.
        assert_eq!(self_time_ns(0, 100, &[(10, 60), (20, 30)]), 50);
        // Children sticking out of the parent are clipped.
        assert_eq!(self_time_ns(50, 100, &[(0, 60), (90, 200)]), 30);
        // Fully covered, and no children.
        assert_eq!(self_time_ns(0, 100, &[(0, 100), (0, 100)]), 0);
        assert_eq!(self_time_ns(0, 100, &[]), 100);
    }
}
