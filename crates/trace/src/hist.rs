//! Log₂-bucketed latency histogram with nearest-rank percentiles.
//!
//! [`LogHistogram`] replaces raw `Vec<u64>` sample plumbing: recording
//! is O(1) with a fixed 65-bucket footprint, histograms from different
//! sources merge exactly (merge is associative and commutative — the
//! buckets just add), and percentile queries answer within one log₂
//! bucket of the exact nearest-rank statistic over the original
//! samples. Bucket `k` (k ≥ 1) covers values in `[2^(k-1), 2^k - 1]`;
//! bucket 0 holds exact zeros, so sub-microsecond and multi-second
//! latencies coexist without configuration.

/// Number of buckets: one for zero plus one per bit of `u64`.
pub const N_BUCKETS: usize = 65;

/// An exemplar: the id of a concrete sample representing its bucket
/// (OpenMetrics-style). Each bucket keeps the exemplar with the
/// largest value it has seen, so the worst buckets always point at a
/// real request that can be looked up in the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Identity of the sample's source (a request id in kt-serve).
    pub id: u64,
    /// The sample value itself.
    pub value: u64,
}

/// A mergeable log₂-bucketed histogram of `u64` samples (typically
/// nanoseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: [u64; N_BUCKETS],
    exemplars: [Option<Exemplar>; N_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: [0; N_BUCKETS],
            exemplars: [None; N_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of `v`: 0 for zero, otherwise `64 - leading_zeros`
    /// (so bucket `k` covers `[2^(k-1), 2^k - 1]`).
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Largest value bucket `i` can hold.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        match i {
            0 => 0,
            1..=63 => (1u64 << i) - 1,
            _ => u64::MAX,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records every sample of an iterator.
    pub fn record_all(&mut self, vs: impl IntoIterator<Item = u64>) {
        for v in vs {
            self.record(v);
        }
    }

    /// Records one sample carrying a source id. The sample's bucket
    /// keeps whichever exemplar has the larger value, so after any
    /// stream of records each bucket's exemplar is its observed
    /// worst case.
    pub fn record_with_exemplar(&mut self, v: u64, id: u64) {
        self.record(v);
        let i = Self::bucket_index(v);
        let candidate = Exemplar { id, value: v };
        match self.exemplars[i] {
            Some(e) if e.value >= v => {}
            _ => self.exemplars[i] = Some(candidate),
        }
    }

    /// Exemplar representing bucket `i`, if any sample with an id
    /// landed there.
    pub fn exemplar(&self, i: usize) -> Option<Exemplar> {
        self.exemplars[i]
    }

    /// The exemplar from the highest non-empty bucket that has one —
    /// the request to look at first when the tail regresses.
    pub fn worst_exemplar(&self) -> Option<Exemplar> {
        self.exemplars.iter().rev().flatten().next().copied()
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (exact), `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (exact), `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all samples, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Count in bucket `i` (for exposition formats).
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Folds another histogram in. Exact: merging then querying equals
    /// querying a histogram fed both sample streams.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        for (e, o) in self.exemplars.iter_mut().zip(&other.exemplars) {
            // Keep the larger-valued exemplar per bucket (ties broken
            // by id), so merge stays commutative.
            *e = match (*e, *o) {
                (Some(a), Some(b)) => {
                    Some(if (a.value, a.id) >= (b.value, b.id) { a } else { b })
                }
                (a, b) => a.or(b),
            };
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Nearest-rank percentile (p in `[0, 100]`; 50 = median, 100 =
    /// max). Returns `None` when empty. The answer lands in the same
    /// log₂ bucket as the exact nearest-rank order statistic: the
    /// bucket's upper bound, clamped to the observed maximum.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_upper_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(LogHistogram::bucket_index(0), 0);
        assert_eq!(LogHistogram::bucket_index(1), 1);
        assert_eq!(LogHistogram::bucket_index(2), 2);
        assert_eq!(LogHistogram::bucket_index(3), 2);
        assert_eq!(LogHistogram::bucket_index(4), 3);
        assert_eq!(LogHistogram::bucket_index(u64::MAX), 64);
        for k in 1..=63 {
            let ub = LogHistogram::bucket_upper_bound(k);
            assert_eq!(LogHistogram::bucket_index(ub), k);
            assert_eq!(LogHistogram::bucket_index(ub + 1), k + 1);
        }
        assert_eq!(LogHistogram::bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn records_and_summarizes() {
        let mut h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.min(), None);
        h.record_all([10, 20, 30, 0]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 60);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(30));
        assert_eq!(h.mean(), Some(15.0));
    }

    #[test]
    fn percentile_tracks_exact_bucket() {
        let mut h = LogHistogram::new();
        let samples: Vec<u64> = (1..=200).map(|i| i * 7).collect();
        h.record_all(samples.iter().copied());
        for p in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            let exact = sorted[rank.clamp(1, sorted.len()) - 1];
            let approx = h.percentile(p).unwrap();
            assert_eq!(
                LogHistogram::bucket_index(approx),
                LogHistogram::bucket_index(exact),
                "p={p}: approx {approx} vs exact {exact}"
            );
        }
        assert_eq!(h.percentile(100.0), Some(1400), "p100 is the exact max");
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for v in [0u64, 3, 9, 1000, 77] {
            a.record(v);
            both.record(v);
        }
        for v in [5u64, 5, 123456789] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    /// Asserts nearest-rank `p` lands in the same log₂ bucket as the
    /// exact order statistic over `samples`, and that `max()` is exact.
    fn assert_tail_within_one_bucket(samples: &[u64], ps: &[f64]) {
        let mut h = LogHistogram::new();
        h.record_all(samples.iter().copied());
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        for &p in ps {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            let exact = sorted[rank.clamp(1, sorted.len()) - 1];
            let approx = h.percentile(p).unwrap();
            assert_eq!(
                LogHistogram::bucket_index(approx),
                LogHistogram::bucket_index(exact),
                "p={p}: approx {approx} vs exact {exact}"
            );
            assert!(approx >= exact, "bucket upper bound never underestimates");
        }
        assert_eq!(h.max(), sorted.last().copied(), "max is exact");
        assert_eq!(h.percentile(100.0), sorted.last().copied());
    }

    #[test]
    fn tail_accuracy_bimodal() {
        // 2000 fast samples around 50µs, 4 stragglers around 1.3s: the
        // p999 straddles the modes and p100/max sit deep in the gap.
        let mut samples: Vec<u64> = (0..2000u64).map(|i| 50_000 + (i * 37) % 4096).collect();
        samples.extend([1_300_000_000u64, 1_310_000_000, 1_350_000_000, 1_400_000_000]);
        assert_tail_within_one_bucket(&samples, &[50.0, 99.0, 99.9, 100.0]);
    }

    #[test]
    fn tail_accuracy_heavy_tail() {
        // Deterministic Pareto-like tail: value ~ 1000 * (n/i)^2 spans
        // six orders of magnitude with most mass at the bottom.
        let n = 5000u64;
        let samples: Vec<u64> = (1..=n).map(|i| 1000 * (n / i) * (n / i)).collect();
        assert_tail_within_one_bucket(&samples, &[50.0, 90.0, 99.0, 99.9, 100.0]);
    }

    #[test]
    fn tail_accuracy_six_decades() {
        // Deterministic xorshift latencies, bounded by 10^3 .. 10^8 in
        // turn: six decades, the low percentiles included.
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let samples: Vec<u64> = (0..500u64)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 10u64.pow((i % 6) as u32 + 3)
            })
            .collect();
        assert_tail_within_one_bucket(&samples, &[0.0, 10.0, 50.0, 90.0, 99.0, 100.0]);
    }

    #[test]
    fn exemplars_track_bucket_worst_case_and_survive_merge() {
        let mut a = LogHistogram::new();
        a.record_with_exemplar(100, 1);
        a.record_with_exemplar(120, 2); // same bucket [64,127], larger value wins
        a.record_with_exemplar(110, 3); // smaller than 120: ignored
        a.record_with_exemplar(5_000, 4);
        let b7 = LogHistogram::bucket_index(120);
        assert_eq!(a.exemplar(b7), Some(Exemplar { id: 2, value: 120 }));
        assert_eq!(a.worst_exemplar(), Some(Exemplar { id: 4, value: 5_000 }));

        let mut b = LogHistogram::new();
        b.record_with_exemplar(90, 9); // same bucket as 120, smaller value
        b.record_with_exemplar(1 << 40, 10);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "exemplar merge is commutative");
        assert_eq!(ab.exemplar(b7), Some(Exemplar { id: 2, value: 120 }), "larger value survives merge");
        assert_eq!(ab.worst_exemplar(), Some(Exemplar { id: 10, value: 1 << 40 }));
        // Plain record leaves exemplars untouched.
        let mut plain = LogHistogram::new();
        plain.record(42);
        assert_eq!(plain.exemplar(LogHistogram::bucket_index(42)), None);
        assert_eq!(plain.worst_exemplar(), None);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = LogHistogram::new();
        h.record_all([4, 8, 15]);
        let before = h.clone();
        h.merge(&LogHistogram::new());
        assert_eq!(h, before);
        let mut e = LogHistogram::new();
        e.merge(&before);
        assert_eq!(e, before);
    }
}
