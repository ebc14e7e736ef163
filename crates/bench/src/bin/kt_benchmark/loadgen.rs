//! Seeded load generator: prompts, lengths, classes and arrival
//! offsets as a pure function of `--seed`.
//!
//! Deliberately self-contained (no `kt_bench::workload`, no `rand`):
//! a later PR that changes the library's generators must not be able
//! to move the load this benchmark offers.

use crate::deploy::{self, Kind, Spec};

/// SplitMix64: tiny, seedable, and stable across toolchains.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `(seed, label, index)`, so request `i`
    /// is the same however many requests ran before it.
    pub fn stream(seed: u64, label: &str, index: u64) -> Rng {
        let mut r = Rng(seed ^ fnv1a(label.as_bytes()));
        r.next_u64();
        r.0 ^= index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a over bytes; also the token digest printed per workload.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over a token stream, folded into a running digest.
pub fn digest_tokens(mut h: u64, tokens: &[u32]) -> u64 {
    for t in tokens {
        for b in t.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Service class of a generated request (mapped onto
/// `kt_serve::SloClass` by the driver).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Interactive,
    Standard,
    Batch,
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct GenRequest {
    pub index: u64,
    pub prompt: Vec<u32>,
    pub max_new: usize,
    pub class: Class,
}

/// `n` uniform tokens.
pub fn tokens(rng: &mut Rng, n: usize) -> Vec<u32> {
    // Token 0 is left out so a prompt never looks like padding.
    (0..n)
        .map(|_| 1 + rng.below(u64::from(deploy::VOCAB) - 1) as u32)
        .collect()
}

/// Item drawn at `index` from an endless sequence of decks: each deck
/// holds item `i` exactly `counts[i]` times, in an order shuffled by
/// `(seed, label, deck number)`. Exact proportions per deck keep the
/// offered load the same under every seed; only the order varies.
pub fn deck_pick(seed: u64, label: &str, index: u64, counts: &[u8]) -> usize {
    let mut deck: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(item, &n)| std::iter::repeat_n(item, usize::from(n)))
        .collect();
    let len = deck.len() as u64;
    let mut rng = Rng::stream(seed, label, index / len);
    for i in (1..deck.len()).rev() {
        deck.swap(i, rng.below(i as u64 + 1) as usize);
    }
    deck[(index % len) as usize]
}

/// The `p`-th shared prefix of a seed (`prefix_pressure`).
pub fn shared_prefix(seed: u64, p: usize) -> Vec<u32> {
    tokens(
        &mut Rng::stream(seed, "prefix", p as u64),
        deploy::PREFIX_LEN,
    )
}

/// Request `index` of workload `spec` under `seed`.
pub fn request(spec: &Spec, seed: u64, index: u64) -> GenRequest {
    let mut rng = Rng::stream(seed, spec.name, index);
    let (prompt, max_new, class) = match spec.name {
        "serve_mixed_open" => {
            let counts = deploy::CLASS_MIX.map(|m| m.per_deck);
            let pick = deploy::CLASS_MIX[deck_pick(seed, "mix", index, &counts)];
            (tokens(&mut rng, pick.prompt), pick.max_new, pick.class)
        }
        "prefix_pressure" => {
            let p = deck_pick(seed, "prefix-deck", index, &deploy::PREFIX_DECK);
            let mut prompt = shared_prefix(seed, p);
            prompt.extend(tokens(&mut rng, deploy::PREFIX_TAIL));
            // Output lengths spread around `spec.max_new`: with one
            // length for all, the 8 clients fall into lockstep (all
            // prefill together, all finish together) in some runs and
            // not in others, and TTFT differs by half between them.
            let spread = deploy::PRESSURE_NEW_SPREAD;
            let max_new = spec.max_new - spread + rng.below(2 * spread as u64 + 1) as usize;
            (prompt, max_new, Class::Standard)
        }
        _ => (tokens(&mut rng, spec.prompt), spec.max_new, Class::Standard),
    };
    GenRequest {
        index,
        prompt,
        max_new,
        class,
    }
}

/// Arrival offsets (ns from the window start) at `rate` req/s over
/// `horizon_s` seconds: a Poisson process conditioned on its count,
/// stratum by stratum. Each stratum of `block / rate` seconds holds
/// exactly `block` arrivals at independent uniform instants — which is
/// how a Poisson process places a known number of arrivals — so
/// bursts and lulls within a stratum are Poisson's, while the number
/// of requests a run sends does not depend on the seed.
pub fn arrival_offsets_ns(seed: u64, rate: f64, horizon_s: f64, block: usize) -> Vec<u64> {
    let total = (rate * horizon_s).round() as usize;
    let stratum_s = block as f64 / rate;
    let mut out = Vec::with_capacity(total);
    let mut stratum = 0u64;
    while out.len() < total {
        let mut rng = Rng::stream(seed, "arrivals", stratum);
        let start = stratum as f64 * stratum_s;
        let n = block.min(total - out.len());
        // A last, partial stratum is proportionally shorter.
        let len = stratum_s * n as f64 / block as f64;
        let mut times: Vec<u64> = (0..n)
            .map(|_| ((start + rng.unit() * len) * 1e9) as u64)
            .collect();
        times.sort_unstable();
        out.extend(times);
        stratum += 1;
    }
    out
}

/// The arrival schedule of an open-loop workload, `None` for closed
/// loops (their next request is due when a client frees up).
pub fn schedule(spec: &Spec, seed: u64, seconds: f64) -> Option<Vec<u64>> {
    match spec.kind {
        Kind::Open { rate } => Some(arrival_offsets_ns(
            seed,
            rate,
            seconds,
            deploy::ARRIVAL_BLOCK,
        )),
        Kind::Closed { .. } => None,
    }
}

/// Open-loop latency bookkeeping: a request is timed from when it was
/// *due*, so a generator (or server) stall is charged to every request
/// it delayed, and how late the generator itself ran is kept apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// Scheduled send time, ns from window start.
    pub due_ns: u64,
    /// Actual send time, ns from window start.
    pub sent_ns: u64,
}

impl Dispatch {
    /// How late the generator sent this request.
    pub fn lateness_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }

    /// Client-visible TTFT: server-side `queue_wait + ttft` measured
    /// from the send, plus the generator's lateness.
    pub fn ttft_from_due_ns(&self, queue_wait_ns: u64, ttft_ns: u64) -> u64 {
        self.lateness_ns() + queue_wait_ns + ttft_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_prompts() {
        for spec in deploy::SPECS {
            for i in [0u64, 1, 17, 400] {
                assert_eq!(request(spec, 7, i), request(spec, 7, i), "{}", spec.name);
            }
            assert_eq!(schedule(spec, 7, 5.0), schedule(spec, 7, 5.0));
        }
    }

    #[test]
    fn different_seed_different_load() {
        for spec in deploy::SPECS {
            assert_ne!(request(spec, 7, 3).prompt, request(spec, 8, 3).prompt);
            assert_ne!(request(spec, 7, 3).prompt, request(spec, 7, 4).prompt);
        }
        let open = deploy::spec("serve_mixed_open").unwrap();
        assert_ne!(schedule(open, 7, 5.0), schedule(open, 8, 5.0));
    }

    #[test]
    fn request_is_independent_of_how_many_came_before() {
        let spec = deploy::spec("decode_stream").unwrap();
        let direct = request(spec, 11, 50);
        for i in 0..50 {
            let _ = request(spec, 11, i);
        }
        assert_eq!(direct, request(spec, 11, 50));
    }

    #[test]
    fn arrivals_are_ordered_counted_and_stratified() {
        let offs = arrival_offsets_ns(3, 5.0, 21.0, 10);
        assert_eq!(offs.len(), 105, "count is rate x horizon under every seed");
        assert_eq!(arrival_offsets_ns(4, 5.0, 21.0, 10).len(), 105);
        assert!(offs.windows(2).all(|w| w[0] <= w[1]));
        assert!(*offs.last().unwrap() < 21_000_000_000);
        // Stratum k (2 s long) holds arrivals 10k..10k+10.
        for (k, block) in offs.chunks(10).enumerate() {
            let lo = k as u64 * 2_000_000_000;
            assert!(
                block.iter().all(|&t| t >= lo && t < lo + 2_000_000_000),
                "stratum {k}"
            );
        }
        // Not a metronome: gaps inside a stratum vary.
        let gaps: Vec<u64> = offs[..10].windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.iter().max() > gaps.iter().min());
    }

    #[test]
    fn every_deck_holds_the_exact_class_mix() {
        let spec = deploy::spec("serve_mixed_open").unwrap();
        let mut orders = Vec::new();
        for deck in 0..20u64 {
            let mut counts = [0u8; 3];
            let mut order = Vec::new();
            for i in deck * 10..deck * 10 + 10 {
                let r = request(spec, 5, i);
                let m = deploy::CLASS_MIX
                    .iter()
                    .position(|m| m.class == r.class)
                    .unwrap();
                assert_eq!(r.prompt.len(), deploy::CLASS_MIX[m].prompt);
                assert_eq!(r.max_new, deploy::CLASS_MIX[m].max_new);
                counts[m] += 1;
                order.push(m);
            }
            assert_eq!(counts, deploy::CLASS_MIX.map(|m| m.per_deck));
            orders.push(order);
        }
        orders.dedup();
        assert!(orders.len() > 10, "decks are shuffled, not repeated");
    }

    #[test]
    fn prefix_decks_are_zipf_shaped_and_prefixes_are_shared() {
        let mut counts = [0u8; deploy::N_PREFIXES];
        for i in 0..32 {
            counts[deck_pick(9, "prefix-deck", i, &deploy::PREFIX_DECK)] += 1;
        }
        assert_eq!(counts, deploy::PREFIX_DECK);
        assert!(deploy::PREFIX_DECK.windows(2).all(|w| w[0] >= w[1]));
        let spec = deploy::spec("prefix_pressure").unwrap();
        let a = request(spec, 2, 0);
        assert_eq!(a.prompt.len(), deploy::PREFIX_LEN + deploy::PREFIX_TAIL);
        let shares = (0..deploy::N_PREFIXES)
            .any(|p| a.prompt[..deploy::PREFIX_LEN] == shared_prefix(2, p)[..]);
        assert!(
            shares,
            "prompt starts with one of the seed's shared prefixes"
        );
        // Output lengths cover max_new +- spread and average max_new.
        let lens: Vec<usize> = (0..660).map(|i| request(spec, 2, i).max_new).collect();
        let (lo, hi) = (
            spec.max_new - deploy::PRESSURE_NEW_SPREAD,
            spec.max_new + deploy::PRESSURE_NEW_SPREAD,
        );
        assert_eq!(lens.iter().min(), Some(&lo));
        assert_eq!(lens.iter().max(), Some(&hi));
        let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        assert!((mean - spec.max_new as f64).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn open_loop_latency_is_measured_from_due_time() {
        let d = Dispatch {
            due_ns: 1_000,
            sent_ns: 1_400,
        };
        assert_eq!(d.lateness_ns(), 400);
        assert_eq!(d.ttft_from_due_ns(50, 2_000), 2_450);
        // A generator that is early (closed loop: due == sent) adds nothing.
        let on_time = Dispatch {
            due_ns: 5,
            sent_ns: 5,
        };
        assert_eq!(on_time.ttft_from_due_ns(50, 2_000), 2_050);
    }
}
