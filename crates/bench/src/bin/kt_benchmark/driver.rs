//! Runs one workload against one in-process server: set-up, warm-up,
//! the timed window, the drain and the replayed output check.
//!
//! One sleeping generator thread (this one) drives the server: the
//! reference host has two cores and the server's own threads spin, so
//! the generator blocks on a condvar (1 client), sleeps between polls
//! (8 clients) or sleeps until the next arrival is due (open loop),
//! and never more than one server is alive.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kt_core::HybridEngine;
use kt_serve::{Request, RequestHandle, RequestOutcome, RequestResult, Server, SloClass};

use crate::deploy::{self, Kind, Spec};
use crate::loadgen::{self, Class, Dispatch, GenRequest};
use crate::stats;

/// Poll period of the multi-client closed loop.
const POLL: Duration = Duration::from_micros(250);
/// Share of timed requests replayed in the `verify` phase.
const VERIFY_SHARE: f64 = 0.10;
/// Batched workloads pass when this share of compared positions agree.
/// Their hybrid dispatch picks the kernel class by rows per expert, so
/// a replay alone is tolerance-equal, not bitwise: about one batched
/// run in twenty-five flips one near-tied argmax. A request is compared
/// up to and including its first disagreement — greedy decoding
/// conditions every later token on it, so what follows is another
/// continuation, not further evidence — which makes one flip cost one
/// position (0.997 of a 330-token sample) and lets the floor stay where
/// the issue put it. A real fault (wrong pages shared, a stale memo)
/// disagrees early in most requests at once.
pub const MATCH_FLOOR: f64 = 0.98;
/// A generator later than this (p99) flags the run.
pub const LATE_FLAG_MS: f64 = 5.0;

pub struct Deployment {
    pub engine: Arc<HybridEngine>,
    pub server: Server,
}

/// Engine build + quantize/pack + `Server::start` + one warm-up
/// request; returns the deployment and how long that took.
pub fn set_up(spec: &Spec) -> Result<(Deployment, f64), String> {
    let t0 = Instant::now();
    let engine = Arc::new(
        HybridEngine::random(&deploy::model_config(), deploy::engine_config())
            .map_err(|e| format!("engine: {e}"))?,
    );
    let server = Server::start(Arc::clone(&engine), deploy::server_config(spec))
        .map_err(|e| format!("server: {e}"))?;
    let warm = server.submit(Request::greedy(&[1, 2, 3, 4], 4)).wait();
    if !warm.is_completed() {
        return Err(format!("set-up request: {:?}", warm.outcome));
    }
    Ok((Deployment { engine, server }, t0.elapsed().as_secs_f64()))
}

/// `reps` consecutive set-ups (each torn down before the next, the
/// last one kept) and their times.
pub fn set_up_repeated(spec: &Spec, reps: usize) -> Result<(Deployment, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    loop {
        let (dep, secs) = set_up(spec)?;
        times.push(secs);
        if times.len() >= reps.max(1) {
            return Ok((dep, times));
        }
        dep.server.shutdown();
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCounts {
    pub sent: u64,
    pub completed: u64,
    pub failed: u64,
    pub shed: u64,
    pub mismatched: u64,
}

impl PhaseCounts {
    /// Requests that did not complete.
    pub fn unresolved(&self) -> u64 {
        self.sent - self.completed
    }

    fn record(&mut self, outcome: &RequestOutcome) {
        self.sent += 1;
        match outcome {
            RequestOutcome::Completed => self.completed += 1,
            RequestOutcome::Shed => self.shed += 1,
            // Nothing here cancels, so a cancellation is the server
            // giving up on the request.
            RequestOutcome::Cancelled | RequestOutcome::Failed { .. } => self.failed += 1,
        }
    }
}

impl std::fmt::Display for PhaseCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sent={} completed={} failed={} shed={} mismatched={}",
            self.sent, self.completed, self.failed, self.shed, self.mismatched
        )
    }
}

/// One resolved request of a window.
pub struct Done {
    pub gen: GenRequest,
    pub dispatch: Dispatch,
    /// How long `Server::submit` took to return.
    pub submit_ns: u64,
    pub result: RequestResult,
}

impl Done {
    /// TTFT as the client saw it, from the due time.
    pub fn ttft_ns(&self) -> Option<u64> {
        let m = &self.result.metrics;
        m.ttft_ns
            .map(|t| self.dispatch.ttft_from_due_ns(m.queue_wait_ns, t))
    }

    /// When the server admitted the request / emitted its first token
    /// / finished it, ns from window start.
    pub fn admitted_ns(&self) -> u64 {
        self.dispatch.sent_ns + self.result.metrics.queue_wait_ns
    }

    pub fn first_token_ns(&self) -> u64 {
        self.admitted_ns() + self.result.metrics.ttft_ns.unwrap_or(0)
    }

    pub fn done_ns(&self) -> u64 {
        self.first_token_ns() + self.result.metrics.token_latencies_ns.iter().sum::<u64>()
    }
}

fn to_request(g: &GenRequest) -> Request {
    Request::greedy(&g.prompt, g.max_new).with_class(match g.class {
        Class::Interactive => SloClass::Interactive,
        Class::Standard => SloClass::Standard,
        Class::Batch => SloClass::Batch,
    })
}

/// One window of load: every request sent, resolved.
pub struct Window {
    pub done: Vec<Done>,
    /// First send to last completion.
    pub wall_s: f64,
    pub counts: PhaseCounts,
}

struct InFlight {
    gen: GenRequest,
    dispatch: Dispatch,
    submit_ns: u64,
    handle: RequestHandle,
}

impl InFlight {
    fn resolve(self, result: RequestResult) -> Done {
        Done {
            gen: self.gen,
            dispatch: self.dispatch,
            submit_ns: self.submit_ns,
            result,
        }
    }
}

/// Sends requests `first..` of `spec` until `seconds` have passed,
/// then waits for what is in flight. `on_done` runs after each
/// completion (the traced run samples server gauges there).
pub fn run_window(
    server: &Server,
    spec: &Spec,
    seed: u64,
    first: u64,
    seconds: f64,
    on_done: &mut dyn FnMut(&Server),
) -> Window {
    let t0 = Instant::now();
    let send = |index: u64, due_ns: Option<u64>| {
        let gen = loadgen::request(spec, seed, index);
        let req = to_request(&gen);
        if let Some(due) = due_ns.map(Duration::from_nanos) {
            // Sleep, never spin: the server's threads need the cores.
            if let Some(wait) = due.checked_sub(t0.elapsed()) {
                std::thread::sleep(wait);
            }
        }
        let sent_ns = t0.elapsed().as_nanos() as u64;
        let handle = server.submit(req);
        let submit_ns = t0.elapsed().as_nanos() as u64 - sent_ns;
        InFlight {
            gen,
            dispatch: Dispatch {
                due_ns: due_ns.unwrap_or(sent_ns),
                sent_ns,
            },
            submit_ns,
            handle,
        }
    };
    let mut done = Vec::new();
    match spec.kind {
        Kind::Open { .. } => {
            let offsets = loadgen::schedule(spec, seed, seconds).expect("open loop has a schedule");
            let flight: Vec<InFlight> = offsets
                .iter()
                .enumerate()
                .map(|(k, &due_ns)| send(first + k as u64, Some(due_ns)))
                .collect();
            for f in flight {
                let result = f.handle.wait();
                on_done(server);
                done.push(f.resolve(result));
            }
        }
        Kind::Closed { clients } => {
            let open = || t0.elapsed().as_secs_f64() < seconds;
            let mut next = first;
            let mut flight: Vec<InFlight> = Vec::new();
            while flight.len() < clients && open() {
                flight.push(send(next, None));
                next += 1;
            }
            while !flight.is_empty() {
                let mut progressed = false;
                let mut i = 0;
                while i < flight.len() {
                    // One client blocks on the condvar; several are
                    // polled, since any of them may finish first.
                    let result = if flight.len() == 1 {
                        Some(flight[i].handle.wait())
                    } else {
                        flight[i].handle.try_result()
                    };
                    let Some(result) = result else {
                        i += 1;
                        continue;
                    };
                    progressed = true;
                    on_done(server);
                    let finished = if open() {
                        next += 1;
                        std::mem::replace(&mut flight[i], send(next - 1, None))
                    } else {
                        flight.swap_remove(i)
                    };
                    done.push(finished.resolve(result));
                }
                if !progressed {
                    std::thread::sleep(POLL);
                }
            }
        }
    }
    done.sort_by_key(|d| d.gen.index);
    let wall_ns = done.iter().map(Done::done_ns).max().unwrap_or(0);
    let mut counts = PhaseCounts::default();
    for d in &done {
        counts.record(&d.result.outcome);
    }
    Window {
        done,
        wall_s: wall_ns as f64 / 1e9,
        counts,
    }
}

/// Untimed requests before the window: lets lazy set-up finish and,
/// on `prefix_pressure`, primes the prefix cache with every shared
/// prefix so the window starts in steady state.
pub fn warm_up(server: &Server, spec: &Spec, seed: u64) -> PhaseCounts {
    let mut counts = PhaseCounts::default();
    let mut run = |req: Request| counts.record(&server.submit(req).wait().outcome);
    if spec.name == "prefix_pressure" {
        for p in 0..deploy::N_PREFIXES {
            let mut prompt = loadgen::shared_prefix(seed, p);
            prompt.push(1 + p as u32);
            run(Request::greedy(&prompt, 2));
        }
    }
    for k in 0..spec.warmup {
        // Indices far past anything the window reaches.
        run(to_request(&loadgen::request(spec, seed, u64::MAX / 2 + k)));
    }
    counts
}

/// The `verify` phase: a seeded sample of the window's requests
/// replayed one at a time on the now idle server.
pub struct Verify {
    pub counts: PhaseCounts,
    /// Positions that agreed / positions compared (each request up to
    /// and including its first disagreement).
    pub match_frac: f64,
    /// FNV digest of the sampled requests' original tokens, so two
    /// commits can be compared; no golden value is checked in.
    pub digest: u64,
    /// Indices whose replay disagreed.
    pub mismatched: Vec<u64>,
}

pub fn verify(server: &Server, spec: &Spec, seed: u64, window: &Window) -> Verify {
    let completed = || window.done.iter().filter(|d| d.result.is_completed());
    let mut sample: Vec<&Done> = completed()
        .filter(|d| loadgen::Rng::stream(seed, "verify", d.gen.index).unit() < VERIFY_SHARE)
        .collect();
    if sample.is_empty() {
        sample.extend(completed().next());
    }
    let mut v = Verify {
        counts: PhaseCounts::default(),
        match_frac: 0.0,
        digest: loadgen::fnv1a(spec.name.as_bytes()),
        mismatched: Vec::new(),
    };
    let (mut agree, mut total) = (0usize, 0usize);
    for d in sample {
        let replay = server.submit(to_request(&d.gen)).wait();
        v.counts.record(&replay.outcome);
        v.digest = loadgen::digest_tokens(v.digest, &d.result.tokens);
        let original = &d.result.tokens;
        let same = original
            .iter()
            .zip(&replay.tokens)
            .take_while(|(a, b)| a == b)
            .count();
        let differs = replay.tokens != *original;
        agree += same;
        total += same + usize::from(differs);
        if differs {
            v.counts.mismatched += 1;
            v.mismatched.push(d.gen.index);
        }
    }
    if total > 0 {
        v.match_frac = agree as f64 / total as f64;
    }
    v
}

/// A window's latency and throughput numbers.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub out_tok_s: f64,
    pub in_tok_s: f64,
    pub ttft_p50_ms: f64,
    pub ttft_p90_ms: f64,
    pub ttft_max_ms: f64,
    pub itl_p50_ms: f64,
    /// The highest percentile of the gaps, up to p99, with ten samples
    /// beyond it, and which percentile that is.
    pub itl_tail_ms: f64,
    pub itl_tail_pct: f64,
    pub itl_max_ms: f64,
    pub n_gaps: usize,
    pub goodput_frac: f64,
    pub queue_wait_p50_ms: f64,
    pub queue_wait_p90_ms: f64,
    pub gen_late_p99_ms: f64,
    pub submit_p50_us: f64,
    pub out_tokens: u64,
    pub in_tokens: u64,
}

/// `mismatched` lists request indices whose replay disagreed; they
/// miss the goodput limits like failed ones do.
pub fn summarize(spec: &Spec, window: &Window, mismatched: &[u64]) -> Summary {
    let ms = |ns: u64| ns as f64 / 1e6;
    let completed = || window.done.iter().filter(|d| d.result.is_completed());
    let out_tokens: u64 = completed().map(|d| d.result.tokens.len() as u64).sum();
    let in_tokens: u64 = completed().map(|d| d.gen.prompt.len() as u64).sum();
    let ttft = stats::sorted(completed().filter_map(Done::ttft_ns).map(ms).collect());
    let gaps = stats::sorted(
        completed()
            .flat_map(|d| d.result.metrics.token_latencies_ns.iter().copied())
            .map(ms)
            .collect(),
    );
    let waits = stats::sorted(
        completed()
            .map(|d| ms(d.result.metrics.queue_wait_ns))
            .collect(),
    );
    let late = stats::sorted(
        window
            .done
            .iter()
            .map(|d| ms(d.dispatch.lateness_ns()))
            .collect(),
    );
    let submit = stats::sorted(
        window
            .done
            .iter()
            .map(|d| d.submit_ns as f64 / 1e3)
            .collect(),
    );
    let good = window
        .done
        .iter()
        .filter(|d| {
            let gaps = &d.result.metrics.token_latencies_ns;
            d.result.is_completed()
                && !mismatched.contains(&d.gen.index)
                && d.ttft_ns().is_some_and(|t| ms(t) <= spec.l_ttft_ms)
                && gaps.iter().all(|&g| ms(g) <= spec.l_itl_ms)
        })
        .count();
    let pct = |v: &[f64], p: f64| stats::percentile(v, p).unwrap_or(f64::NAN);
    let (itl_tail_ms, itl_tail_pct) =
        stats::supported_tail(&gaps, 99.0).unwrap_or((f64::NAN, f64::NAN));
    Summary {
        out_tok_s: out_tokens as f64 / window.wall_s,
        in_tok_s: in_tokens as f64 / window.wall_s,
        ttft_p50_ms: pct(&ttft, 50.0),
        ttft_p90_ms: pct(&ttft, 90.0),
        ttft_max_ms: pct(&ttft, 100.0),
        itl_p50_ms: pct(&gaps, 50.0),
        itl_tail_ms,
        itl_tail_pct,
        itl_max_ms: pct(&gaps, 100.0),
        n_gaps: gaps.len(),
        goodput_frac: good as f64 / window.done.len().max(1) as f64,
        queue_wait_p50_ms: pct(&waits, 50.0),
        queue_wait_p90_ms: pct(&waits, 90.0),
        gen_late_p99_ms: pct(&late, 99.0),
        submit_p50_us: pct(&submit, 50.0),
        out_tokens,
        in_tokens,
    }
}

/// Whether the run's outputs were correct: nothing failed or was shed
/// in any phase, the replay ran, and it agreed (bitwise on 1-client
/// workloads, [`MATCH_FLOOR`] of tokens on batched ones).
pub fn check(
    spec: &Spec,
    warm: &PhaseCounts,
    timed: &PhaseCounts,
    v: &Verify,
) -> Result<(), String> {
    for (phase, c) in [("warmup", warm), ("timed", timed), ("verify", &v.counts)] {
        if c.completed != c.sent {
            return Err(format!("{phase}: {c}"));
        }
    }
    if v.counts.sent == 0 {
        return Err("verify phase replayed nothing".into());
    }
    if spec.bitwise && v.counts.mismatched > 0 {
        return Err(format!(
            "{} replayed requests differ bitwise: {:?}",
            v.counts.mismatched, v.mismatched
        ));
    }
    if v.match_frac < MATCH_FLOOR {
        return Err(format!("match_frac {:.4} < {MATCH_FLOOR}", v.match_frac));
    }
    Ok(())
}

/// Requests that did not complete, plus replays that differ where
/// they must be bitwise or where the batched floor is missed (a
/// tolerated near-tie flip is reported in `mismatched`, not counted as
/// a failure).
pub fn failed_operations(spec: &Spec, timed: &PhaseCounts, v: &Verify) -> u64 {
    let tolerated = !spec.bitwise && v.match_frac >= MATCH_FLOOR;
    let differing = if tolerated { 0 } else { v.counts.mismatched };
    timed.unresolved() + v.counts.unresolved() + differing
}

/// The line-per-phase report both run kinds print.
pub fn print_phases(warm: &PhaseCounts, window: &Window, v: &Verify, sum: &Summary, spec: &Spec) {
    println!("   phase warmup: {warm}");
    println!(
        "   phase timed:  {} wall={:.3}s",
        window.counts, window.wall_s
    );
    println!(
        "   phase verify: {} match_frac={:.4}",
        v.counts, v.match_frac
    );
    println!("   token digest: {:016x}", v.digest);
    println!(
        "   samples: {} gaps (p50 {:.3} ms, p{:.1} {:.3} ms, max {:.3} ms), ttft p90 {:.3} ms (max {:.3} ms), queue wait p50 {:.3} ms",
        sum.n_gaps, sum.itl_p50_ms, sum.itl_tail_pct, sum.itl_tail_ms, sum.itl_max_ms, sum.ttft_p90_ms, sum.ttft_max_ms, sum.queue_wait_p50_ms
    );
    println!(
        "   goodput limits: ttft <= {} ms, every gap <= {} ms",
        spec.l_ttft_ms, spec.l_itl_ms
    );
    let flag = if sum.gen_late_p99_ms > LATE_FLAG_MS {
        "  ** FLAGGED: the generator ran late **"
    } else {
        ""
    };
    println!(
        "   generator lateness p99: {:.3} ms{flag}",
        sum.gen_late_p99_ms
    );
}
