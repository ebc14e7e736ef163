//! The continuous-batching scheduler with chunked prefill and
//! SLO-aware admission.
//!
//! One scheduler thread owns the engine for the server's lifetime and
//! runs the serving loop: between engine steps it joins newly arrived
//! requests into the batch (admission-controlled by the KV-cache pool)
//! and retires finished or cancelled sequences.
//!
//! Each step is composed under a **token budget** instead of running
//! every admitted prompt whole: all active decode rows join first (one
//! token each), then pending prompts contribute at most one chunk of at
//! most [`ServerConfig::prefill_chunk`] tokens apiece, in admission
//! order, while the step's total stays within
//! [`ServerConfig::step_token_budget`]. A long prompt therefore
//! prefills across several steps while established sequences keep
//! decoding in the same batched forwards — decode inter-token latency
//! is bounded by the budget, not by the longest queued prompt. Chunked
//! prefill is bitwise identical to monolithic prefill (the engine's
//! position-dependent math is row-stable), so scheduling stays pure
//! orchestration.
//!
//! With [`ServerConfig::slo`] set, the scheduler additionally becomes
//! **SLO-aware**:
//!
//! * Admission picks the earliest request of the most urgent
//!   [`SloClass`] present instead of the queue front (FIFO is
//!   preserved within a class).
//! * An admission controller predicts each queued request's TTFT from
//!   the server's own latency histograms (one service wave per
//!   batch-width cohort ahead of it) and, when the policy allows
//!   shedding, resolves lower-class requests whose predicted slack
//!   against their TTFT target is negative as
//!   [`RequestOutcome::Shed`] — graceful load shedding instead of
//!   serving tokens that already missed their deadline. Interactive
//!   requests are never shed.
//! * Step composition allocates the prefill budget by class priority,
//!   and throttles prefill to a single chunk whenever a decode row is
//!   at risk of an ITL violation, reallocating the step budget toward
//!   keeping at-risk rows fast (the anti-starvation chunk grant is
//!   preserved).
//!
//! Scheduling stays pure orchestration either way: which requests run
//! when changes, the bits each surviving request produces do not.
//!
//! Admission additionally consults the pool's shared-prefix cache
//! (when [`ServerConfig::prefix_cache_bytes`] is nonzero): the longest
//! cached prefix of the prompt is copied into the fresh lease and the
//! scheduler prefills only the uncached suffix. Because cached rows
//! are frozen snapshots of rows the engine itself produced — and KV
//! rows are a prefix-deterministic function of the token prefix — the
//! seeded path yields bitwise-identical logits to a cold prefill. On
//! release, completed (and cancelled) sequences offer their fed-token
//! prefix back to the cache for future requests.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use kt_core::{BatchSeq, EngineError, HybridEngine, RequestMetrics, ServeStats, SimdLevel};
use kt_model::paged::{SwappedKv, DEFAULT_PAGE_ROWS};
use kt_model::pool::{CacheLease, KvCachePool};
use kt_model::prefix::PrefixCacheConfig;
use kt_tensor::Matrix;
use kt_trace::{
    step_components, Component, FlightRecorder, LogHistogram, RequestBreakdown, RequestTrace,
    SpanKind, StepTrace, TraceCtx, TraceOutcome, N_COMPONENTS, N_SPAN_KINDS,
};
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::{
    push_counter, push_family, push_gauge, push_histogram, push_histogram_samples_seconds,
    push_sample,
};
use crate::preempt::{self, VictimView};
use crate::request::{Request, RequestHandle, RequestOutcome, RequestResult, RequestSlot};
use crate::sched::{self, ComposeCfg, PlanWork, SeqView};
use crate::slo::{self, ClassCounters, SlackInputs, SloClass, SloPolicy};

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum sequences active in one batched step (also sizes the
    /// KV-cache pool). Must be nonzero.
    pub max_batch: usize,
    /// Maximum prompt tokens one sequence prefills per step. Must be
    /// nonzero; a value at or above the longest admissible prompt
    /// reproduces monolithic (single-step) prefill.
    pub prefill_chunk: usize,
    /// Per-step token budget the scheduler composes each batched
    /// forward under: decode rows are admitted first (one token each),
    /// then pending prefill chunks fill the remainder. Must be at
    /// least `prefill_chunk`.
    pub step_token_budget: usize,
    /// Byte budget of the shared-prefix KV cache (frozen snapshots of
    /// released sequences, keyed by prompt tokens). `0` disables
    /// prefix reuse entirely; admission then always cold-prefills.
    pub prefix_cache_bytes: usize,
    /// Shortest prompt prefix worth seeding from the cache. Shorter
    /// matches are treated as misses (the copy would cost more than
    /// the prefill it saves). Must be nonzero.
    pub min_prefix_len: usize,
    /// Per-class SLO targets. `None` (the default) keeps the
    /// scheduler pure FIFO with no shedding — exactly the pre-SLO
    /// behavior. `Some` turns on priority admission, slack-based
    /// shedding (if the policy allows), and priority-aware step
    /// composition. Each class's targets must be nonzero with
    /// `ttft >= itl` (the first token needs at least one full step).
    pub slo: Option<SloPolicy>,
    /// Rows per KV page, in `1..=max_seq` of the engine's model.
    /// Leases allocate fixed-size pages on demand from a pool-wide
    /// block allocator, admission charges the pages a prompt actually
    /// needs instead of reserving a whole `max_seq` cache, warm prefix
    /// hits share frozen pages zero-copy (copy-on-write at the first
    /// divergence), and page pressure preempts running sequences
    /// (pausing them with their rows swapped to the host tier) instead
    /// of failing the step. Outputs are bitwise identical at every page
    /// size.
    pub page_rows: usize,
    /// Total pages in the block allocator. `0` sizes it
    /// automatically: `max_batch` full-capacity sequences plus an
    /// allowance covering the prefix cache's byte budget. Pages are
    /// admission accounting units — page memory is allocated lazily —
    /// so a generous total costs nothing up front.
    pub kv_pool_pages: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_batch: 8,
            prefill_chunk: 64,
            step_token_budget: 128,
            prefix_cache_bytes: 32 << 20,
            min_prefix_len: 4,
            slo: None,
            page_rows: DEFAULT_PAGE_ROWS,
            kv_pool_pages: 0,
        }
    }
}

/// A request waiting for admission.
struct Queued {
    req: Request,
    slot: Arc<RequestSlot>,
    enqueued_at: Instant,
    /// Submit time on the trace clock (sink epoch), anchoring the
    /// request's flight-recorder waterfall.
    enqueued_ns: u64,
    /// Process-wide submission counter: FIFO order within a class is
    /// exactly arrival order, whatever the queue's physical layout.
    seq_no: u64,
}

impl Queued {
    /// Server-assigned request id (fixed on the slot at submission).
    fn id(&self) -> u64 {
        self.slot.id
    }
}

/// One sequence's scheduling state from admission to resolution. It is
/// the same whether the sequence runs ([`ActiveSeq`], rows in a lease)
/// or is paused under page pressure ([`PreemptedSeq`], rows on the host
/// tier): preemption moves the rows and nothing else, so a resumed
/// sequence continues exactly where it stopped.
struct SeqState {
    slot: Arc<RequestSlot>,
    req: Request,
    rng: StdRng,
    /// Prompt tokens already in the cache (fed by the engine or seeded
    /// from the prefix cache). The sequence becomes a decode row once
    /// this reaches `req.prompt.len()`.
    prefilled: usize,
    /// Next token to decode once the prompt is fully prefilled: sampled
    /// and reported, its row not in the cache yet. `None` before the
    /// first sample and after the last one.
    next_token: Option<u32>,
    tokens: Vec<u32>,
    metrics: RequestMetrics,
    admitted_at: Instant,
    last_token_at: Option<Instant>,
    /// Request identity threaded into every span this sequence causes:
    /// `ctx.tag()` rides in the engine's per-sequence label slots.
    ctx: TraceCtx,
    /// Per-request waterfall under construction; `None` when tracing
    /// was disabled at admission. Boxed: the trace is cold data next to
    /// the hot scheduling fields.
    trace: Option<Box<RequestTrace>>,
    /// Process-wide admission counter: victim selection preempts the
    /// newest admission within the least urgent class first.
    admit_seq: u64,
}

impl SeqState {
    /// Whether generation ended (stop token or length) and the slot is
    /// ready to resolve.
    fn is_done(&self) -> bool {
        self.prefilled == self.req.prompt.len()
            && self.next_token.is_none()
            && !self.tokens.is_empty()
    }

    /// Accounts the outcome, closes the trace and resolves the slot —
    /// once per admitted request, whichever tier holds its rows.
    fn resolve(mut self, outcome: RequestOutcome, inner: &ServerInner) {
        inner.record_request_hists(&self.metrics);
        let violated = inner.account_outcome(self.req.class, &outcome, &self.metrics);
        if let Some(trace) = self.trace.take() {
            inner.finish_trace(
                trace,
                &outcome,
                violated,
                &self.metrics,
                self.tokens.len() as u32,
            );
        }
        self.slot.resolve(RequestResult {
            request_id: self.ctx.request_id,
            outcome,
            tokens: self.tokens,
            metrics: self.metrics,
        });
    }
}

/// A sequence in the batch: its state and the lease holding its rows.
struct ActiveSeq {
    st: SeqState,
    lease: CacheLease,
}

impl ActiveSeq {
    fn resolve(self, outcome: RequestOutcome, inner: &ServerInner) {
        let ActiveSeq { st, lease } = self;
        // Release first so the admission valve reopens before any
        // waiter reacts to the result. Completed and cancelled caches
        // hold valid prefix rows, so their release path also offers the
        // prefix to the cache; a failed step may have left the cache
        // mid-write, so it goes back without an insert (release resets
        // it either way).
        if matches!(outcome, RequestOutcome::Failed { .. }) {
            let _ = inner.pool.release(lease);
        } else {
            // The rows encode the prompt's positions, then every
            // generation fed after it (the pending token has no row).
            let fed: Vec<u32> = st
                .req
                .prompt
                .iter()
                .chain(&st.tokens)
                .copied()
                .take(lease.cache.seq_len())
                .collect();
            let _ = inner.pool.release_with_prefix(lease, &fed);
        }
        st.resolve(outcome, inner);
    }
}

/// A sequence paused under page pressure: its state and its rows on the
/// host tier. It holds no lease (its pages went back to the allocator).
struct PreemptedSeq {
    st: SeqState,
    swapped: SwappedKv,
}

impl PreemptedSeq {
    /// Resolves without resuming (cancelled, drained at shutdown, or
    /// unresumable): the host copy is dropped and un-accounted from the
    /// swapped-pages gauge.
    fn resolve(self, outcome: RequestOutcome, inner: &ServerInner) {
        inner.stats.lock().kv_pages_swapped -= inner.pool.pages_needed(self.swapped.rows()) as u64;
        self.st.resolve(outcome, inner);
    }
}

/// Server-side latency histograms, fed at request resolution.
#[derive(Default)]
struct LatencyHists {
    /// Queue wait of every resolved request — including requests
    /// cancelled, shed, or failed while still queued, which never
    /// produce a token but did wait. Leaving them out would
    /// survivorship-bias the queue-wait percentiles toward requests
    /// that got served.
    queue_wait: LogHistogram,
    /// Time to first token of every request that produced one.
    ttft: LogHistogram,
    /// Inter-token latencies across all requests.
    itl: LogHistogram,
}

struct ServerInner {
    engine: Arc<HybridEngine>,
    pool: KvCachePool,
    queue: Mutex<VecDeque<Queued>>,
    /// Signals the scheduler: new arrival or shutdown.
    wakeup: Condvar,
    shutdown: AtomicBool,
    stats: Mutex<ServeStats>,
    hists: Mutex<LatencyHists>,
    /// Per-class outcome and SLO counters.
    class_stats: Mutex<[ClassCounters; 3]>,
    /// Monotonic submission counter feeding `Queued::seq_no`.
    submit_seq: AtomicU64,
    /// Request-id allocator (first id is 1; 0 means "untagged").
    next_id: AtomicU64,
    /// Tail-latency flight recorder: per-request waterfalls of recent
    /// completions, with SLO-violating/shed/failed requests frozen.
    /// Always present; populated only while tracing is enabled.
    recorder: FlightRecorder,
    /// Per-[`Component`] end-to-end latency histograms (with worst
    /// request-id exemplars), fed one sample per component per traced
    /// resolution.
    comp_hists: Mutex<[LogHistogram; N_COMPONENTS]>,
    cfg: ServerConfig,
}

impl ServerInner {
    /// Folds a resolved request's latency samples into the server
    /// histograms. Every resolution path that saw the queue calls
    /// this, whatever the outcome.
    fn record_request_hists(&self, m: &RequestMetrics) {
        let mut h = self.hists.lock();
        h.queue_wait.record(m.queue_wait_ns);
        if let Some(t) = m.ttft_ns {
            h.ttft.record(t);
        }
        h.itl.record_all(m.token_latencies_ns.iter().copied());
    }

    /// Single bookkeeping point for every request resolution: the
    /// per-class outcome counters and, under an SLO policy,
    /// target-violation accounting (the aggregate outcome fields of
    /// [`Server::stats`] are sums over the classes). Exactly one
    /// outcome per request — every resolution path funnels through
    /// here once. Returns whether
    /// the request violated either SLO target (this is what freezes its
    /// trace into the flight recorder).
    fn account_outcome(
        &self,
        class: SloClass,
        outcome: &RequestOutcome,
        m: &RequestMetrics,
    ) -> bool {
        // Violations are judged for any request that produced the
        // relevant samples, whatever its outcome; `slo_met` only for
        // completions (a cancelled request that was fast is not
        // goodput).
        let (ttft_viol, itl_viol, met) = match &self.cfg.slo {
            Some(policy) => {
                let target = policy.target(class);
                let ttft_viol = m.ttft_ns.is_some_and(|t| t > target.ttft_ns);
                let itl_viol = m.token_latencies_ns.iter().any(|&g| g > target.itl_ns);
                let met = matches!(outcome, RequestOutcome::Completed)
                    && !ttft_viol
                    && !itl_viol
                    && m.ttft_ns.is_some();
                (ttft_viol, itl_viol, met)
            }
            None => (false, false, false),
        };
        {
            let mut cs = self.class_stats.lock();
            let c = &mut cs[class.index()];
            match outcome {
                RequestOutcome::Completed => c.completed += 1,
                RequestOutcome::Cancelled => c.cancelled += 1,
                RequestOutcome::Shed => c.shed += 1,
                RequestOutcome::Failed { .. } => c.failed += 1,
            }
            c.ttft_violations += ttft_viol as u64;
            c.itl_violations += itl_viol as u64;
            c.slo_met += met as u64;
        }
        if ttft_viol {
            kt_trace::instant(SpanKind::ServeSloViolation, class.index() as u32, 0);
        }
        if itl_viol {
            kt_trace::instant(SpanKind::ServeSloViolation, class.index() as u32, 1);
        }
        ttft_viol || itl_viol
    }

    /// Finalizes a per-request trace at resolution: stamps the outcome
    /// and measured end-to-end numbers, feeds one sample per component
    /// into the `kt_latency_component_seconds` histograms (carrying the
    /// request id as the bucket exemplar), and hands the trace to the
    /// flight recorder (which freezes it if it violated, shed, or
    /// failed).
    fn finish_trace(
        &self,
        mut trace: Box<RequestTrace>,
        outcome: &RequestOutcome,
        violated: bool,
        m: &RequestMetrics,
        tokens: u32,
    ) {
        let traced_outcome = match outcome {
            RequestOutcome::Completed => TraceOutcome::Completed,
            RequestOutcome::Cancelled => TraceOutcome::Cancelled,
            RequestOutcome::Shed => TraceOutcome::Shed,
            RequestOutcome::Failed { .. } => TraceOutcome::Failed,
        };
        trace.finish(
            kt_trace::now_ns(),
            traced_outcome,
            violated,
            m.queue_wait_ns,
            m.ttft_ns,
            m.token_latencies_ns.iter().sum(),
            tokens,
        );
        {
            let mut hists = self.comp_hists.lock();
            for c in Component::ALL {
                hists[c as usize]
                    .record_with_exemplar(trace.breakdown.component_ns(c), trace.request_id);
            }
        }
        self.recorder.record(*trace);
    }

    /// Resolves a request straight out of the queue (cancelled, shed,
    /// or drained at shutdown) — it waited but was never admitted.
    fn resolve_queued(&self, q: Queued, outcome: RequestOutcome) {
        let metrics = RequestMetrics {
            queue_wait_ns: q.enqueued_at.elapsed().as_nanos() as u64,
            ..Default::default()
        };
        self.record_request_hists(&metrics);
        let violated = self.account_outcome(q.req.class, &outcome, &metrics);
        if kt_trace::enabled() {
            // Never admitted, so the waterfall is just the queue span.
            let trace = Box::new(RequestTrace::begin(
                q.id(),
                q.req.class.index() as u32,
                q.enqueued_ns,
            ));
            self.finish_trace(trace, &outcome, violated, &metrics, 0);
        }
        q.slot.resolve(RequestResult {
            request_id: q.id(),
            outcome,
            tokens: Vec::new(),
            metrics,
        });
    }

    /// Per-wave service estimate for the slack predictor, read from
    /// the server's own latency histograms: TTFT p50, falling back to
    /// ITL p50, then 0 (an empty history predicts optimistically — the
    /// controller never sheds without evidence).
    fn service_estimate_ns(&self) -> u64 {
        let h = self.hists.lock();
        h.ttft
            .percentile(50.0)
            .filter(|&v| v > 0)
            .or_else(|| h.itl.percentile(50.0))
            .unwrap_or(0)
    }
}

/// A running continuous-batching server over one [`HybridEngine`].
///
/// Dropping the server shuts the scheduler down; queued and in-flight
/// requests resolve as cancelled.
pub struct Server {
    inner: Arc<ServerInner>,
    scheduler: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts the scheduler thread over `engine`.
    ///
    /// # Errors
    ///
    /// Rejects an invalid configuration (`max_batch == 0`,
    /// `prefill_chunk == 0`, `step_token_budget < prefill_chunk`,
    /// `page_rows` outside `1..=max_seq` of the engine's model, or an
    /// [`SloPolicy`] with an unmeetable class target — zero, or a
    /// TTFT target below the class's ITL target, i.e. below one step's
    /// worth of budget, or a precision policy whose quantization groups
    /// do not divide the model dimensions) instead of papering over it.
    pub fn start(engine: Arc<HybridEngine>, cfg: ServerConfig) -> Result<Server, EngineError> {
        if cfg.max_batch == 0 {
            return Err(EngineError::config(
                "ServerConfig.max_batch must be nonzero",
            ));
        }
        if cfg.prefill_chunk == 0 {
            return Err(EngineError::config(
                "ServerConfig.prefill_chunk must be nonzero",
            ));
        }
        if cfg.step_token_budget < cfg.prefill_chunk {
            return Err(EngineError::config(format!(
                "ServerConfig.step_token_budget ({}) must be at least prefill_chunk ({})",
                cfg.step_token_budget, cfg.prefill_chunk
            )));
        }
        if cfg.min_prefix_len == 0 {
            return Err(EngineError::config(
                "ServerConfig.min_prefix_len must be nonzero",
            ));
        }
        let max_seq = engine.config().max_seq;
        if cfg.page_rows == 0 || cfg.page_rows > max_seq {
            return Err(EngineError::config(format!(
                "ServerConfig.page_rows ({}) must be in 1..={max_seq} (the model's max_seq)",
                cfg.page_rows
            )));
        }
        // A precision policy whose group sizes do not divide the model
        // dimensions could never have packed these weights; reject the
        // inconsistent configuration up front.
        {
            let mcfg = engine.config();
            engine
                .engine_config()
                .precision
                .validate(mcfg.hidden, mcfg.dense_inter, mcfg.moe_inter)
                .map_err(|e| EngineError::config(e.to_string()))?;
        }
        if let Some(policy) = &cfg.slo {
            for class in SloClass::ALL {
                let t = policy.target(class);
                if t.ttft_ns == 0 || t.itl_ns == 0 {
                    return Err(EngineError::config(format!(
                        "SloPolicy target for class {:?} must be nonzero (ttft={}, itl={})",
                        class, t.ttft_ns, t.itl_ns
                    )));
                }
                // A first token needs at least one full step, and the
                // ITL target is the class's own floor on step time —
                // a tighter TTFT admits work that can never meet it.
                if t.ttft_ns < t.itl_ns {
                    return Err(EngineError::config(format!(
                        "SloPolicy ttft target for class {:?} ({} ns) is below one step's \
                         worth of budget (itl target {} ns): the class is unmeetable",
                        class, t.ttft_ns, t.itl_ns
                    )));
                }
            }
        }
        let fresh = engine.fresh_cache();
        let mut pool = KvCachePool::for_prototype(&fresh, cfg.max_batch);
        if cfg.prefix_cache_bytes > 0 {
            pool = pool.with_prefix_cache(PrefixCacheConfig {
                capacity_bytes: cfg.prefix_cache_bytes,
                min_prefix_len: cfg.min_prefix_len,
            });
        }
        let total_pages = if cfg.kv_pool_pages > 0 {
            cfg.kv_pool_pages
        } else {
            // Auto: every batch slot at full capacity, plus pages for
            // the prefix index's byte budget (frozen segments hold
            // page references, so index residency competes with
            // leases for the allocator). Pages are lazily
            // materialized, so generosity here reserves no memory.
            let capacity = if fresh.n_layers() > 0 {
                fresh.layer(0).capacity()
            } else {
                0
            };
            let per_seq = fresh.n_layers() * capacity.div_ceil(cfg.page_rows);
            let min_row_bytes = (0..fresh.n_layers())
                .map(|i| {
                    let l = fresh.layer(i);
                    (l.k_width() + l.v_width()) * std::mem::size_of::<f32>()
                })
                .min()
                .unwrap_or(1)
                .max(1);
            let prefix_pages = cfg
                .prefix_cache_bytes
                .div_ceil(cfg.page_rows * min_row_bytes);
            cfg.max_batch * per_seq + prefix_pages
        };
        pool = pool.with_paged(total_pages, cfg.page_rows);
        kt_trace::enable_from_env();
        let inner = Arc::new(ServerInner {
            engine,
            pool,
            queue: Mutex::new(VecDeque::new()),
            wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: Mutex::new(ServeStats::default()),
            hists: Mutex::new(LatencyHists::default()),
            class_stats: Mutex::new([ClassCounters::default(); 3]),
            submit_seq: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            recorder: FlightRecorder::new(),
            comp_hists: Mutex::new(std::array::from_fn(|_| LogHistogram::new())),
            cfg,
        });
        let loop_inner = Arc::clone(&inner);
        let scheduler = std::thread::Builder::new()
            .name("kt-serve-scheduler".into())
            .spawn(move || scheduler_loop(&loop_inner))
            .expect("spawn scheduler thread");
        Ok(Server {
            inner,
            scheduler: Some(scheduler),
        })
    }

    /// Submits a request and returns a handle to wait on or cancel.
    /// Invalid requests (empty prompt, out-of-vocab token, prompt +
    /// `max_new` beyond the cache capacity) resolve immediately as
    /// failed instead of poisoning a batch.
    pub fn submit(&self, req: Request) -> RequestHandle {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = RequestSlot::new(id);
        let handle = RequestHandle {
            slot: Arc::clone(&slot),
        };
        self.inner.class_stats.lock()[req.class.index()].submitted += 1;
        if let Err(error) = self.validate(&req) {
            // Never queued: counters only, no queue-wait sample.
            self.inner.account_outcome(
                req.class,
                &RequestOutcome::Failed {
                    error: error.clone(),
                },
                &RequestMetrics::default(),
            );
            slot.resolve(RequestResult {
                request_id: id,
                outcome: RequestOutcome::Failed { error },
                tokens: Vec::new(),
                metrics: RequestMetrics::default(),
            });
            return handle;
        }
        // A prompt that already ends in the stop token has nothing to
        // generate: the first sampled token could only ever trail the
        // stop. Resolve it completed with zero tokens instead of
        // spending prefill on it.
        if req.stop_token.is_some() && req.prompt.last().copied() == req.stop_token {
            self.inner.account_outcome(
                req.class,
                &RequestOutcome::Completed,
                &RequestMetrics::default(),
            );
            slot.resolve(RequestResult {
                request_id: id,
                outcome: RequestOutcome::Completed,
                tokens: Vec::new(),
                metrics: RequestMetrics::default(),
            });
            return handle;
        }
        let seq_no = self.inner.submit_seq.fetch_add(1, Ordering::Relaxed);
        let mut queue = self.inner.queue.lock();
        queue.push_back(Queued {
            req,
            slot,
            enqueued_at: Instant::now(),
            enqueued_ns: kt_trace::now_ns(),
            seq_no,
        });
        drop(queue);
        self.inner.wakeup.notify_all();
        handle
    }

    /// Snapshot of the aggregate serving statistics: the outcome
    /// fields summed over [`Server::class_stats`], with the engine's
    /// cumulative step-arena counters and virtual-GPU launch counters
    /// folded in.
    pub fn stats(&self) -> ServeStats {
        let mut s = self.inner.stats.lock().clone();
        for c in self.class_stats() {
            s.completed += c.completed;
            s.cancelled += c.cancelled;
            s.failed += c.failed;
            s.shed += c.shed;
            s.slo_ttft_violations += c.ttft_violations;
            s.slo_itl_violations += c.itl_violations;
            s.slo_met += c.slo_met;
        }
        s.set_arena(&self.inner.engine.workspace_stats());
        s.set_launch(&self.inner.engine.launch_stats());
        s.set_pool(&self.inner.pool.occupancy());
        if let Some(px) = self.inner.pool.prefix_stats() {
            s.set_prefix(&px);
        }
        s.set_pages(&self.inner.pool.page_stats());
        s
    }

    /// Per-class outcome and SLO counters, indexed by
    /// [`SloClass::index`]. Populated whether or not an SLO policy is
    /// active (violation fields stay zero without one).
    pub fn class_stats(&self) -> [ClassCounters; 3] {
        *self.inner.class_stats.lock()
    }

    /// Prometheus-style text exposition of the serving metrics:
    /// request/token/step counters, queue and batch gauges, the
    /// engine's arena and virtual-GPU launch counters, the `kt_slo_*`
    /// SLO counters (violations, per-class outcomes), the
    /// `kt_build_info` identity gauge, the queue-wait / TTFT /
    /// inter-token latency histograms (log₂ buckets, cumulative
    /// `_bucket{le=...}` form), and the per-component
    /// `kt_latency_component_seconds` histogram family with worst
    /// request-id exemplars on its buckets. Formatting goes through
    /// the crate's `metrics` module so every family carries exactly
    /// one `# HELP`/`# TYPE` pair and label values are escaped.
    /// Suitable for serving at a `/metrics` endpoint verbatim.
    pub fn stats_text(&self) -> String {
        let s = self.stats();
        let mut out = String::with_capacity(4096);
        push_counter(
            &mut out,
            "kt_requests_completed_total",
            "Requests that ran to completion.",
            s.completed,
        );
        push_counter(
            &mut out,
            "kt_requests_cancelled_total",
            "Requests cancelled by their client.",
            s.cancelled,
        );
        push_counter(
            &mut out,
            "kt_requests_failed_total",
            "Requests that failed with an engine error.",
            s.failed,
        );
        push_counter(
            &mut out,
            "kt_requests_shed_total",
            "Requests shed by the admission controller.",
            s.shed,
        );
        push_counter(
            &mut out,
            "kt_tokens_generated_total",
            "Tokens emitted across all requests.",
            s.tokens_generated,
        );
        push_counter(
            &mut out,
            "kt_steps_total",
            "Continuous-batching steps executed.",
            s.steps,
        );
        push_counter(
            &mut out,
            "kt_prefill_chunks_total",
            "Prefill chunks executed.",
            s.prefill_chunks,
        );
        push_counter(
            &mut out,
            "kt_prefill_tokens_total",
            "Prompt tokens fed through prefill chunks.",
            s.prefill_tokens,
        );
        push_counter(
            &mut out,
            "kt_gpu_kernel_launches_total",
            "Kernels launched individually on the virtual GPU.",
            s.gpu_kernel_launches,
        );
        push_counter(
            &mut out,
            "kt_gpu_host_funcs_total",
            "Host-function callbacks executed in-stream.",
            s.gpu_host_funcs,
        );
        push_counter(
            &mut out,
            "kt_gpu_graph_replays_total",
            "Graph replays (one launch each).",
            s.gpu_graph_replays,
        );
        push_counter(
            &mut out,
            "kt_gpu_graph_ops_total",
            "Ops executed via graph replay.",
            s.gpu_graph_ops,
        );
        push_counter(
            &mut out,
            "kt_gpu_launch_overhead_ns_total",
            "Simulated launch latency charged on the device.",
            s.gpu_launch_overhead_ns,
        );
        push_counter(
            &mut out,
            "kt_gpu_busy_ns_total",
            "Nanoseconds the device spent executing ops.",
            s.gpu_busy_ns,
        );
        push_counter(
            &mut out,
            "kt_arena_allocations_total",
            "Fresh heap allocations performed by the step arenas.",
            s.arena_allocations,
        );
        push_counter(
            &mut out,
            "kt_arena_bytes_allocated_total",
            "Bytes served by fresh heap allocations.",
            s.arena_bytes_allocated,
        );
        push_counter(
            &mut out,
            "kt_arena_bytes_served_total",
            "Bytes served by reusing an existing arena buffer.",
            s.arena_bytes_served,
        );
        push_counter(
            &mut out,
            "kt_prefix_lookups_total",
            "Prefix-cache lookups at admission.",
            s.prefix_lookups,
        );
        push_counter(
            &mut out,
            "kt_prefix_hits_total",
            "Lookups that matched a reusable prefix.",
            s.prefix_hits,
        );
        push_counter(
            &mut out,
            "kt_prefix_misses_total",
            "Lookups that matched nothing reusable.",
            s.prefix_misses,
        );
        push_counter(
            &mut out,
            "kt_prefix_hit_tokens_total",
            "Prompt tokens seeded from cached prefixes instead of prefilled.",
            s.prefix_hit_tokens,
        );
        push_counter(
            &mut out,
            "kt_prefix_insertions_total",
            "Prefix segments frozen into the cache.",
            s.prefix_insertions,
        );
        push_counter(
            &mut out,
            "kt_prefix_evictions_total",
            "Prefix segments evicted, by the byte budget or the page valve.",
            s.prefix_evictions,
        );
        push_counter(
            &mut out,
            "kt_prefix_evicted_bytes_total",
            "Bytes freed by prefix eviction.",
            s.prefix_evicted_bytes,
        );
        // Per-expert gating popularity, label form. Dense (and so far
        // idle) layers are skipped to bound the exposition size.
        {
            let profile = self.inner.engine.expert_profile();
            push_family(
                &mut out,
                "kt_expert_hits_total",
                "counter",
                "Routed-expert activations per (layer, expert).",
            );
            for layer in 0..profile.n_layers() {
                if profile.total(layer) == 0 {
                    continue;
                }
                for e in 0..profile.n_experts() {
                    let l = layer.to_string();
                    let x = e.to_string();
                    push_sample(
                        &mut out,
                        "kt_expert_hits_total",
                        &[("layer", &l), ("expert", &x)],
                        profile.count(layer, e),
                    );
                }
            }
        }
        push_counter(
            &mut out,
            "kt_slo_ttft_violations_total",
            "Resolved requests that missed their TTFT target.",
            s.slo_ttft_violations,
        );
        push_counter(
            &mut out,
            "kt_slo_itl_violations_total",
            "Resolved requests with an inter-token gap over the ITL target.",
            s.slo_itl_violations,
        );
        push_counter(
            &mut out,
            "kt_slo_met_total",
            "Completed requests that met both SLO targets.",
            s.slo_met,
        );
        // Per-class outcome counters, Prometheus label form.
        let cs = self.class_stats();
        for (name, help, pick) in [
            (
                "kt_slo_class_submitted_total",
                "Requests submitted per SLO class.",
                (|c: &ClassCounters| c.submitted) as fn(&ClassCounters) -> u64,
            ),
            (
                "kt_slo_class_completed_total",
                "Requests completed per SLO class.",
                |c: &ClassCounters| c.completed,
            ),
            (
                "kt_slo_class_shed_total",
                "Requests shed per SLO class.",
                |c: &ClassCounters| c.shed,
            ),
            (
                "kt_slo_class_slo_met_total",
                "Completed requests meeting both targets per SLO class.",
                |c: &ClassCounters| c.slo_met,
            ),
        ] {
            push_family(&mut out, name, "counter", help);
            for class in SloClass::ALL {
                push_sample(
                    &mut out,
                    name,
                    &[("class", class.as_str())],
                    pick(&cs[class.index()]),
                );
            }
        }
        push_gauge(
            &mut out,
            "kt_prefix_resident_bytes",
            "Bytes resident in frozen prefix segments.",
            s.prefix_resident_bytes as f64,
        );
        push_gauge(
            &mut out,
            "kt_prefix_entries",
            "Prefix segments currently resident.",
            s.prefix_entries as f64,
        );
        // Weight-precision gauge with the routed experts' storage dtype
        // as a label, so dashboards can key bandwidth/footprint math on
        // the serving precision.
        if let (Some(bytes), Some(dtype)) = (
            self.inner.engine.expert_weight_bytes(),
            self.inner.engine.expert_weight_dtype(),
        ) {
            push_family(
                &mut out,
                "kt_expert_weight_bytes",
                "gauge",
                "Stored bytes of one routed expert's packed weights.",
            );
            push_sample(
                &mut out,
                "kt_expert_weight_bytes",
                &[("dtype", dtype.name())],
                bytes,
            );
        }
        // KV page allocator gauges and preemption counters.
        push_gauge(
            &mut out,
            "kt_kv_pages_total",
            "KV pages the block allocator can hand out in total.",
            s.kv_pages_total as f64,
        );
        push_gauge(
            &mut out,
            "kt_kv_pages_free",
            "KV pages currently free in the allocator.",
            s.kv_pages_free as f64,
        );
        push_gauge(
            &mut out,
            "kt_kv_pages_shared",
            "Allocated KV pages referenced by more than one holder (prefix sharing).",
            s.kv_pages_shared as f64,
        );
        push_gauge(
            &mut out,
            "kt_kv_pages_swapped",
            "Pages' worth of KV rows swapped out to the host tier by preemption.",
            s.kv_pages_swapped as f64,
        );
        push_counter(
            &mut out,
            "kt_preempt_total",
            "Sequences preempted under KV page pressure (rows swapped to the host tier).",
            s.preempt_swap,
        );
        push_gauge(
            &mut out,
            "kt_kv_leases_in_use",
            "KV caches currently leased to sequences.",
            s.kv_leases_in_use as f64,
        );
        push_gauge(
            &mut out,
            "kt_kv_leases_free",
            "Reset KV caches parked in the pool.",
            s.kv_leases_free as f64,
        );
        push_gauge(
            &mut out,
            "kt_kv_leases_peak",
            "High-water mark of concurrent leases.",
            s.kv_leases_peak as f64,
        );
        push_gauge(
            &mut out,
            "kt_queue_depth",
            "Requests currently waiting for admission.",
            self.queued() as f64,
        );
        push_gauge(
            &mut out,
            "kt_peak_queue_depth",
            "Deepest admission queue observed.",
            s.peak_queue_depth as f64,
        );
        push_gauge(
            &mut out,
            "kt_mean_batch_occupancy",
            "Mean active sequences per step.",
            s.mean_occupancy(),
        );
        push_gauge(
            &mut out,
            "kt_arena_high_water_bytes",
            "High-water mark of bytes held across step arenas.",
            s.arena_high_water_bytes as f64,
        );
        // Build/runtime identity: which binary, commit and kernel ISA
        // level produced these numbers. Constant
        // 1 so dashboards join it onto any other family by instance.
        {
            push_family(
                &mut out,
                "kt_build_info",
                "gauge",
                "Build and runtime identity of this replica (constant 1; the labels are the payload).",
            );
            let simd = match kt_core::effective_simd_level() {
                SimdLevel::Scalar => "scalar",
                SimdLevel::Avx2Fma => "avx2_fma",
                SimdLevel::Avx512 => "avx512",
            };
            push_sample(
                &mut out,
                "kt_build_info",
                &[
                    ("version", env!("CARGO_PKG_VERSION")),
                    ("git_hash", env!("KT_GIT_HASH")),
                    ("simd", simd),
                ],
                1,
            );
        }
        {
            let hists = self.inner.hists.lock();
            push_histogram(
                &mut out,
                "kt_request_queue_wait_ns",
                "Queue wait of every resolved request (including those cancelled, shed, or failed while queued).",
                &hists.queue_wait,
            );
            push_histogram(
                &mut out,
                "kt_request_ttft_ns",
                "Time from admission to first emitted token.",
                &hists.ttft,
            );
            push_histogram(
                &mut out,
                "kt_request_inter_token_ns",
                "Inter-token latencies across all requests.",
                &hists.itl,
            );
        }
        // Per-component end-to-end latency attribution: one labeled
        // histogram per Component, in seconds (Prometheus base units),
        // each bucket carrying the worst request id it has seen as an
        // OpenMetrics-style exemplar — the bridge from a dashboard's
        // slowest bucket to `Server::breakdown` / the flight recorder.
        {
            push_family(
                &mut out,
                "kt_latency_component_seconds",
                "histogram",
                "Per-request end-to-end latency attributed to each pipeline component.",
            );
            let comp = self.inner.comp_hists.lock();
            for c in Component::ALL {
                push_histogram_samples_seconds(
                    &mut out,
                    "kt_latency_component_seconds",
                    &[("component", c.as_str())],
                    &comp[c as usize],
                );
            }
        }
        out
    }

    /// The three server latency histograms (queue wait, TTFT,
    /// inter-token), cloned, for programmatic percentile queries.
    pub fn latency_histograms(&self) -> (LogHistogram, LogHistogram, LogHistogram) {
        let h = self.inner.hists.lock();
        (h.queue_wait.clone(), h.ttft.clone(), h.itl.clone())
    }

    /// The latency attribution of a recently resolved request: where
    /// its measured queue wait + TTFT + decode time went, by
    /// [`Component`]. Requires tracing to have been enabled while the
    /// request ran (`KT_TRACE=1` or [`kt_trace::enable`]); `None` if it
    /// was not traced or has aged out of the flight recorder.
    pub fn breakdown(&self, request_id: u64) -> Option<RequestBreakdown> {
        self.inner.recorder.breakdown(request_id)
    }

    /// Request ids frozen in the flight recorder (SLO violations,
    /// sheds, failures), oldest first.
    pub fn captured_request_ids(&self) -> Vec<u64> {
        self.inner.recorder.captured_ids()
    }

    /// Breakdowns of every request still in the recorder's recent
    /// ring, oldest first.
    pub fn recent_breakdowns(&self) -> Vec<RequestBreakdown> {
        self.inner.recorder.recent_breakdowns()
    }

    /// One request's waterfall as a standalone Chrome-trace JSON array
    /// (loadable in Perfetto): queue-wait span, per-step spans with
    /// component sub-spans, first-token instant — all on the request's
    /// own track, every event labeled with its id.
    pub fn export_request_trace(&self, request_id: u64) -> Option<String> {
        self.inner.recorder.export_chrome(request_id)
    }

    /// Every frozen (violating/shed/failed) waterfall as one
    /// Chrome-trace JSON array — the artifact `trace_summarize`
    /// consumes.
    pub fn export_captured_traces(&self) -> String {
        self.inner.recorder.export_captured_chrome()
    }

    /// Sequences currently admitted (leased caches).
    pub fn active(&self) -> usize {
        self.inner.pool.in_use()
    }

    /// Requests waiting for admission.
    pub fn queued(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// Stops the scheduler and resolves every unfinished request as
    /// cancelled. Called automatically on drop.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.wakeup.notify_all();
        if let Some(t) = self.scheduler.take() {
            let _ = t.join();
        }
    }

    fn validate(&self, req: &Request) -> Result<(), String> {
        if req.prompt.is_empty() {
            return Err("request prompt is empty".into());
        }
        let vocab = self.inner.engine.config().vocab;
        if let Some(&t) = req.prompt.iter().find(|&&t| t as usize >= vocab) {
            return Err(format!("prompt token {t} outside vocab {vocab}"));
        }
        let capacity = self.inner.pool.capacity();
        if req.prompt.len() + req.max_new > capacity {
            return Err(format!(
                "prompt ({}) + max_new ({}) exceeds cache capacity {capacity}",
                req.prompt.len(),
                req.max_new
            ));
        }
        // The request must fit the page pool even with every other
        // sequence preempted, or it could never run to completion
        // (preemption keeps at least one survivor, so a too-big
        // request would wedge the scheduler, not just fail). Admission
        // reserves the first sampled token's row even at max_new 0.
        let total = self.inner.pool.block_allocator().total_pages();
        let needed = self
            .inner
            .pool
            .pages_needed(req.prompt.len() + req.max_new.max(1));
        if needed > total {
            return Err(format!(
                "prompt ({}) + max_new ({}) needs {needed} KV pages but the pool \
                 holds {total}",
                req.prompt.len(),
                req.max_new,
            ));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("max_batch", &self.inner.cfg.max_batch)
            .field("prefill_chunk", &self.inner.cfg.prefill_chunk)
            .field("step_token_budget", &self.inner.cfg.step_token_budget)
            .field("slo", &self.inner.cfg.slo.is_some())
            .field("active", &self.active())
            .field("queued", &self.queued())
            .finish()
    }
}

fn scheduler_loop(inner: &ServerInner) {
    let mut active: Vec<ActiveSeq> = Vec::new();
    // Sequences evicted under page pressure, waiting for pages to
    // resume. Owned by the scheduler thread: preemption is pure
    // scheduling state, invisible outside the loop except through the
    // gauges and the (unchanged) request outcomes.
    let mut preempted: Vec<PreemptedSeq> = Vec::new();
    loop {
        // Join arrivals and resume preempted work (and park while
        // idle).
        admit(inner, &mut active, &mut preempted);
        if inner.shutdown.load(Ordering::Acquire) {
            break;
        }
        // Retire cancellations requested since the last step, before
        // spending a step on them. A sequence cancelled between prefill
        // chunks retires here too: its lease goes back to the pool at
        // the step boundary, mid-prompt.
        retire_cancelled(inner, &mut active);
        if active.is_empty() {
            continue;
        }

        {
            let mut stats = inner.stats.lock();
            stats.steps += 1;
            stats.occupancy_sum += active.len() as u64;
            let depth = inner.queue.lock().len() as u64;
            stats.queue_depth_sum += depth;
            stats.peak_queue_depth = stats.peak_queue_depth.max(depth);
        }

        step(inner, &mut active, &mut preempted);
    }
    drain(inner, active, preempted);
}

/// Sheds queued requests whose predicted slack is negative (policy
/// permitting). Runs inside the admission loop, before leases are
/// taken, so shed requests never touch the pool or the engine.
fn shed_pass(
    inner: &ServerInner,
    policy: &SloPolicy,
    queue: &mut VecDeque<Queued>,
    active_len: usize,
) {
    if !policy.shed || queue.is_empty() {
        return;
    }
    let service = inner.service_estimate_ns();
    if service == 0 {
        // No latency evidence yet: the predictor cannot justify
        // discarding work.
        return;
    }
    // Examine in admission order so each request's `queued_ahead` is
    // its actual position among the competition.
    let mut order: Vec<usize> = (0..queue.len()).collect();
    order.sort_by_key(|&i| (queue[i].req.class.priority(), queue[i].seq_no));
    let mut to_shed: Vec<(usize, i64)> = Vec::new();
    for (pos, &i) in order.iter().enumerate() {
        let q = &queue[i];
        let class = q.req.class;
        let inputs = SlackInputs {
            service_estimate_ns: service,
            active: active_len,
            max_batch: inner.cfg.max_batch,
            queued_ahead: pos,
            waited_ns: q.enqueued_at.elapsed().as_nanos() as u64,
        };
        let slack = slo::slack_ns(policy.target(class), slo::predicted_ttft_ns(&inputs));
        if slo::shed_decision(policy, class, slack) {
            to_shed.push((i, slack));
        }
    }
    // Remove back to front so earlier indices stay valid.
    to_shed.sort_unstable_by_key(|s| std::cmp::Reverse(s.0));
    for (i, slack) in to_shed {
        let q = queue.remove(i).expect("index in bounds");
        kt_trace::instant(
            SpanKind::ServeShed,
            q.req.class.index() as u32,
            ((-slack) as u64 / 1_000).min(u32::MAX as u64) as u32,
        );
        inner.resolve_queued(q, RequestOutcome::Shed);
    }
}

/// Admits queued requests while the batch has room; blocks when there
/// is nothing to do at all. With an SLO policy, admission picks the
/// earliest request of the most urgent class (FIFO within a class)
/// and sheds negative-slack lower-class work first. Preempted
/// sequences resume ahead of new admissions: they already consumed
/// queue wait and prefill, so re-admitting fresh work over them would
/// invert the priority order that chose them as victims.
fn admit(inner: &ServerInner, active: &mut Vec<ActiveSeq>, preempted: &mut Vec<PreemptedSeq>) {
    let priority_aware = inner.cfg.slo.is_some();
    loop {
        let mut queue = inner.queue.lock();
        // Resolve cancellations anywhere in the queue — with priority
        // admission the front is not necessarily next, so the whole
        // queue is scanned. The queue wait still counts toward the
        // histograms.
        let mut i = 0;
        while i < queue.len() {
            if queue[i].slot.cancel_requested() {
                let q = queue.remove(i).expect("index in bounds");
                inner.resolve_queued(q, RequestOutcome::Cancelled);
            } else {
                i += 1;
            }
        }
        // Cancellations among the preempted, same contract.
        let mut i = 0;
        while i < preempted.len() {
            if preempted[i].st.slot.cancel_requested() {
                preempted
                    .remove(i)
                    .resolve(RequestOutcome::Cancelled, inner);
            } else {
                i += 1;
            }
        }
        if let Some(policy) = &inner.cfg.slo {
            shed_pass(inner, policy, &mut queue, active.len());
        }
        resume_preempted(inner, active, preempted);
        while !queue.is_empty() && active.len() < inner.cfg.max_batch {
            let keys: Vec<(usize, u64)> = queue
                .iter()
                .map(|q| (q.req.class.priority(), q.seq_no))
                .collect();
            let pick = sched::pick_next(&keys, priority_aware).expect("queue non-empty");
            let Some((mut lease, mut seeded)) =
                inner.pool.lease_for_prompt(&queue[pick].req.prompt)
            else {
                break;
            };
            // Belt and braces: a seeded cache must look exactly like a
            // partially prefilled one to the engine. If it does not,
            // fall back to a cold prefill rather than feed the batch a
            // corrupt cache.
            if seeded > 0 && inner.engine.validate_cache(&lease.cache).is_err() {
                lease.cache.reset();
                seeded = 0;
            }
            let q = queue.remove(pick).expect("pick in bounds");
            let queue_wait_ns = q.enqueued_at.elapsed().as_nanos() as u64;
            let ctx = TraceCtx::for_request(q.id());
            kt_trace::instant(
                SpanKind::ServeAdmit,
                ctx.tag(),
                (queue_wait_ns / 1_000).min(u32::MAX as u64) as u32,
            );
            let trace = kt_trace::enabled().then(|| {
                let mut t = Box::new(RequestTrace::begin(
                    q.id(),
                    q.req.class.index() as u32,
                    q.enqueued_ns,
                ));
                t.admitted(kt_trace::now_ns());
                t
            });
            active.push(ActiveSeq {
                st: SeqState {
                    slot: q.slot,
                    rng: StdRng::seed_from_u64(q.req.seed),
                    req: q.req,
                    prefilled: seeded,
                    next_token: None,
                    tokens: Vec::new(),
                    metrics: RequestMetrics {
                        queue_wait_ns,
                        ..Default::default()
                    },
                    admitted_at: Instant::now(),
                    last_token_at: None,
                    ctx,
                    trace,
                    admit_seq: q.seq_no,
                },
                lease,
            });
        }
        // Park only when fully idle; otherwise go run a step.
        if !active.is_empty() || inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Fully idle, yet the next preempted sequence did not get back
        // in. With no lease out, every page is free or held only by the
        // prefix index, so the page valve's reach covered the whole
        // pool and a refusal means the swapped rows exceed it: fail the
        // sequence rather than wedge the scheduler. Submit-time
        // validation makes this a guard — each request was charged the
        // rows admission (and so resumption) needs, which is also why a
        // queued request always gets in here.
        if let Some(i) = next_resume(preempted) {
            preempted.remove(i).resolve(
                RequestOutcome::Failed {
                    error: "KV page pool too small to resume preempted sequence".into(),
                },
                inner,
            );
            continue;
        }
        inner.wakeup.wait(&mut queue);
    }
}

/// Index of the next preempted sequence to resume: most urgent class
/// first, earliest admission within it — the mirror of victim
/// selection, so the last sequence preempted is the first back in.
fn next_resume(preempted: &[PreemptedSeq]) -> Option<usize> {
    preempted
        .iter()
        .enumerate()
        .min_by_key(|(_, p)| (p.st.req.class.priority(), p.st.admit_seq))
        .map(|(i, _)| i)
}

/// Resumes preempted sequences while batch slots and pages allow, in
/// [`next_resume`] order: the swapped rows restore bit-for-bit into a
/// fresh lease and the sequence continues exactly where it stopped.
/// Stops at the first sequence that does not fit — resuming a smaller,
/// less urgent one instead would starve it.
fn resume_preempted(
    inner: &ServerInner,
    active: &mut Vec<ActiveSeq>,
    preempted: &mut Vec<PreemptedSeq>,
) {
    while active.len() < inner.cfg.max_batch {
        let Some(i) = next_resume(preempted) else {
            return;
        };
        let pages = inner.pool.pages_needed(preempted[i].swapped.rows());
        if !inner.pool.reclaim_pages(pages) {
            return;
        }
        let Some(mut lease) = inner.pool.lease() else {
            return;
        };
        let PreemptedSeq { st, swapped } = preempted.remove(i);
        {
            let _span = kt_trace::span_ab(
                SpanKind::KvSwapIn,
                st.ctx.tag(),
                (swapped.bytes() / 1024).min(u32::MAX as usize) as u32,
            );
            swapped
                .restore(&mut lease.cache)
                .expect("swap-in restores into a fresh lease of the same shape");
        }
        inner.stats.lock().kv_pages_swapped -= pages as u64;
        active.push(ActiveSeq { st, lease });
    }
}

fn retire_cancelled(inner: &ServerInner, active: &mut Vec<ActiveSeq>) {
    let mut i = 0;
    while i < active.len() {
        if active[i].st.slot.cancel_requested() {
            // Order-preserving removal keeps the surviving batch
            // composition deterministic.
            active.remove(i).resolve(RequestOutcome::Cancelled, inner);
        } else {
            i += 1;
        }
    }
}

/// Composes the step under the token budget via the pure
/// [`sched::compose_plan`]: every decode row first (one token each,
/// always admitted), then pending prefill chunks — in admission order
/// for FIFO, in (class priority, admission) order with at-risk ITL
/// throttling under an SLO policy. Returns one slot per active
/// sequence; `None` idles the sequence this step.
fn compose(inner: &ServerInner, active: &[ActiveSeq]) -> Vec<Option<PlanWork>> {
    let policy = inner.cfg.slo.as_ref();
    let views: Vec<SeqView> = active
        .iter()
        .map(|ActiveSeq { st, .. }| {
            let prompt_remaining = st.req.prompt.len() - st.prefilled;
            // A decode row is at risk when more than half its ITL
            // target has already elapsed since its last token — the
            // next step must stay short or the target is gone.
            let at_risk = policy.is_some_and(|p| {
                prompt_remaining == 0
                    && st.last_token_at.is_some_and(|t| {
                        (t.elapsed().as_nanos() as u64).saturating_mul(2)
                            > p.target(st.req.class).itl_ns
                    })
            });
            SeqView {
                prompt_remaining,
                priority: policy.map_or(0, |_| st.req.class.priority()),
                at_risk,
            }
        })
        .collect();
    let cfg = ComposeCfg {
        prefill_chunk: inner.cfg.prefill_chunk,
        step_token_budget: inner.cfg.step_token_budget,
        priority_aware: policy.is_some(),
    };
    sched::compose_plan(&cfg, &views)
}

/// Pauses one sequence under page pressure: captures its rows to the
/// host tier, releases the lease (its uniquely owned pages return to
/// the allocator), and parks its unchanged state on the preempted list.
fn preempt_seq(inner: &ServerInner, seq: ActiveSeq, preempted: &mut Vec<PreemptedSeq>) {
    let ActiveSeq { st, lease } = seq;
    let rows = lease.cache.seq_len();
    kt_trace::instant(SpanKind::ServePreempt, st.ctx.tag(), rows as u32);
    let swapped = {
        let _span = kt_trace::span_ab(
            SpanKind::KvSwapOut,
            st.ctx.tag(),
            (lease.cache.bytes() / 1024).min(u32::MAX as usize) as u32,
        );
        SwappedKv::capture(&lease.cache)
    };
    {
        let mut stats = inner.stats.lock();
        stats.preempt_swap += 1;
        stats.kv_pages_swapped += inner.pool.pages_needed(rows) as u64;
    }
    // Plain release — NOT release_with_prefix: freezing the victim's
    // rows into the prefix index would keep its pages resident, and
    // the whole point is giving them back.
    let _ = inner.pool.release(lease);
    preempted.push(PreemptedSeq { st, swapped });
}

/// Frees pages until the composed plan's KV growth fits. The prefix
/// index gives pages back first, least-recently-touched leaf first
/// ([`KvCachePool::reclaim_pages`]); only what it cannot cover preempts
/// victims — least-urgent-class-first, newest admission first, always
/// keeping at least one survivor. Returns the (re)made plan for the
/// surviving batch.
fn relieve_pressure(
    inner: &ServerInner,
    active: &mut Vec<ActiveSeq>,
    preempted: &mut Vec<PreemptedSeq>,
) -> Vec<Option<PlanWork>> {
    let mut plan = compose(inner, active);
    loop {
        let needed: usize = plan
            .iter()
            .zip(active.iter())
            .filter_map(|(work, seq)| {
                work.map(|w| {
                    inner
                        .pool
                        .pages_needed_growth(seq.lease.cache.seq_len(), w.tokens())
                })
            })
            .sum();
        // One survivor still short runs anyway: a genuine overflow
        // fails the batch, which the submit-time page validation makes
        // unreachable.
        if inner.pool.reclaim_pages(needed) || active.len() <= 1 {
            return plan;
        }
        let views: Vec<VictimView> = active
            .iter()
            .map(|s| VictimView {
                priority: s.st.req.class.priority(),
                admit_seq: s.st.admit_seq,
            })
            .collect();
        let i = preempt::select_victim(&views).expect("active non-empty");
        let victim = active.remove(i);
        preempt_seq(inner, victim, preempted);
        plan = compose(inner, active);
    }
}

/// Runs one batched engine step over the composed plan and
/// post-processes every scheduled sequence.
fn step(inner: &ServerInner, active: &mut Vec<ActiveSeq>, preempted: &mut Vec<PreemptedSeq>) {
    let plan = relieve_pressure(inner, active, preempted);
    let step_tokens: usize = plan.iter().flatten().map(|w| w.tokens()).sum();
    let scheduled_seqs = plan.iter().flatten().count();
    let _span = kt_trace::span_ab(
        SpanKind::ServeStep,
        scheduled_seqs as u32,
        step_tokens as u32,
    );

    // Build the batch from the scheduled sequences; `scheduled[b]` maps
    // batch slot `b` back to its index in `active`.
    let mut scheduled: Vec<usize> = Vec::with_capacity(active.len());
    let mut batch: Vec<BatchSeq> = Vec::with_capacity(active.len());
    for (i, (seq, work)) in active.iter_mut().zip(&plan).enumerate() {
        let Some(work) = *work else { continue };
        let st = &seq.st;
        let cache = std::mem::take(&mut seq.lease.cache);
        let row = match work {
            PlanWork::Decode => BatchSeq::decode(
                cache,
                st.next_token
                    .expect("active sequence past prefill holds its next token"),
            ),
            PlanWork::Chunk { len, last } => {
                let chunk = st.req.prompt[st.prefilled..st.prefilled + len].to_vec();
                if last {
                    // Only the newest position samples.
                    BatchSeq::prefill_last(cache, chunk)
                } else {
                    BatchSeq::prefill_chunk(cache, chunk)
                }
            }
        };
        batch.push(row.with_tag(st.ctx.tag()));
        scheduled.push(i);
    }
    debug_assert!(!batch.is_empty(), "compose schedules at least one sequence");

    // Attribution snapshots bracket the forward: the per-kind phase
    // deltas across it, mapped through `step_components`, decompose
    // this step's wall time for every traced request riding in it.
    let attrib =
        kt_trace::enabled().then(|| (kt_trace::now_ns(), kt_trace::sink().phase_snapshot()));
    let result = inner.engine.forward_batch(&mut batch);
    // Caches come back even on error; return them to their leases.
    for (&i, slot) in scheduled.iter().zip(batch.iter_mut()) {
        active[i].lease.cache = std::mem::take(&mut slot.cache);
    }
    if let Some((start_ns, before)) = attrib {
        let wall_ns = kt_trace::now_ns().saturating_sub(start_ns);
        let after = kt_trace::sink().phase_snapshot();
        let mut deltas = [0u64; N_SPAN_KINDS];
        for (d, (a, b)) in deltas.iter_mut().zip(after.iter().zip(before.iter())) {
            *d = a.saturating_sub(*b);
        }
        let (components, cpu_busy_ns) = step_components(&deltas, wall_ns);
        for (seq, work) in active.iter_mut().zip(&plan) {
            let st = &mut seq.st;
            let Some(trace) = st.trace.as_mut() else {
                continue;
            };
            // Scheduled sequences experienced the whole step (batched
            // rows share every phase), so each gets the full step
            // attribution; sequences left out of this step aged a
            // whole step without progress — that wall time is queue
            // wait from their point of view.
            match *work {
                Some(PlanWork::Chunk { len, last }) => trace.push_step(StepTrace::prefill(
                    trace.steps_total,
                    start_ns,
                    wall_ns,
                    len as u32,
                    last,
                )),
                Some(PlanWork::Decode) => trace.push_step(StepTrace::decode(
                    trace.steps_total,
                    start_ns,
                    wall_ns,
                    components,
                    cpu_busy_ns,
                )),
                None => trace.add_idle(wall_ns),
            }
            st.ctx.step = trace.steps_total;
        }
    }

    match result {
        Ok(logits) => {
            // Pass 1: advance every scheduled sequence in batch order.
            // The pairing between `scheduled`/`logits` must not shift
            // mid-iteration, so no removal happens here; finished
            // sequences are retired in pass 2.
            for (&i, l) in scheduled.iter().zip(logits) {
                let st = &mut active[i].st;
                match plan[i].expect("scheduled implies planned") {
                    PlanWork::Chunk { len, last } => {
                        st.prefilled += len;
                        kt_trace::instant(SpanKind::ServePrefillChunk, len as u32, st.ctx.tag());
                        {
                            let mut stats = inner.stats.lock();
                            stats.prefill_chunks += 1;
                            stats.prefill_tokens += len as u64;
                        }
                        if last {
                            sample_next(inner, st, l.expect("final chunk requested logits"));
                        } else {
                            debug_assert!(l.is_none(), "mid-chunk produces no logits");
                        }
                    }
                    PlanWork::Decode => {
                        sample_next(inner, st, l.expect("decode row requested logits"));
                    }
                }
            }
            // Pass 2: retire finished sequences, preserving the order
            // of survivors so the batch composition stays a
            // deterministic function of admission order.
            let mut i = 0;
            while i < active.len() {
                if active[i].st.is_done() {
                    active.remove(i).resolve(RequestOutcome::Completed, inner);
                } else {
                    i += 1;
                }
            }
        }
        Err(e) => {
            // A step error poisons the whole batch: every in-flight
            // request fails (but still resolves), caches go back to
            // the pool (release resets them).
            let error = e.to_string();
            for seq in active.drain(..) {
                seq.resolve(
                    RequestOutcome::Failed {
                        error: error.clone(),
                    },
                    inner,
                );
            }
        }
    }
}

/// Samples the sequence's next token from the step's logits (last row:
/// the newest position) and applies stop-token/length policy.
fn sample_next(inner: &ServerInner, seq: &mut SeqState, l: Matrix) {
    let next = seq.req.sampler.sample(l.row(l.rows() - 1), &mut seq.rng);
    // Sampled — hand the logits buffer back to the engine's step arena
    // for the next batch.
    inner.engine.recycle_logits(l);
    let now = Instant::now();
    match seq.last_token_at {
        None => {
            seq.metrics.ttft_ns = Some(now.duration_since(seq.admitted_at).as_nanos() as u64);
        }
        Some(prev) => {
            seq.metrics
                .token_latencies_ns
                .push(now.duration_since(prev).as_nanos() as u64);
        }
    }
    seq.last_token_at = Some(now);
    seq.tokens.push(next);
    inner.stats.lock().tokens_generated += 1;

    let hit_stop = seq.req.stop_token == Some(next);
    let hit_len = seq.tokens.len() >= seq.req.max_new;
    seq.next_token = if hit_stop || hit_len {
        None
    } else {
        Some(next)
    };
}

/// Resolves everything left at shutdown as cancelled.
fn drain(inner: &ServerInner, active: Vec<ActiveSeq>, preempted: Vec<PreemptedSeq>) {
    for seq in active {
        seq.resolve(RequestOutcome::Cancelled, inner);
    }
    for p in preempted {
        p.resolve(RequestOutcome::Cancelled, inner);
    }
    let leftovers: Vec<Queued> = inner.queue.lock().drain(..).collect();
    for q in leftovers {
        inner.resolve_queued(q, RequestOutcome::Cancelled);
    }
}
