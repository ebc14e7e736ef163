//! Lock-free per-thread span recording.
//!
//! The design target is a hot path that costs **one relaxed atomic
//! load** when tracing is disabled: every instrumentation point calls
//! [`enabled`] first and constructs nothing when it returns false.
//! When tracing is on, each thread records spans into its own
//! fixed-capacity ring buffer ([`Ring`]) registered with a process-wide
//! [`TraceSink`]; recording takes no locks and allocates nothing.
//!
//! Each ring is single-producer (the owning thread) / any-consumer
//! (the exporter). Slots use a per-slot seqlock — the writer marks the
//! slot odd while overwriting and stamps it with the span index when
//! done — so the exporter can snapshot a live ring without stopping
//! writers and discard exactly the slots that were mid-overwrite. The
//! ring keeps the newest `capacity` spans; older spans are overwritten.
//!
//! Tracks: every registered ring gets a unique *track* id (one track
//! per worker thread in the exported timeline), and a reserved id range
//! starting at [`STREAM_TRACK_BASE`] maps virtual-GPU streams to their
//! own tracks, so CPU/GPU overlap is visible even though every stream
//! op executes on the thread that drains the stream.

use std::cell::RefCell;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Spans each ring holds before overwriting the oldest (per thread).
pub const DEFAULT_RING_SPANS: usize = 1 << 15;

/// First track id reserved for virtual-GPU streams (stream `s` maps to
/// `STREAM_TRACK_BASE + s`). Thread tracks are assigned from 1 upward
/// and never reach this range.
pub const STREAM_TRACK_BASE: u32 = 1 << 30;

/// Track id of virtual-GPU stream `stream`.
pub fn stream_track(stream: usize) -> u32 {
    STREAM_TRACK_BASE + stream as u32
}

/// What a span measures. The `a`/`b` labels carried alongside are
/// kind-specific: layer index for engine phases, batch geometry for
/// scheduler spans, byte counts for arena events (see each variant).
#[repr(u32)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One whole engine step (`a` = new tokens, `b` = sequences).
    EngineStep = 0,
    /// Embedding lookup + step workspace turnover.
    Embed,
    /// Per-layer attention (+ dense MLP on dense layers); `a` = layer.
    Attention,
    /// Router gating inside the submit callback; `a` = layer.
    Gating,
    /// The submit host callback: routing, deferral split, CPU task
    /// enqueue; `a` = layer.
    ExpertDispatch,
    /// Immediate routed-expert execution on a CPU worker; `a` = layer.
    CpuExpertImmediate,
    /// Deferred routed-expert execution on a CPU worker; `a` = layer.
    CpuExpertDeferred,
    /// Shared experts (+ GPU-pinned routed experts); `a` = layer.
    SharedExperts,
    /// The merge kernel's spin-wait on CPU completion; `a` = layer.
    MergeSpin,
    /// Scatter-add of immediate expert output into the residual
    /// stream; `a` = layer.
    ScatterAdd,
    /// Fold of the *previous* MoE layer's deferred output (§4.1);
    /// `a` = the layer whose deferred output is flushed.
    DeferralFlush,
    /// Final norm + LM head GEMMs (`a` = logits rows).
    LmHead,
    /// Simulated launch latency on a vGPU stream track.
    VgpuLaunch,
    /// Kernel-op execution on a vGPU stream track.
    VgpuKernel,
    /// Host-func execution on a vGPU stream track (§3.3 callbacks).
    VgpuHostFunc,
    /// Graph replay submission (instant; `b` = ops in the graph).
    VgpuGraphReplay,
    /// One scheduler step (`a` = scheduled sequences, `b` = tokens).
    ServeStep,
    /// Request admission (instant; `a` = request tag — the low 32 bits
    /// of the server-assigned request id — `b` = queue wait in µs,
    /// saturated).
    ServeAdmit,
    /// One prefill chunk fed through a step (`a` = chunk tokens,
    /// `b` = request tag).
    ServePrefillChunk,
    /// Fresh arena allocation (instant; `a` = bytes, saturated).
    ArenaAlloc,
    /// Prefix-cache lookup at admission (instant; `a` = prompt tokens,
    /// `b` = matched tokens).
    PrefixLookup,
    /// Seeding a lease from a prefix snapshot (`a` = seeded tokens,
    /// `b` = layers).
    PrefixSeed,
    /// Prefix-cache eviction (instant; `a` = bytes freed, saturated;
    /// `b` = segments evicted).
    PrefixEvict,
    /// A queued request shed by the admission controller (instant;
    /// `a` = SLO class index, `b` = negative predicted slack in µs,
    /// saturated).
    ServeShed,
    /// A resolved request that missed an SLO target (instant; `a` =
    /// SLO class index, `b` = 0 for a TTFT miss, 1 for an ITL miss).
    ServeSloViolation,
    /// Never recorded: every routed expert runs on the CPU backend.
    /// Kept because the frozen serving benchmark sums it.
    GpuExperts,
    /// A sequence's own share of the batched attention op (RoPE, cache
    /// append, attention kernel), emitted only for tagged
    /// (request-scoped) sequences and nested in its layer's
    /// `engine.attention` span; `a` = request tag (low 32 bits of the
    /// request id), `b` = the sequence's rows in the step.
    SeqAttention,
    /// A running sequence preempted by the scheduler under KV page
    /// pressure (instant; `a` = request tag, `b` = pages released).
    ServePreempt,
    /// A preempted sequence's KV pages copied to the swap tier;
    /// `a` = bytes (saturated), `b` = request tag.
    KvSwapOut,
    /// A swapped sequence's KV rows restored into a fresh lease;
    /// `a` = bytes (saturated), `b` = request tag.
    KvSwapIn,
}

/// Number of [`SpanKind`] variants (the phase table's size).
pub const N_SPAN_KINDS: usize = 30;

impl SpanKind {
    /// Stable display name (also the Chrome-trace event name).
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::EngineStep => "engine.step",
            SpanKind::Embed => "engine.embed",
            SpanKind::Attention => "engine.attention",
            SpanKind::Gating => "engine.gating",
            SpanKind::ExpertDispatch => "engine.dispatch",
            SpanKind::CpuExpertImmediate => "cpu.expert_immediate",
            SpanKind::CpuExpertDeferred => "cpu.expert_deferred",
            SpanKind::SharedExperts => "engine.shared_experts",
            SpanKind::MergeSpin => "engine.merge_spin",
            SpanKind::ScatterAdd => "engine.scatter_add",
            SpanKind::DeferralFlush => "engine.deferral_flush",
            SpanKind::LmHead => "engine.lm_head",
            SpanKind::VgpuLaunch => "vgpu.launch",
            SpanKind::VgpuKernel => "vgpu.kernel",
            SpanKind::VgpuHostFunc => "vgpu.host_func",
            SpanKind::VgpuGraphReplay => "vgpu.graph_replay",
            SpanKind::ServeStep => "serve.step",
            SpanKind::ServeAdmit => "serve.admit",
            SpanKind::ServePrefillChunk => "serve.prefill_chunk",
            SpanKind::ArenaAlloc => "arena.alloc",
            SpanKind::PrefixLookup => "prefix.lookup",
            SpanKind::PrefixSeed => "prefix.seed",
            SpanKind::PrefixEvict => "prefix.evict",
            SpanKind::ServeShed => "serve.shed",
            SpanKind::ServeSloViolation => "serve.slo_violation",
            SpanKind::GpuExperts => "engine.gpu_experts",
            SpanKind::SeqAttention => "engine.seq_attention",
            SpanKind::ServePreempt => "serve.preempt",
            SpanKind::KvSwapOut => "kv.swap_out",
            SpanKind::KvSwapIn => "kv.swap_in",
        }
    }

    /// Every span kind, in `repr` order (index = `kind as usize`).
    pub const ALL: [SpanKind; N_SPAN_KINDS] = [
        SpanKind::EngineStep,
        SpanKind::Embed,
        SpanKind::Attention,
        SpanKind::Gating,
        SpanKind::ExpertDispatch,
        SpanKind::CpuExpertImmediate,
        SpanKind::CpuExpertDeferred,
        SpanKind::SharedExperts,
        SpanKind::MergeSpin,
        SpanKind::ScatterAdd,
        SpanKind::DeferralFlush,
        SpanKind::LmHead,
        SpanKind::VgpuLaunch,
        SpanKind::VgpuKernel,
        SpanKind::VgpuHostFunc,
        SpanKind::VgpuGraphReplay,
        SpanKind::ServeStep,
        SpanKind::ServeAdmit,
        SpanKind::ServePrefillChunk,
        SpanKind::ArenaAlloc,
        SpanKind::PrefixLookup,
        SpanKind::PrefixSeed,
        SpanKind::PrefixEvict,
        SpanKind::ServeShed,
        SpanKind::ServeSloViolation,
        SpanKind::GpuExperts,
        SpanKind::SeqAttention,
        SpanKind::ServePreempt,
        SpanKind::KvSwapOut,
        SpanKind::KvSwapIn,
    ];

    fn from_u32(v: u32) -> Option<SpanKind> {
        SpanKind::ALL.get(v as usize).copied()
    }
}

/// One recorded span, decoded from a ring slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the span measures.
    pub kind: SpanKind,
    /// Track the span renders on (thread track or stream track).
    pub track: u32,
    /// Start, nanoseconds since the sink's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 = instant event).
    pub dur_ns: u64,
    /// Kind-specific label (see [`SpanKind`]).
    pub a: u32,
    /// Kind-specific label (see [`SpanKind`]).
    pub b: u32,
}

impl Span {
    /// End timestamp, nanoseconds since the sink's epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    /// Whether two spans overlap in time (half-open intervals).
    pub fn overlaps(&self, other: &Span) -> bool {
        self.start_ns < other.end_ns() && other.start_ns < self.end_ns()
    }
}

/// One ring slot: a seqlock word plus the packed span payload
/// (`kind|track`, `start_ns`, `dur_ns`, `a|b`).
///
/// `seq` is `2*i + 1` while span `i` is being written and `2*i + 2`
/// once it is complete, so a reader can both detect torn reads and
/// verify *which* span the slot holds.
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; 4],
}

/// A single-producer span ring buffer bound to one track.
///
/// `record` must only be called by the owning thread (the one the ring
/// was registered for); concurrent writers would interleave slots and
/// lose spans, though never corrupt memory. Snapshots may run from any
/// thread at any time.
pub struct Ring {
    track: u32,
    name: String,
    slots: Box<[Slot]>,
    /// Completed spans ever recorded (monotonic; slot = index % cap).
    head: AtomicU64,
}

impl Ring {
    fn new(track: u32, name: String, capacity: usize) -> Ring {
        let slots: Box<[Slot]> = (0..capacity.max(1)).map(|_| Slot::default()).collect();
        Ring {
            track,
            name,
            slots,
            head: AtomicU64::new(0),
        }
    }

    /// Track this ring's spans render on by default.
    pub fn track(&self) -> u32 {
        self.track
    }

    /// Human-readable track name (usually the thread name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Completed spans ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Records one span. Single-producer: only the owning thread.
    pub fn record(
        &self,
        kind: SpanKind,
        track: Option<u32>,
        start_ns: u64,
        dur_ns: u64,
        a: u32,
        b: u32,
    ) {
        let i = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(i % self.slots.len() as u64) as usize];
        // Seqlock write: mark the slot odd (the Acquire swap keeps the
        // payload stores from floating above it), store the payload,
        // stamp the slot even with the span index, then publish.
        slot.seq.swap(2 * i + 1, Ordering::Acquire);
        let track = track.unwrap_or(self.track);
        slot.words[0].store(
            (kind as u32 as u64) | ((track as u64) << 32),
            Ordering::Relaxed,
        );
        slot.words[1].store(start_ns, Ordering::Relaxed);
        slot.words[2].store(dur_ns, Ordering::Relaxed);
        slot.words[3].store((a as u64) | ((b as u64) << 32), Ordering::Relaxed);
        slot.seq.store(2 * i + 2, Ordering::Release);
        self.head.store(i + 1, Ordering::Release);
    }

    /// Copies every span still resident in the ring into `out`, oldest
    /// first. Spans mid-overwrite during the snapshot are skipped.
    fn snapshot_into(&self, out: &mut Vec<Span>) {
        let cap = self.slots.len() as u64;
        let head = self.head.load(Ordering::Acquire);
        for i in head.saturating_sub(cap)..head {
            let slot = &self.slots[(i % cap) as usize];
            if slot.seq.load(Ordering::Acquire) != 2 * i + 2 {
                continue;
            }
            let w: [u64; 4] = std::array::from_fn(|k| slot.words[k].load(Ordering::Relaxed));
            // Seqlock validation: the payload loads must settle before
            // the stamp is re-checked (same fence crossbeam's seqlock
            // readers use).
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != 2 * i + 2 {
                continue;
            }
            let Some(kind) = SpanKind::from_u32(w[0] as u32) else {
                continue;
            };
            out.push(Span {
                kind,
                track: (w[0] >> 32) as u32,
                start_ns: w[1],
                dur_ns: w[2],
                a: w[3] as u32,
                b: (w[3] >> 32) as u32,
            });
        }
    }
}

/// Everything a snapshot captured: spans (grouped by ring, oldest first
/// within each ring) and the track-id → name table.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Recorded spans, per-ring order preserved.
    pub spans: Vec<Span>,
    /// `(track id, display name)` pairs, registration order.
    pub tracks: Vec<(u32, String)>,
}

/// The span registry: an enabled flag, the shared timebase, and every
/// ring registered by a recording thread.
///
/// Most code uses the process-global instance via [`sink`] and the
/// free functions ([`span`], [`instant`], [`record_on`]); constructing
/// standalone sinks is for tests that need isolated registries.
pub struct TraceSink {
    enabled: AtomicBool,
    epoch: Instant,
    next_thread_track: AtomicU32,
    rings: Mutex<Vec<Arc<Ring>>>,
    /// Names for tracks without a ring of their own (vGPU streams).
    extra_tracks: Mutex<Vec<(u32, String)>>,
    /// Cumulative span-kind durations in nanoseconds, indexed by
    /// [`SpanKind`]. Fed by every armed [`SpanGuard`] on drop; readers
    /// difference two [`TraceSink::phase_snapshot`]s around a region to
    /// get per-kind time spent inside it (the per-step latency
    /// attribution in `kt-serve` is built on exactly that).
    phases: [AtomicU64; N_SPAN_KINDS],
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new()
    }
}

impl TraceSink {
    /// Creates an empty, disabled sink with its epoch at "now".
    pub fn new() -> TraceSink {
        TraceSink {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_thread_track: AtomicU32::new(1),
            rings: Mutex::new(Vec::new()),
            extra_tracks: Mutex::new(Vec::new()),
            phases: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Turns recording on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns recording off. Already-recorded spans stay exportable.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether recording is on (one relaxed load — the disabled-path
    /// cost of every instrumentation point).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this sink's epoch (the shared timebase all
    /// spans are stamped in).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Registers a new ring on the next free thread track.
    pub fn register_ring(&self, name: &str) -> Arc<Ring> {
        self.register_ring_with_capacity(name, DEFAULT_RING_SPANS)
    }

    /// Registers a new ring holding at most `capacity` spans.
    pub fn register_ring_with_capacity(&self, name: &str, capacity: usize) -> Arc<Ring> {
        let track = self.next_thread_track.fetch_add(1, Ordering::Relaxed);
        let ring = Arc::new(Ring::new(track, name.to_string(), capacity));
        self.rings.lock().expect("ring registry").push(Arc::clone(&ring));
        ring
    }

    /// Names a track that has no ring of its own (vGPU stream tracks).
    /// Idempotent: renaming an already-named track is a no-op.
    pub fn name_track(&self, track: u32, name: &str) {
        let mut extra = self.extra_tracks.lock().expect("track names");
        if extra.iter().all(|(t, _)| *t != track) {
            extra.push((track, name.to_string()));
        }
    }

    /// Adds `dur_ns` to one span kind's cumulative phase time (called
    /// by every armed span guard on drop; one relaxed `fetch_add`).
    #[inline]
    pub fn add_phase(&self, kind: SpanKind, dur_ns: u64) {
        self.phases[kind as usize].fetch_add(dur_ns, Ordering::Relaxed);
    }

    /// Cumulative nanoseconds spent in spans of `kind` since process
    /// start (only windows where tracing was enabled accumulate).
    pub fn phase_ns(&self, kind: SpanKind) -> u64 {
        self.phases[kind as usize].load(Ordering::Relaxed)
    }

    /// Copies the whole phase table, [`SpanKind::ALL`] order. Two
    /// snapshots differenced around a region give per-kind time inside
    /// it; loads are relaxed, so concurrent writers may leak a few
    /// nanoseconds across the boundary — callers absorb that in their
    /// attribution tolerance.
    pub fn phase_snapshot(&self) -> [u64; N_SPAN_KINDS] {
        std::array::from_fn(|i| self.phases[i].load(Ordering::Relaxed))
    }

    /// Snapshots every ring (skipping slots mid-overwrite) plus the
    /// track-name table. Safe to call while threads keep recording.
    pub fn snapshot(&self) -> TraceSnapshot {
        let rings: Vec<Arc<Ring>> = self.rings.lock().expect("ring registry").clone();
        let mut spans = Vec::new();
        let mut tracks: Vec<(u32, String)> = Vec::new();
        for ring in &rings {
            ring.snapshot_into(&mut spans);
            tracks.push((ring.track(), ring.name().to_string()));
        }
        tracks.extend(self.extra_tracks.lock().expect("track names").iter().cloned());
        TraceSnapshot { spans, tracks }
    }

    /// Exports the current snapshot as Chrome-trace JSON (see
    /// [`crate::chrome::chrome_trace`]).
    pub fn export_chrome(&self) -> String {
        crate::chrome::chrome_trace(&self.snapshot())
    }
}

static GLOBAL: OnceLock<TraceSink> = OnceLock::new();

/// The process-global sink every instrumentation point records into.
pub fn sink() -> &'static TraceSink {
    GLOBAL.get_or_init(TraceSink::new)
}

/// Whether global tracing is on. The disabled path is one `OnceLock`
/// pointer read plus one relaxed bool load; before the sink is first
/// touched it is just the pointer read.
#[inline]
pub fn enabled() -> bool {
    GLOBAL.get().is_some_and(TraceSink::is_enabled)
}

/// Enables global tracing.
pub fn enable() {
    sink().enable();
}

/// Disables global tracing (recorded spans stay exportable).
pub fn disable() {
    sink().disable();
}

/// Enables global tracing when the `KT_TRACE` environment variable is
/// set to `1`, `true`, or `on` (the serving/engine construction paths
/// call this, so any run can be traced without code changes).
pub fn enable_from_env() {
    if let Some(v) = std::env::var_os("KT_TRACE") {
        if matches!(v.to_str(), Some("1") | Some("true") | Some("on")) {
            enable();
        }
    }
}

thread_local! {
    /// The calling thread's ring, registered on first record.
    static THREAD_RING: RefCell<Option<Arc<Ring>>> = const { RefCell::new(None) };
}

fn with_thread_ring(f: impl FnOnce(&Ring)) {
    THREAD_RING.with(|cell| {
        let mut slot = cell.borrow_mut();
        let ring = slot.get_or_insert_with(|| {
            let current = std::thread::current();
            let name = current
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("{:?}", current.id()));
            sink().register_ring(&name)
        });
        f(ring);
    });
}

/// An in-flight span: records on drop. Construct via [`span`] /
/// [`span_ab`]; when tracing is disabled the guard is inert and the
/// constructor touched no clock.
#[must_use = "the span measures until the guard drops"]
pub struct SpanGuard {
    kind: SpanKind,
    start_ns: u64,
    a: u32,
    b: u32,
    armed: bool,
}

impl SpanGuard {
    /// Updates the labels after construction (e.g. once a count is
    /// known at the end of the measured region).
    pub fn set_labels(&mut self, a: u32, b: u32) {
        self.a = a;
        self.b = b;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end = sink().now_ns();
        let dur = end.saturating_sub(self.start_ns);
        sink().add_phase(self.kind, dur);
        with_thread_ring(|r| {
            r.record(self.kind, None, self.start_ns, dur, self.a, self.b);
        });
    }
}

/// Opens a span of `kind` on the calling thread's track.
#[inline]
pub fn span(kind: SpanKind) -> SpanGuard {
    span_ab(kind, 0, 0)
}

/// Opens a labelled span of `kind` on the calling thread's track.
#[inline]
pub fn span_ab(kind: SpanKind, a: u32, b: u32) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            kind,
            start_ns: 0,
            a,
            b,
            armed: false,
        };
    }
    SpanGuard {
        kind,
        start_ns: sink().now_ns(),
        a,
        b,
        armed: true,
    }
}

/// Records a zero-duration event on the calling thread's track.
#[inline]
pub fn instant(kind: SpanKind, a: u32, b: u32) {
    if !enabled() {
        return;
    }
    let t = sink().now_ns();
    with_thread_ring(|r| r.record(kind, None, t, 0, a, b));
}

/// Records a completed span onto an explicit track (the vGPU device
/// thread uses this to place op spans on per-stream tracks).
#[inline]
pub fn record_on(track: u32, kind: SpanKind, start_ns: u64, dur_ns: u64, a: u32, b: u32) {
    if !enabled() {
        return;
    }
    with_thread_ring(|r| r.record(kind, Some(track), start_ns, dur_ns, a, b));
}

/// Nanoseconds since the global sink's epoch.
#[inline]
pub fn now_ns() -> u64 {
    sink().now_ns()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_records_and_snapshots_in_order() {
        let sink = TraceSink::new();
        let ring = sink.register_ring("t0");
        for i in 0..10u32 {
            ring.record(SpanKind::Attention, None, i as u64 * 100, 50, i, 7);
        }
        let snap = sink.snapshot();
        assert_eq!(snap.spans.len(), 10);
        for (i, s) in snap.spans.iter().enumerate() {
            assert_eq!(s.kind, SpanKind::Attention);
            assert_eq!(s.a, i as u32);
            assert_eq!(s.b, 7);
            assert_eq!(s.start_ns, i as u64 * 100);
            assert_eq!(s.dur_ns, 50);
            assert_eq!(s.track, ring.track());
        }
        assert_eq!(snap.tracks, vec![(ring.track(), "t0".to_string())]);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let sink = TraceSink::new();
        let ring = sink.register_ring_with_capacity("t0", 8);
        for i in 0..20u32 {
            ring.record(SpanKind::Embed, None, i as u64, 0, i, 0);
        }
        let snap = sink.snapshot();
        assert_eq!(snap.spans.len(), 8);
        let labels: Vec<u32> = snap.spans.iter().map(|s| s.a).collect();
        assert_eq!(labels, (12..20).collect::<Vec<u32>>(), "newest 8 survive");
        assert_eq!(ring.recorded(), 20);
    }

    #[test]
    fn track_override_and_stream_tracks() {
        let sink = TraceSink::new();
        let ring = sink.register_ring("device");
        sink.name_track(stream_track(1), "vGPU stream 1");
        sink.name_track(stream_track(1), "renamed"); // idempotent
        ring.record(SpanKind::VgpuKernel, Some(stream_track(1)), 5, 10, 0, 0);
        let snap = sink.snapshot();
        assert_eq!(snap.spans[0].track, stream_track(1));
        assert!(snap
            .tracks
            .contains(&(stream_track(1), "vGPU stream 1".to_string())));
        assert!(stream_track(0) > 1_000_000, "reserved range is disjoint");
    }

    #[test]
    fn span_overlap_predicate() {
        let s = |start: u64, dur: u64| Span {
            kind: SpanKind::EngineStep,
            track: 1,
            start_ns: start,
            dur_ns: dur,
            a: 0,
            b: 0,
        };
        assert!(s(0, 10).overlaps(&s(5, 10)));
        assert!(s(5, 10).overlaps(&s(0, 10)));
        assert!(!s(0, 10).overlaps(&s(10, 10)), "half-open: touching is not overlap");
        assert!(s(0, 100).overlaps(&s(40, 1)));
    }

    #[test]
    fn span_kind_all_round_trips_repr() {
        assert_eq!(SpanKind::ALL.len(), N_SPAN_KINDS);
        for (i, &k) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(k as usize, i, "{} repr out of order", k.as_str());
            assert_eq!(SpanKind::from_u32(i as u32), Some(k));
        }
        assert_eq!(SpanKind::from_u32(N_SPAN_KINDS as u32), None);
    }

    #[test]
    fn phase_table_accumulates_per_kind() {
        let sink = TraceSink::new();
        sink.add_phase(SpanKind::Attention, 100);
        sink.add_phase(SpanKind::Attention, 50);
        sink.add_phase(SpanKind::LmHead, 7);
        assert_eq!(sink.phase_ns(SpanKind::Attention), 150);
        assert_eq!(sink.phase_ns(SpanKind::LmHead), 7);
        assert_eq!(sink.phase_ns(SpanKind::Embed), 0);
        let snap = sink.phase_snapshot();
        assert_eq!(snap[SpanKind::Attention as usize], 150);
        assert_eq!(snap[SpanKind::LmHead as usize], 7);
    }

    #[test]
    fn disabled_guard_records_nothing() {
        // The global sink starts disabled; guards must be inert.
        assert!(!enabled() || sink().is_enabled());
        let before = sink().snapshot().spans.len();
        if !sink().is_enabled() {
            drop(span(SpanKind::Embed));
            instant(SpanKind::ArenaAlloc, 1, 2);
            assert_eq!(sink().snapshot().spans.len(), before);
        }
    }
}
