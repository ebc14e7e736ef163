//! Observability for the KTransformers reproduction.
//!
//! The paper's headline claims are latency *decompositions* — Figure
//! 4's launch-overhead breakdown, §3.3's CPU/GPU overlap, Figure 10's
//! prefill/decode split. This crate provides the instrumentation layer
//! that makes those decompositions observable in our own runs:
//!
//! * [`sink`](mod@sink) — lock-free per-thread span recording behind a global
//!   enabled flag. A disabled instrumentation point costs one relaxed
//!   atomic load; an enabled one records into the calling thread's ring
//!   buffer without locks or allocation. Spans carry a phase
//!   ([`SpanKind`]), a track (worker thread or vGPU stream), and two
//!   kind-specific labels (layer, sequence count, bytes, …).
//! * [`chrome`] — a Chrome-trace-format (Perfetto JSON) exporter: a
//!   serving run with tracing enabled produces a timeline loadable in
//!   <https://ui.perfetto.dev>, with one row per worker thread and one
//!   per vGPU stream, so CPU expert execution visibly overlapping the
//!   GPU stream is an *artifact*, not an assertion.
//! * [`hist`] — [`LogHistogram`], a log₂-bucketed mergeable latency
//!   histogram with nearest-rank percentile queries and per-bucket
//!   [`Exemplar`]s; the serving layer and the bench binaries aggregate
//!   queue-wait/TTFT/inter-token samples through it instead of
//!   hoarding raw `Vec<u64>`s.
//! * [`ctx`] — request-scoped trace context ([`TraceCtx`]) and latency
//!   attribution: per-[`SpanKind`] phase deltas around a step map onto
//!   named [`Component`]s whose sum is bounded by the step wall time,
//!   accumulating into a per-request [`RequestBreakdown`].
//! * [`flight`] — the tail-latency [`FlightRecorder`]: a bounded ring
//!   of recently completed per-request span sets in which any request
//!   resolving with an SLO violation (or shed/failed) is frozen, each
//!   exportable as a per-request Perfetto track group.
//!
//! Enable tracing programmatically ([`enable`]) or by setting
//! `KT_TRACE=1` in the environment ([`enable_from_env`] is called on
//! engine and server construction).

pub mod chrome;
pub mod ctx;
pub mod flight;
pub mod hist;
pub mod sink;

pub use chrome::chrome_trace;
pub use ctx::{step_components, Component, RequestBreakdown, TraceCtx, N_COMPONENTS};
pub use flight::{
    FlightRecorder, RequestTrace, StepTrace, TraceOutcome, DEFAULT_CAPTURED_CAP,
    DEFAULT_RECENT_CAP, REQUEST_TRACK_BASE,
};
pub use hist::{Exemplar, LogHistogram};
pub use sink::{
    disable, enable, enable_from_env, enabled, instant, now_ns, record_on, sink, span, span_ab,
    stream_track, Ring, Span, SpanGuard, SpanKind, TraceSink, TraceSnapshot, DEFAULT_RING_SPANS,
    N_SPAN_KINDS, STREAM_TRACK_BASE,
};
