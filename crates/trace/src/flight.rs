//! The tail-latency flight recorder: bounded per-request span sets.
//!
//! The span rings in [`sink`](mod@crate::sink) are process-wide and overwrite
//! oldest-first, so by the time a p99 request resolves, the spans that
//! explain it may already be gone. The recorder keeps the request view
//! alive: the scheduler builds a [`RequestTrace`] per in-flight request
//! (one [`StepTrace`] per scheduler step it participated in, components
//! attributed via [`crate::ctx::step_components`]) and hands it to the
//! [`FlightRecorder`] at resolution. Completions circulate through a
//! bounded `recent` ring; any request that resolves with an SLO
//! violation — or as `Shed`/`Failed` — is *frozen* into a separate
//! bounded `captured` list that ordinary traffic cannot evict, so the
//! waterfall of the request you care about is still there when you ask.
//!
//! Each trace exports as a Chrome-trace track group of its own
//! ([`RequestTrace`] events render on track
//! `REQUEST_TRACK_BASE + tag`): a `queue_wait` span, one
//! `request.step` span per step, the component sub-spans laid
//! sequentially inside each step window, and a `request.first_token`
//! instant. Every event carries the request id in its `args`, which is
//! what `trace_summarize` (crates/bench) keys on.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::chrome::{escape, us};
use crate::ctx::{Component, RequestBreakdown, N_COMPONENTS};

/// First track id reserved for per-request track groups. Disjoint from
/// thread tracks (from 1) and vGPU stream tracks
/// ([`crate::STREAM_TRACK_BASE`] = 1 << 30).
pub const REQUEST_TRACK_BASE: u32 = 1 << 29;

/// Completed requests the `recent` ring holds before overwriting.
pub const DEFAULT_RECENT_CAP: usize = 64;

/// Frozen (violating/shed/failed) requests kept before the oldest
/// capture is dropped.
pub const DEFAULT_CAPTURED_CAP: usize = 32;

/// Steps stored per request trace; later steps still fold into the
/// breakdown but are not individually kept (bounds recorder memory for
/// very long generations).
pub const MAX_STEPS_PER_TRACE: usize = 4096;

/// How a traced request left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Resolved normally (with or without SLO violations).
    Completed,
    /// Cancelled by the client.
    Cancelled,
    /// Shed by the admission controller.
    Shed,
    /// Failed (fault injection or internal error).
    Failed,
}

impl TraceOutcome {
    /// Stable display name.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceOutcome::Completed => "completed",
            TraceOutcome::Cancelled => "cancelled",
            TraceOutcome::Shed => "shed",
            TraceOutcome::Failed => "failed",
        }
    }
}

/// One scheduler step a request participated in.
#[derive(Debug, Clone, Copy)]
pub struct StepTrace {
    /// Step index within the request's lifetime (0-based).
    pub index: u32,
    /// Step start, nanoseconds since the sink epoch.
    pub start_ns: u64,
    /// Step wall time.
    pub dur_ns: u64,
    /// Prompt tokens prefilled this step (0 = decode step).
    pub prefill_tokens: u32,
    /// Whether the step emitted a token for this request.
    pub sampled: bool,
    /// Per-[`Component`] attribution of the step wall time.
    pub components: [u64; N_COMPONENTS],
    /// Overlapped CPU-expert busy time during the step.
    pub cpu_busy_ns: u64,
}

impl StepTrace {
    /// A prefill-chunk step: the whole wall time is attributed to
    /// [`Component::PrefillChunk`] (chunk steps are dominated by the
    /// prompt GEMMs; decomposing them adds noise, not signal).
    pub fn prefill(index: u32, start_ns: u64, dur_ns: u64, chunk_tokens: u32, sampled: bool) -> StepTrace {
        let mut components = [0u64; N_COMPONENTS];
        components[Component::PrefillChunk as usize] = dur_ns;
        StepTrace {
            index,
            start_ns,
            dur_ns,
            prefill_tokens: chunk_tokens.max(1),
            sampled,
            components,
            cpu_busy_ns: 0,
        }
    }

    /// A decode step with phase-derived components.
    pub fn decode(
        index: u32,
        start_ns: u64,
        dur_ns: u64,
        components: [u64; N_COMPONENTS],
        cpu_busy_ns: u64,
    ) -> StepTrace {
        StepTrace {
            index,
            start_ns,
            dur_ns,
            prefill_tokens: 0,
            sampled: true,
            components,
            cpu_busy_ns,
        }
    }
}

/// One request's full latency waterfall, built step by step while the
/// request is in flight and finalized at resolution.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// Server-assigned request id.
    pub request_id: u64,
    /// SLO class index.
    pub class: u32,
    /// Submit time, nanoseconds since the sink epoch.
    pub enqueued_ns: u64,
    /// Admission time (`None` while queued or if never admitted).
    pub admitted_ns: Option<u64>,
    /// Resolution time (0 while in flight).
    pub resolved_ns: u64,
    /// How the request left the system (`None` while in flight).
    pub outcome: Option<TraceOutcome>,
    /// Whether the request missed a TTFT or ITL target.
    pub slo_violation: bool,
    /// Recorded steps, oldest first (capped at
    /// [`MAX_STEPS_PER_TRACE`]; see [`RequestTrace::steps_total`]).
    pub steps: Vec<StepTrace>,
    /// Steps folded into the breakdown, including any not stored.
    pub steps_total: u32,
    /// Whole-step wall time spent admitted but unscheduled.
    pub idle_ns: u64,
    /// The accumulated attribution (finalized by `finish`).
    pub breakdown: RequestBreakdown,
}

impl RequestTrace {
    /// Starts a trace for a freshly queued request.
    pub fn begin(request_id: u64, class: u32, enqueued_ns: u64) -> RequestTrace {
        RequestTrace {
            request_id,
            class,
            enqueued_ns,
            admitted_ns: None,
            resolved_ns: 0,
            outcome: None,
            slo_violation: false,
            steps: Vec::new(),
            steps_total: 0,
            idle_ns: 0,
            breakdown: RequestBreakdown {
                request_id,
                class,
                ..Default::default()
            },
        }
    }

    /// Marks admission (the queue→running edge of the waterfall).
    pub fn admitted(&mut self, now_ns: u64) {
        self.admitted_ns = Some(now_ns);
    }

    /// Folds one step into the trace and its breakdown.
    pub fn push_step(&mut self, step: StepTrace) {
        for (acc, v) in self.breakdown.components.iter_mut().zip(step.components.iter()) {
            *acc += v;
        }
        self.breakdown.cpu_busy_ns += step.cpu_busy_ns;
        if step.prefill_tokens > 0 {
            self.breakdown.prefill_steps += 1;
        } else {
            self.breakdown.decode_steps += 1;
        }
        self.steps_total += 1;
        if self.steps.len() < MAX_STEPS_PER_TRACE {
            self.steps.push(step);
        }
    }

    /// Records a whole step the request sat admitted but unscheduled
    /// (attributed to queue wait at `finish`).
    pub fn add_idle(&mut self, wall_ns: u64) {
        self.idle_ns += wall_ns;
    }

    /// Finalizes the trace with the measured end-to-end numbers from
    /// the server's request metrics. `queue_wait_ns` is the measured
    /// submit→admission wait; together with accumulated idle steps it
    /// becomes the [`Component::QueueWait`] attribution.
    #[allow(clippy::too_many_arguments)]
    pub fn finish(
        &mut self,
        resolved_ns: u64,
        outcome: TraceOutcome,
        slo_violation: bool,
        queue_wait_ns: u64,
        measured_ttft_ns: Option<u64>,
        measured_decode_ns: u64,
        tokens: u32,
    ) {
        self.resolved_ns = resolved_ns;
        self.outcome = Some(outcome);
        self.slo_violation = slo_violation;
        self.breakdown.components[Component::QueueWait as usize] = queue_wait_ns + self.idle_ns;
        self.breakdown.queue_wait_ns = queue_wait_ns;
        self.breakdown.measured_ttft_ns = measured_ttft_ns;
        self.breakdown.measured_decode_ns = measured_decode_ns;
        self.breakdown.tokens = tokens;
    }

    /// Whether this trace gets frozen into the recorder's captured
    /// list: an SLO violation, a shed, or a failure.
    pub fn frozen(&self) -> bool {
        self.slo_violation
            || matches!(self.outcome, Some(TraceOutcome::Shed) | Some(TraceOutcome::Failed))
    }

    /// Track id this request's waterfall renders on.
    pub fn track(&self) -> u32 {
        // Mask to 28 bits so request tracks never collide with the
        // vGPU stream range at 1 << 30.
        REQUEST_TRACK_BASE + (self.request_id as u32 & ((1 << 28) - 1))
    }

    /// Appends this trace's Chrome-trace events (one JSON object per
    /// element) to `events`.
    fn chrome_events(&self, events: &mut Vec<String>) {
        let track = self.track();
        let outcome = self.outcome.map_or("in-flight", TraceOutcome::as_str);
        let title = format!(
            "request {} [class {}] {}{}",
            self.request_id,
            self.class,
            outcome,
            if self.slo_violation { " SLO-VIOLATED" } else { "" }
        );
        events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{track},\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(&title)
        ));
        let x = |name: &str, start_ns: u64, dur_ns: u64, extra: &str| {
            format!(
                "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"kt.request\",\"pid\":0,\
                 \"tid\":{track},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"request_id\":{}{extra}}}}}",
                escape(name),
                us(start_ns),
                us(dur_ns),
                self.request_id
            )
        };
        let queue_end = self
            .admitted_ns
            .unwrap_or(if self.resolved_ns > 0 { self.resolved_ns } else { self.enqueued_ns });
        events.push(x(
            Component::QueueWait.as_str(),
            self.enqueued_ns,
            queue_end.saturating_sub(self.enqueued_ns),
            "",
        ));
        let mut first_token_ns = None;
        for s in &self.steps {
            events.push(x(
                "request.step",
                s.start_ns,
                s.dur_ns,
                &format!(
                    ",\"step\":{},\"prefill\":{},\"sampled\":{}",
                    s.index,
                    s.prefill_tokens,
                    u32::from(s.sampled)
                ),
            ));
            // Component sub-spans laid sequentially from the step
            // start: real durations, canonical order, nested inside
            // the step span on the same track.
            let mut t = s.start_ns;
            for c in Component::ALL {
                if c == Component::QueueWait {
                    continue;
                }
                let dur = s.components[c as usize];
                if dur == 0 {
                    continue;
                }
                events.push(x(c.as_str(), t, dur, &format!(",\"step\":{}", s.index)));
                t += dur;
            }
            if s.sampled && first_token_ns.is_none() {
                first_token_ns = Some(s.start_ns + s.dur_ns);
            }
        }
        if let Some(t) = first_token_ns {
            events.push(x("request.first_token", t, 0, ""));
        }
    }

    /// Renders this request's waterfall as a standalone Chrome-trace
    /// JSON array (loadable in Perfetto, parseable line-by-line).
    pub fn export_chrome(&self) -> String {
        let mut events = Vec::new();
        self.chrome_events(&mut events);
        format!("[\n{}\n]\n", events.join(",\n"))
    }
}

/// Bounded store of recently completed and frozen request traces.
///
/// One instance per server; all methods take `&self` and are safe to
/// call from the scheduler thread and scrape threads concurrently.
pub struct FlightRecorder {
    inner: Mutex<RecorderInner>,
}

struct RecorderInner {
    recent: VecDeque<RequestTrace>,
    captured: VecDeque<RequestTrace>,
    recent_cap: usize,
    captured_cap: usize,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// A recorder with the default ring capacities.
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_RECENT_CAP, DEFAULT_CAPTURED_CAP)
    }

    /// A recorder holding at most `recent_cap` completions and
    /// `captured_cap` frozen traces.
    pub fn with_capacity(recent_cap: usize, captured_cap: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Mutex::new(RecorderInner {
                recent: VecDeque::new(),
                captured: VecDeque::new(),
                recent_cap: recent_cap.max(1),
                captured_cap: captured_cap.max(1),
            }),
        }
    }

    /// Records a finished trace. Frozen traces (SLO violation, shed,
    /// failure) additionally go to the captured list, which ordinary
    /// completions never evict.
    pub fn record(&self, trace: RequestTrace) {
        let mut inner = self.inner.lock().expect("flight recorder");
        if trace.frozen() {
            if inner.captured.len() == inner.captured_cap {
                inner.captured.pop_front();
            }
            inner.captured.push_back(trace.clone());
        }
        if inner.recent.len() == inner.recent_cap {
            inner.recent.pop_front();
        }
        inner.recent.push_back(trace);
    }

    /// Looks a trace up by request id — captured list first (frozen
    /// traces outlive their recent-ring copy), then the recent ring,
    /// newest match wins.
    pub fn get(&self, request_id: u64) -> Option<RequestTrace> {
        let inner = self.inner.lock().expect("flight recorder");
        inner
            .captured
            .iter()
            .rev()
            .chain(inner.recent.iter().rev())
            .find(|t| t.request_id == request_id)
            .cloned()
    }

    /// The finalized breakdown for a request still in the recorder.
    pub fn breakdown(&self, request_id: u64) -> Option<RequestBreakdown> {
        self.get(request_id).map(|t| t.breakdown)
    }

    /// Ids currently frozen in the captured list, oldest first.
    pub fn captured_ids(&self) -> Vec<u64> {
        let inner = self.inner.lock().expect("flight recorder");
        inner.captured.iter().map(|t| t.request_id).collect()
    }

    /// Number of completions in the recent ring.
    pub fn recent_len(&self) -> usize {
        self.inner.lock().expect("flight recorder").recent.len()
    }

    /// Breakdowns of everything in the recent ring, oldest first.
    pub fn recent_breakdowns(&self) -> Vec<RequestBreakdown> {
        let inner = self.inner.lock().expect("flight recorder");
        inner.recent.iter().map(|t| t.breakdown).collect()
    }

    /// Exports one request's waterfall (see
    /// [`RequestTrace::export_chrome`]).
    pub fn export_chrome(&self, request_id: u64) -> Option<String> {
        self.get(request_id).map(|t| t.export_chrome())
    }

    /// Exports every captured trace as one Chrome-trace JSON array —
    /// the artifact `trace_summarize` consumes.
    pub fn export_captured_chrome(&self) -> String {
        let inner = self.inner.lock().expect("flight recorder");
        let mut events = Vec::new();
        for t in &inner.captured {
            t.chrome_events(&mut events);
        }
        drop(inner);
        format!("[\n{}\n]\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::N_COMPONENTS;

    fn completed(id: u64, violated: bool) -> RequestTrace {
        let mut t = RequestTrace::begin(id, 0, 1_000);
        t.admitted(2_000);
        let mut comps = [0u64; N_COMPONENTS];
        comps[Component::Attention as usize] = 400;
        comps[Component::CpuExpert as usize] = 500;
        comps[Component::Other as usize] = 100;
        t.push_step(StepTrace::prefill(0, 2_000, 3_000, 16, true));
        t.push_step(StepTrace::decode(1, 5_500, 1_000, comps, 2_000));
        t.add_idle(250);
        t.finish(7_000, TraceOutcome::Completed, violated, 1_000, Some(3_000), 1_500, 2);
        t
    }

    #[test]
    fn breakdown_accumulates_steps_idle_and_queue_wait() {
        let t = completed(42, false);
        let b = t.breakdown;
        assert_eq!(b.request_id, 42);
        assert_eq!(b.component_ns(Component::QueueWait), 1_250, "measured + idle");
        assert_eq!(b.component_ns(Component::PrefillChunk), 3_000);
        assert_eq!(b.component_ns(Component::Attention), 400);
        assert_eq!(b.cpu_busy_ns, 2_000);
        assert_eq!(b.prefill_steps, 1);
        assert_eq!(b.decode_steps, 1);
        assert_eq!(b.measured_total_ns(), 1_000 + 3_000 + 1_500);
        assert_eq!(b.total_ns(), 1_250 + 3_000 + 1_000);
        assert!(!t.frozen());
    }

    #[test]
    fn violating_and_shed_traces_freeze() {
        assert!(completed(1, true).frozen());
        let mut shed = RequestTrace::begin(2, 1, 10);
        shed.finish(500, TraceOutcome::Shed, false, 490, None, 0, 0);
        assert!(shed.frozen());
        let mut failed = RequestTrace::begin(3, 1, 10);
        failed.finish(500, TraceOutcome::Failed, false, 0, None, 0, 0);
        assert!(failed.frozen());
        let mut cancelled = RequestTrace::begin(4, 1, 10);
        cancelled.finish(500, TraceOutcome::Cancelled, false, 0, None, 0, 0);
        assert!(!cancelled.frozen());
    }

    #[test]
    fn recorder_bounds_rings_and_keeps_captures() {
        let rec = FlightRecorder::with_capacity(4, 2);
        for id in 0..10 {
            rec.record(completed(id, id == 1 || id == 2 || id == 3));
        }
        assert_eq!(rec.recent_len(), 4);
        // Captured keeps the newest 2 frozen traces even though the
        // recent ring has long since dropped them.
        assert_eq!(rec.captured_ids(), vec![2, 3]);
        assert!(rec.get(2).is_some(), "frozen trace outlives recent ring");
        assert!(rec.get(0).is_none(), "unfrozen old trace evicted");
        assert_eq!(rec.breakdown(9).unwrap().request_id, 9);
    }

    #[test]
    fn export_contains_request_labeled_waterfall() {
        let t = completed(7, true);
        let json = t.export_chrome();
        for name in ["queue_wait", "prefill_chunk", "attention", "cpu_expert", "request.step", "request.first_token"] {
            assert!(
                json.contains(&format!("\"name\":\"{name}\"")),
                "missing {name} span in:\n{json}"
            );
        }
        assert!(json.contains("\"request_id\":7"));
        assert!(json.contains("SLO-VIOLATED"));
        assert!(json.lines().all(|l| !l.contains("\"name\":\"queue_wait\"") || l.contains("\"request_id\":7")));
        // Track is in the reserved per-request range.
        assert!(json.contains(&format!("\"tid\":{}", REQUEST_TRACK_BASE + 7)));

        let rec = FlightRecorder::new();
        rec.record(t);
        assert!(rec.export_chrome(7).is_some());
        let all = rec.export_captured_chrome();
        assert!(all.contains("\"request_id\":7"));
        assert!(rec.export_chrome(999).is_none());
    }
}
