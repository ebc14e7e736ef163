//! Request-scoped trace context and latency attribution.
//!
//! kt-trace's span rings (PR 4) answer *where time goes in aggregate*;
//! this module adds the request dimension. A [`TraceCtx`] names the
//! request a unit of work belongs to — its low 32 bits ride in the
//! existing span `a`/`b` label slots (`serve.admit`,
//! `serve.prefill_chunk`, `engine.seq_attention`), so no span layout
//! changes were needed — and a [`RequestBreakdown`] decomposes one
//! request's measured TTFT + decode time into named [`Component`]s.
//!
//! ## The attribution invariant
//!
//! Components are derived from the sink's cumulative phase table
//! ([`crate::TraceSink::phase_snapshot`]): the scheduler differences
//! two snapshots around each `forward_batch` call and maps the
//! per-[`SpanKind`] deltas through [`step_components`]. Every phase in
//! the mapping runs serialized on the scheduler thread, which drains
//! the vGPU stream, so the per-step component sum can never exceed the
//! step's wall time; the [`Component::Other`] slot absorbs the
//! remainder (embed, launch overhead, inter-op gaps). Summed over a request's steps plus its
//! measured queue wait, the breakdown therefore sums to the measured
//! end-to-end time from below — the tested invariant is
//! `0.75 ≤ coverage() ≤ 1.05`, with CI gating ≥ 0.9 in aggregate.
//!
//! Overlapped CPU-expert compute is intentionally *not* a component:
//! the device timeline already pays for it via `engine.merge_spin`
//! (the un-hidden tail), which is what [`Component::CpuExpert`] maps
//! to. The raw overlapped busy time is reported separately as
//! [`RequestBreakdown::cpu_busy_ns`] so a reader can still see how
//! much CPU work the overlap hid.

use crate::sink::{SpanKind, N_SPAN_KINDS};

/// Identity of the work being traced: which request, which scheduler
/// step of that request, which model layer. Threaded from
/// `kt_serve::Request` down through batch composition; the engine sees
/// it as the per-sequence `tag` (the low 32 bits of `request_id`, 0
/// meaning "untagged").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// Server-assigned request id (0 = none).
    pub request_id: u64,
    /// Scheduler step index within the request's lifetime.
    pub step: u32,
    /// Model layer, where applicable.
    pub layer: u32,
}

impl TraceCtx {
    /// Context for one request, before any step ran.
    pub fn for_request(request_id: u64) -> TraceCtx {
        TraceCtx { request_id, step: 0, layer: 0 }
    }

    /// The 32-bit tag carried in span label slots (low bits of the
    /// request id; ids are assigned sequentially so collisions need
    /// 2^32 requests in one trace window).
    #[inline]
    pub fn tag(&self) -> u32 {
        self.request_id as u32
    }
}

/// Number of [`Component`] variants.
pub const N_COMPONENTS: usize = 9;

/// One named slice of a request's end-to-end latency.
#[repr(usize)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Time queued before admission, plus whole steps the request sat
    /// admitted-but-unscheduled.
    QueueWait = 0,
    /// Whole steps spent prefilling this request's prompt chunks.
    PrefillChunk,
    /// Batched attention (+ dense MLP) on decode steps.
    Attention,
    /// Router gating + dispatch bookkeeping on decode steps.
    Gating,
    /// CPU routed-expert time the overlap could not hide (the merge
    /// kernel's spin on CPU completion).
    CpuExpert,
    /// Shared experts on the vGPU.
    GpuExpert,
    /// Scatter-add + deferral flush of expert output.
    Merge,
    /// Final norm + LM head.
    LmHead,
    /// Step wall time not covered by any phase above (embed, vGPU
    /// launch overhead, inter-op gaps).
    Other,
}

impl Component {
    /// Every component, in `repr` order (index = `c as usize`).
    pub const ALL: [Component; N_COMPONENTS] = [
        Component::QueueWait,
        Component::PrefillChunk,
        Component::Attention,
        Component::Gating,
        Component::CpuExpert,
        Component::GpuExpert,
        Component::Merge,
        Component::LmHead,
        Component::Other,
    ];

    /// Stable display name (also the Prometheus `component` label).
    pub fn as_str(self) -> &'static str {
        match self {
            Component::QueueWait => "queue_wait",
            Component::PrefillChunk => "prefill_chunk",
            Component::Attention => "attention",
            Component::Gating => "gating",
            Component::CpuExpert => "cpu_expert",
            Component::GpuExpert => "gpu_expert",
            Component::Merge => "merge",
            Component::LmHead => "lm_head",
            Component::Other => "other",
        }
    }
}

/// Maps per-[`SpanKind`] phase deltas for one decode step onto the
/// component vector. `wall_ns` is the step's measured wall time; the
/// remainder after all mapped phases lands in [`Component::Other`]
/// (saturating — concurrent engines would otherwise underflow it).
///
/// Returns `(components, cpu_busy_ns)` where `cpu_busy_ns` is the
/// overlapped CPU-expert busy time (informational, not a component —
/// see the module docs).
pub fn step_components(deltas: &[u64; N_SPAN_KINDS], wall_ns: u64) -> ([u64; N_COMPONENTS], u64) {
    let d = |k: SpanKind| deltas[k as usize];
    let mut c = [0u64; N_COMPONENTS];
    c[Component::Attention as usize] = d(SpanKind::Attention);
    // The dispatch callback nests gating; count dispatch once.
    c[Component::Gating as usize] = d(SpanKind::ExpertDispatch);
    c[Component::CpuExpert as usize] = d(SpanKind::MergeSpin);
    c[Component::GpuExpert as usize] = d(SpanKind::SharedExperts);
    c[Component::Merge as usize] = d(SpanKind::ScatterAdd) + d(SpanKind::DeferralFlush);
    c[Component::LmHead as usize] = d(SpanKind::LmHead);
    let mapped: u64 = c.iter().sum();
    c[Component::Other as usize] = wall_ns.saturating_sub(mapped);
    let cpu_busy = d(SpanKind::CpuExpertImmediate) + d(SpanKind::CpuExpertDeferred);
    (c, cpu_busy)
}

/// Where one request's measured end-to-end latency went.
///
/// Built by the flight recorder as steps complete; surfaced via
/// `Server::breakdown(id)` and fed (per component, per request) into
/// the `kt_latency_component_seconds` histogram family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestBreakdown {
    /// The request this breakdown describes.
    pub request_id: u64,
    /// SLO class index the request ran under.
    pub class: u32,
    /// Nanoseconds per [`Component`], `Component::ALL` order.
    pub components: [u64; N_COMPONENTS],
    /// Overlapped CPU-expert busy time (informational; already paid
    /// for on the device timeline via [`Component::CpuExpert`]).
    pub cpu_busy_ns: u64,
    /// Measured wait from submit to admission.
    pub queue_wait_ns: u64,
    /// Measured time-to-first-token (admission → first sampled token),
    /// `None` if the request resolved before producing one.
    pub measured_ttft_ns: Option<u64>,
    /// Measured decode time (sum of inter-token latencies).
    pub measured_decode_ns: u64,
    /// Tokens the request generated.
    pub tokens: u32,
    /// Steps that prefilled a chunk of this request's prompt.
    pub prefill_steps: u32,
    /// Steps that decoded a token for this request.
    pub decode_steps: u32,
}

impl RequestBreakdown {
    /// Nanoseconds attributed to one component.
    #[inline]
    pub fn component_ns(&self, c: Component) -> u64 {
        self.components[c as usize]
    }

    /// Sum of every attributed component.
    pub fn total_ns(&self) -> u64 {
        self.components.iter().sum()
    }

    /// The measured end-to-end time the components must account for:
    /// queue wait + TTFT + decode.
    pub fn measured_total_ns(&self) -> u64 {
        self.queue_wait_ns + self.measured_ttft_ns.unwrap_or(0) + self.measured_decode_ns
    }

    /// Fraction of the measured end-to-end time the components explain
    /// (`1.0` when nothing was measured). The tested invariant: by
    /// construction this lands in roughly `[0.75, 1.05]` — below 1
    /// because inter-step scheduler gaps are unattributed, slightly
    /// above only through clock-read jitter at step boundaries.
    pub fn coverage(&self) -> f64 {
        let measured = self.measured_total_ns();
        if measured == 0 {
            return 1.0;
        }
        self.total_ns() as f64 / measured as f64
    }

    /// Components sorted by attributed time, largest first, zero
    /// entries skipped.
    pub fn top_components(&self) -> Vec<(Component, u64)> {
        let mut v: Vec<(Component, u64)> = Component::ALL
            .iter()
            .map(|&c| (c, self.component_ns(c)))
            .filter(|&(_, ns)| ns > 0)
            .collect();
        v.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.as_str().cmp(y.0.as_str())));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_all_round_trips_repr() {
        assert_eq!(Component::ALL.len(), N_COMPONENTS);
        for (i, &c) in Component::ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "{} repr out of order", c.as_str());
        }
    }

    #[test]
    fn step_components_sum_to_wall_exactly_when_mapped_fits() {
        let mut d = [0u64; N_SPAN_KINDS];
        d[SpanKind::Attention as usize] = 100;
        d[SpanKind::ExpertDispatch as usize] = 60; // nests gating
        d[SpanKind::Gating as usize] = 20;
        d[SpanKind::MergeSpin as usize] = 30;
        d[SpanKind::SharedExperts as usize] = 25;
        d[SpanKind::ScatterAdd as usize] = 15;
        d[SpanKind::DeferralFlush as usize] = 5;
        d[SpanKind::LmHead as usize] = 40;
        d[SpanKind::CpuExpertImmediate as usize] = 500; // overlapped
        let (c, cpu_busy) = step_components(&d, 300);
        assert_eq!(c.iter().sum::<u64>(), 300, "components sum to wall");
        assert_eq!(c[Component::Gating as usize], 60, "gating counted once, inside dispatch");
        assert_eq!(c[Component::CpuExpert as usize], 30, "merge spin is the cpu component");
        assert_eq!(c[Component::GpuExpert as usize], 25);
        assert_eq!(c[Component::Merge as usize], 20);
        assert_eq!(c[Component::Other as usize], 300 - 275);
        assert_eq!(cpu_busy, 500, "overlapped busy time reported separately");
    }

    #[test]
    fn step_components_other_saturates_when_deltas_exceed_wall() {
        let mut d = [0u64; N_SPAN_KINDS];
        d[SpanKind::Attention as usize] = 1000;
        let (c, _) = step_components(&d, 300);
        assert_eq!(c[Component::Other as usize], 0);
    }

    #[test]
    fn breakdown_coverage_and_top_components() {
        let mut b = RequestBreakdown {
            request_id: 7,
            queue_wait_ns: 100,
            measured_ttft_ns: Some(400),
            measured_decode_ns: 500,
            ..Default::default()
        };
        b.components[Component::QueueWait as usize] = 100;
        b.components[Component::Attention as usize] = 300;
        b.components[Component::CpuExpert as usize] = 450;
        b.components[Component::Other as usize] = 50;
        assert_eq!(b.measured_total_ns(), 1000);
        assert_eq!(b.total_ns(), 900);
        assert!((b.coverage() - 0.9).abs() < 1e-9);
        let top = b.top_components();
        assert_eq!(top[0], (Component::CpuExpert, 450));
        assert_eq!(top[1], (Component::Attention, 300));
        assert_eq!(top.len(), 4, "zero components skipped");
        assert_eq!(RequestBreakdown::default().coverage(), 1.0);
    }

    #[test]
    fn trace_ctx_tag_is_low_bits() {
        let ctx = TraceCtx::for_request(0x1_0000_002a);
        assert_eq!(ctx.tag(), 0x2a);
        assert_eq!(TraceCtx::default().tag(), 0);
    }
}
