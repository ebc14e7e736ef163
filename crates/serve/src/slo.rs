//! SLO classes, per-class latency targets, and the slack-based
//! admission predictor.
//!
//! Every [`crate::Request`] carries an [`SloClass`]; when the server
//! is started with an [`SloPolicy`], admission and step composition
//! become priority-aware and the admission controller predicts each
//! queued request's *slack* — the margin between its TTFT target and
//! the TTFT the scheduler expects to deliver given the current queue
//! and batch state. A request whose predicted slack is negative is a
//! dead loss: serving it spends step budget on output that already
//! missed its deadline. Under the shedding policy such requests are
//! resolved with [`crate::RequestOutcome::Shed`] instead — except
//! requests of the highest class, which are always served best-effort
//! (a missed target there is counted as a violation, not discarded
//! work).
//!
//! Everything here is pure data + pure functions so the scheduler
//! invariants (shed only on negative slack, priority order, FIFO
//! within a class) are property-testable without an engine.

/// Service class of a request. Lower `priority()` is more urgent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SloClass {
    /// Latency-critical traffic (chat turns, autocomplete). Never
    /// shed: a missed deadline is served anyway and counted as a
    /// violation.
    Interactive,
    /// Default traffic with relaxed targets.
    Standard,
    /// Throughput traffic (evals, batch summarization). First to be
    /// shed at saturation.
    Batch,
}

impl SloClass {
    /// Every class, most urgent first.
    pub const ALL: [SloClass; 3] = [SloClass::Interactive, SloClass::Standard, SloClass::Batch];

    /// Scheduling priority: 0 is most urgent.
    pub fn priority(self) -> usize {
        match self {
            SloClass::Interactive => 0,
            SloClass::Standard => 1,
            SloClass::Batch => 2,
        }
    }

    /// Index into per-class tables (same order as [`SloClass::ALL`]).
    pub fn index(self) -> usize {
        self.priority()
    }

    /// Stable display name (also the Prometheus `class` label).
    pub fn as_str(self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Standard => "standard",
            SloClass::Batch => "batch",
        }
    }
}

/// Latency targets of one class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloTarget {
    /// Time-to-first-token target in nanoseconds.
    pub ttft_ns: u64,
    /// Inter-token latency target in nanoseconds.
    pub itl_ns: u64,
}

impl SloTarget {
    /// Convenience constructor from milliseconds.
    pub fn from_millis(ttft_ms: u64, itl_ms: u64) -> SloTarget {
        SloTarget {
            ttft_ns: ttft_ms * 1_000_000,
            itl_ns: itl_ms * 1_000_000,
        }
    }
}

/// Per-class SLO targets plus the shedding switch. Passing `Some` of
/// this in [`crate::ServerConfig::slo`] turns on priority admission,
/// priority-aware step composition, and (when `shed` is set) load
/// shedding of negative-slack lower-class work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloPolicy {
    /// Targets indexed by [`SloClass::index`].
    pub targets: [SloTarget; 3],
    /// Whether the admission controller may shed queued lower-class
    /// requests whose predicted slack is negative. With this off the
    /// server still prioritizes, but every admitted request is
    /// eventually served.
    pub shed: bool,
}

impl SloPolicy {
    /// The targets of `class`.
    pub fn target(&self, class: SloClass) -> SloTarget {
        self.targets[class.index()]
    }
}

impl Default for SloPolicy {
    /// Loose defaults sized for the simulated tiny engine: interactive
    /// 250 ms TTFT / 100 ms ITL, standard 1 s / 250 ms, batch
    /// 10 s / 1 s, shedding on.
    fn default() -> Self {
        SloPolicy {
            targets: [
                SloTarget::from_millis(250, 100),
                SloTarget::from_millis(1_000, 250),
                SloTarget::from_millis(10_000, 1_000),
            ],
            shed: true,
        }
    }
}

/// Inputs of one slack prediction, snapshotted from the scheduler
/// state when the queued request is examined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlackInputs {
    /// Per-wave service estimate in nanoseconds: how long one batch
    /// slot takes to open up and deliver a first token. Read from the
    /// server's TTFT [`kt_trace::LogHistogram`] (p50), falling back to
    /// the ITL histogram, then to 0 — an empty history predicts
    /// optimistically, so nothing is shed before there is evidence.
    pub service_estimate_ns: u64,
    /// Sequences currently holding batch slots.
    pub active: usize,
    /// Batch slots the server can fill ([`crate::ServerConfig::max_batch`]).
    pub max_batch: usize,
    /// Queued requests that will be admitted before this one (higher
    /// priority, or same class and earlier arrival).
    pub queued_ahead: usize,
    /// Time this request has already spent queued, in nanoseconds.
    pub waited_ns: u64,
}

/// Predicted TTFT of a queued request: time already waited plus one
/// service wave per batch-width cohort that must drain ahead of it.
pub fn predicted_ttft_ns(inputs: &SlackInputs) -> u64 {
    let max_batch = inputs.max_batch.max(1);
    let free_slots = max_batch.saturating_sub(inputs.active);
    // Waves of the batch that must complete before this request gets a
    // slot: 0 if a slot is free right now and nothing is ahead.
    let waves_ahead = if inputs.queued_ahead < free_slots {
        0
    } else {
        1 + (inputs.queued_ahead - free_slots) / max_batch
    };
    // One more wave to actually produce the first token.
    let waves = waves_ahead as u64 + 1;
    inputs
        .waited_ns
        .saturating_add(waves.saturating_mul(inputs.service_estimate_ns))
}

/// Slack of a queued request against its TTFT target: positive means
/// the predictor expects the deadline to hold.
pub fn slack_ns(target: SloTarget, predicted_ttft: u64) -> i64 {
    let t = target.ttft_ns.min(i64::MAX as u64) as i64;
    let p = predicted_ttft.min(i64::MAX as u64) as i64;
    t - p
}

/// Whether a queued request should be shed. True **only** when all
/// hold: shedding is enabled, the predicted slack is negative, and the
/// class is not the highest-priority one (interactive work is served
/// best-effort, never discarded).
pub fn shed_decision(policy: &SloPolicy, class: SloClass, slack: i64) -> bool {
    policy.shed && slack < 0 && class != SloClass::Interactive
}

/// Per-class outcome and SLO counters, exposed by
/// [`crate::Server::class_stats`] and the `kt_slo_*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounters {
    /// Requests submitted with this class.
    pub submitted: u64,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Requests cancelled by their client.
    pub cancelled: u64,
    /// Requests that failed with an engine error.
    pub failed: u64,
    /// Requests shed by the admission controller.
    pub shed: u64,
    /// Completed requests that met both their TTFT and ITL targets.
    pub slo_met: u64,
    /// Resolved requests that missed their TTFT target.
    pub ttft_violations: u64,
    /// Resolved requests with at least one inter-token gap over the
    /// ITL target.
    pub itl_violations: u64,
}

impl ClassCounters {
    /// Requests resolved one way or another.
    pub fn resolved(&self) -> u64 {
        self.completed + self.cancelled + self.failed + self.shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_order_and_names() {
        assert!(SloClass::Interactive.priority() < SloClass::Standard.priority());
        assert!(SloClass::Standard.priority() < SloClass::Batch.priority());
        for (i, c) in SloClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(SloClass::Interactive.as_str(), "interactive");
        assert_eq!(SloClass::Batch.as_str(), "batch");
    }

    #[test]
    fn prediction_counts_batch_waves() {
        let base = SlackInputs {
            service_estimate_ns: 100,
            active: 4,
            max_batch: 4,
            queued_ahead: 0,
            waited_ns: 7,
        };
        // Saturated batch, nothing queued ahead: one wave to drain a
        // slot... the request itself still needs one service wave.
        assert_eq!(predicted_ttft_ns(&base), 7 + 2 * 100);
        // A free slot and empty queue: just the request's own wave.
        let free = SlackInputs { active: 3, ..base };
        assert_eq!(predicted_ttft_ns(&free), 7 + 100);
        // Eight queued ahead of a saturated batch of 4: two more waves.
        let deep = SlackInputs {
            queued_ahead: 8,
            ..base
        };
        assert_eq!(predicted_ttft_ns(&deep), 7 + 4 * 100);
        // No history yet: optimistic zero-cost prediction.
        let blind = SlackInputs {
            service_estimate_ns: 0,
            queued_ahead: 100,
            ..base
        };
        assert_eq!(predicted_ttft_ns(&blind), 7);
    }

    #[test]
    fn slack_and_shed_policy() {
        let policy = SloPolicy::default();
        let target = policy.target(SloClass::Batch);
        assert!(slack_ns(target, target.ttft_ns - 1) > 0);
        assert!(slack_ns(target, target.ttft_ns + 1) < 0);
        // Negative slack sheds batch and standard, never interactive.
        assert!(shed_decision(&policy, SloClass::Batch, -1));
        assert!(shed_decision(&policy, SloClass::Standard, -1));
        assert!(!shed_decision(&policy, SloClass::Interactive, i64::MIN));
        // Non-negative slack never sheds.
        assert!(!shed_decision(&policy, SloClass::Batch, 0));
        assert!(!shed_decision(&policy, SloClass::Batch, 1));
        // Shedding disabled never sheds.
        let no_shed = SloPolicy {
            shed: false,
            ..SloPolicy::default()
        };
        assert!(!shed_decision(&no_shed, SloClass::Batch, i64::MIN));
    }

    #[test]
    fn saturating_slack_on_huge_values() {
        let t = SloTarget {
            ttft_ns: u64::MAX,
            itl_ns: 1,
        };
        assert!(slack_ns(t, 0) > 0);
        assert!(slack_ns(t, u64::MAX) == 0);
    }
}
