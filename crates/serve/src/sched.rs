//! Pure step-composition and admission-ordering logic.
//!
//! The scheduler's decisions — which queued request to admit next,
//! and how to spend the step token budget across decode rows and
//! pending prefills — are pure functions of lightweight views of the
//! batch state. Keeping them engine-free makes the scheduling
//! invariants (decode rows never starve, priority order, FIFO within
//! a class, budget conservation) property-testable in microseconds.

/// What the composer knows about one active sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqView {
    /// Prompt tokens not yet fed. `0` means the sequence is a decode
    /// row.
    pub prompt_remaining: usize,
    /// Scheduling priority ([`crate::SloClass::priority`]); FIFO
    /// servers pass `0` for everyone. Ties preserve slice order, which
    /// is admission order.
    pub priority: usize,
    /// Whether a decode row is predicted close to an ITL violation
    /// (its inter-token gap is already past a fraction of its target).
    /// Ignored for prefilling sequences.
    pub at_risk: bool,
}

/// One sequence's share of the composed step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanWork {
    /// Decode one token.
    Decode,
    /// Prefill the next `len` prompt tokens; `last` marks the chunk
    /// that completes the prompt.
    Chunk {
        /// Tokens in this chunk.
        len: usize,
        /// Whether this chunk finishes the prompt.
        last: bool,
    },
}

impl PlanWork {
    /// Tokens this work feeds — one new KV row each.
    pub fn tokens(self) -> usize {
        match self {
            PlanWork::Decode => 1,
            PlanWork::Chunk { len, .. } => len,
        }
    }
}

/// Composition knobs (mirrors the relevant [`crate::ServerConfig`]
/// fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComposeCfg {
    /// Maximum prompt tokens one sequence prefills per step.
    pub prefill_chunk: usize,
    /// Per-step token budget.
    pub step_token_budget: usize,
    /// Whether prefill allocation honors `SeqView::priority` and
    /// `at_risk` (SLO mode). Off reproduces plain FIFO composition.
    pub priority_aware: bool,
}

/// Composes one step under the token budget.
///
/// Invariants (property-tested in `tests/slo_proptests.rs`):
///
/// * Every decode row is scheduled — decode never starves behind
///   prefill of any priority.
/// * Prefill tokens stay within `step_token_budget - n_decode`, except
///   for the single anti-starvation chunk granted when decode rows
///   alone exhaust the budget.
/// * In priority-aware mode a lower-priority sequence receives a
///   chunk only if every higher-priority pending sequence already
///   received one, and within a priority level grants follow slice
///   (admission) order.
/// * When any decode row is at risk, prefill is throttled to at most
///   one chunk this step, steering the budget toward keeping the step
///   (and therefore the at-risk rows' ITL) short.
pub fn compose_plan(cfg: &ComposeCfg, seqs: &[SeqView]) -> Vec<Option<PlanWork>> {
    let mut plan: Vec<Option<PlanWork>> = vec![None; seqs.len()];
    let mut n_decode = 0usize;
    for (seq, slot) in seqs.iter().zip(plan.iter_mut()) {
        if seq.prompt_remaining == 0 {
            *slot = Some(PlanWork::Decode);
            n_decode += 1;
        }
    }
    let mut budget = cfg.step_token_budget.saturating_sub(n_decode);
    if cfg.priority_aware && seqs.iter().any(|s| s.prompt_remaining == 0 && s.at_risk) {
        // An at-risk decode row's ITL is bounded by the step's wall
        // time, which grows with the prefill riding along. Reallocate:
        // cap this step's prefill to a single chunk so the step stays
        // near decode-only size.
        budget = budget.min(cfg.prefill_chunk);
    }

    // Pending prompts in grant order: admission order for FIFO, stable
    // (priority, admission) order when priority-aware.
    let mut pending: Vec<usize> = (0..seqs.len())
        .filter(|&i| seqs[i].prompt_remaining > 0)
        .collect();
    if cfg.priority_aware {
        pending.sort_by_key(|&i| seqs[i].priority);
    }

    let mut granted = false;
    for &i in &pending {
        let remaining = seqs[i].prompt_remaining;
        let take = cfg.prefill_chunk.min(remaining).min(budget);
        if take == 0 {
            continue;
        }
        budget -= take;
        granted = true;
        plan[i] = Some(PlanWork::Chunk {
            len: take,
            last: take == remaining,
        });
    }
    // Anti-starvation: when decode rows alone exhaust the budget, the
    // most urgent pending prompt still advances one chunk — TTFT stays
    // bounded (the budget is a target, not a liveness hazard).
    if !granted {
        if let Some(&i) = pending.first() {
            let remaining = seqs[i].prompt_remaining;
            let take = cfg.prefill_chunk.min(remaining);
            plan[i] = Some(PlanWork::Chunk {
                len: take,
                last: take == remaining,
            });
        }
    }
    plan
}

/// Picks the queue index to admit next: the earliest-arrived request
/// of the most urgent class present when `priority_aware`, plain
/// front-of-queue otherwise. Entries are `(priority, arrival_seq)`;
/// `arrival_seq` is a process-wide submission counter, so FIFO order
/// within a class is exactly arrival order.
pub fn pick_next(queued: &[(usize, u64)], priority_aware: bool) -> Option<usize> {
    if queued.is_empty() {
        return None;
    }
    if !priority_aware {
        return Some(0);
    }
    queued
        .iter()
        .enumerate()
        .min_by_key(|(_, &(priority, seq_no))| (priority, seq_no))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(at_risk: bool) -> SeqView {
        SeqView {
            prompt_remaining: 0,
            priority: 0,
            at_risk,
        }
    }

    fn prefill(remaining: usize, priority: usize) -> SeqView {
        SeqView {
            prompt_remaining: remaining,
            priority,
            at_risk: false,
        }
    }

    const FIFO: ComposeCfg = ComposeCfg {
        prefill_chunk: 8,
        step_token_budget: 16,
        priority_aware: false,
    };
    const SLO: ComposeCfg = ComposeCfg {
        priority_aware: true,
        ..FIFO
    };

    #[test]
    fn decode_rows_always_scheduled() {
        let seqs = [decode(false), prefill(100, 2), decode(true)];
        for cfg in [FIFO, SLO] {
            let plan = compose_plan(&cfg, &seqs);
            assert_eq!(plan[0], Some(PlanWork::Decode));
            assert_eq!(plan[2], Some(PlanWork::Decode));
        }
    }

    #[test]
    fn fifo_grants_in_admission_order() {
        // Budget 16, 2 decode rows leave 14: first prompt takes a full
        // chunk of 8, second gets the remaining 6.
        let seqs = [decode(false), prefill(20, 2), decode(false), prefill(20, 0)];
        let plan = compose_plan(&FIFO, &seqs);
        assert_eq!(
            plan[1],
            Some(PlanWork::Chunk {
                len: 8,
                last: false
            })
        );
        assert_eq!(
            plan[3],
            Some(PlanWork::Chunk {
                len: 6,
                last: false
            })
        );
    }

    #[test]
    fn priority_reorders_grants() {
        // Same shape, priority-aware: the priority-0 prompt (admitted
        // later) takes the full chunk first.
        let seqs = [decode(false), prefill(20, 2), decode(false), prefill(20, 0)];
        let plan = compose_plan(&SLO, &seqs);
        assert_eq!(
            plan[3],
            Some(PlanWork::Chunk {
                len: 8,
                last: false
            })
        );
        assert_eq!(
            plan[1],
            Some(PlanWork::Chunk {
                len: 6,
                last: false
            })
        );
    }

    #[test]
    fn final_chunk_is_marked_last() {
        let seqs = [prefill(5, 0)];
        let plan = compose_plan(&FIFO, &seqs);
        assert_eq!(plan[0], Some(PlanWork::Chunk { len: 5, last: true }));
    }

    #[test]
    fn at_risk_decode_throttles_prefill_to_one_chunk() {
        // 2 decode rows + budget 16 leaves 14 ⇒ FIFO spreads 8 + 6;
        // with an at-risk row the cap drops to one chunk of 8.
        let seqs = [decode(true), prefill(20, 1), decode(false), prefill(20, 1)];
        let plan = compose_plan(&SLO, &seqs);
        let prefill_tokens: usize = plan
            .iter()
            .flatten()
            .map(|w| match w {
                PlanWork::Decode => 0,
                PlanWork::Chunk { len, .. } => *len,
            })
            .sum();
        assert_eq!(prefill_tokens, 8, "one chunk rides along: {plan:?}");
        assert_eq!(
            plan[1],
            Some(PlanWork::Chunk {
                len: 8,
                last: false
            })
        );
        assert_eq!(plan[3], None);
    }

    #[test]
    fn anti_starvation_grant_survives_decode_saturation() {
        let cfg = ComposeCfg {
            prefill_chunk: 4,
            step_token_budget: 2,
            priority_aware: true,
        };
        let seqs = [decode(false), decode(false), prefill(10, 2), prefill(10, 1)];
        let plan = compose_plan(&cfg, &seqs);
        // Budget exhausted by decode, yet the most urgent prompt still
        // advances one chunk.
        assert_eq!(
            plan[3],
            Some(PlanWork::Chunk {
                len: 4,
                last: false
            })
        );
        assert_eq!(plan[2], None);
    }

    #[test]
    fn pick_next_prefers_priority_then_arrival() {
        let q = [(2, 10), (1, 12), (1, 11), (2, 9)];
        assert_eq!(pick_next(&q, true), Some(2), "earliest of the best class");
        assert_eq!(pick_next(&q, false), Some(0), "FIFO takes the front");
        assert_eq!(pick_next(&[], true), None);
    }
}
