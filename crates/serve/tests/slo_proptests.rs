//! Property tests for the scheduler invariants behind SLO serving.
//!
//! The scheduling decisions are pure functions (`kt_serve::sched`,
//! `kt_serve::slo`), so the invariants are checked over random batch
//! shapes, queue states, and policies without an engine:
//!
//! * **Decode never starves**: every decode row is scheduled in every
//!   composed step, whatever prefill of whatever priority competes.
//! * **Budget conservation**: prefill tokens stay within the remaining
//!   budget, except for the single anti-starvation chunk.
//! * **Priority grant order**: a lower-priority prompt receives a
//!   chunk only if every higher-priority pending prompt received one.
//! * **Admission order within a class**: draining the queue through
//!   `pick_next` yields each class's requests in arrival order, and
//!   never picks a class while a more urgent one is waiting.
//! * **Shed only on negative slack** (and never for interactive, and
//!   never with shedding disabled).
//!
//! The "every request resolves with exactly one outcome" invariant
//! needs a live server and lives in `tests/chaos.rs`.

use kt_serve::sched::{compose_plan, pick_next, ComposeCfg, PlanWork, SeqView};
use kt_serve::slo::{predicted_ttft_ns, shed_decision, slack_ns, SlackInputs};
use kt_serve::{SloClass, SloPolicy, SloTarget};
use proptest::prelude::*;

fn seq_strategy() -> impl Strategy<Value = SeqView> {
    (0usize..40, 0usize..3, any::<bool>()).prop_map(|(prompt_remaining, priority, at_risk)| {
        SeqView {
            prompt_remaining,
            priority,
            at_risk,
        }
    })
}

/// Server-valid composition configs: nonzero chunk, budget at least one
/// chunk (mirrors `Server::start` validation).
fn cfg_strategy() -> impl Strategy<Value = ComposeCfg> {
    (1usize..16, 0usize..120, any::<bool>()).prop_map(|(chunk, extra, priority_aware)| ComposeCfg {
        prefill_chunk: chunk,
        step_token_budget: chunk + extra,
        priority_aware,
    })
}

proptest! {
    #[test]
    fn decode_rows_never_starve(
        cfg in cfg_strategy(),
        seqs in proptest::collection::vec(seq_strategy(), 1..24),
    ) {
        let plan = compose_plan(&cfg, &seqs);
        prop_assert_eq!(plan.len(), seqs.len());
        for (seq, work) in seqs.iter().zip(&plan) {
            if seq.prompt_remaining == 0 {
                prop_assert_eq!(
                    *work, Some(PlanWork::Decode),
                    "decode row idled behind prefill: {:?}", seq
                );
            } else {
                prop_assert!(
                    !matches!(work, Some(PlanWork::Decode)),
                    "prefilling sequence scheduled as decode"
                );
            }
        }
    }

    #[test]
    fn prefill_respects_budget_or_is_the_anti_starvation_chunk(
        cfg in cfg_strategy(),
        seqs in proptest::collection::vec(seq_strategy(), 1..24),
    ) {
        let plan = compose_plan(&cfg, &seqs);
        let n_decode = seqs.iter().filter(|s| s.prompt_remaining == 0).count();
        let chunks: Vec<(usize, usize, bool)> = seqs
            .iter()
            .zip(&plan)
            .enumerate()
            .filter_map(|(i, (seq, work))| match work {
                Some(PlanWork::Chunk { len, last }) => {
                    // A chunk never overshoots its prompt or the chunk
                    // size, and `last` is exact.
                    assert!(*len <= seq.prompt_remaining && *len <= cfg.prefill_chunk);
                    assert_eq!(*last, *len == seq.prompt_remaining);
                    Some((i, *len, *last))
                }
                _ => None,
            })
            .collect();
        let prefill_tokens: usize = chunks.iter().map(|c| c.1).sum();
        let budget = cfg.step_token_budget.saturating_sub(n_decode);
        if prefill_tokens > budget {
            // Only the anti-starvation path exceeds the budget: decode
            // exhausted it, and exactly one chunk was granted anyway.
            prop_assert_eq!(chunks.len(), 1, "over budget with multiple grants");
            prop_assert!(
                budget == 0 || budget < chunks[0].1.min(cfg.prefill_chunk),
                "anti-starvation fired with budget {} available", budget
            );
        }
        // Liveness: whenever something is pending, something advances.
        let any_pending = seqs.iter().any(|s| s.prompt_remaining > 0);
        if any_pending {
            prop_assert!(!chunks.is_empty(), "pending prefill fully starved: {plan:?}");
        }
    }

    #[test]
    fn priority_grants_are_top_down(
        cfg in cfg_strategy(),
        seqs in proptest::collection::vec(seq_strategy(), 1..24),
    ) {
        let cfg = ComposeCfg { priority_aware: true, ..cfg };
        let plan = compose_plan(&cfg, &seqs);
        let granted: Vec<bool> = plan
            .iter()
            .map(|w| matches!(w, Some(PlanWork::Chunk { .. })))
            .collect();
        for i in 0..seqs.len() {
            if seqs[i].prompt_remaining == 0 || granted[i] {
                continue;
            }
            // i is pending and got nothing: no strictly lower-priority
            // pending sequence may have been granted a chunk.
            for j in 0..seqs.len() {
                if seqs[j].prompt_remaining > 0 && granted[j] {
                    prop_assert!(
                        seqs[j].priority <= seqs[i].priority,
                        "lower-priority seq {j} (prio {}) granted while {i} (prio {}) starved",
                        seqs[j].priority, seqs[i].priority
                    );
                }
            }
        }
    }

    #[test]
    fn pick_next_preserves_arrival_order_within_class(
        entries in proptest::collection::vec(0usize..3, 1..32),
    ) {
        // Unique, increasing seq_nos in arrival order.
        let mut queue: Vec<(usize, u64)> = entries
            .iter()
            .enumerate()
            .map(|(i, &prio)| (prio, i as u64))
            .collect();
        let mut drained: Vec<(usize, u64)> = Vec::new();
        while let Some(i) = pick_next(&queue, true) {
            let picked = queue.remove(i);
            // Never pick a class while a more urgent one waits.
            prop_assert!(
                queue.iter().all(|&(p, _)| p >= picked.0),
                "picked class {} while class {} was waiting",
                picked.0,
                queue.iter().map(|&(p, _)| p).min().unwrap()
            );
            drained.push(picked);
        }
        prop_assert_eq!(drained.len(), entries.len());
        // Within each class, arrival order (seq_no) is preserved.
        for class in 0..3 {
            let order: Vec<u64> = drained
                .iter()
                .filter(|&&(p, _)| p == class)
                .map(|&(_, s)| s)
                .collect();
            prop_assert!(
                order.windows(2).all(|w| w[0] < w[1]),
                "class {class} served out of arrival order: {order:?}"
            );
        }
    }

    #[test]
    fn shed_only_on_negative_slack(
        ttft_target_ms in 1u64..5_000,
        service_ms in 0u64..2_000,
        waited_ms in 0u64..10_000,
        batch_state in (0usize..8, 1usize..8),
        queued_ahead in 0usize..64,
        class_and_shed in (0usize..3, any::<bool>()),
    ) {
        let (active, max_batch) = batch_state;
        let (class_idx, shed_enabled) = class_and_shed;
        let class = SloClass::ALL[class_idx];
        let mut policy = SloPolicy { shed: shed_enabled, ..SloPolicy::default() };
        policy.targets[class.index()] =
            SloTarget::from_millis(ttft_target_ms, ttft_target_ms);
        let inputs = SlackInputs {
            service_estimate_ns: service_ms * 1_000_000,
            active,
            max_batch,
            queued_ahead,
            waited_ns: waited_ms * 1_000_000,
        };
        let predicted = predicted_ttft_ns(&inputs);
        // The prediction never undercuts the time already waited, and
        // is monotone in the queue ahead.
        prop_assert!(predicted >= inputs.waited_ns);
        let deeper = SlackInputs { queued_ahead: queued_ahead + max_batch, ..inputs };
        prop_assert!(predicted_ttft_ns(&deeper) >= predicted);

        let slack = slack_ns(policy.target(class), predicted);
        let shed = shed_decision(&policy, class, slack);
        if shed {
            prop_assert!(slack < 0, "shed with non-negative slack {slack}");
            prop_assert!(shed_enabled, "shed with shedding disabled");
            prop_assert!(class != SloClass::Interactive, "interactive shed");
        }
        // Contrapositives: any of the three conditions failing blocks
        // the shed.
        if slack >= 0 || !shed_enabled || class == SloClass::Interactive {
            prop_assert!(!shed);
        }
    }
}
