//! Preemption for paged KV serving: victim selection.
//!
//! When a step's planned KV growth needs more pages than the block
//! allocator has free (after the prefix index gave back what it can),
//! the scheduler evicts running sequences until the plan fits.
//! Preemption is a pause: the victim's KV rows are captured into
//! host-side [`kt_model::SwappedKv`] buffers (the offloaded tier), its
//! lease is released, and at resume the rows are restored bit-for-bit
//! into a fresh lease. The sequence's scheduling state — sampling RNG,
//! emitted tokens, the pending decode token, prompt progress — is
//! carried across unchanged, so it continues exactly where it stopped
//! and its tokens are bitwise identical to an unpreempted run.
//!
//! There is no second mechanism. Host DRAM is the large tier and CPU
//! FLOPs the scarce resource (the paper's deployment), and swap costs
//! one copy of the rows each way where rebuilding them would re-run
//! the forward.
//!
//! Victim *selection* is SLO-class-aware and reuses the admission
//! ordering of the SLO scheduler: the least urgent class goes first
//! (highest [`crate::SloClass::priority`] value), newest admission first
//! within a class — the mirror image of `pick_next`, so the sequences
//! the scheduler would admit last are preempted first.

/// What victim selection knows about one active sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimView {
    /// [`crate::SloClass::priority`] — 0 is most urgent.
    pub priority: usize,
    /// Process-wide admission counter: larger means admitted later.
    pub admit_seq: u64,
}

/// Picks the next preemption victim: the least urgent class present
/// (largest priority value), newest admission within it — exactly the
/// sequences priority admission would have admitted last. With two or
/// more candidates the pick is never the most urgent oldest sequence,
/// so at least one sequence always survives a preemption cascade.
/// `None` on an empty slice.
pub fn select_victim(views: &[VictimView]) -> Option<usize> {
    views
        .iter()
        .enumerate()
        .max_by_key(|(_, v)| (v.priority, v.admit_seq))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_order_is_least_urgent_newest_first() {
        let v = |priority, admit_seq| VictimView {
            priority,
            admit_seq,
        };
        assert_eq!(select_victim(&[]), None);
        // Class order beats admission order.
        assert_eq!(select_victim(&[v(0, 9), v(2, 1), v(1, 5)]), Some(1));
        // Within a class, newest first.
        assert_eq!(select_victim(&[v(1, 3), v(1, 7), v(0, 9)]), Some(1));
        // Two candidates never pick the most urgent oldest: a survivor
        // is guaranteed.
        assert_eq!(select_victim(&[v(0, 1), v(0, 2)]), Some(1));
    }
}
