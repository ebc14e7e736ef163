//! Expert-activation profiling and serving metrics.
//!
//! The engine records which routed experts each layer activates
//! ([`ExpertProfile`]); the serving layer exposes the counts as
//! `kt_expert_hits_total{layer,expert}`. Placement does not read them:
//! every routed expert runs on the CPU (the paper's static split).
//!
//! The serving layer records per-request latency ([`RequestMetrics`]:
//! queue wait, TTFT, inter-token gaps) and aggregate scheduler
//! behavior ([`ServeStats`]: request outcomes, queue depth, batch
//! occupancy) with the same plain-data style as [`ExpertProfile`].

use kt_kernels::moe::MoeRouting;

/// Per-request latency metrics recorded by the serving layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestMetrics {
    /// Time spent queued before the scheduler admitted the request
    /// (nanoseconds).
    pub queue_wait_ns: u64,
    /// Time from admission to the first emitted token (time to first
    /// token, nanoseconds). `None` when the request ended before
    /// producing a token.
    pub ttft_ns: Option<u64>,
    /// Inter-token latencies of every token after the first
    /// (nanoseconds).
    pub token_latencies_ns: Vec<u64>,
}

impl RequestMetrics {
    /// Tokens the request emitted.
    pub fn n_tokens(&self) -> usize {
        match self.ttft_ns {
            Some(_) => 1 + self.token_latencies_ns.len(),
            None => 0,
        }
    }
}

/// Aggregate scheduler statistics over a serving session.
///
/// The outcome fields (`completed` through `slo_met`) are not counted
/// here: the server keeps one per-SLO-class ledger and fills them as
/// sums over its classes when it takes a snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Requests that ran to completion.
    pub completed: u64,
    /// Requests cancelled by their client.
    pub cancelled: u64,
    /// Requests that failed with an engine error.
    pub failed: u64,
    /// Requests shed by the admission controller (negative predicted
    /// SLO slack; see `kt_serve::SloPolicy`).
    pub shed: u64,
    /// Resolved requests that missed their class's TTFT target (only
    /// counted when the server runs an SLO policy).
    pub slo_ttft_violations: u64,
    /// Resolved requests with at least one inter-token gap over their
    /// class's ITL target.
    pub slo_itl_violations: u64,
    /// Completed requests that met both their TTFT and ITL targets.
    pub slo_met: u64,
    /// Total tokens emitted across all requests.
    pub tokens_generated: u64,
    /// Continuous-batching steps executed.
    pub steps: u64,
    /// Sum over steps of the number of active sequences (mean batch
    /// occupancy = this / `steps`).
    pub occupancy_sum: u64,
    /// Sum over steps of the admission-queue depth observed at the
    /// start of the step (mean queue depth = this / `steps`).
    pub queue_depth_sum: u64,
    /// Deepest admission queue observed.
    pub peak_queue_depth: u64,
    /// Prefill chunks executed (a monolithic prefill counts as one
    /// chunk; a prompt split across steps counts once per step).
    pub prefill_chunks: u64,
    /// Prompt tokens fed through prefill chunks.
    pub prefill_tokens: u64,
    /// Scratch-arena bytes requested by step-workspace checkouts
    /// (engine hot path; see `HybridEngine::workspace_stats`).
    pub arena_bytes_requested: u64,
    /// Bytes served by reusing an existing arena buffer.
    pub arena_bytes_served: u64,
    /// Bytes served by fresh heap allocations. Flat across steady-state
    /// decode steps ⇒ the zero-allocation hot path is holding.
    pub arena_bytes_allocated: u64,
    /// Fresh heap allocations performed by the arenas.
    pub arena_allocations: u64,
    /// High-water mark of bytes held across all step arenas.
    pub arena_high_water_bytes: u64,
    /// Kernels launched individually on the virtual GPU (snapshot of
    /// `LaunchStats::kernel_launches`; see `ServeStats::set_launch`).
    pub gpu_kernel_launches: u64,
    /// Host-function callbacks executed in-stream.
    pub gpu_host_funcs: u64,
    /// Graph replays (each is one launch regardless of graph size).
    pub gpu_graph_replays: u64,
    /// Ops executed via graph replay (launch-free).
    pub gpu_graph_ops: u64,
    /// Simulated launch-latency nanoseconds charged on the device.
    pub gpu_launch_overhead_ns: u64,
    /// Nanoseconds the device spent executing ops.
    pub gpu_busy_ns: u64,
    /// KV-cache leases currently out (snapshot of pool occupancy; see
    /// [`ServeStats::set_pool`]).
    pub kv_leases_in_use: u64,
    /// Reset KV caches parked in the pool's free list.
    pub kv_leases_free: u64,
    /// High-water mark of concurrent KV-cache leases.
    pub kv_leases_peak: u64,
    /// KV pages the block allocator can hand out in total (snapshot of
    /// the pool; see [`ServeStats::set_pages`]).
    pub kv_pages_total: u64,
    /// KV pages currently free in the allocator.
    pub kv_pages_free: u64,
    /// Allocated pages referenced by more than one holder (prefix
    /// sharing between the index and leases, or between leases).
    pub kv_pages_shared: u64,
    /// Pages' worth of KV rows currently swapped out to the host tier
    /// by preemption (maintained by the scheduler, not snapshotted:
    /// swapped rows live outside the allocator).
    pub kv_pages_swapped: u64,
    /// Sequences preempted with their pages swapped to the host tier
    /// (the only preemption mechanism).
    pub preempt_swap: u64,
    /// Always 0: preemption never drops pages for recompute. Kept
    /// because the frozen serving benchmark reads and reports it.
    pub preempt_recompute: u64,
    /// Prefix-cache lookups at admission (snapshot of the prefix
    /// cache's counters; see [`ServeStats::set_prefix`]).
    pub prefix_lookups: u64,
    /// Lookups that matched at least `min_prefix_len` tokens.
    pub prefix_hits: u64,
    /// Lookups that matched nothing reusable.
    pub prefix_misses: u64,
    /// Prompt tokens served from cached prefixes instead of prefill.
    pub prefix_hit_tokens: u64,
    /// Prefix segments frozen into the index.
    pub prefix_insertions: u64,
    /// Prefix segments evicted, by the byte budget or the page valve.
    pub prefix_evictions: u64,
    /// Bytes freed by prefix eviction.
    pub prefix_evicted_bytes: u64,
    /// Bytes currently resident in frozen prefix segments.
    pub prefix_resident_bytes: u64,
    /// Prefix segments currently resident.
    pub prefix_entries: u64,
}

impl ServeStats {
    /// Mean number of active sequences per step.
    pub fn mean_occupancy(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.steps as f64
        }
    }

    /// Requests resolved one way or another (completion, cancellation,
    /// failure, or shed — every submitted request ends in exactly one).
    pub fn resolved(&self) -> u64 {
        self.completed + self.cancelled + self.failed + self.shed
    }

    /// Overwrites the arena counters from an engine snapshot (the
    /// engine's counters are cumulative, so the snapshot replaces
    /// rather than accumulates).
    pub fn set_arena(&mut self, s: &kt_tensor::ArenaStats) {
        self.arena_bytes_requested = s.bytes_requested;
        self.arena_bytes_served = s.bytes_served;
        self.arena_bytes_allocated = s.bytes_allocated;
        self.arena_allocations = s.allocations;
        self.arena_high_water_bytes = s.high_water_bytes;
    }

    /// Overwrites the GPU launch counters from an engine snapshot
    /// (cumulative on the engine side, so replace, same as
    /// [`ServeStats::set_arena`]).
    pub fn set_launch(&mut self, s: &crate::vgpu::LaunchStats) {
        self.gpu_kernel_launches = s.kernel_launches;
        self.gpu_host_funcs = s.host_funcs;
        self.gpu_graph_replays = s.graph_replays;
        self.gpu_graph_ops = s.graph_ops;
        self.gpu_launch_overhead_ns = s.launch_overhead_ns;
        self.gpu_busy_ns = s.busy_ns;
    }

    /// Overwrites the KV-pool occupancy gauges from a pool snapshot
    /// (replace, not accumulate, same as [`ServeStats::set_arena`]).
    pub fn set_pool(&mut self, o: &kt_model::pool::PoolOccupancy) {
        self.kv_leases_in_use = o.in_use as u64;
        self.kv_leases_free = o.free as u64;
        self.kv_leases_peak = o.peak as u64;
    }

    /// Overwrites the page-allocator gauges from a paged-pool snapshot
    /// (replace, not accumulate, same as [`ServeStats::set_arena`]).
    /// `kv_pages_swapped` is *not* touched: swapped rows live outside
    /// the allocator, so the scheduler maintains that gauge directly.
    pub fn set_pages(&mut self, s: &kt_model::paged::PageStats) {
        self.kv_pages_total = s.total as u64;
        self.kv_pages_free = s.free as u64;
        self.kv_pages_shared = s.shared as u64;
    }

    /// Overwrites the prefix-cache counters from a cache snapshot
    /// (replace, not accumulate, same as [`ServeStats::set_arena`]).
    pub fn set_prefix(&mut self, s: &kt_model::prefix::PrefixStats) {
        self.prefix_lookups = s.lookups;
        self.prefix_hits = s.hits;
        self.prefix_misses = s.misses;
        self.prefix_hit_tokens = s.hit_tokens;
        self.prefix_insertions = s.insertions;
        self.prefix_evictions = s.evictions;
        self.prefix_evicted_bytes = s.evicted_bytes;
        self.prefix_resident_bytes = s.resident_bytes;
        self.prefix_entries = s.entries;
    }
}

/// Per-layer expert activation counts.
#[derive(Debug, Clone)]
pub struct ExpertProfile {
    counts: Vec<Vec<u64>>,
}

impl ExpertProfile {
    /// Creates an empty profile for `n_layers` layers of `n_experts`.
    pub fn new(n_layers: usize, n_experts: usize) -> Self {
        ExpertProfile {
            counts: vec![vec![0; n_experts]; n_layers],
        }
    }

    /// Number of layers tracked.
    pub fn n_layers(&self) -> usize {
        self.counts.len()
    }

    /// Experts tracked per layer (0 for an empty profile).
    pub fn n_experts(&self) -> usize {
        self.counts.first().map_or(0, Vec::len)
    }

    /// Records one routing decision for `layer`.
    pub fn record(&mut self, layer: usize, routing: &MoeRouting) {
        for assignment in &routing.assignments {
            for &(e, _) in assignment {
                if let Some(c) = self.counts.get_mut(layer).and_then(|l| l.get_mut(e)) {
                    *c += 1;
                }
            }
        }
    }

    /// Raw activation count of `(layer, expert)`.
    pub fn count(&self, layer: usize, expert: usize) -> u64 {
        self.counts[layer][expert]
    }

    /// Total activations recorded for `layer`.
    pub fn total(&self, layer: usize) -> u64 {
        self.counts[layer].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn routing(pairs: &[usize]) -> MoeRouting {
        MoeRouting::new(vec![pairs.iter().map(|&e| (e, 1.0)).collect()])
    }

    #[test]
    fn records_and_counts() {
        let mut p = ExpertProfile::new(2, 4);
        p.record(0, &routing(&[0, 2]));
        p.record(0, &routing(&[2, 3]));
        p.record(1, &routing(&[1]));
        assert_eq!(p.count(0, 2), 2);
        assert_eq!(p.count(0, 1), 0);
        assert_eq!(p.total(0), 4);
        assert_eq!(p.total(1), 1);
    }

    #[test]
    fn out_of_range_records_are_ignored() {
        let mut p = ExpertProfile::new(1, 2);
        p.record(0, &routing(&[7]));
        p.record(5, &routing(&[0]));
        assert_eq!(p.total(0), 0);
    }

    #[test]
    fn request_metrics_token_accounting() {
        let none = RequestMetrics::default();
        assert_eq!(none.n_tokens(), 0);

        let m = RequestMetrics {
            queue_wait_ns: 10,
            ttft_ns: Some(100),
            token_latencies_ns: vec![20, 40, 60],
        };
        assert_eq!(m.n_tokens(), 4);
    }

    #[test]
    fn serve_stats_means() {
        let mut s = ServeStats::default();
        assert_eq!(s.mean_occupancy(), 0.0);
        s.steps = 4;
        s.occupancy_sum = 10;
        s.completed = 2;
        s.failed = 1;
        s.shed = 2;
        assert!((s.mean_occupancy() - 2.5).abs() < 1e-12);
        assert_eq!(s.resolved(), 5, "shed requests count as resolved");
    }

    #[test]
    fn set_launch_overwrites_gpu_counters() {
        let mut s = ServeStats::default();
        let launch = crate::vgpu::LaunchStats {
            kernel_launches: 3,
            host_funcs: 4,
            graph_replays: 5,
            graph_ops: 60,
            launch_overhead_ns: 700,
            busy_ns: 800,
        };
        s.set_launch(&launch);
        s.set_launch(&launch); // replace, not accumulate
        assert_eq!(s.gpu_kernel_launches, 3);
        assert_eq!(s.gpu_host_funcs, 4);
        assert_eq!(s.gpu_graph_replays, 5);
        assert_eq!(s.gpu_graph_ops, 60);
        assert_eq!(s.gpu_launch_overhead_ns, 700);
        assert_eq!(s.gpu_busy_ns, 800);
    }

    #[test]
    fn set_pool_and_set_prefix_overwrite_snapshots() {
        let mut s = ServeStats::default();
        let occ = kt_model::pool::PoolOccupancy {
            in_use: 2,
            free: 3,
            peak: 4,
            constructed: 5,
        };
        s.set_pool(&occ);
        s.set_pool(&occ); // replace, not accumulate
        assert_eq!(s.kv_leases_in_use, 2);
        assert_eq!(s.kv_leases_free, 3);
        assert_eq!(s.kv_leases_peak, 4);

        let px = kt_model::prefix::PrefixStats {
            lookups: 10,
            hits: 7,
            misses: 3,
            hit_tokens: 700,
            insertions: 5,
            evictions: 2,
            evicted_bytes: 160,
            resident_bytes: 240,
            entries: 3,
        };
        s.set_prefix(&px);
        s.set_prefix(&px);
        assert_eq!(s.prefix_lookups, 10);
        assert_eq!(s.prefix_hits, 7);
        assert_eq!(s.prefix_misses, 3);
        assert_eq!(s.prefix_hit_tokens, 700);
        assert_eq!(s.prefix_insertions, 5);
        assert_eq!(s.prefix_evictions, 2);
        assert_eq!(s.prefix_evicted_bytes, 160);
        assert_eq!(s.prefix_resident_bytes, 240);
        assert_eq!(s.prefix_entries, 3);
    }

    #[test]
    fn set_pages_overwrites_allocator_gauges_but_not_swapped() {
        let mut s = ServeStats {
            kv_pages_swapped: 7,
            ..Default::default()
        };
        let ps = kt_model::paged::PageStats {
            total: 64,
            allocated: 40,
            free: 24,
            peak: 48,
            shared: 6,
            alloc_total: 100,
            freed_total: 60,
            exhausted_total: 2,
        };
        s.set_pages(&ps);
        s.set_pages(&ps); // replace, not accumulate
        assert_eq!(s.kv_pages_total, 64);
        assert_eq!(s.kv_pages_free, 24);
        assert_eq!(s.kv_pages_shared, 6);
        assert_eq!(s.kv_pages_swapped, 7, "scheduler-owned gauge untouched");
    }
}
