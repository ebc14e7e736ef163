//! Every metric the benchmark prints, declared once: name and unit.
//! `BENCHMARK.json` lists the same names; `--smoke` checks the two
//! agree.

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("out_tok_s", "tok/s"),
    ("in_tok_s", "tok/s"),
    ("ttft_p50_ms", "ms"),
    ("goodput_frac", "frac"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // kernels
    ("kernels.gemv_int4_gbs", "GB/s"),
    ("kernels.gemv_int8_gbs", "GB/s"),
    ("kernels.gemv_f32_gbs", "GB/s"),
    ("kernels.moe_m1_us", "us"),
    ("kernels.moe_m1_gbs", "GB/s"),
    ("kernels.moe_weight_bytes_per_tok", "bytes"),
    ("kernels.moe_flops_per_tok", "flop"),
    ("kernels.gemm_tiled_int4_gflops", "GFLOP/s"),
    ("kernels.gemm_tiled_f32_gflops", "GFLOP/s"),
    ("kernels.gemm_rowwise_f32_gflops", "GFLOP/s"),
    ("kernels.moe_m64_us", "us"),
    ("kernels.moe_m64_gflops", "GFLOP/s"),
    ("kernels.moe_m8_us", "us"),
    // tensor
    ("tensor.arena_allocs_per_step", "count"),
    ("tensor.arena_high_water_mb", "MB"),
    ("tensor.arena_served_frac", "frac"),
    ("tensor.quant_pack_ms", "ms"),
    // model
    ("model.attn_decode_ctx512_us", "us"),
    ("model.attn_chunk64_ctx512_us", "us"),
    ("model.gate_route_m1_us", "us"),
    ("model.gate_route_m64_us", "us"),
    ("model.prefix_lookup_us", "us"),
    ("model.prefix_seed_us", "us"),
    ("model.prefix_hit_frac", "frac"),
    ("model.prefix_lookups_per_req", "count"),
    ("model.prefix_insert_us", "us"),
    ("model.prefix_evictions", "count"),
    ("model.pool_lease_release_us", "us"),
    ("model.page_alloc_free_ns", "ns"),
    ("model.kv_pages_peak_frac", "frac"),
    ("model.kv_pages_shared_peak", "count"),
    // core
    ("core.step_decode_b1_us", "us"),
    ("core.step_decode_b8_us", "us"),
    ("core.step_chunk64_us", "us"),
    ("core.step_mixed_us", "us"),
    ("core.launches_per_step", "count"),
    ("core.graph_replays_per_step", "count"),
    ("core.launch_overhead_frac", "frac"),
    ("core.gpu_busy_frac", "frac"),
    ("core.phase.embed_us", "us"),
    ("core.phase.attention_us", "us"),
    ("core.phase.gating_us", "us"),
    ("core.phase.cpu_expert_us", "us"),
    ("core.phase.shared_expert_us", "us"),
    ("core.phase.merge_spin_us", "us"),
    ("core.phase.scatter_add_us", "us"),
    ("core.phase.lm_head_us", "us"),
    ("core.phase.other_us", "us"),
    // serve
    ("serve.steps", "count"),
    ("serve.prefill_tokens", "count"),
    ("serve.prefill_chunks", "count"),
    ("serve.mean_occupancy", "count"),
    ("serve.mean_queue_depth", "count"),
    ("serve.peak_queue_depth", "count"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p90_ms", "ms"),
    ("serve.ttft_p90_ms", "ms"),
    ("serve.itl_p50_ms", "ms"),
    ("serve.itl_tail_ms", "ms"),
    ("serve.itl_tail_pct", "%"),
    ("serve.sched_overhead_us", "us"),
    ("serve.compose_plan_us", "us"),
    ("serve.submit_us", "us"),
    ("serve.preempt_swap", "count"),
    ("serve.preempt_recompute", "count"),
    ("serve.shed", "count"),
    ("serve.gen_late_p99_ms", "ms"),
    ("serve.match_frac", "frac"),
    // trace
    ("trace.overhead_frac", "frac"),
    ("trace.coverage_frac", "frac"),
    ("trace.spans_recorded", "count"),
    // proc
    ("proc.cpu_s_per_ktok", "s"),
    ("proc.idle_cpu_frac", "frac"),
    ("proc.threads", "count"),
    ("proc.peak_rss_mb", "MB"),
    // host
    ("host.ref_stream_gbs", "GB/s"),
    ("host.ref_fma_gflops", "GFLOP/s"),
    ("host.ref_drift_frac", "frac"),
    ("host.steal_frac", "frac"),
];

/// An ordered `name -> value` table that refuses names it was not
/// declared with and names set twice.
pub struct Table {
    decl: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Table {
    pub fn new(decl: &'static [(&'static str, &'static str)]) -> Table {
        Table {
            decl,
            values: vec![None; decl.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .decl
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(self.values[i].is_none(), "metric {name} set twice");
        self.values[i] = Some(value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.decl.iter().position(|(n, _)| *n == name)?;
        self.values[i]
    }

    /// `(name, unit, value)` rows in declaration order.
    ///
    /// # Errors
    ///
    /// Names every declared metric that was never set or is not finite.
    pub fn rows(&self) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        let mut bad = Vec::new();
        let mut rows = Vec::with_capacity(self.decl.len());
        for (&(name, unit), v) in self.decl.iter().zip(&self.values) {
            match v {
                Some(v) if v.is_finite() => rows.push((name, unit, *v)),
                _ => bad.push(name),
            }
        }
        if bad.is_empty() {
            Ok(rows)
        } else {
            Err(format!("metrics missing or not finite: {}", bad.join(", ")))
        }
    }
}
