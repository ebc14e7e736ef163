//! Operation cost models and calibration constants.
//!
//! Every constant here is anchored to a number the paper itself reports:
//!
//! | Constant | Anchor |
//! |---|---|
//! | `kt_amx_eff` = 0.289 | §3.2: KT AMX kernel reaches 21.3 of 73.7 TFLOPS |
//! | `onednn_amx_eff` = 0.073 | §2.2: oneDNN reaches ~7% of peak (5.4 TFLOPS) |
//! | `kt_avx512_tflops` = 1.8 | Figure 3: AVX-512 plateau |
//! | `llamacpp_cpu_tflops` = 1.4 | §6.2: llama.cpp trails Fiddler's oneDNN at long prompts |
//! | `fiddler_launches/latency` = 7000 x 16 µs | Figure 4 |
//! | `llamacpp_launches/latency` = 3000 x 5 µs | Figure 4 |
//! | bandwidth efficiencies | §2.3: Fiddler's 1-socket MoE decode layer takes 6.9 ms (~102 GB/s effective of 220), llama.cpp and KT progressively closer to peak |
//! | `amx_task_overhead` | Figure 7: AVX-512 wins at <= 4 tokens/expert; §3.2: hybrid is up to 1.20x faster than pure AMX in decode |
//!
//! The CPU MoE kernel model is a roofline with three corrections the
//! paper identifies: (1) AMX pads token counts to full 16-row tiles,
//! (2) each expert task pays a fixed scheduling/tile-configuration
//! overhead (higher for AMX), (3) static scheduling suffers an
//! imbalance factor during prefill (§3.2: dynamic scheduling recovers
//! up to 1.83x).

use crate::hardware::{CpuSpec, GpuSpec};

/// CPU kernel families the systems under study use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuKernel {
    /// PyTorch/oneDNN AMX path (Fiddler prefill).
    TorchAmx,
    /// PyTorch AVX-512 path (Fiddler decode).
    TorchAvx512,
    /// llama.cpp's hand-written AVX-512 kernels.
    LlamaCppAvx,
    /// KTransformers tiled AMX-class kernel.
    KtAmx,
    /// KTransformers lightweight AVX-512-class kernel.
    KtAvx512,
    /// KTransformers ARI-based hybrid dispatch (§3.2).
    KtHybrid,
}

/// Execution phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelPhase {
    /// Many tokens per expert (high ARI).
    Prefill,
    /// Few tokens per expert (low ARI).
    Decode,
}

/// Calibration constants (see module docs for anchors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Fraction of AMX peak the KT kernel sustains (21.3 / 73.7).
    pub kt_amx_eff: f64,
    /// Fraction of AMX peak oneDNN sustains (5.4 / 73.7).
    pub onednn_amx_eff: f64,
    /// KT AVX-512 kernel throughput per socket, TFLOPS.
    pub kt_avx512_tflops: f64,
    /// Torch AVX-512 path throughput per socket, TFLOPS.
    pub torch_avx512_tflops: f64,
    /// llama.cpp CPU throughput per socket, TFLOPS.
    pub llamacpp_cpu_tflops: f64,
    /// Effective DRAM bandwidth fraction of the KT packed layout.
    pub kt_bw_eff: f64,
    /// Effective bandwidth fraction of PyTorch's generic layouts
    /// (§3.2 blames "suboptimal memory layouts" for the oneDNN gap).
    pub torch_bw_eff: f64,
    /// Effective bandwidth fraction of llama.cpp's layouts.
    pub llamacpp_bw_eff: f64,
    /// AMX tile row granularity (token counts are padded to this).
    pub amx_m_pad: f64,
    /// Fixed per-expert-task overhead of the AMX path, seconds.
    pub amx_task_overhead_s: f64,
    /// Fixed per-expert-task overhead of the AVX-512 path, seconds.
    pub avx_task_overhead_s: f64,
    /// Per-layer framework overhead of the PyTorch interpreter path,
    /// seconds (Fiddler only).
    pub python_layer_overhead_s: f64,
    /// Extra work factor of the non-fused PyTorch MoE *module* (>= 1);
    /// applied at the system (policy) level, not in the kernel
    /// microbenchmark model, since Figure 3 measures bare kernels.
    pub torch_unfused_factor: f64,
    /// Load-imbalance multiplier of static scheduling during prefill
    /// (§3.2: dynamic scheduling is up to 1.83x better).
    pub static_prefill_imbalance: f64,
    /// Load-imbalance multiplier of static scheduling during decode.
    pub static_decode_imbalance: f64,
    /// GPU compute efficiency for large (prefill-sized) kernels.
    pub gpu_eff_large: f64,
    /// GPU compute efficiency for small decode-sized kernels.
    pub gpu_eff_small: f64,
    /// GPU HBM efficiency for large kernels.
    pub gpu_mem_eff_large: f64,
    /// GPU HBM efficiency for small decode-sized kernels (short rows,
    /// no coalescing amortization).
    pub gpu_mem_eff_small: f64,
    /// Latency of one CPU<->GPU synchronization point outside CUDA
    /// graphs, seconds.
    pub sync_latency_s: f64,
    /// Latency of a `cudaLaunchHostFunc` callback inside a captured
    /// graph, seconds (§3.3).
    pub hostfunc_latency_s: f64,
    /// Per-layer kernel-launch cost when replaying a captured graph,
    /// seconds.
    pub graph_replay_layer_s: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            kt_amx_eff: 21.3 / 73.7,
            onednn_amx_eff: 5.4 / 73.7,
            kt_avx512_tflops: 1.8,
            torch_avx512_tflops: 1.8,
            llamacpp_cpu_tflops: 1.4,
            kt_bw_eff: 0.90,
            torch_bw_eff: 0.50,
            llamacpp_bw_eff: 0.80,
            amx_m_pad: 16.0,
            amx_task_overhead_s: 50e-6,
            avx_task_overhead_s: 10e-6,
            python_layer_overhead_s: 1.0e-3,
            torch_unfused_factor: 1.25,
            static_prefill_imbalance: 1.7,
            static_decode_imbalance: 1.05,
            gpu_eff_large: 0.60,
            gpu_eff_small: 0.30,
            gpu_mem_eff_large: 0.70,
            gpu_mem_eff_small: 0.45,
            sync_latency_s: 15e-6,
            hostfunc_latency_s: 3e-6,
            graph_replay_layer_s: 1e-6,
        }
    }
}

/// Inputs describing one CPU MoE layer execution.
#[derive(Debug, Clone, Copy)]
pub struct CpuMoeOp {
    /// Tokens processed by each active expert (the paper's ARI axis).
    pub tokens_per_expert: f64,
    /// Distinct experts activated.
    pub n_active_experts: f64,
    /// Total useful FLOPs.
    pub flops: f64,
    /// Total weight/activation bytes streamed from DRAM.
    pub bytes: f64,
}

impl Calibration {
    /// Resolves the kernel the hybrid backend uses at a given ARI
    /// (Figure 7 crossover: vector kernel at <= 4 tokens/expert).
    pub fn resolve_hybrid(&self, kernel: CpuKernel, tokens_per_expert: f64) -> CpuKernel {
        match kernel {
            CpuKernel::KtHybrid => {
                if tokens_per_expert <= 4.0 {
                    CpuKernel::KtAvx512
                } else {
                    CpuKernel::KtAmx
                }
            }
            other => other,
        }
    }

    /// Effective compute throughput (FLOPS) of a kernel on `cpu`, all
    /// sockets combined.
    pub fn cpu_flops(&self, kernel: CpuKernel, cpu: &CpuSpec) -> f64 {
        let per_socket = match kernel {
            CpuKernel::TorchAmx => self.onednn_amx_eff * cpu.amx_peak_tflops,
            CpuKernel::TorchAvx512 => self.torch_avx512_tflops,
            CpuKernel::LlamaCppAvx => self.llamacpp_cpu_tflops,
            CpuKernel::KtAmx => self.kt_amx_eff * cpu.amx_peak_tflops,
            CpuKernel::KtAvx512 => self.kt_avx512_tflops,
            CpuKernel::KtHybrid => self.kt_amx_eff * cpu.amx_peak_tflops,
        };
        per_socket * 1e12 * cpu.sockets as f64
    }

    /// Effective DRAM bandwidth (bytes/s) for a kernel family, given
    /// NUMA awareness.
    pub fn cpu_bandwidth(&self, kernel: CpuKernel, cpu: &CpuSpec, numa_aware: bool) -> f64 {
        let raw = if numa_aware {
            cpu.total_local_bw_gbs()
        } else {
            cpu.total_oblivious_bw_gbs()
        };
        let eff = match kernel {
            CpuKernel::TorchAmx | CpuKernel::TorchAvx512 => self.torch_bw_eff,
            CpuKernel::LlamaCppAvx => self.llamacpp_bw_eff,
            CpuKernel::KtAmx | CpuKernel::KtAvx512 | CpuKernel::KtHybrid => self.kt_bw_eff,
        };
        raw * 1e9 * eff
    }

    /// Time (s) for one CPU MoE layer under the full kernel model.
    pub fn cpu_moe_time(
        &self,
        kernel: CpuKernel,
        op: &CpuMoeOp,
        cpu: &CpuSpec,
        numa_aware: bool,
        dynamic_sched: bool,
        phase: KernelPhase,
    ) -> f64 {
        let kernel = self.resolve_hybrid(kernel, op.tokens_per_expert);
        let is_amx = matches!(kernel, CpuKernel::TorchAmx | CpuKernel::KtAmx);
        // (1) AMX pads each expert's token count to full tiles.
        let pad = if is_amx {
            let m = op.tokens_per_expert.max(1.0);
            (m / self.amx_m_pad).ceil() * self.amx_m_pad / m
        } else {
            1.0
        };
        let flops = op.flops * pad;
        let compute = flops / self.cpu_flops(kernel, cpu);
        let memory = op.bytes / self.cpu_bandwidth(kernel, cpu, numa_aware);
        // (2) Fixed per-expert-task overhead, spread across sockets.
        let per_task = if is_amx {
            self.amx_task_overhead_s
        } else {
            self.avx_task_overhead_s
        };
        let overhead = op.n_active_experts * per_task / cpu.sockets as f64;
        // (3) Static-scheduling imbalance.
        let imbalance = if dynamic_sched {
            1.0
        } else {
            match phase {
                KernelPhase::Prefill => self.static_prefill_imbalance,
                KernelPhase::Decode => self.static_decode_imbalance,
            }
        };
        compute.max(memory) * imbalance + overhead
    }

    /// Sustained throughput (FLOPS) of one CPU MoE layer — the y-axis of
    /// Figures 3 and 7's companions.
    pub fn cpu_moe_tflops(
        &self,
        kernel: CpuKernel,
        op: &CpuMoeOp,
        cpu: &CpuSpec,
        numa_aware: bool,
        phase: KernelPhase,
    ) -> f64 {
        let t = self.cpu_moe_time(kernel, op, cpu, numa_aware, true, phase);
        if t <= 0.0 {
            return 0.0;
        }
        op.flops / t / 1e12
    }

    /// Time (s) for a GPU op under the roofline with size-dependent
    /// efficiencies.
    pub fn gpu_op_time(&self, gpu: &GpuSpec, flops: f64, bytes: f64, large: bool) -> f64 {
        let (ceff, meff) = if large {
            (self.gpu_eff_large, self.gpu_mem_eff_large)
        } else {
            (self.gpu_eff_small, self.gpu_mem_eff_small)
        };
        let compute = flops / (gpu.tflops * 1e12 * ceff);
        let memory = bytes / (gpu.hbm_gbs * 1e9 * meff);
        compute.max(memory)
    }

    /// PCIe transfer time (s).
    pub fn pcie_time(&self, bytes: f64, pcie_gbs: f64) -> f64 {
        bytes / (pcie_gbs * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::CpuSpec;

    fn cal() -> Calibration {
        Calibration::default()
    }

    fn cpu() -> CpuSpec {
        CpuSpec::dual_xeon_8452y()
    }

    /// A DS-3-like MoE layer op at `m` tokens per expert, all 256
    /// experts active (the Figure 3 microbenchmark setup).
    fn ds3_op(m: f64, n_active: f64) -> CpuMoeOp {
        let per_tok_expert_flops = 2.0 * 3.0 * 7168.0 * 2048.0;
        CpuMoeOp {
            tokens_per_expert: m,
            n_active_experts: n_active,
            flops: m * n_active * per_tok_expert_flops,
            bytes: n_active * 3.0 * 7168.0 * 2048.0 * 2.0, // BF16
        }
    }

    #[test]
    fn fig3_plateaus_match_paper() {
        // High-ARI throughput should approach the paper's measured
        // plateaus on a single socket: KT-AMX 21.3, oneDNN 5.4, AVX 1.8.
        let mut one = cpu();
        one.sockets = 1;
        let op = ds3_op(1024.0, 256.0);
        let kt = cal().cpu_moe_tflops(CpuKernel::KtAmx, &op, &one, true, KernelPhase::Prefill);
        let dnn =
            cal().cpu_moe_tflops(CpuKernel::TorchAmx, &op, &one, true, KernelPhase::Prefill);
        let avx =
            cal().cpu_moe_tflops(CpuKernel::KtAvx512, &op, &one, true, KernelPhase::Prefill);
        assert!((kt - 21.3).abs() < 2.0, "kt={kt}");
        assert!((dnn - 5.4).abs() < 1.5, "dnn={dnn}");
        assert!((avx - 1.8).abs() < 0.3, "avx={avx}");
        // Ordering: KT-AMX > oneDNN-AMX > AVX-512 at high ARI.
        assert!(kt > dnn && dnn > avx);
    }

    #[test]
    fn fig3_low_ari_is_bandwidth_bound() {
        let mut one = cpu();
        one.sockets = 1;
        let lo = ds3_op(1.0, 256.0);
        let hi = ds3_op(256.0, 256.0);
        let t_lo = cal().cpu_moe_tflops(CpuKernel::KtAmx, &lo, &one, true, KernelPhase::Decode);
        let t_hi =
            cal().cpu_moe_tflops(CpuKernel::KtAmx, &hi, &one, true, KernelPhase::Prefill);
        assert!(t_lo < t_hi / 5.0, "lo={t_lo} hi={t_hi}");
    }

    #[test]
    fn fig7_crossover_near_four_tokens() {
        // AVX-512 faster at m <= 4, AMX faster by m = 16 (Figure 7).
        let c = cal();
        let machine = cpu();
        for m in [1.0, 2.0, 4.0] {
            let op = ds3_op(m, 256.0);
            let amx = c.cpu_moe_time(CpuKernel::KtAmx, &op, &machine, true, true, KernelPhase::Decode);
            let avx =
                c.cpu_moe_time(CpuKernel::KtAvx512, &op, &machine, true, true, KernelPhase::Decode);
            assert!(avx < amx, "m={m}: avx {avx} should beat amx {amx}");
        }
        for m in [16.0, 64.0] {
            let op = ds3_op(m, 256.0);
            let amx =
                c.cpu_moe_time(CpuKernel::KtAmx, &op, &machine, true, true, KernelPhase::Prefill);
            let avx = c.cpu_moe_time(
                CpuKernel::KtAvx512,
                &op,
                &machine,
                true,
                true,
                KernelPhase::Prefill,
            );
            assert!(amx < avx, "m={m}: amx {amx} should beat avx {avx}");
        }
    }

    #[test]
    fn hybrid_resolves_by_ari() {
        let c = cal();
        assert_eq!(c.resolve_hybrid(CpuKernel::KtHybrid, 1.0), CpuKernel::KtAvx512);
        assert_eq!(c.resolve_hybrid(CpuKernel::KtHybrid, 4.0), CpuKernel::KtAvx512);
        assert_eq!(c.resolve_hybrid(CpuKernel::KtHybrid, 5.0), CpuKernel::KtAmx);
        assert_eq!(c.resolve_hybrid(CpuKernel::KtAmx, 1.0), CpuKernel::KtAmx);
    }

    #[test]
    fn prefill_hybrid_speedup_over_pure_avx() {
        // §3.2: "up to 10.81x speedup in prefill phases compared to pure
        // AVX-512".
        let c = cal();
        let machine = cpu();
        let op = ds3_op(256.0, 256.0);
        let hybrid = c.cpu_moe_time(
            CpuKernel::KtHybrid,
            &op,
            &machine,
            true,
            true,
            KernelPhase::Prefill,
        );
        let avx = c.cpu_moe_time(
            CpuKernel::KtAvx512,
            &op,
            &machine,
            true,
            true,
            KernelPhase::Prefill,
        );
        let speedup = avx / hybrid;
        assert!(speedup > 6.0 && speedup < 14.0, "speedup={speedup}");
    }

    #[test]
    fn decode_hybrid_speedup_over_pure_amx() {
        // §3.2: "up to 1.20x speedup in decode phases compared to pure
        // AMX".
        let c = cal();
        let machine = cpu();
        let op = ds3_op(1.0, 8.0); // decode: top-8 experts, 1 token each
        let hybrid =
            c.cpu_moe_time(CpuKernel::KtHybrid, &op, &machine, true, true, KernelPhase::Decode);
        let amx =
            c.cpu_moe_time(CpuKernel::KtAmx, &op, &machine, true, true, KernelPhase::Decode);
        let speedup = amx / hybrid;
        assert!(speedup > 1.05 && speedup < 1.4, "speedup={speedup}");
    }

    #[test]
    fn numa_awareness_improves_decode_bandwidth() {
        let c = cal();
        let machine = cpu();
        let op = ds3_op(1.0, 8.0);
        let aware =
            c.cpu_moe_time(CpuKernel::KtAvx512, &op, &machine, true, true, KernelPhase::Decode);
        let oblivious =
            c.cpu_moe_time(CpuKernel::KtAvx512, &op, &machine, false, true, KernelPhase::Decode);
        let ratio = oblivious / aware;
        assert!(ratio > 1.2 && ratio < 1.7, "ratio={ratio}");
    }

    #[test]
    fn dynamic_scheduling_helps_prefill_most() {
        let c = cal();
        let machine = cpu();
        let op = ds3_op(256.0, 256.0);
        let dynamic =
            c.cpu_moe_time(CpuKernel::KtAmx, &op, &machine, true, true, KernelPhase::Prefill);
        let static_ =
            c.cpu_moe_time(CpuKernel::KtAmx, &op, &machine, true, false, KernelPhase::Prefill);
        let prefill_gain = static_ / dynamic;
        assert!(prefill_gain > 1.4 && prefill_gain < 1.9, "{prefill_gain}");
        let op_d = ds3_op(1.0, 8.0);
        let dyn_d =
            c.cpu_moe_time(CpuKernel::KtAvx512, &op_d, &machine, true, true, KernelPhase::Decode);
        let stat_d =
            c.cpu_moe_time(CpuKernel::KtAvx512, &op_d, &machine, true, false, KernelPhase::Decode);
        let decode_gain = stat_d / dyn_d;
        assert!(decode_gain < 1.1, "{decode_gain}");
    }

    #[test]
    fn fiddler_single_layer_decode_near_measured() {
        // §2.3: Fiddler's dual-socket MoE decode layer takes ~5.8 ms.
        let c = cal();
        let machine = cpu();
        let op = ds3_op(1.0, 8.0);
        let t = c.cpu_moe_time(
            CpuKernel::TorchAvx512,
            &op,
            &machine,
            false,
            false,
            KernelPhase::Decode,
        ) + c.python_layer_overhead_s;
        assert!(t > 3.5e-3 && t < 9e-3, "t={t}");
    }

    #[test]
    fn gpu_roofline_behaves() {
        let c = cal();
        let gpu = GpuSpec::a100_40gb();
        // Compute-bound large op.
        let t1 = c.gpu_op_time(&gpu, 1e12, 1e6, true);
        assert!((t1 - 1.0 / (312.0 * 0.6)).abs() < 1e-3);
        // Memory-bound small op: 374 MB of MLA weights at decode.
        let t2 = c.gpu_op_time(&gpu, 1e9, 374e6, false);
        assert!(t2 > 0.3e-3 && t2 < 0.8e-3, "t2={t2}");
        // PCIe: 32 GB/s.
        assert!((c.pcie_time(32e9, 32.0) - 1.0).abs() < 1e-9);
    }
}
