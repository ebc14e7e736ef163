//! CPU compute kernels for the KTransformers reproduction (§3.2).
//!
//! This crate implements the paper's "Arithmetic Intensity-Aware Hybrid
//! Inference Kernel" in portable Rust:
//!
//! * [`gemm`] — the tiled, cache-blocked "AMX-class" GEMM operating on
//!   the packed tile layout from `kt-tensor`, plus the lightweight
//!   "AVX-512-class" vector kernel that shares the same layout.
//! * [`dispatch`] — arithmetic-intensity-based kernel selection (tokens
//!   per expert ≤ 4 → vector kernel; Figure 7's crossover).
//! * [`schedule`] — worker thread pool with *static* and *dynamic* task
//!   scheduling; dynamic scheduling is the paper's "lightweight task
//!   queue" that fixes prefill load imbalance (up to 1.83×).
//! * [`steal`] — the work-stealing alternative (per-worker deques with
//!   home affinity for expert co-scheduling), for comparison.
//! * [`moe`] — the fused MoE operator: Gate+Up projections of all
//!   activated experts merged into one task batch, Down projections into
//!   a second, eliminating per-projection synchronization.
//! * [`attn`] — the attention core (scores, softmax, PV) of both
//!   attention variants, one fixed-order kernel per SIMD level, bitwise
//!   equal across levels.
//! * [`numa`] — NUMA-aware tensor parallelism: every expert weight
//!   matrix is column-partitioned across socket domains with a
//!   reduce-scatter-style combine, vs. the Expert-Parallel baseline.
//!
//! No kernel here issues AMX instructions, even on a host whose CPU
//! has the AMX units (`amx_tile`, `amx_int8`, `amx_bf16`): the tiled
//! kernel is an AVX-512 FMA stand-in that reproduces the *algorithm*
//! (packed tile-major weights, L2-sized blocking, register-blocked
//! microkernel, one-pass staging of inputs) with real AVX-512/AVX2
//! microkernels ([`simd`]) where the host supports them. The AMX
//! performance *model* lives in `kt-hwsim`.

pub mod act;
pub mod attn;
pub mod dispatch;
pub mod error;
pub mod gemm;
pub mod moe;
pub mod numa;
pub mod schedule;
pub mod simd;
pub mod steal;

pub use dispatch::{select_kernel, KernelClass, ARI_CROSSOVER};
pub use error::KernelError;
pub use gemm::{gemm_auto, gemm_tiled, gemv_vector};
pub use moe::{ExpertWeights, FusedMoE, MoeRouting, MoeWorkspace};
pub use numa::{ExpertParallelMoe, NumaTopology, TensorParallelMoe};
pub use schedule::{SchedulePolicy, ThreadPool};
pub use simd::{simd_level, SimdLevel};
pub use steal::run_stealing;
