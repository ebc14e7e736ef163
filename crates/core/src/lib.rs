//! The KTransformers engine: asynchronous CPU/GPU hybrid execution.
//!
//! This crate is the paper's primary system contribution, rebuilt on a
//! **virtual GPU** so every scheduling mechanism is genuinely exercised
//! even without CUDA hardware:
//!
//! * [`vgpu`] — a device thread with in-order streams, kernel launches
//!   (with configurable injected launch latency, emulating the 5-16 µs
//!   costs of Figure 4), `cudaLaunchHostFunc`-style in-stream host
//!   callbacks, stream synchronization, and **graph capture/replay**:
//!   a captured op sequence replays with a single launch, which is how
//!   the paper fits the whole decode path into one CUDA Graph (§3.3).
//! * [`cpu_backend`] — the CPU side: a lock-free task queue drained by
//!   background worker threads, fed by the control thread exactly as
//!   §3.3 describes ("pushes routed-expert tasks into a lock-free
//!   queue ... background worker threads execute the queued tasks").
//! * [`placement`] — the placement plan (attention/shared experts/LM
//!   head on GPU, routed experts on CPU): the §3.1 split, the engine's
//!   only placement.
//! * [`engine`] — [`engine::HybridEngine`]: an end-to-end MoE decoder
//!   wiring the two backends together, with three scheduling modes
//!   (synchronous baseline, async single-graph, async + Expert
//!   Deferral) that are numerically equivalent where the paper says
//!   they are and differ exactly where deferral changes the math.

pub mod cpu_backend;
pub mod engine;
pub mod error;
pub mod placement;
pub mod profiling;
pub mod vgpu;

pub use cpu_backend::CpuBackend;
pub use engine::{BatchSeq, EngineConfig, FaultHook, HybridEngine, SchedMode};
pub use error::EngineError;
pub use placement::{DeviceKind, PlacementPlan};
pub use kt_tensor::ArenaStats;
// Re-exported so downstream crates (kt-serve's `kt_build_info` gauge)
// can label replicas with the kernel ISA level without a direct
// kt-kernels dependency.
pub use kt_kernels::simd::{effective_simd_level, SimdLevel};
pub use profiling::{percentile_ns, ExpertProfile, RequestMetrics, ServeStats};
pub use vgpu::{GraphHandle, LaunchStats, StreamId, VgpuConfig, VirtualGpu};
