//! Discrete-event simulator of heterogeneous CPU/GPU platforms for MoE
//! inference.
//!
//! The paper's headline results were measured on hardware this
//! reproduction does not have (dual Xeon 8452Y with AMX, NVIDIA
//! A100/RTX 4080). This crate substitutes a **calibrated simulator**:
//!
//! * [`hardware`] — machine descriptions (socket counts, AMX/AVX-512
//!   rooflines, local/remote memory bandwidth, GPU TFLOPS/HBM, PCIe),
//!   with presets matching §6.1's testbed.
//! * [`desim`] — a deterministic task-graph discrete-event engine:
//!   tasks bind to resources (CPU sockets, GPU compute, GPU launch
//!   engine, PCIe), run FIFO per resource after their dependencies, and
//!   produce makespans, per-resource busy/overhead time and full
//!   timelines (Figure 10's accounting).
//! * [`cost`] — operation cost models: the CPU MoE kernel model
//!   (reproducing Figures 3 and 7: bandwidth-bound at low arithmetic
//!   intensity, kernel-efficiency-bound at high ARI, AMX tile padding
//!   and task overheads), the GPU roofline, kernel-launch overheads
//!   (Figure 4) and transfer/synchronization costs.
//! * [`workload`] — per-layer FLOP/byte workloads derived from the
//!   full-scale [`kt_model::ModelConfig`]s of Table 1.
//! * [`policy`] — the systems under comparison: Fiddler-style,
//!   llama.cpp-style and KTransformers with individually toggleable
//!   optimizations (v/m/d/n/c of Figure 14) plus Expert Deferral.
//! * [`experiments`] — series builders for every figure and table of
//!   the evaluation, consumed by the `kt-bench` binaries.
//!
//! Calibration constants come from numbers the paper itself reports
//! (peak/achieved TFLOPS, bandwidths, launch counts and latencies,
//! reference throughputs); see `cost::Calibration`.

pub mod cost;
pub mod desim;
pub mod error;
pub mod experiments;
pub mod hardware;
pub mod pipeline;
pub mod policy;
pub mod workload;

pub use cost::Calibration;
pub use desim::{Segment, SegmentKind, Sim, SimResult, TaskSpec};
pub use error::SimError;
pub use hardware::{CpuSpec, GpuSpec, Platform};
pub use pipeline::{kv_offload_decode_sweep, simulate_batch_decode, simulate_prefill_pipeline, KvOffloadPoint, PipelineReport};
pub use policy::{Phase, SystemPolicy};
pub use workload::LayerWorkload;
