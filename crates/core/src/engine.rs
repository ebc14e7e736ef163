//! The hybrid CPU/GPU inference engine.
//!
//! Wires the virtual GPU (attention, router, shared experts, merges,
//! LM head) to the CPU expert backend (routed experts) with the paper's
//! scheduling structure:
//!
//! * The whole decode step is expressed as a fixed op sequence on one
//!   stream: `embed → [attn → submit → device experts → merge]* → head`,
//!   the same op kinds whatever the expert-cache budget.
//! * `submit` is an in-stream host callback: it routes the token,
//!   arms per-layer completion counters and pushes expert tasks into
//!   the lock-free CPU queue (§3.3).
//! * `device experts` runs the routed experts dynamic placement moved
//!   to the vGPU this step (none under a zero-byte expert cache — the
//!   paper's static split), then the shared experts.
//! * `merge` is a **spinning kernel**: it waits on the immediate
//!   counter of its own layer and the deferred counter of the previous
//!   MoE layer, then folds both contributions into the residual stream
//!   — no host round-trip, which is what lets the entire token fit in
//!   one captured graph ("CUDA-based spinning").
//! * Under [`SchedMode::Sync`] every op is launched individually (each
//!   paying launch latency) with a stream synchronization per layer —
//!   the baseline the paper's CUDA-Graph optimization is measured
//!   against. Under [`SchedMode::AsyncGraph`] the sequence is captured
//!   once and replayed with a single launch per token.
//! * Expert Deferral (§4.1) splits each layer's routed experts into
//!   immediate and deferred sets; deferred outputs are merged one MoE
//!   layer later, and never at the final MoE layer. Deferral applies
//!   only to single-token (decode) forwards, as in the paper.

use kt_kernels::dispatch::Backend;
use kt_kernels::gemm::gemm_rowwise;
use kt_kernels::moe::{scatter_bucket_streams, BucketOut, FusedMoE, MoeRouting, MoeWorkspace};
use kt_kernels::schedule::{SchedulePolicy, ThreadPool};
use kt_kernels::KernelError;
use kt_model::config::ModelConfig;
use kt_model::kvcache::KvCache;
use kt_model::model::{Ffn, MoeModel};
use kt_tensor::{ArenaStats, Matrix, PrecisionPolicy, ScratchArena};
use kt_trace::SpanKind;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cpu_backend::CpuBackend;
use crate::error::EngineError;
use crate::placement::dynamic::{
    partition_experts, split_routing, CostModel, ExpertCache, ExpertCacheStats,
};
use crate::profiling::ExpertProfile;
use crate::vgpu::{GraphHandle, LaunchStats, VgpuConfig, VirtualGpu};

/// One schedulable op: `(is_host_func, closure, layer boundary)`.
/// The layer-boundary marker (`usize::MAX` = none) tells sync mode
/// where to break the stream.
type OpEntry = (bool, Arc<dyn Fn() + Send + Sync>, usize);

/// Measured utilization over a [`HybridEngine::measure_utilization`]
/// window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationReport {
    /// CPU-backend worker utilization (busy time / (wall x workers)).
    pub cpu_util: f64,
    /// Virtual-GPU device utilization (op execution time / wall).
    pub gpu_util: f64,
    /// Fraction of device busy time spent on launch latency.
    pub gpu_overhead_frac: f64,
}

/// Scheduling mode of the decode path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// Per-op launches with per-layer stream synchronization (the
    /// baseline whose overheads Figure 4 quantifies).
    Sync,
    /// Single captured graph per decode step with in-stream host
    /// callbacks (§3.3).
    AsyncGraph,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// CPU expert workers.
    pub n_cpu_workers: usize,
    /// Virtual GPU configuration (launch latencies, streams).
    pub vgpu: VgpuConfig,
    /// Scheduling mode.
    pub mode: SchedMode,
    /// Deferred experts per MoE layer during decode (0 disables).
    pub n_deferred: usize,
    /// Per-role weight precision (attention, dense FFN, shared experts,
    /// routed experts, LM head). Replaces the old single global
    /// `expert_dtype` knob; use [`PrecisionPolicy::experts`] for the
    /// historical quantize-experts-only behavior or
    /// [`PrecisionPolicy::quantized_serving`] for the serving preset
    /// (routed int4, shared/dense int8, attention + head F32).
    pub precision: PrecisionPolicy,
    /// CPU kernel backend for expert GEMMs. The default hybrid
    /// dispatch picks tiled vs vector kernels by bucket size, which
    /// makes outputs depend (within kernel tolerance) on how many
    /// tokens share an expert in one step; forcing a single class
    /// makes batched and sequential decoding bit-identical.
    pub backend: Backend,
    /// Weight initialization seed.
    pub seed: u64,
    /// Byte budget of the simulated-VRAM expert cache — the one knob of
    /// expert placement. `0` is the paper's static split (§3.1): every
    /// routed expert runs on the CPU backend. A nonzero budget (for a
    /// model with routed experts) turns on dynamic placement: each MoE
    /// layer's immediate routing is partitioned per expert between CPU
    /// and vGPU by calibrated cost, with a value-aware expert cache
    /// deciding residency; outputs stay bitwise identical to the
    /// zero-byte split.
    pub expert_cache_bytes: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            n_cpu_workers: 2,
            vgpu: VgpuConfig::default(),
            mode: SchedMode::AsyncGraph,
            n_deferred: 0,
            precision: PrecisionPolicy::default(),
            backend: Backend::HybridAmxAvx512,
            seed: 0,
            expert_cache_bytes: 0,
        }
    }
}

/// Mutable per-step state shared by control, device and worker threads.
struct StepState {
    /// Tokens for the current forward (set by the control thread):
    /// each sequence's new tokens, concatenated in batch order.
    tokens: Vec<u32>,
    /// Row span `(start, len)` of each sequence in the batch.
    seq_rows: Vec<(usize, usize)>,
    /// Whether each row belongs to a single-token (decode) sequence —
    /// Expert Deferral applies per row, only to decode rows. A
    /// single-token **prefill chunk** is not a decode row: deferral
    /// must never fire mid-prompt, or the chunked prefill would drift
    /// from the monolithic one.
    decode_row: Vec<bool>,
    /// Per sequence (indexed like `seq_rows`): whether the head op
    /// computes logits. Non-final prefill chunks skip the LM head.
    need_logits: Vec<bool>,
    /// Per sequence: request-scoped trace tag (0 = untagged; see
    /// [`BatchSeq::tag`]).
    tags: Vec<u32>,
    /// Residual stream, `tokens x hidden` (checked out of the device
    /// workspace arena each step, restored at the next embed).
    x: Matrix,
    /// Saved FFN inputs per layer (deferred experts read layer k's
    /// input while layer k+1 runs). `Arc` so the submit op hands them
    /// to CPU tasks without a deep copy; the backing buffer returns to
    /// the device arena once the last holder drops its clone.
    ffn_in: Vec<Option<Arc<Matrix>>>,
    /// Immediate routed-expert outputs per layer (from `ws_imm`).
    imm_out: Vec<Option<Matrix>>,
    /// Deferred routed-expert outputs per layer (from `ws_def`).
    def_out: Vec<Option<Matrix>>,
    /// Dynamic placement: the immediate-routing slice assigned to the
    /// vGPU this step, per layer (consumed by the device-experts op).
    dyn_routing: Vec<Option<MoeRouting>>,
    /// Dynamic placement: unscattered bucket outputs of the CPU
    /// immediate task, per layer (from `ws_imm`).
    cpu_buckets: Vec<Option<Vec<BucketOut>>>,
    /// Dynamic placement: unscattered bucket outputs of the vGPU
    /// expert op, per layer (from `ws_gpu.moe`).
    gpu_buckets: Vec<Option<Vec<BucketOut>>>,
    /// Per-sequence KV caches, indexed like `seq_rows`. Outside a
    /// batched forward this holds exactly the engine-owned default
    /// cache at index 0 (the single-session legacy path).
    caches: Vec<KvCache>,
    /// Final logits of the step, one matrix per sequence (arena-backed;
    /// callers hand them back via [`HybridEngine::recycle_logits`]).
    logits: Option<Vec<Matrix>>,
    /// First error raised by any op (checked after each step).
    error: Option<String>,
}

/// Device-thread step workspace: an arena for engine temporaries
/// (residual stream, normed activations, per-sequence logits) plus a
/// MoE workspace for device-executed expert GEMMs (dense MLP, shared
/// experts, cache-placed routed experts).
struct GpuWorkspace {
    arena: ScratchArena,
    moe: MoeWorkspace,
    /// `ffn_in` Arcs still held by an in-flight deferred task when the
    /// merge op tried to reclaim them; drained at the next embed, by
    /// which point every task of the previous step has finished.
    pending: Vec<Arc<Matrix>>,
}

impl GpuWorkspace {
    fn new() -> Self {
        GpuWorkspace {
            arena: ScratchArena::new(),
            moe: MoeWorkspace::new(),
            pending: Vec::new(),
        }
    }

    /// Restores `ffn_in` buffers whose last task-held clone has since
    /// been dropped.
    fn reclaim_pending(&mut self) {
        let pending = std::mem::take(&mut self.pending);
        for arc in pending {
            match Arc::try_unwrap(arc) {
                Ok(m) => self.arena.restore(m),
                Err(arc) => self.pending.push(arc),
            }
        }
    }
}

struct EngineShared {
    state: Mutex<StepState>,
    /// Outstanding immediate CPU tasks per layer.
    imm_pending: Vec<AtomicUsize>,
    /// Outstanding deferred CPU tasks per layer.
    def_pending: Vec<AtomicUsize>,
    /// Expert activation statistics (recorded by every submit).
    profile: Mutex<ExpertProfile>,
    /// Optional fault injector consulted on the expert-submission
    /// path; returning `true` for a layer path fails that forward.
    fault: Mutex<Option<FaultHook>>,
    /// Device-thread workspace (embed/attn/shared/head ops).
    ///
    /// Lock discipline: device ops may take `state` then a workspace
    /// lock; CPU expert tasks must DROP their workspace lock before
    /// taking `state` (they publish results under `state` only). This
    /// orders every state+workspace acquisition identically, so the
    /// pairing can never deadlock.
    ws_gpu: Mutex<GpuWorkspace>,
    /// Workspace of the immediate-expert CPU task (one in flight at a
    /// time: layer k+1's submit runs only after layer k's merge).
    ws_imm: Mutex<MoeWorkspace>,
    /// Workspace of the deferred-expert CPU task (may overlap the next
    /// layer's immediate task, hence its own workspace).
    ws_def: Mutex<MoeWorkspace>,
    /// Dynamic-placement state: the value-aware expert cache plus the
    /// calibrated cost model. `None` for a zero-byte budget (the static
    /// split): no partition is computed, no routed expert reaches the
    /// device, and every immediate task scatters on the CPU.
    dynamic: Option<DynamicState>,
    /// Optional routing override consulted before the router on every
    /// MoE submit (benchmarks impose synthetic routing skew this way).
    routing_override: Mutex<Option<RoutingHook>>,
}

/// Per-engine dynamic-placement state.
struct DynamicState {
    cache: Mutex<ExpertCache>,
    cost: CostModel,
}

impl EngineShared {
    fn new(
        cfg: &ModelConfig,
        cache: KvCache,
        dynamic: Option<DynamicState>,
    ) -> Result<Arc<Self>, EngineError> {
        Ok(Arc::new(EngineShared {
            state: Mutex::new(StepState {
                tokens: Vec::new(),
                seq_rows: Vec::new(),
                decode_row: Vec::new(),
                need_logits: Vec::new(),
                tags: Vec::new(),
                x: Matrix::zeros(1, cfg.hidden)?,
                ffn_in: vec![None; cfg.n_layers],
                imm_out: vec![None; cfg.n_layers],
                def_out: vec![None; cfg.n_layers],
                dyn_routing: vec![None; cfg.n_layers],
                cpu_buckets: (0..cfg.n_layers).map(|_| None).collect(),
                gpu_buckets: (0..cfg.n_layers).map(|_| None).collect(),
                caches: vec![cache],
                logits: None,
                error: None,
            }),
            imm_pending: (0..cfg.n_layers).map(|_| AtomicUsize::new(0)).collect(),
            def_pending: (0..cfg.n_layers).map(|_| AtomicUsize::new(0)).collect(),
            profile: Mutex::new(ExpertProfile::new(cfg.n_layers, cfg.n_routed_experts)),
            fault: Mutex::new(None),
            ws_gpu: Mutex::new(GpuWorkspace::new()),
            ws_imm: Mutex::new(MoeWorkspace::new()),
            ws_def: Mutex::new(MoeWorkspace::new()),
            dynamic,
            routing_override: Mutex::new(None),
        }))
    }
}

/// A fault-injection hook: given a module path such as
/// `model.layers.3.mlp.experts`, decides whether to inject a failure.
pub type FaultHook = Arc<dyn Fn(&str) -> bool + Send + Sync>;

/// A routing-override hook: `(layer, n_tokens) -> Some(routing)`
/// replaces the gate's output for that layer's MoE submit. The routing
/// must be valid for the layer: one assignment row per token, expert
/// indices within range.
pub type RoutingHook = Arc<dyn Fn(usize, usize) -> Option<MoeRouting> + Send + Sync>;

/// Builds the dynamic-placement state (cost model + expert cache) when
/// the expert cache has a nonzero budget and the model has routed
/// experts; `None` is the static split.
fn dynamic_state(model: &MoeModel, econfig: &EngineConfig) -> Option<DynamicState> {
    if econfig.expert_cache_bytes == 0 || model.blocks().iter().all(|b| b.ffn.routed().is_none()) {
        return None;
    }
    let cfg = model.config();
    Some(DynamicState {
        cache: Mutex::new(ExpertCache::new(
            econfig.expert_cache_bytes,
            cfg.n_layers,
            cfg.n_routed_experts,
        )),
        cost: CostModel {
            calibration: kt_hwsim::Calibration::default(),
            platform: kt_hwsim::Platform::a100_dual_xeon(),
            flops_per_token: 2.0 * 3.0 * cfg.hidden as f64 * cfg.moe_inter as f64,
        },
    })
}

/// One sequence's slot in a batched forward
/// ([`HybridEngine::forward_batch`]): its KV cache plus the new tokens
/// to process this step. `prefill` marks the tokens as prompt
/// positions — chunked prefill feeds a prompt across several steps, and
/// a chunk stays a prefill row even when it holds exactly one token
/// (Expert Deferral is decode-row-only across chunk boundaries).
pub struct BatchSeq {
    /// The sequence's KV cache (from [`HybridEngine::fresh_cache`] or
    /// a cache pool). Moved into the engine during the step and handed
    /// back before `forward_batch` returns.
    pub cache: KvCache,
    /// New tokens to append this step.
    pub tokens: Vec<u32>,
    /// Whether `tokens` are prompt positions. A single-token step is a
    /// decode row only when this is `false`; multi-token steps are
    /// prefill regardless.
    pub prefill: bool,
    /// Whether the step should produce logits for this sequence.
    /// Non-final prefill chunks set this to `false` — nothing samples
    /// mid-prompt, so the per-position LM-head GEMM is skipped and
    /// [`HybridEngine::forward_batch`] returns `None` in this
    /// sequence's slot.
    pub need_logits: bool,
    /// Request-scoped trace tag (`kt_trace::TraceCtx::tag()`; 0 =
    /// untagged). When tracing is on, tagged sequences get a
    /// per-sequence `engine.seq_attention` span labeled
    /// `a = tag, b = layer`, correlating engine work back to the
    /// serving request that caused it.
    pub tag: u32,
}

impl BatchSeq {
    /// A decode row: one sampled token, deferral-eligible, logits
    /// returned.
    pub fn decode(cache: KvCache, token: u32) -> Self {
        BatchSeq {
            cache,
            tokens: vec![token],
            prefill: false,
            need_logits: true,
            tag: 0,
        }
    }

    /// A whole prompt — or the final chunk of one: prefill rows, with
    /// logits returned for every new position.
    pub fn prefill(cache: KvCache, tokens: Vec<u32>) -> Self {
        BatchSeq {
            cache,
            tokens,
            prefill: true,
            need_logits: true,
            tag: 0,
        }
    }

    /// A replayed decode row: deferral-eligible exactly like
    /// [`BatchSeq::decode`] — so it rebuilds the same KV bits the
    /// original decode step wrote — but produces no logits, because
    /// the token it feeds was sampled and reported before its KV rows
    /// were dropped. Preemption recovery re-feeds evicted generations
    /// through this path.
    pub fn replay(cache: KvCache, token: u32) -> Self {
        BatchSeq {
            cache,
            tokens: vec![token],
            prefill: false,
            need_logits: false,
            tag: 0,
        }
    }

    /// A non-final prompt chunk: prefill rows, no logits produced.
    pub fn prefill_chunk(cache: KvCache, tokens: Vec<u32>) -> Self {
        BatchSeq {
            cache,
            tokens,
            prefill: true,
            need_logits: false,
            tag: 0,
        }
    }

    /// Attaches a request-scoped trace tag (builder-style).
    pub fn with_tag(mut self, tag: u32) -> Self {
        self.tag = tag;
        self
    }
}

/// The hybrid engine: a scheduler over one [`MoeModel`]'s weights.
pub struct HybridEngine {
    econfig: EngineConfig,
    /// Serializes whole forwards: the engine processes one request at a
    /// time (batch-1 local serving, §6.1); concurrent callers queue
    /// here instead of corrupting the shared step state.
    inference_lock: Mutex<()>,
    vgpu: VirtualGpu,
    cpu: Arc<CpuBackend>,
    /// Pool for the panel-parallel LM-head GEMM. Sized like the CPU
    /// backend but clamped to the host's physical parallelism (see
    /// [`head_pool_lanes`]); the head runs after the final merge, when
    /// every expert worker is idle, so the two pools never compete.
    head_pool: Arc<ThreadPool>,
    /// The weights, shared with the device and worker threads: step ops
    /// capture this `Arc` plus a layer index.
    model: Arc<MoeModel>,
    shared: Arc<EngineShared>,
    decode_graph: Mutex<Option<GraphHandle>>,
}

const SPIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Lane count for the LM-head pool: the CPU-backend worker count,
/// clamped to the host's physical parallelism. `n_cpu_workers` models
/// the paper's CPU backend and may legitimately exceed the host cores
/// (tests, CI); the head GEMM gains nothing from oversubscription and
/// would pay cross-thread dispatch latency every decode step. A
/// single-lane pool runs entirely on the calling thread. Outputs are
/// bitwise identical at any lane count.
fn head_pool_lanes(n_cpu_workers: usize) -> usize {
    let host = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    n_cpu_workers.clamp(1, host)
}

/// Installs the process-wide trace hooks once per process: the
/// `KT_TRACE` env knob and the bridge that turns arena fresh
/// allocations into `arena.alloc` instant events.
fn install_trace_hooks() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        kt_trace::enable_from_env();
        kt_tensor::set_arena_alloc_hook(|bytes| {
            kt_trace::instant(SpanKind::ArenaAlloc, bytes.min(u32::MAX as u64) as u32, 0);
        });
    });
}

/// Spins until `counter` reaches zero (the graph-resident wait).
///
/// Pure spinning matches the CUDA-kernel semantics, but on hosts with
/// few cores it would starve the CPU workers the wait depends on, so
/// the loop yields periodically after a short hot-spin window.
fn spin_until_zero(counter: &AtomicUsize, what: &str) {
    let start = Instant::now();
    let mut spins = 0u32;
    while counter.load(Ordering::Acquire) != 0 {
        spins += 1;
        if spins < 128 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
        if spins.is_multiple_of(1024) && start.elapsed() > SPIN_TIMEOUT {
            panic!("spin wait on {what} timed out — CPU backend stalled");
        }
    }
}

/// Body of every CPU expert task, immediate or deferred: records a
/// `kind` span for layer `li`, runs `compute` under the task's own
/// workspace lock — dropped before `state` is taken (see the
/// `EngineShared::ws_gpu` lock discipline) — publishes the output into
/// `slot` (or the step error), then clears `pending`. The counter
/// clears even if `compute` panics: a poisoned request must fail, not
/// wedge the merge spin. `compute` owns the task's `ffn_in` clone, so
/// the buffer is released before completion is signalled and the merge
/// op can usually reclaim it right away.
fn run_expert_task<T>(
    shared: &EngineShared,
    kind: SpanKind,
    li: usize,
    ws: &Mutex<MoeWorkspace>,
    pending: &AtomicUsize,
    slot: impl FnOnce(&mut StepState) -> &mut Option<T>,
    compute: impl FnOnce(&mut MoeWorkspace) -> Result<T, KernelError>,
) {
    let result = {
        let _span = kt_trace::span_ab(kind, li as u32, 0);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| compute(&mut ws.lock())))
    };
    let mut st = shared.state.lock();
    match result {
        Ok(Ok(out)) => *slot(&mut st) = Some(out),
        Ok(Err(e)) => st.error = Some(e.to_string()),
        Err(_) => st.error = Some("expert task panicked".into()),
    }
    drop(st);
    pending.store(0, Ordering::Release);
}

impl HybridEngine {
    /// Builds an engine that schedules `model`'s weights. The model is
    /// moved in, never copied; `econfig.backend` replaces the kernel
    /// backend of every expert pool (a runtime setting), and
    /// `econfig.precision` / `econfig.seed` are not consulted — the
    /// weights are already drawn and packed.
    ///
    /// # Errors
    ///
    /// Propagates device, worker-pool and workspace construction
    /// failures.
    pub fn from_model(mut model: MoeModel, econfig: EngineConfig) -> Result<Self, EngineError> {
        install_trace_hooks();
        model.set_backend(econfig.backend);
        let shared = EngineShared::new(
            model.config(),
            model.new_cache(),
            dynamic_state(&model, &econfig),
        )?;
        Ok(HybridEngine {
            inference_lock: Mutex::new(()),
            vgpu: VirtualGpu::new(econfig.vgpu)?,
            cpu: Arc::new(CpuBackend::new(econfig.n_cpu_workers)?),
            head_pool: Arc::new(ThreadPool::new(head_pool_lanes(econfig.n_cpu_workers))?),
            model: Arc::new(model),
            shared,
            decode_graph: Mutex::new(None),
            econfig,
        })
    }

    /// Builds an engine over [`MoeModel::random_with`] weights drawn
    /// from `econfig.seed` at `econfig.precision`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] on invalid configs and propagates
    /// construction failures.
    pub fn random(cfg: &ModelConfig, econfig: EngineConfig) -> Result<Self, EngineError> {
        let model = MoeModel::random_with(cfg, &econfig.precision, econfig.seed)?;
        Self::from_model(model, econfig)
    }

    /// The model whose weights this engine schedules — the bitwise
    /// oracle of every logit it serves (see the `kt_model::model`
    /// module doc).
    pub fn model(&self) -> &MoeModel {
        &self.model
    }

    /// Model configuration.
    pub fn config(&self) -> &ModelConfig {
        self.model.config()
    }

    /// Engine configuration.
    pub fn engine_config(&self) -> &EngineConfig {
        &self.econfig
    }

    /// Launch accounting from the virtual GPU.
    pub fn launch_stats(&self) -> LaunchStats {
        self.vgpu.stats()
    }

    /// Serializes the weights as a [`MoeModel`] checkpoint (`KTMDL`).
    /// Engine *settings* (scheduling mode, deferral, workers) are not
    /// stored, and the kernel backend stored with each expert pool is
    /// replaced by the one supplied at load.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save(&self, w: &mut impl std::io::Write) -> Result<(), EngineError> {
        Ok(self.model.save(w)?)
    }

    /// Loads an engine from a [`MoeModel`] checkpoint (written by
    /// [`HybridEngine::save`] or [`MoeModel::save`]) with fresh runtime
    /// settings, `econfig.backend` included. Each packed weight carries
    /// its own dtype in the checkpoint, so per-role precision
    /// round-trips as saved; `econfig.precision` is ignored.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Exec`] on corrupt checkpoints, including
    /// one whose weights disagree with its config.
    pub fn load(r: &mut impl std::io::Read, econfig: EngineConfig) -> Result<Self, EngineError> {
        Self::from_model(MoeModel::load(r)?, econfig)
    }

    /// Creates a fresh, empty KV cache sized for this engine (one per
    /// conversation in a multi-session server).
    pub fn fresh_cache(&self) -> KvCache {
        self.model.new_cache()
    }

    /// Checks that `cache` matches this engine's layout and holds a
    /// self-consistent sequence: layer count, per-layer row widths and
    /// capacity, uniform length across layers, and a decoded-row memo
    /// that never runs ahead of the cached positions. The serving
    /// layer calls this after seeding a lease from a prefix snapshot,
    /// before trusting the seeded state in a batch.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Exec`] naming the first violated
    /// invariant.
    pub fn validate_cache(&self, cache: &KvCache) -> Result<(), EngineError> {
        let blocks = self.model.blocks();
        if cache.n_layers() != blocks.len() {
            return Err(EngineError::exec(format!(
                "cache has {} layers, engine has {}",
                cache.n_layers(),
                blocks.len()
            )));
        }
        let len = cache.seq_len();
        for (i, b) in blocks.iter().enumerate() {
            let (kw, vw) = b.attn.cache_spec();
            let lc = cache.layer(i);
            if lc.k_width() != kw || lc.v_width() != vw {
                return Err(EngineError::exec(format!(
                    "layer {i} cache widths {}/{} do not match {kw}/{vw}",
                    lc.k_width(),
                    lc.v_width()
                )));
            }
            if lc.capacity() != self.config().max_seq {
                return Err(EngineError::exec(format!(
                    "layer {i} cache capacity {} does not match max_seq {}",
                    lc.capacity(),
                    self.config().max_seq
                )));
            }
            if lc.len() != len {
                return Err(EngineError::exec(format!(
                    "layer {i} holds {} positions, layer 0 holds {len}",
                    lc.len()
                )));
            }
            if lc.memo_len() > lc.len() {
                return Err(EngineError::exec(format!(
                    "layer {i} memo runs ahead of the cache ({} > {})",
                    lc.memo_len(),
                    lc.len()
                )));
            }
        }
        Ok(())
    }

    /// Swaps the engine's active KV cache with `cache`, returning the
    /// previously active one. This is the session-switch primitive of a
    /// multi-conversation server: check a session's cache in, decode,
    /// check it back out.
    pub fn swap_cache(&self, cache: &mut KvCache) {
        let mut st = self.shared.state.lock();
        std::mem::swap(&mut st.caches[0], cache);
    }

    /// Resets the KV cache and launch stats (new conversation).
    pub fn reset(&self) {
        let logits = {
            let mut st = self.shared.state.lock();
            for cache in &mut st.caches {
                cache.reset();
            }
            st.error = None;
            st.logits.take()
        };
        if let Some(v) = logits {
            let mut ws = self.shared.ws_gpu.lock();
            for m in v {
                ws.arena.restore(m);
            }
        }
        self.vgpu.reset_stats();
    }

    /// Current cached sequence length.
    pub fn seq_len(&self) -> usize {
        self.shared.state.lock().caches[0].seq_len()
    }

    /// Installs a fault injector consulted on the expert-submission
    /// path. The hook receives a module path (e.g.
    /// `model.layers.3.mlp.experts`) once per MoE layer per forward;
    /// returning `true` fails that forward with an injected error
    /// before any expert task is queued. Test harnesses pair this with
    /// `kt-inject` fault patterns to exercise error propagation.
    pub fn set_fault_injector(
        &self,
        hook: impl Fn(&str) -> bool + Send + Sync + 'static,
    ) {
        *self.shared.fault.lock() = Some(Arc::new(hook));
    }

    /// Removes any installed fault injector.
    pub fn clear_fault_injector(&self) {
        *self.shared.fault.lock() = None;
    }

    /// Measures real CPU-backend and device utilization over a closure
    /// (the live-engine analog of Figure 10's accounting): fraction of
    /// wall time the CPU workers / virtual GPU spent executing.
    ///
    /// # Errors
    ///
    /// Propagates errors from `work`.
    pub fn measure_utilization(
        &self,
        work: impl FnOnce() -> Result<(), EngineError>,
    ) -> Result<UtilizationReport, EngineError> {
        self.cpu.reset_busy();
        self.vgpu.reset_stats();
        let start = Instant::now();
        work()?;
        let wall = start.elapsed().as_nanos().max(1) as f64;
        let stats = self.vgpu.stats();
        Ok(UtilizationReport {
            cpu_util: self.cpu.busy_ns() as f64 / (wall * self.cpu.n_workers() as f64),
            gpu_util: stats.busy_ns as f64 / wall,
            gpu_overhead_frac: if stats.busy_ns + stats.launch_overhead_ns > 0 {
                stats.launch_overhead_ns as f64
                    / (stats.busy_ns + stats.launch_overhead_ns) as f64
            } else {
                0.0
            },
        })
    }

    /// Snapshot of the recorded expert-activation profile.
    pub fn expert_profile(&self) -> ExpertProfile {
        self.shared.profile.lock().clone()
    }

    /// Stored weight bytes of one routed expert — the minimum viable
    /// `expert_cache_bytes`. Read from the packed weights themselves,
    /// so quantized experts report their post-quantization footprint.
    /// `None` for models without routed experts.
    pub fn expert_weight_bytes(&self) -> Option<usize> {
        self.routed_pool().map(|r| r.expert(0).stored_bytes())
    }

    /// Storage dtype of the routed expert weights, read from the packed
    /// weights (reliable even after a checkpoint load, where
    /// `econfig.precision` is ignored). `None` for models without
    /// routed experts.
    pub fn expert_weight_dtype(&self) -> Option<kt_tensor::WeightDtype> {
        self.routed_pool().map(|r| r.expert(0).gate.dtype())
    }

    /// The first MoE layer's routed-expert pool.
    fn routed_pool(&self) -> Option<&FusedMoE> {
        self.model.blocks().iter().find_map(|b| b.ffn.routed())
    }

    /// Snapshot of the dynamic-placement expert-cache counters; `None`
    /// under the static split (zero-byte budget, or no routed experts).
    pub fn expert_cache_stats(&self) -> Option<ExpertCacheStats> {
        self.shared
            .dynamic
            .as_ref()
            .map(|d| d.cache.lock().stats())
    }

    /// Installs a routing override consulted before the router on every
    /// MoE submit: `hook(layer, n_tokens)` returning `Some(routing)`
    /// replaces the gate's output for that layer (benchmarks impose
    /// synthetic routing skew this way). The routing must be valid for
    /// the layer: one assignment row per token, expert indices within
    /// range.
    pub fn set_routing_override(
        &self,
        hook: impl Fn(usize, usize) -> Option<MoeRouting> + Send + Sync + 'static,
    ) {
        *self.shared.routing_override.lock() = Some(Arc::new(hook));
    }

    /// Removes any installed routing override.
    pub fn clear_routing_override(&self) {
        *self.shared.routing_override.lock() = None;
    }

    /// Builds the per-forward op list. Each op is a `Fn` closure over
    /// the shared state, so the identical list can be launched op-by-op
    /// (sync mode) or captured once and replayed (graph mode).
    ///
    /// Ops are batch-shape-agnostic: they read `seq_rows`/`decode_row`
    /// from the step state, so one captured graph serves every
    /// all-decode batch and Expert Deferral gates itself per row.
    fn build_ops(&self) -> Vec<OpEntry> {
        let mut ops: Vec<OpEntry> = Vec::new();
        let shared = Arc::clone(&self.shared);
        let model = Arc::clone(&self.model);
        let cfg = self.model.config();
        let hidden = cfg.hidden;

        // Op: embedding lookup. Also the step's workspace turnover
        // point: last step's residual stream (and any unclaimed logits)
        // go back to the arena, and `ffn_in` buffers whose deferred
        // task outlived its merge are reclaimed — every task of the
        // previous step has drained by now.
        ops.push((
            false,
            Arc::new(move || {
                let _span = kt_trace::span(SpanKind::Embed);
                let mut st = shared.state.lock();
                if st.error.is_some() {
                    return;
                }
                let t_new = st.tokens.len();
                let mut ws = shared.ws_gpu.lock();
                ws.reclaim_pending();
                if let Some(v) = st.logits.take() {
                    for m in v {
                        ws.arena.restore(m);
                    }
                }
                match ws.arena.checkout(t_new, hidden) {
                    Ok(x) => {
                        let old = std::mem::replace(&mut st.x, x);
                        ws.arena.restore(old);
                        drop(ws);
                        let st = &mut *st;
                        for (i, &t) in st.tokens.iter().enumerate() {
                            st.x.row_mut(i)
                                .copy_from_slice(model.embed().row(t as usize));
                        }
                    }
                    Err(e) => st.error = Some(e.to_string()),
                }
            }),
            usize::MAX,
        ));

        // Dense layers lead and every later layer is MoE (`MoeModel`
        // guarantees it), so a MoE layer's merge folds in the deferred
        // outputs of the layer just before it, and the final layer never
        // defers.
        for li in 0..cfg.n_layers {
            let is_moe = li >= cfg.n_dense_layers;
            let prev_moe = (li > cfg.n_dense_layers).then(|| li - 1);
            let n_def = if li + 1 < cfg.n_layers {
                self.econfig.n_deferred.min(cfg.top_k.saturating_sub(1))
            } else {
                0
            };

            // Op: attention (+ dense MLP for dense layers) on the GPU.
            {
                let shared = Arc::clone(&self.shared);
                let model = Arc::clone(&self.model);
                ops.push((
                    false,
                    Arc::new(move || {
                        let _span = kt_trace::span_ab(SpanKind::Attention, li as u32, 0);
                        let layer = &model.blocks()[li];
                        let mut guard = shared.state.lock();
                        if guard.error.is_some() {
                            return;
                        }
                        let mut ws = shared.ws_gpu.lock();
                        let mut normed =
                            match ws.arena.checkout(guard.x.rows(), guard.x.cols()) {
                                Ok(m) => m,
                                Err(e) => {
                                    guard.error = Some(e.to_string());
                                    return;
                                }
                            };
                        layer.attn_norm.forward_into(&guard.x, &mut normed);
                        let cols = normed.cols();
                        // Field-level split borrow: each sequence's rows
                        // attend against its own KV cache.
                        let st = &mut *guard;
                        for (s, &(start, len)) in st.seq_rows.iter().enumerate() {
                            // Request-scoped causal trace: tagged
                            // sequences get their own span so a
                            // request's attention time is separable
                            // from the rest of the batch.
                            let tag = st.tags.get(s).copied().unwrap_or(0);
                            let _seq_span = (tag != 0)
                                .then(|| kt_trace::span_ab(SpanKind::SeqAttention, tag, li as u32));
                            let mut sub = match ws.arena.checkout(len, cols) {
                                Ok(m) => m,
                                Err(e) => {
                                    st.error = Some(e.to_string());
                                    break;
                                }
                            };
                            sub.as_mut_slice().copy_from_slice(
                                &normed.as_slice()[start * cols..(start + len) * cols],
                            );
                            let cache = st.caches[s].layer_mut(li);
                            let r = layer.attn.forward(&sub, cache, model.rope(), None);
                            ws.arena.restore(sub);
                            match r {
                                Ok(attn_out) => add_assign(
                                    &mut st.x.as_mut_slice()[start * cols..(start + len) * cols],
                                    attn_out.as_slice(),
                                ),
                                Err(e) => {
                                    st.error = Some(e.to_string());
                                    break;
                                }
                            }
                        }
                        if st.error.is_some() {
                            ws.arena.restore(normed);
                            return;
                        }
                        // Reuse the normed buffer for the FFN input: the
                        // attention residual is already folded into x.
                        let mut ffn_in = normed;
                        layer.ffn_norm.forward_into(&st.x, &mut ffn_in);
                        if let Ffn::Dense(mlp) = &layer.ffn {
                            let t_new = ffn_in.rows();
                            let all = MoeRouting::new(vec![vec![(0, 1.0)]; t_new]);
                            let r = mlp.forward_accumulate_with(
                                &ffn_in,
                                &all,
                                &mut st.x,
                                None,
                                SchedulePolicy::Dynamic,
                                &mut ws.moe,
                            );
                            ws.arena.restore(ffn_in);
                            if let Err(e) = r {
                                st.error = Some(e.to_string());
                            }
                        } else {
                            st.ffn_in[li] = Some(Arc::new(ffn_in));
                        }
                    }),
                    usize::MAX,
                ));
            }

            if !is_moe {
                continue;
            }

            // Op: submit — a host callback inside the stream. Routes the
            // token(s), arms counters, enqueues CPU expert tasks.
            {
                let shared = Arc::clone(&self.shared);
                let model = Arc::clone(&self.model);
                let cpu = Arc::clone(&self.cpu);
                ops.push((
                    true,
                    Arc::new(move || {
                        let _span = kt_trace::span_ab(SpanKind::ExpertDispatch, li as u32, 0);
                        let (ffn_in, routing, decode_row) = {
                            let st = shared.state.lock();
                            if st.error.is_some() {
                                return;
                            }
                            // Arc clone: the expert tasks share the
                            // saved FFN input, no deep copy.
                            let ffn_in = match &st.ffn_in[li] {
                                Some(m) => Arc::clone(m),
                                None => return,
                            };
                            let Ffn::Moe { router, .. } = &model.blocks()[li].ffn else {
                                return;
                            };
                            let routing = {
                                let _span =
                                    kt_trace::span_ab(SpanKind::Gating, li as u32, 0);
                                let hook = shared.routing_override.lock().clone();
                                hook.and_then(|h| h(li, ffn_in.rows()))
                                    .unwrap_or_else(|| router.route(&ffn_in))
                            };
                            (ffn_in, routing, st.decode_row.clone())
                        };
                        // Fault-injection hook (test harness): a
                        // registered injector can fail this layer's
                        // expert submission before any task is queued.
                        let hook = shared.fault.lock().clone();
                        if let Some(h) = hook {
                            let path = format!("model.layers.{li}.mlp.experts");
                            if h(&path) {
                                shared.state.lock().error =
                                    Some(format!("injected fault at {path}"));
                                return;
                            }
                        }
                        // Record activation statistics (the per-expert
                        // hit counters) and, under dynamic placement,
                        // fold this step's gating mass into the cache's
                        // EWMA value model.
                        shared.profile.lock().record(li, &routing);
                        if let Some(dy) = &shared.dynamic {
                            dy.cache.lock().record_gating(li, &routing);
                        }

                        // Expert Deferral gates per ROW: only decode
                        // rows defer (§4.1 — decode-only), so a
                        // mixed prefill/decode batch keeps every
                        // sequence's deferral semantics independent.
                        // Decode rows split exactly like
                        // `split_deferred` (weight-sorted, top experts
                        // immediate); prefill rows pass through
                        // untouched in routing order.
                        let any_defer =
                            n_def > 0 && decode_row.iter().any(|&d| d);
                        let (imm, def) = if any_defer {
                            let mut imm_rows =
                                Vec::with_capacity(routing.assignments.len());
                            let mut def_rows =
                                Vec::with_capacity(routing.assignments.len());
                            for (r, a) in routing.assignments.iter().enumerate() {
                                if decode_row.get(r).copied().unwrap_or(false) {
                                    let mut sorted = a.clone();
                                    sorted.sort_by(|x, y| y.1.total_cmp(&x.1));
                                    let split =
                                        a.len().saturating_sub(n_def).min(sorted.len());
                                    def_rows.push(sorted.split_off(split));
                                    imm_rows.push(sorted);
                                } else {
                                    imm_rows.push(a.clone());
                                    def_rows.push(Vec::new());
                                }
                            }
                            (MoeRouting::new(imm_rows), MoeRouting::new(def_rows))
                        } else {
                            (routing, MoeRouting::new(Vec::new()))
                        };
                        let has_def = def.n_activations() > 0;

                        // Dynamic placement: partition the IMMEDIATE
                        // routing per expert by calibrated cost — CPU
                        // roofline vs vGPU compute plus a PCIe upload
                        // term when the expert is not cache-resident —
                        // via greedy makespan assignment, so the two
                        // devices overlap. Deferred routing always
                        // stays on CPU (it merges a layer later and
                        // never gates this layer's critical path).
                        let (imm, use_buckets) = if let Some(dy) = &shared.dynamic {
                            let mut dyn_gpu = None;
                            let mut imm = imm;
                            let mut tokens: std::collections::BTreeMap<usize, usize> =
                                std::collections::BTreeMap::new();
                            for row in &imm.assignments {
                                for &(e, _) in row {
                                    *tokens.entry(e).or_insert(0) += 1;
                                }
                            }
                            if !tokens.is_empty() {
                                let mut cache = dy.cache.lock();
                                // Stored (post-quantization) bytes: they
                                // size residency and price the upload.
                                let bytes =
                                    routed(&model, li).map_or(0, |r| r.expert(0).stored_bytes());
                                let choices: Vec<_> = tokens
                                    .iter()
                                    .map(|(&e, &t)| {
                                        dy.cost.choice(e, t, cache.is_resident(li, e), bytes)
                                    })
                                    .collect();
                                let part = partition_experts(&choices);
                                if !part.gpu.is_empty() {
                                    // The residency/admission pass is
                                    // where non-resident experts pay
                                    // the (modeled) PCIe upload; the
                                    // span carries its real wall time
                                    // and the miss count so request
                                    // breakdowns can attribute it.
                                    let mut up_span =
                                        kt_trace::span_ab(SpanKind::PcieUpload, li as u32, 0);
                                    let mut misses = 0u32;
                                    for &e in &part.gpu {
                                        if cache.is_resident(li, e) {
                                            cache.touch(li, e);
                                        } else {
                                            misses += 1;
                                            cache.request(li, e, bytes);
                                        }
                                    }
                                    let (c, g) = split_routing(&imm, &part.gpu);
                                    up_span.set_labels(li as u32, misses);
                                    drop(up_span);
                                    imm = c;
                                    dyn_gpu = Some(g);
                                }
                            }
                            // When the partition sends nothing to the
                            // device this step, fall back to the static
                            // scattered fast path — no bucket machinery,
                            // no merge overhead.
                            let use_buckets = dyn_gpu.is_some();
                            shared.state.lock().dyn_routing[li] = dyn_gpu;
                            (imm, use_buckets)
                        } else {
                            (imm, false)
                        };

                        // Arm counters BEFORE submitting so the merge
                        // kernel can never observe a stale zero.
                        shared.imm_pending[li].store(1, Ordering::Release);
                        if has_def {
                            shared.def_pending[li].store(1, Ordering::Release);
                        }

                        // Immediate experts. When dynamic placement sent
                        // experts to the device this step, the task
                        // produces unscattered bucket outputs (the merge
                        // op scatters both devices' buckets in canonical
                        // expert order); otherwise — zero-byte cache OR a
                        // step whose partition kept everything on CPU —
                        // it produces the scattered sum.
                        {
                            let shared = Arc::clone(&shared);
                            let model = Arc::clone(&model);
                            let ffn_in = Arc::clone(&ffn_in);
                            cpu.submit(Box::new(move || {
                                let (kind, ws, pending) = (
                                    SpanKind::CpuExpertImmediate,
                                    &shared.ws_imm,
                                    &shared.imm_pending[li],
                                );
                                if use_buckets {
                                    run_expert_task(
                                        &shared,
                                        kind,
                                        li,
                                        ws,
                                        pending,
                                        |st| &mut st.cpu_buckets[li],
                                        move |ws| {
                                            routed(&model, li)?.forward_buckets(
                                                &ffn_in,
                                                &imm,
                                                None,
                                                SchedulePolicy::Dynamic,
                                                ws,
                                            )
                                        },
                                    );
                                } else {
                                    run_expert_task(
                                        &shared,
                                        kind,
                                        li,
                                        ws,
                                        pending,
                                        |st| &mut st.imm_out[li],
                                        move |ws| {
                                            routed(&model, li)?.forward_with(
                                                &ffn_in,
                                                &imm,
                                                None,
                                                SchedulePolicy::Dynamic,
                                                ws,
                                            )
                                        },
                                    );
                                }
                            }));
                        }

                        // Deferred experts (same input, merged one MoE
                        // layer later).
                        if has_def {
                            let shared = Arc::clone(&shared);
                            let model = Arc::clone(&model);
                            cpu.submit(Box::new(move || {
                                run_expert_task(
                                    &shared,
                                    SpanKind::CpuExpertDeferred,
                                    li,
                                    &shared.ws_def,
                                    &shared.def_pending[li],
                                    |st| &mut st.def_out[li],
                                    move |ws| {
                                        routed(&model, li)?.forward_with(
                                            &ffn_in,
                                            &def,
                                            None,
                                            SchedulePolicy::Dynamic,
                                            ws,
                                        )
                                    },
                                );
                            }));
                        }
                    }),
                    usize::MAX,
                ));
            }

            // Op: device experts, overlapping the CPU work — first the
            // routed experts dynamic placement assigned to the vGPU
            // this step (unscattered bucket outputs, folded by the merge
            // op in canonical expert order; nothing under a zero-byte
            // cache), then the shared experts into the residual. The
            // two keep sibling spans: phase tables sum both.
            {
                let shared = Arc::clone(&self.shared);
                let model = Arc::clone(&self.model);
                ops.push((
                    false,
                    Arc::new(move || {
                        let mut guard = shared.state.lock();
                        if guard.error.is_some() {
                            return;
                        }
                        let Ffn::Moe {
                            shared: sh, routed, ..
                        } = &model.blocks()[li].ffn
                        else {
                            return;
                        };
                        // Arc clone — shares the buffer with the CPU
                        // expert tasks, no copy.
                        let Some(ffn_in) = guard.ffn_in[li].clone() else {
                            return;
                        };
                        let dyn_routing = guard.dyn_routing[li].take();
                        let mut ws = shared.ws_gpu.lock();
                        let st = &mut *guard;
                        if let Some(gr) = dyn_routing {
                            let _span = kt_trace::span_ab(SpanKind::GpuExperts, li as u32, 0);
                            match routed.forward_buckets(
                                &ffn_in,
                                &gr,
                                None,
                                SchedulePolicy::Dynamic,
                                &mut ws.moe,
                            ) {
                                Ok(b) => st.gpu_buckets[li] = Some(b),
                                Err(e) => {
                                    st.error = Some(e.to_string());
                                    return;
                                }
                            }
                        }
                        let _span = kt_trace::span_ab(SpanKind::SharedExperts, li as u32, 0);
                        let Some(sh) = sh else {
                            return;
                        };
                        let all: Vec<(usize, f32)> =
                            (0..sh.n_experts()).map(|e| (e, 1.0)).collect();
                        let all = MoeRouting::new(vec![all; ffn_in.rows()]);
                        if let Err(e) = sh.forward_accumulate_with(
                            &ffn_in,
                            &all,
                            &mut st.x,
                            None,
                            SchedulePolicy::Dynamic,
                            &mut ws.moe,
                        ) {
                            st.error = Some(e.to_string());
                        }
                    }),
                    usize::MAX,
                ));
            }

            // Op: merge — the spinning kernel. Waits for this layer's
            // immediate experts and the previous MoE layer's deferred
            // experts, then folds both into the residual stream.
            {
                let shared = Arc::clone(&self.shared);
                ops.push((
                    false,
                    Arc::new(move || {
                        {
                            let st = shared.state.lock();
                            if st.error.is_some() {
                                return;
                            }
                        }
                        // Spin WITHOUT holding the state lock (workers
                        // need it to publish their results).
                        {
                            let _span = kt_trace::span_ab(SpanKind::MergeSpin, li as u32, 0);
                            spin_until_zero(&shared.imm_pending[li], "immediate experts");
                            if let Some(p) = prev_moe {
                                spin_until_zero(&shared.def_pending[p], "deferred experts");
                            }
                        }
                        let mut st = shared.state.lock();
                        let imm = st.imm_out[li].take();
                        if let Some(m) = &imm {
                            let _span = kt_trace::span_ab(SpanKind::ScatterAdd, li as u32, 0);
                            add_assign(st.x.as_mut_slice(), m.as_slice());
                        }
                        // Dynamic placement: scatter both devices'
                        // bucket outputs in ascending expert order into
                        // a zeroed scratch buffer — the identical
                        // serial order `forward_with` uses on the CPU —
                        // then fold elementwise, keeping outputs bitwise
                        // equal to the zero-byte split.
                        let mut buckets: Option<(
                            Vec<BucketOut>,
                            Vec<BucketOut>,
                            Option<Matrix>,
                        )> = None;
                        if shared.dynamic.is_some() {
                            let cpu_b = st.cpu_buckets[li].take().unwrap_or_default();
                            let gpu_b = st.gpu_buckets[li].take().unwrap_or_default();
                            if !(cpu_b.is_empty() && gpu_b.is_empty()) {
                                let _span =
                                    kt_trace::span_ab(SpanKind::ScatterAdd, li as u32, 0);
                                // Device ops may take a workspace lock
                                // under `state` (see `ws_gpu` lock
                                // discipline); this layer's CPU task
                                // has already dropped `ws_imm` — its
                                // counter reached zero above.
                                let checkout =
                                    shared.ws_imm.lock().checkout(st.x.rows(), st.x.cols());
                                let buf = match checkout {
                                    Ok(mut buf) => {
                                        match scatter_bucket_streams(&cpu_b, &gpu_b, &mut buf) {
                                            Ok(()) => add_assign(st.x.as_mut_slice(), buf.as_slice()),
                                            Err(e) => st.error = Some(e.to_string()),
                                        }
                                        Some(buf)
                                    }
                                    Err(e) => {
                                        st.error = Some(e.to_string());
                                        None
                                    }
                                };
                                buckets = Some((cpu_b, gpu_b, buf));
                            }
                        }
                        let def_m = prev_moe.and_then(|p| st.def_out[p].take());
                        if let Some(m) = &def_m {
                            let _span = kt_trace::span_ab(
                                SpanKind::DeferralFlush,
                                prev_moe.unwrap_or(0) as u32,
                                0,
                            );
                            add_assign(st.x.as_mut_slice(), m.as_slice());
                        }
                        let ffn_arc = st.ffn_in[li].take();
                        // Return scratch buffers OUTSIDE the state lock:
                        // a CPU task of the next layer may hold its
                        // workspace lock while waiting for `state`.
                        drop(st);
                        if let Some(m) = imm {
                            shared.ws_imm.lock().restore(m);
                        }
                        // Buckets retire to the workspace whose arena
                        // backs them (CPU → ws_imm, GPU → ws_gpu.moe),
                        // preserving the zero-allocation steady state.
                        if let Some((cpu_b, gpu_b, buf)) = buckets {
                            {
                                let mut ws = shared.ws_imm.lock();
                                if let Some(b) = buf {
                                    ws.restore(b);
                                }
                                for b in cpu_b {
                                    ws.retire_bucket_out(b);
                                }
                            }
                            let mut ws = shared.ws_gpu.lock();
                            for b in gpu_b {
                                ws.moe.retire_bucket_out(b);
                            }
                        }
                        if let Some(m) = def_m {
                            shared.ws_def.lock().restore(m);
                        }
                        if let Some(arc) = ffn_arc {
                            let mut ws = shared.ws_gpu.lock();
                            match Arc::try_unwrap(arc) {
                                Ok(m) => ws.arena.restore(m),
                                // This layer's own deferred task may
                                // still hold a clone; reclaimed at the
                                // next embed.
                                Err(arc) => ws.pending.push(arc),
                            }
                        }
                    }),
                    li,
                ));
            }
        }

        // Op: final norm + LM head. Also absorbs any deferred output of
        // the last MoE layer (none is produced there by construction).
        {
            let shared = Arc::clone(&self.shared);
            let model = Arc::clone(&self.model);
            let head_pool = Arc::clone(&self.head_pool);
            let vocab = cfg.vocab;
            ops.push((
                false,
                Arc::new(move || {
                    let mut head_span = kt_trace::span(SpanKind::LmHead);
                    let mut guard = shared.state.lock();
                    if guard.error.is_some() {
                        return;
                    }
                    // The CPU expert backend is idle here (final merge
                    // already ran), so the head pool has the machine to
                    // itself. Panel-parallel execution is bitwise
                    // identical to serial — each worker owns disjoint
                    // output columns.
                    let mut ws = shared.ws_gpu.lock();
                    let st = &mut *guard;
                    let per_seq = (|| -> Result<Vec<Matrix>, String> {
                        let mut normed = ws
                            .arena
                            .checkout(st.x.rows(), st.x.cols())
                            .map_err(|e| e.to_string())?;
                        model.final_norm().forward_into(&st.x, &mut normed);
                        let cols = normed.cols();
                        // The head GEMM runs per sequence through the
                        // row-stable kernel: every position's logits
                        // row is a function of its residual row only,
                        // so sequential decode, batched decode, and any
                        // chunking of a prefill all produce the same
                        // bits. Sequences that don't sample this step
                        // (non-final prefill chunks) skip the head GEMM
                        // entirely.
                        let mut out_seqs = Vec::with_capacity(st.seq_rows.len());
                        let mut result = Ok(());
                        for (s, &(start, len)) in st.seq_rows.iter().enumerate() {
                            if !st.need_logits.get(s).copied().unwrap_or(true) {
                                continue;
                            }
                            let r = (|| -> Result<Matrix, String> {
                                let mut sub = ws
                                    .arena
                                    .checkout(len, cols)
                                    .map_err(|e| e.to_string())?;
                                sub.as_mut_slice().copy_from_slice(
                                    &normed.as_slice()
                                        [start * cols..(start + len) * cols],
                                );
                                let mut out = ws
                                    .arena
                                    .checkout(len, vocab)
                                    .map_err(|e| e.to_string())?;
                                let r = gemm_rowwise(
                                    &sub,
                                    model.lm_head(),
                                    &mut out,
                                    Some(&head_pool),
                                );
                                ws.arena.restore(sub);
                                r.map_err(|e| e.to_string())?;
                                Ok(out)
                            })();
                            match r {
                                Ok(out) => out_seqs.push(out),
                                Err(e) => {
                                    result = Err(e);
                                    break;
                                }
                            }
                        }
                        ws.arena.restore(normed);
                        if let Err(e) = result {
                            for m in out_seqs {
                                ws.arena.restore(m);
                            }
                            return Err(e);
                        }
                        Ok(out_seqs)
                    })();
                    match per_seq {
                        Ok(logits) => {
                            let rows: usize = logits.iter().map(Matrix::rows).sum();
                            head_span.set_labels(rows as u32, 0);
                            st.logits = Some(logits);
                        }
                        Err(e) => {
                            st.error = Some(e);
                        }
                    }
                }),
                usize::MAX,
            ));
        }
        ops
    }

    /// Runs one forward over `tokens` (appended to the cache) and
    /// returns logits for every new position.
    ///
    /// Deferral applies only to single-token forwards (decode), as in
    /// the paper.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Exec`] on invalid tokens or any failure
    /// raised by device/worker ops.
    pub fn forward(&self, tokens: &[u32]) -> Result<Matrix, EngineError> {
        self.model.validate_tokens(tokens)?;
        // One forward at a time: the step state is per-request.
        let _serialized = self.inference_lock.lock();
        let decode = tokens.len() == 1;
        {
            let mut st = self.shared.state.lock();
            st.tokens = tokens.to_vec();
            st.seq_rows = vec![(0, tokens.len())];
            st.decode_row = vec![decode; tokens.len()];
            st.need_logits = vec![true];
            st.tags = vec![0];
        }
        let mut per_seq = self.run_step(decode)?;
        per_seq
            .pop()
            .ok_or_else(|| EngineError::exec("forward produced no logits"))
    }

    /// Runs one continuously-batched forward: every sequence's new
    /// tokens are appended to its own KV cache and processed in a
    /// single step — attention per sequence, expert FFNs across the
    /// whole batch. Single-token non-prefill sequences are decode rows
    /// (Expert Deferral applies per row); prefill sequences append
    /// prompt positions — a whole prompt, or one chunk of it per step
    /// (see [`BatchSeq::prefill_chunk`]). Chunking is invariant: any
    /// split of a prompt into chunks produces bitwise-identical KV
    /// state and logits to a monolithic prefill.
    ///
    /// The returned logits are split per sequence, one matrix each with
    /// one row per new token — `None` for sequences that declined
    /// logits (non-final prefill chunks).
    ///
    /// Caches are moved into the engine for the step and handed back
    /// before returning — including on error, but a failed step may
    /// leave caches partially advanced; callers must `reset` a cache
    /// before reusing it after an error.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Exec`] on an empty batch, invalid
    /// tokens, or any failure raised by device/worker ops.
    pub fn forward_batch(
        &self,
        seqs: &mut [BatchSeq],
    ) -> Result<Vec<Option<Matrix>>, EngineError> {
        if seqs.is_empty() {
            return Err(EngineError::exec("forward_batch requires at least one sequence"));
        }
        for s in seqs.iter() {
            self.model.validate_tokens(&s.tokens)?;
        }
        let _serialized = self.inference_lock.lock();
        let mut seq_rows = Vec::with_capacity(seqs.len());
        let mut decode_row = Vec::new();
        let mut tokens = Vec::new();
        let need: Vec<bool> = seqs.iter().map(|s| s.need_logits).collect();
        for s in seqs.iter() {
            seq_rows.push((tokens.len(), s.tokens.len()));
            let is_decode = !s.prefill && s.tokens.len() == 1;
            decode_row.extend(std::iter::repeat_n(is_decode, s.tokens.len()));
            tokens.extend_from_slice(&s.tokens);
        }
        let all_decode = decode_row.iter().all(|&d| d);

        // Move the batch's caches into the step state, stashing the
        // engine-owned single-session cache meanwhile.
        let stashed = {
            let mut st = self.shared.state.lock();
            st.tokens = tokens;
            st.seq_rows = seq_rows;
            st.decode_row = decode_row;
            st.need_logits = need.clone();
            st.tags = seqs.iter().map(|s| s.tag).collect();
            let incoming: Vec<KvCache> = seqs
                .iter_mut()
                .map(|s| std::mem::replace(&mut s.cache, KvCache::new(&[], 0)))
                .collect();
            std::mem::replace(&mut st.caches, incoming)
        };
        let result = self.run_step(all_decode);
        // Hand caches back BEFORE propagating any error: a failed step
        // must not eat the batch's caches.
        {
            let mut st = self.shared.state.lock();
            let outgoing = std::mem::replace(&mut st.caches, stashed);
            for (slot, cache) in seqs.iter_mut().zip(outgoing) {
                slot.cache = cache;
            }
        }
        // The head op produced one logits matrix per logits-requesting
        // sequence, in batch order; re-align with the skipped slots.
        result.map(|dense| {
            let mut it = dense.into_iter();
            need.iter().map(|&n| if n { it.next() } else { None }).collect()
        })
    }

    /// Executes one step over the tokens/spans already staged in the
    /// step state. Callers must hold the inference lock. Returns one
    /// logits matrix per sequence (in `seq_rows` order); callers should
    /// hand them back via [`HybridEngine::recycle_logits`] once sampled
    /// so the arena can reuse them.
    fn run_step(&self, all_decode: bool) -> Result<Vec<Matrix>, EngineError> {
        let mut step_span = kt_trace::span(SpanKind::EngineStep);
        if kt_trace::enabled() {
            let st = self.shared.state.lock();
            step_span.set_labels(st.tokens.len() as u32, st.seq_rows.len() as u32);
        }
        let use_graph = all_decode && self.econfig.mode == SchedMode::AsyncGraph;
        let launch = |is_host: bool, f: &Arc<dyn Fn() + Send + Sync>| {
            let f = Arc::clone(f);
            if is_host {
                self.vgpu.launch_host_func(0, move || f());
            } else {
                self.vgpu.launch_kernel(0, move || f());
            }
        };
        // A device op that panicked comes back as a stream fault: the
        // rest of its stream was skipped, and the step fails below like
        // any op error — the engine stays usable.
        let device = if use_graph {
            // Capture once, replay every decode step. Ops read the
            // batch shape from the step state, so the same graph
            // serves any all-decode batch.
            let mut graph_slot = self.decode_graph.lock();
            if graph_slot.is_none() {
                let ops = self.build_ops();
                self.vgpu.begin_capture()?;
                for (is_host, f, _) in &ops {
                    launch(*is_host, f);
                }
                *graph_slot = Some(self.vgpu.end_capture()?);
            }
            let graph = graph_slot.as_ref().expect("captured above").clone();
            drop(graph_slot);
            self.vgpu.launch_graph(0, &graph);
            self.vgpu.synchronize(0)
        } else {
            // Per-op launches with per-layer synchronization (prefill,
            // or the sync-mode decode baseline).
            let ops = self.build_ops();
            let mut device = Ok(());
            for (is_host, f, layer_boundary) in &ops {
                launch(*is_host, f);
                if *layer_boundary != usize::MAX && self.econfig.mode == SchedMode::Sync {
                    // The baseline breaks the stream at every layer.
                    device = self.vgpu.synchronize(0);
                    if device.is_err() {
                        break;
                    }
                }
            }
            device.and(self.vgpu.synchronize(0))
        };
        if let Err(e) = device {
            self.shared.state.lock().error.get_or_insert(e.to_string());
        }

        // Drain: if an op errored mid-stream, the merge kernels skipped
        // their spin-waits and CPU expert tasks may still be in flight.
        // Their late counter stores must not release the NEXT forward's
        // freshly armed counters, so wait them out here.
        for counter in self.shared.imm_pending.iter().chain(&self.shared.def_pending) {
            spin_until_zero(counter, "in-flight expert tasks at forward exit");
        }

        let mut st = self.shared.state.lock();
        if let Some(e) = st.error.take() {
            // Clear any partial per-layer state left by the failed
            // pass, returning its buffers to their workspaces (outside
            // the state lock — see the ws_gpu lock discipline).
            let ffn: Vec<_> = st.ffn_in.iter_mut().filter_map(Option::take).collect();
            let imm: Vec<_> = st.imm_out.iter_mut().filter_map(Option::take).collect();
            let def: Vec<_> = st.def_out.iter_mut().filter_map(Option::take).collect();
            let cpu_b: Vec<_> = st
                .cpu_buckets
                .iter_mut()
                .filter_map(Option::take)
                .flatten()
                .collect();
            let gpu_b: Vec<_> = st
                .gpu_buckets
                .iter_mut()
                .filter_map(Option::take)
                .flatten()
                .collect();
            let logits = st.logits.take();
            st.dyn_routing.iter_mut().for_each(|s| *s = None);
            drop(st);
            {
                let mut ws = self.shared.ws_imm.lock();
                for m in imm {
                    ws.restore(m);
                }
                for b in cpu_b {
                    ws.retire_bucket_out(b);
                }
            }
            {
                let mut ws = self.shared.ws_def.lock();
                for m in def {
                    ws.restore(m);
                }
            }
            let mut ws = self.shared.ws_gpu.lock();
            for b in gpu_b {
                ws.moe.retire_bucket_out(b);
            }
            for arc in ffn {
                match Arc::try_unwrap(arc) {
                    Ok(m) => ws.arena.restore(m),
                    Err(arc) => ws.pending.push(arc),
                }
            }
            for m in logits.into_iter().flatten() {
                ws.arena.restore(m);
            }
            return Err(EngineError::exec(e));
        }
        st.logits
            .take()
            .ok_or_else(|| EngineError::exec("forward produced no logits"))
    }

    /// Returns a sampled-from logits matrix to the engine's scratch
    /// arena for reuse by a later step. Purely an optimization — any
    /// matrix (or none at all) is accepted.
    pub fn recycle_logits(&self, m: Matrix) {
        self.shared.ws_gpu.lock().arena.restore(m);
    }

    /// Merged allocation counters across every step workspace (device
    /// arena plus the immediate/deferred CPU expert workspaces).
    /// `allocations` staying flat across steady-state decode steps is
    /// the zero-allocation hot-path invariant.
    pub fn workspace_stats(&self) -> ArenaStats {
        let gpu = {
            let ws = self.shared.ws_gpu.lock();
            let mut s = ws.arena.stats();
            s.merge(&ws.moe.arena_stats());
            s
        };
        let imm = self.shared.ws_imm.lock().arena_stats();
        let def = self.shared.ws_def.lock().arena_stats();
        let mut all = gpu;
        all.merge(&imm);
        all.merge(&def);
        all
    }

    /// Prefills a prompt then greedily decodes `n_new` tokens.
    ///
    /// # Errors
    ///
    /// Propagates forward errors.
    pub fn generate_greedy(&self, prompt: &[u32], n_new: usize) -> Result<Vec<u32>, EngineError> {
        let mut rng = StdRng::seed_from_u64(0);
        self.generate(prompt, n_new, kt_model::sampler::Sampler::Greedy, &mut rng, |_| true)
    }

    /// Prefills a prompt, then decodes up to `max_new` tokens with the
    /// given sampler, invoking `on_token` after every generated token
    /// (streaming); generation stops early when `on_token` returns
    /// `false` (client disconnect, stop token, length policy).
    ///
    /// # Errors
    ///
    /// Propagates forward errors.
    pub fn generate(
        &self,
        prompt: &[u32],
        max_new: usize,
        sampler: kt_model::sampler::Sampler,
        rng: &mut StdRng,
        mut on_token: impl FnMut(u32) -> bool,
    ) -> Result<Vec<u32>, EngineError> {
        let logits = self.forward(prompt)?;
        let mut out = Vec::with_capacity(max_new);
        let mut next = sampler.sample(logits.row(logits.rows() - 1), rng);
        self.recycle_logits(logits);
        for step in 0..max_new {
            out.push(next);
            if !on_token(next) || step + 1 == max_new {
                break;
            }
            let logits = self.forward(&[next])?;
            next = sampler.sample(logits.row(0), rng);
            self.recycle_logits(logits);
        }
        Ok(out)
    }
}

/// `dst += src`, elementwise: every fold into the residual stream.
fn add_assign(dst: &mut [f32], src: &[f32]) {
    for (o, v) in dst.iter_mut().zip(src) {
        *o += v;
    }
}

/// The routed-expert pool of MoE layer `li` (for CPU expert tasks,
/// which report errors as kernel errors).
fn routed(model: &MoeModel, li: usize) -> Result<&FusedMoE, KernelError> {
    model.blocks()[li]
        .ffn
        .routed()
        .ok_or_else(|| KernelError::config("not a MoE layer"))
}

impl std::fmt::Debug for HybridEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridEngine")
            .field("model", &self.config().name)
            .field("mode", &self.econfig.mode)
            .field("n_deferred", &self.econfig.n_deferred)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_model::ModelPreset;

    fn engine(mode: SchedMode, n_deferred: usize, seed: u64) -> HybridEngine {
        let cfg = ModelPreset::DeepSeekV3.tiny_config();
        HybridEngine::random(
            &cfg,
            EngineConfig {
                n_cpu_workers: 2,
                mode,
                n_deferred,
                seed,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn invalid_tokens_are_rejected() {
        let e = engine(SchedMode::Sync, 0, 1);
        assert!(e.forward(&[]).is_err());
        assert!(e.forward(&[70_000]).is_err());
    }

    #[test]
    fn validate_cache_checks_layout_and_consistency() {
        let e = engine(SchedMode::Sync, 0, 1);
        let mut ok = e.fresh_cache();
        e.validate_cache(&ok).unwrap();

        // A cache the engine has actually advanced still validates.
        e.swap_cache(&mut ok);
        let _ = e.forward(&[1, 2, 3]).unwrap();
        e.swap_cache(&mut ok);
        e.validate_cache(&ok).unwrap();

        // Wrong layer count.
        let wrong_layers = KvCache::new(&[(4, 4)], e.config().max_seq);
        assert!(e.validate_cache(&wrong_layers).is_err());

        // Wrong widths (same layer count).
        let n = ok.n_layers();
        let wrong_widths = KvCache::new(&vec![(1, 1); n], e.config().max_seq);
        assert!(e.validate_cache(&wrong_widths).is_err());

        // Wrong capacity.
        let specs: Vec<(usize, usize)> = (0..n)
            .map(|i| (ok.layer(i).k_width(), ok.layer(i).v_width()))
            .collect();
        let wrong_cap = KvCache::new(&specs, e.config().max_seq + 1);
        assert!(e.validate_cache(&wrong_cap).is_err());

        // Ragged lengths across layers.
        let mut ragged = e.fresh_cache();
        let kw = ragged.layer(0).k_width();
        let vw = ragged.layer(0).v_width();
        ragged
            .layer_mut(0)
            .push(&vec![0.0; kw], &vec![0.0; vw])
            .unwrap();
        assert!(e.validate_cache(&ragged).is_err());
    }

    #[test]
    fn forward_produces_finite_logits() {
        let e = engine(SchedMode::Sync, 0, 2);
        let logits = e.forward(&[1, 2, 3]).unwrap();
        assert_eq!(logits.rows(), 3);
        assert_eq!(logits.cols(), 256);
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sync_and_graph_modes_agree_exactly() {
        let a = engine(SchedMode::Sync, 0, 7);
        let b = engine(SchedMode::AsyncGraph, 0, 7);
        let ga = a.generate_greedy(&[5, 9, 13], 6).unwrap();
        let gb = b.generate_greedy(&[5, 9, 13], 6).unwrap();
        assert_eq!(ga, gb, "scheduling must not change the math");
    }

    #[test]
    fn graph_mode_replays_a_single_graph() {
        let e = engine(SchedMode::AsyncGraph, 0, 3);
        let _ = e.generate_greedy(&[1, 2], 5).unwrap();
        let stats = e.launch_stats();
        // 4 decode steps after the first generated token use the graph.
        assert!(stats.graph_replays >= 4, "{stats:?}");
        // Per-token launches: graph mode should launch FAR fewer than
        // ops-per-token times tokens.
        assert!(
            stats.graph_replays < stats.graph_ops / 5,
            "graph replay amortizes launches: {stats:?}"
        );
    }

    #[test]
    fn sync_mode_launches_every_op() {
        let e = engine(SchedMode::Sync, 0, 3);
        let _ = e.generate_greedy(&[1, 2], 3).unwrap();
        let stats = e.launch_stats();
        assert_eq!(stats.graph_replays, 0);
        // 5 tiny-config layers -> tens of ops per forward.
        assert!(stats.kernel_launches > 30, "{stats:?}");
    }

    #[test]
    fn deferral_zero_matches_standard() {
        // n_deferred = 0 must be bit-identical to the standard path.
        let a = engine(SchedMode::AsyncGraph, 0, 11);
        let b = engine(SchedMode::Sync, 0, 11);
        let la = a.forward(&[3, 4, 5]).unwrap();
        let lb = b.forward(&[3, 4, 5]).unwrap();
        let da = a.forward(&[7]).unwrap();
        let db = b.forward(&[7]).unwrap();
        assert_eq!(la.as_slice(), lb.as_slice());
        assert_eq!(da.as_slice(), db.as_slice());
    }

    #[test]
    fn deferral_changes_decode_but_preserves_shape() {
        let std_e = engine(SchedMode::AsyncGraph, 0, 13);
        let def_e = engine(SchedMode::AsyncGraph, 3, 13);
        // Same prefill (deferral is decode-only).
        let lp_std = std_e.forward(&[2, 4, 6]).unwrap();
        let lp_def = def_e.forward(&[2, 4, 6]).unwrap();
        assert_eq!(lp_std.as_slice(), lp_def.as_slice(), "prefill unaffected");
        // Decode logits differ (deferred contributions land later) but
        // stay close.
        let d_std = std_e.forward(&[8]).unwrap();
        let d_def = def_e.forward(&[8]).unwrap();
        assert_ne!(d_std.as_slice(), d_def.as_slice());
        let err = d_std.relative_error(&d_def);
        assert!(err < 0.5, "deferral divergence too large: {err}");
    }

    #[test]
    fn deferral_in_graph_mode_matches_sync_mode() {
        // The scheduling machinery (spin merges, counters, graph
        // capture) must not change deferred-math results.
        let a = engine(SchedMode::AsyncGraph, 2, 17);
        let b = engine(SchedMode::Sync, 2, 17);
        let ga = a.generate_greedy(&[1, 2, 3], 6).unwrap();
        let gb = b.generate_greedy(&[1, 2, 3], 6).unwrap();
        assert_eq!(ga, gb);
    }

    #[test]
    fn incremental_decode_matches_model_semantics() {
        // Full prefill vs prefill + step-by-step decode: bit for bit.
        let e = engine(SchedMode::AsyncGraph, 0, 19);
        let full = e.forward(&[5, 6, 7, 8]).unwrap();
        e.reset();
        let _ = e.forward(&[5, 6, 7]).unwrap();
        let last = e.forward(&[8]).unwrap();
        let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(full.row(3)), bits(last.row(0)));
    }

    #[test]
    fn reset_clears_cache() {
        let e = engine(SchedMode::Sync, 0, 23);
        let _ = e.forward(&[1, 2, 3]).unwrap();
        assert_eq!(e.seq_len(), 3);
        e.reset();
        assert_eq!(e.seq_len(), 0);
        let a = e.forward(&[1, 2, 3]).unwrap();
        e.reset();
        let b = e.forward(&[1, 2, 3]).unwrap();
        assert_eq!(a.as_slice(), b.as_slice(), "reset gives a clean slate");
    }

    #[test]
    fn utilization_report_is_sane() {
        let e = engine(SchedMode::AsyncGraph, 2, 61);
        let _ = e.forward(&[1, 2, 3]).unwrap(); // warm up / capture
        let rep = e
            .measure_utilization(|| {
                for _ in 0..8 {
                    e.forward(&[5])?;
                }
                Ok(())
            })
            .unwrap();
        assert!(rep.cpu_util > 0.0 && rep.cpu_util <= 1.0 + 1e-6, "{rep:?}");
        assert!(rep.gpu_util > 0.0 && rep.gpu_util <= 1.0 + 1e-6, "{rep:?}");
        assert!((0.0..=1.0).contains(&rep.gpu_overhead_frac));
    }

    #[test]
    fn sampled_generation_is_seed_deterministic() {
        use kt_model::sampler::Sampler;
        use rand::SeedableRng;
        let e = engine(SchedMode::AsyncGraph, 0, 31);
        let mut r1 = rand::rngs::StdRng::seed_from_u64(5);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(5);
        let a = e
            .generate(&[1, 2], 6, Sampler::Temperature(0.8), &mut r1, |_| true)
            .unwrap();
        e.reset();
        let b = e
            .generate(&[1, 2], 6, Sampler::Temperature(0.8), &mut r2, |_| true)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn streaming_callback_can_stop_generation() {
        use kt_model::sampler::Sampler;
        use rand::SeedableRng;
        let e = engine(SchedMode::AsyncGraph, 0, 37);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut streamed = Vec::new();
        let out = e
            .generate(&[1, 2, 3], 10, Sampler::Greedy, &mut rng, |t| {
                streamed.push(t);
                streamed.len() < 3
            })
            .unwrap();
        assert_eq!(out.len(), 3, "stopped by callback");
        assert_eq!(out, streamed);
    }

    #[test]
    fn concurrent_forwards_are_serialized_safely() {
        // Two threads hammering the same engine must not corrupt state;
        // the inference lock serializes whole forwards.
        let e = std::sync::Arc::new(engine(SchedMode::AsyncGraph, 2, 91));
        let _ = e.forward(&[1, 2]).unwrap();
        std::thread::scope(|scope| {
            for t in 0..2u32 {
                let e = std::sync::Arc::clone(&e);
                scope.spawn(move || {
                    for i in 0..4u32 {
                        let logits = e.forward(&[(t * 40 + i) % 256]).unwrap();
                        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
                    }
                });
            }
        });
    }

    #[test]
    fn engine_checkpoint_round_trips() {
        let e = engine(SchedMode::AsyncGraph, 2, 83);
        let expect = e.generate_greedy(&[4, 5, 6], 8).unwrap();
        let mut buf = Vec::new();
        e.save(&mut buf).unwrap();
        let loaded = HybridEngine::load(
            &mut buf.as_slice(),
            EngineConfig {
                n_cpu_workers: 2,
                mode: SchedMode::Sync, // different runtime settings
                n_deferred: 2,
                seed: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let got = loaded.generate_greedy(&[4, 5, 6], 8).unwrap();
        assert_eq!(expect, got, "checkpointed weights decode identically");
        // One format: an engine checkpoint is a model checkpoint, and the
        // backend is a runtime setting the loader's config decides.
        let model = MoeModel::load(&mut buf.as_slice()).unwrap();
        assert_eq!(model.config(), e.config());
        let tiled = EngineConfig {
            backend: Backend::TiledOnly,
            ..Default::default()
        };
        let tiled = HybridEngine::load(&mut buf.as_slice(), tiled).unwrap();
        let blocks = tiled.model().blocks();
        assert!(blocks.iter().all(|b| match &b.ffn {
            Ffn::Dense(mlp) => mlp.backend() == Backend::TiledOnly,
            Ffn::Moe { routed, .. } => routed.backend() == Backend::TiledOnly,
        }));
        // Corrupt checkpoints fail loudly.
        buf[2] ^= 0xFF;
        assert!(HybridEngine::load(&mut buf.as_slice(), EngineConfig::default()).is_err());
    }

    #[test]
    fn checkpoint_disagreeing_with_its_config_is_rejected() {
        // The stored config is rewritten (same serialized length) over
        // valid weights. Vocab 512 over a 256-row embedding would let
        // token 300 pass `validate_tokens` and index out of bounds on the
        // device thread; every mismatch must fail both loaders up front.
        let e = engine(SchedMode::Sync, 0, 87);
        let cfg = e.config().clone();
        let mut buf = Vec::new();
        e.save(&mut buf).unwrap();
        let header = |c: &ModelConfig| {
            let mut h = kt_model::model::CHECKPOINT_MAGIC.to_vec();
            c.write_to(&mut h).unwrap();
            h
        };
        let body = buf.split_off(header(&cfg).len());
        let loads = |c: &ModelConfig| {
            let mut ckpt = header(c);
            ckpt.extend_from_slice(&body);
            let engine = HybridEngine::load(&mut ckpt.as_slice(), EngineConfig::default());
            (MoeModel::load(&mut ckpt.as_slice()).is_ok(), engine.is_ok())
        };
        assert_eq!(loads(&cfg), (true, true));
        let edits: [fn(&mut ModelConfig); 10] = [
            |c| c.vocab = 512,
            |c| c.n_heads = 8,
            |c| c.head_dim = 18,
            |c| c.attention = kt_model::AttentionKind::Mla { kv_lora_rank: 3 },
            |c| c.n_dense_layers = 2,
            |c| c.dense_inter = 136,
            |c| c.moe_inter = 56,
            |c| c.n_shared_experts += 1,
            |c| c.top_k -= 1,
            // Fails `ModelConfig::validate` before any weight is read.
            |c| c.top_k = c.n_routed_experts + 1,
        ];
        for edit in edits {
            let mut c = cfg.clone();
            edit(&mut c);
            assert_eq!(loads(&c), (false, false), "{c:?}");
        }
    }

    #[test]
    fn device_op_panic_fails_the_step_then_recovers() {
        // A panicking hook runs inside the submit op on the device
        // thread: the step must fail with the panic's message, not wedge
        // `synchronize`, and the engine must serve cleanly afterwards.
        for mode in [SchedMode::Sync, SchedMode::AsyncGraph] {
            let e = engine(mode, 2, 89);
            let want = e.generate_greedy(&[1, 2, 3], 4).unwrap();
            for prompt in [&[1u32, 2][..], &[7][..]] {
                e.reset();
                e.set_fault_injector(|_| panic!("hook exploded"));
                let err = e.forward(prompt).unwrap_err();
                assert!(err.to_string().contains("hook exploded"), "{mode:?}: {err}");
                e.clear_fault_injector();
            }
            e.reset();
            assert_eq!(e.generate_greedy(&[1, 2, 3], 4).unwrap(), want, "{mode:?}");
        }
    }

    #[test]
    fn cache_swapping_supports_multiple_sessions() {
        // Two interleaved conversations must produce exactly what two
        // sequential conversations produce.
        let e = engine(SchedMode::AsyncGraph, 0, 71);
        let prompts: [&[u32]; 2] = [&[1, 2, 3], &[9, 8, 7, 6]];

        // Sequential reference.
        let mut reference = Vec::new();
        for p in prompts {
            e.reset();
            reference.push(e.generate_greedy(p, 6).unwrap());
        }

        // Interleaved: swap caches between every decode step.
        e.reset();
        let mut caches: Vec<_> = (0..2).map(|_| e.fresh_cache()).collect();
        let mut outputs: Vec<Vec<u32>> = vec![Vec::new(); 2];
        let mut next: Vec<u32> = Vec::new();
        for (s, p) in prompts.iter().enumerate() {
            e.swap_cache(&mut caches[s]);
            let logits = e.forward(p).unwrap();
            next.push(kt_model::model::argmax(logits.row(logits.rows() - 1)));
            e.swap_cache(&mut caches[s]);
        }
        for _ in 0..6 {
            for s in 0..2 {
                e.swap_cache(&mut caches[s]);
                outputs[s].push(next[s]);
                let logits = e.forward(&[next[s]]).unwrap();
                next[s] = kt_model::model::argmax(logits.row(0));
                e.swap_cache(&mut caches[s]);
            }
        }
        for s in 0..2 {
            assert_eq!(outputs[s], reference[s], "session {s}");
        }
    }

    #[test]
    fn batched_decode_matches_sequential_bitwise() {
        // Continuous batching is pure scheduling: N sequences decoded
        // in one batch must emit exactly the tokens each would emit
        // alone. `TiledOnly` pins the kernel class so bucket sizes
        // (which vary with batch occupancy) cannot change the math.
        let cfg = ModelPreset::DeepSeekV3.tiny_config();
        let e = HybridEngine::random(
            &cfg,
            EngineConfig {
                n_cpu_workers: 2,
                mode: SchedMode::AsyncGraph,
                n_deferred: 2,
                backend: Backend::TiledOnly,
                seed: 101,
                ..Default::default()
            },
        )
        .unwrap();
        let prompts: [&[u32]; 3] = [&[1, 2, 3], &[9, 8], &[4, 5, 6, 7]];

        let mut reference = Vec::new();
        for p in prompts {
            e.reset();
            reference.push(e.generate_greedy(p, 5).unwrap());
        }

        e.reset();
        let mut seqs: Vec<BatchSeq> = prompts
            .iter()
            .map(|p| BatchSeq::prefill(e.fresh_cache(), p.to_vec()))
            .collect();
        // Batched prefill (mixed lengths), then batched decode steps.
        let logits = e.forward_batch(&mut seqs).unwrap();
        let mut next: Vec<u32> = logits
            .iter()
            .map(|l| {
                let l = l.as_ref().expect("prefill returns logits");
                kt_model::model::argmax(l.row(l.rows() - 1))
            })
            .collect();
        let mut outputs: Vec<Vec<u32>> = vec![Vec::new(); prompts.len()];
        for step in 0..5 {
            for (s, seq) in seqs.iter_mut().enumerate() {
                outputs[s].push(next[s]);
                seq.tokens = vec![next[s]];
                seq.prefill = false;
            }
            if step + 1 == 5 {
                break;
            }
            let logits = e.forward_batch(&mut seqs).unwrap();
            for (s, l) in logits.iter().enumerate() {
                next[s] = kt_model::model::argmax(l.as_ref().unwrap().row(0));
            }
        }
        for s in 0..prompts.len() {
            assert_eq!(outputs[s], reference[s], "sequence {s}");
        }
    }

    #[test]
    fn chunked_prefill_is_bitwise_identical_to_monolithic() {
        // Deferral ON: the 1-token chunks exercise the decode-row /
        // prefill-chunk distinction — a chunk of one token must NOT
        // defer experts, or its logits would drift from the monolithic
        // prefill's. One kernel class pins the expert GEMMs (attention
        // and the head are row-stable by construction); see the serve
        // equivalence tests for the same convention.
        let cfg = ModelPreset::DeepSeekV3.tiny_config();
        let e = HybridEngine::random(
            &cfg,
            EngineConfig {
                n_cpu_workers: 2,
                mode: SchedMode::Sync,
                n_deferred: 2,
                backend: Backend::TiledOnly,
                seed: 61,
                ..Default::default()
            },
        )
        .unwrap();
        let prompt: Vec<u32> = (0..13).map(|i| (i * 7 + 1) % 250).collect();

        // Monolithic reference on the engine-owned cache: per-position
        // logits plus one greedy decode step.
        e.reset();
        let mono = e.forward(&prompt).unwrap();
        let next = kt_model::model::argmax(mono.row(mono.rows() - 1));
        let mono_next = {
            let l = e.forward(&[next]).unwrap();
            kt_model::model::argmax(l.row(0))
        };

        // Chunk splits that include 1-token mid and final chunks.
        for splits in [vec![4, 4, 4, 1], vec![1, 11, 1], vec![13], vec![6, 7]] {
            assert_eq!(splits.iter().sum::<usize>(), prompt.len());
            let mut batch = vec![BatchSeq::prefill(e.fresh_cache(), Vec::new())];
            let mut row = 0;
            let mut off = 0;
            for &n in &splits {
                batch[0].tokens = prompt[off..off + n].to_vec();
                off += n;
                let logits = e.forward_batch(&mut batch).unwrap();
                // Concatenated per-chunk logits == monolithic logits,
                // bit for bit, at every prompt position.
                let l = logits[0].as_ref().expect("logits requested");
                for r in 0..l.rows() {
                    assert_eq!(
                        l.row(r),
                        mono.row(row),
                        "splits {splits:?}, position {row}"
                    );
                    row += 1;
                }
            }
            assert_eq!(row, prompt.len());
            // The chunk-built cache decodes exactly like the
            // monolithic one: greedy continuations agree.
            batch[0].tokens = vec![next];
            batch[0].prefill = false;
            let l = e.forward_batch(&mut batch).unwrap();
            let chunk_next =
                kt_model::model::argmax(l[0].as_ref().unwrap().row(0));
            assert_eq!(chunk_next, mono_next, "splits {splits:?} decode");
        }
    }

    #[test]
    fn mid_prefill_chunks_skip_logits() {
        let e = engine(SchedMode::Sync, 0, 67);
        let mut batch = vec![
            BatchSeq::prefill_chunk(e.fresh_cache(), vec![1, 2, 3]),
            BatchSeq::decode(e.fresh_cache(), 4),
        ];
        let logits = e.forward_batch(&mut batch).unwrap();
        assert!(logits[0].is_none(), "mid-chunk produces no logits");
        let l = logits[1].as_ref().expect("decode row produces logits");
        assert_eq!(l.rows(), 1);
        // The chunk still advanced its KV cache.
        assert_eq!(batch[0].cache.seq_len(), 3);
    }

    #[test]
    fn forward_batch_rejects_bad_input() {
        let e = engine(SchedMode::Sync, 0, 5);
        assert!(e.forward_batch(&mut []).is_err());
        let mut seqs = vec![BatchSeq::prefill(e.fresh_cache(), vec![])];
        assert!(e.forward_batch(&mut seqs).is_err());
        seqs[0].tokens = vec![70_000];
        assert!(e.forward_batch(&mut seqs).is_err());
    }

    #[test]
    fn fault_injector_fails_forward_then_recovers() {
        let e = engine(SchedMode::Sync, 0, 3);
        e.set_fault_injector(|path| path.contains("layers.3"));
        let err = e.forward(&[1, 2]).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        e.clear_fault_injector();
        e.reset();
        assert!(e.forward(&[1, 2]).is_ok(), "engine recovers after fault");
    }

    #[test]
    fn fault_during_batch_returns_caches() {
        // A failed batched step must hand every cache back (possibly
        // partially advanced) rather than leaking them into the engine.
        let e = engine(SchedMode::Sync, 0, 7);
        e.set_fault_injector(|path| path.contains("layers.2"));
        let mut seqs = vec![
            BatchSeq::prefill(e.fresh_cache(), vec![1, 2]),
            BatchSeq::decode(e.fresh_cache(), 3),
        ];
        assert!(e.forward_batch(&mut seqs).is_err());
        e.clear_fault_injector();
        for seq in &mut seqs {
            assert_eq!(seq.cache.n_layers(), e.config().n_layers);
            seq.cache.reset();
        }
        // The returned caches are usable again after a reset.
        assert!(e.forward_batch(&mut seqs).is_ok());
    }

    #[test]
    fn works_for_all_model_presets() {
        for preset in ModelPreset::all() {
            let cfg = preset.tiny_config();
            let e = HybridEngine::random(
                &cfg,
                EngineConfig {
                    n_cpu_workers: 2,
                    mode: SchedMode::AsyncGraph,
                    n_deferred: 2,
                    seed: 29,
                    ..Default::default()
                },
            )
            .unwrap();
            let out = e.generate_greedy(&[1, 2, 3], 4).unwrap();
            assert_eq!(out.len(), 4, "{preset:?}");
        }
    }
}

#[cfg(test)]
mod dynamic_placement_tests {
    use super::*;
    use kt_model::ModelPreset;

    /// `cache_bytes = 0` is the static split the dynamic engines are
    /// compared against.
    fn build(preset: ModelPreset, cache_bytes: usize, seed: u64) -> HybridEngine {
        let cfg = preset.tiny_config();
        HybridEngine::random(
            &cfg,
            EngineConfig {
                n_cpu_workers: 2,
                mode: SchedMode::AsyncGraph,
                n_deferred: 2,
                expert_cache_bytes: cache_bytes,
                seed,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn profile_records_activations() {
        let e = build(ModelPreset::DeepSeekV3, 0, 41);
        let _ = e.forward(&[1, 2, 3, 4]).unwrap();
        let profile = e.expert_profile();
        let cfg = e.config().clone();
        // Every MoE layer saw tokens * top_k activations; dense layers none.
        for layer in 0..cfg.n_layers {
            let expect = if layer < cfg.n_dense_layers {
                0
            } else {
                4 * cfg.top_k as u64
            };
            assert_eq!(profile.total(layer), expect, "layer {layer}");
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Prefill + `steps` greedy decode steps; every logits matrix as
    /// raw bits so equality below means bitwise identity, not float
    /// equality (which would conflate +0.0 and -0.0).
    fn run_trace(e: &HybridEngine, prompt: &[u32], steps: usize) -> Vec<Vec<u32>> {
        e.reset();
        let mut out = Vec::new();
        let l = e.forward(prompt).unwrap();
        let mut next = kt_model::model::argmax(l.row(l.rows() - 1));
        out.push(bits(&l));
        for _ in 0..steps {
            let l = e.forward(&[next]).unwrap();
            next = kt_model::model::argmax(l.row(0));
            out.push(bits(&l));
        }
        out
    }

    #[test]
    fn dynamic_placement_is_bitwise_identical_for_all_presets() {
        // Dynamic placement is pure scheduling: partitioning the
        // immediate routing by whole expert keeps every per-expert
        // token count (hence kernel class) identical, and the merge
        // folds buckets in the same serial expert order the CPU path
        // uses. Logits must match the zero-byte split bit for bit.
        for preset in ModelPreset::all() {
            let st = build(preset, 0, 71);
            let dy = build(preset, 64 << 20, 71);
            let want = run_trace(&st, &[1, 2, 3], 6);
            let got = run_trace(&dy, &[1, 2, 3], 6);
            assert_eq!(want, got, "{preset:?}");
            assert!(st.expert_cache_stats().is_none(), "{preset:?}");
            let stats = dy.expert_cache_stats().expect("dynamic engine has a cache");
            assert!(stats.hits + stats.misses > 0, "{preset:?}: cache consulted");
        }
    }

    #[test]
    fn tiny_cache_budget_churns_without_changing_outputs() {
        // A budget of exactly one expert forces constant
        // admission-decline / eviction churn mid-sequence; outputs
        // must not care which experts happen to be resident.
        let st = build(ModelPreset::DeepSeekV3, 0, 73);
        let bytes = st.expert_weight_bytes().expect("model has routed experts");
        let dy = build(ModelPreset::DeepSeekV3, bytes, 73);
        let want = run_trace(&st, &[4, 5, 6, 7], 8);
        let got = run_trace(&dy, &[4, 5, 6, 7], 8);
        assert_eq!(want, got);
        let stats = dy.expert_cache_stats().unwrap();
        assert!(stats.misses > 0, "tiny budget must miss");
        assert!(stats.resident_bytes <= bytes as u64);
        assert!(stats.resident_entries <= 1);
    }

    #[test]
    fn quantized_expert_bytes_drive_cache_accounting() {
        // The placement path must price and size experts by their
        // *stored* (post-quantization) bytes: an int4 expert is ~8x
        // smaller than F32, so a byte budget far below one F32 expert
        // still admits quantized experts — and outputs stay bitwise
        // identical to the static split at the same precision.
        let build_q = |cache_bytes: usize| {
            HybridEngine::random(
                &ModelPreset::DeepSeekV3.tiny_config(),
                EngineConfig {
                    n_cpu_workers: 2,
                    mode: SchedMode::AsyncGraph,
                    n_deferred: 2,
                    precision: PrecisionPolicy::experts(kt_tensor::WeightDtype::Int4 {
                        group: 8,
                    }),
                    expert_cache_bytes: cache_bytes,
                    seed: 91,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let f32_engine = build(ModelPreset::DeepSeekV3, 0, 91);
        let f32_bytes = f32_engine.expert_weight_bytes().unwrap();
        let st = build_q(0);
        let q_bytes = st.expert_weight_bytes().unwrap();
        // Group 8 is the largest group dividing the tiny dims, so the
        // scale overhead is maximal: 4 code bits + 4 scale bits per
        // weight = exactly a quarter of F32's 32.
        assert!(
            q_bytes * 4 <= f32_bytes,
            "int4 expert ({q_bytes} B) must be at most a quarter of F32 ({f32_bytes} B)"
        );
        assert_eq!(st.expert_weight_dtype().unwrap().name(), "int4");

        // Two quantized experts fit; not even one F32 expert would.
        let budget = 2 * q_bytes;
        assert!(budget < f32_bytes);
        let dy = build_q(budget);
        let want = run_trace(&st, &[4, 5, 6], 8);
        let got = run_trace(&dy, &[4, 5, 6], 8);
        assert_eq!(want, got);
        let stats = dy.expert_cache_stats().unwrap();
        assert!(
            stats.insertions > 0,
            "quantized experts must be admitted under a sub-F32 budget"
        );
        assert_eq!(
            stats.resident_bytes % q_bytes as u64,
            0,
            "residency must be counted in stored (quantized) expert bytes"
        );
        assert!(stats.resident_bytes <= budget as u64);
    }

    #[test]
    fn dynamic_batched_decode_is_bitwise_identical() {
        // Concurrent decode rows share one MoE dispatch per layer, so
        // the dynamic partition sees multi-row routings here.
        let prompts: [&[u32]; 2] = [&[1, 2, 3], &[9, 8, 7, 6]];
        let run = |e: &HybridEngine| -> Vec<Vec<u32>> {
            e.reset();
            let mut seqs: Vec<BatchSeq> = prompts
                .iter()
                .map(|p| BatchSeq::prefill(e.fresh_cache(), p.to_vec()))
                .collect();
            let mut out = Vec::new();
            let logits = e.forward_batch(&mut seqs).unwrap();
            let mut next: Vec<u32> = logits
                .iter()
                .map(|l| {
                    let l = l.as_ref().expect("prefill returns logits");
                    out.push(bits(l));
                    kt_model::model::argmax(l.row(l.rows() - 1))
                })
                .collect();
            for _ in 0..5 {
                for (s, seq) in seqs.iter_mut().enumerate() {
                    seq.tokens = vec![next[s]];
                    seq.prefill = false;
                }
                let logits = e.forward_batch(&mut seqs).unwrap();
                for (s, l) in logits.iter().enumerate() {
                    let l = l.as_ref().unwrap();
                    out.push(bits(l));
                    next[s] = kt_model::model::argmax(l.row(0));
                }
            }
            out
        };
        for preset in [ModelPreset::DeepSeekV3, ModelPreset::Qwen2Moe] {
            let st = build(preset, 0, 79);
            let dy = build(preset, 48 << 20, 79);
            assert_eq!(run(&st), run(&dy), "{preset:?}");
        }
    }

    #[test]
    fn routing_override_redirects_gating() {
        // The override hook (used by the placement bench to impose
        // skew) replaces the router's decision wholesale.
        let e = build(ModelPreset::DeepSeekV3, 64 << 20, 83);
        let cfg = e.config().clone();
        let top_k = cfg.top_k;
        e.set_routing_override(move |_, rows| {
            Some(MoeRouting::new(
                (0..rows)
                    .map(|_| (0..top_k).map(|k| (k, 1.0 / top_k as f32)).collect())
                    .collect(),
            ))
        });
        let _ = e.forward(&[1, 2, 3]).unwrap();
        let profile = e.expert_profile();
        let layer = cfg.n_dense_layers; // first MoE layer
        assert!(profile.count(layer, 0) > 0, "forced expert 0 must be hit");
        for ex in top_k..cfg.n_routed_experts {
            assert_eq!(profile.count(layer, ex), 0, "expert {ex} not routed");
        }
        e.clear_routing_override();
        e.reset();
        assert!(e.forward(&[1, 2, 3]).is_ok(), "normal routing restored");
    }
}
