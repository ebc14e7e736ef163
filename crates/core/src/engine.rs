//! The hybrid CPU/GPU inference engine.
//!
//! Wires the virtual GPU (attention, router, shared experts, merges,
//! LM head) to the CPU expert backend (routed experts) with the paper's
//! scheduling structure (§3.3):
//!
//! * **One step table.** A forward step is a fixed table of stages,
//!   built once in [`HybridEngine::from_model`]:
//!   `embed → [attention → submit → shared experts → merge]* → head`,
//!   where a dense layer has only its attention stage (which also runs
//!   its dense MLP). Each stage is one closure, also built once, that
//!   reads the batch shape from the shared step state, so the same table
//!   serves every step; one runner checks the step error, opens the
//!   stage's span and dispatches on the stage's kind.
//! * `submit` is an in-stream host callback: it routes the token,
//!   arms per-layer completion counters and pushes expert tasks into
//!   the CPU backend's task queue.
//! * `shared experts` runs on the device while the CPU works: every
//!   routed expert runs on the CPU backend (the paper's static split,
//!   §3.1).
//! * `merge` is a **spinning kernel**: it waits on the immediate
//!   counter of its own layer and the deferred counter of the previous
//!   MoE layer, then folds both contributions into the residual stream
//!   — no host round-trip, which is what lets the entire token fit in
//!   one captured graph ("CUDA-based spinning").
//! * **Two lowerings of the one table.** Under [`SchedMode::AsyncGraph`]
//!   the table is captured as one graph at construction and every
//!   all-decode step replays it with a single launch. Every other step
//!   launches the stages one by one, each paying launch latency;
//!   [`SchedMode::Sync`] also synchronizes the stream after each MoE
//!   layer's merge — the baseline the paper's CUDA-Graph optimization
//!   is measured against.
//! * Expert Deferral (§4.1) splits each layer's routed experts into
//!   immediate and deferred sets; deferred outputs are merged one MoE
//!   layer later, and never at the final MoE layer. Deferral applies
//!   only to single-token (decode) rows, as in the paper.
//! * **The caller owns every KV cache.** [`HybridEngine::forward_batch`]
//!   moves the batch's caches in for one step and hands them back;
//!   [`HybridEngine::forward`] is its one-sequence form.

use kt_kernels::dispatch::Backend;
use kt_kernels::gemm::gemm_rowwise;
use kt_kernels::moe::{FusedMoE, MoeRouting, MoeWorkspace};
use kt_kernels::schedule::SchedulePolicy;
use kt_kernels::KernelError;
use kt_model::config::ModelConfig;
use kt_model::kvcache::KvCache;
use kt_model::model::{Ffn, MoeModel};
use kt_tensor::{ArenaStats, Matrix, PrecisionPolicy, ScratchArena};
use kt_trace::{SpanGuard, SpanKind};
use parking_lot::{Mutex, MutexGuard};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cpu_backend::CpuBackend;
use crate::error::EngineError;
use crate::profiling::ExpertProfile;
use crate::vgpu::{DeviceFn, GraphHandle, LaunchStats, VgpuConfig, VirtualGpu};

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
    /// Virtual GPU configuration (launch latencies).
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
    /// CPU kernel backend for expert GEMMs, [`Backend::default`] (the
    /// vector class, the faster one on this crate's kernels) unless set.
    /// The choice is scheduling only, so outputs carry the same bits
    /// under every backend, at every batch and chunk shape.
    pub backend: Backend,
    /// Weight initialization seed.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            n_cpu_workers: 2,
            vgpu: VgpuConfig::default(),
            mode: SchedMode::AsyncGraph,
            n_deferred: 0,
            precision: PrecisionPolicy::default(),
            backend: Backend::default(),
            seed: 0,
        }
    }
}

/// What a step-table stage does. The kind alone decides the stage's
/// span and whether it is launched as a host func or as a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageKind {
    /// Embedding lookup; also the step's workspace turnover point.
    Embed,
    /// Attention, plus the dense MLP on a dense layer.
    Attention,
    /// Routing and CPU expert submission: the one host func.
    Submit,
    /// Shared experts on the device.
    SharedExperts,
    /// The spinning merge kernel.
    Merge,
    /// Final norm and LM head.
    LmHead,
}

impl StageKind {
    /// The span the runner opens around the stage. The merge has none
    /// of its own: its spin, scatter-add and deferral flush are spanned
    /// apart (`MergeSpin`, `ScatterAdd`, `DeferralFlush`), and the
    /// phase table reads them apart.
    fn span(self) -> Option<SpanKind> {
        Some(match self {
            StageKind::Embed => SpanKind::Embed,
            StageKind::Attention => SpanKind::Attention,
            StageKind::Submit => SpanKind::ExpertDispatch,
            StageKind::SharedExperts => SpanKind::SharedExperts,
            StageKind::Merge => return None,
            StageKind::LmHead => SpanKind::LmHead,
        })
    }
}

/// One entry of the step table: a stage kind at a layer (0 for the
/// embed and head stages).
#[derive(Debug, Clone, Copy)]
struct Stage {
    kind: StageKind,
    layer: usize,
}

/// The step table of `cfg`, `2 + n_layers + 3 * n_moe_layers` stages:
/// `embed → [attention → submit → shared experts → merge]* → head`,
/// with only the attention stage on a dense layer.
fn step_table(cfg: &ModelConfig) -> Vec<Stage> {
    let stage = |kind, layer| Stage { kind, layer };
    let mut table = vec![stage(StageKind::Embed, 0)];
    for li in 0..cfg.n_layers {
        table.push(stage(StageKind::Attention, li));
        if li >= cfg.n_dense_layers {
            let moe = [
                StageKind::Submit,
                StageKind::SharedExperts,
                StageKind::Merge,
            ];
            table.extend(moe.map(|kind| stage(kind, li)));
        }
    }
    table.push(stage(StageKind::LmHead, 0));
    table
}

/// A MoE layer's scheduling constants.
#[derive(Debug, Clone, Copy)]
struct LayerPlan {
    /// Routed experts per row merged by the layer's own merge.
    n_imm: usize,
    /// Routed experts per decode row deferred to the next MoE layer's
    /// merge (0 disables deferral).
    n_def: usize,
    /// The MoE layer whose deferred outputs this layer's merge folds in.
    prev_moe: Option<usize>,
}

/// Mutable per-step state shared by the control thread, which also
/// drains the stream's stages, and the CPU workers.
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
    /// Per sequence (indexed like `seq_rows`): which rows the head stage
    /// computes logits for.
    logit_rows: Vec<LogitRows>,
    /// Per sequence: request-scoped trace tag (0 = untagged; see
    /// [`BatchSeq::tag`]).
    tags: Vec<u32>,
    /// Residual stream, `tokens x hidden` (checked out of the device
    /// workspace arena each step, restored at the next embed).
    x: Matrix,
    /// Saved FFN inputs per layer (deferred experts read layer k's
    /// input while layer k+1 runs). `Arc` so the submit stage hands
    /// them to CPU tasks without a deep copy; the backing buffer returns
    /// to the device arena once the last holder drops its clone.
    ffn_in: Vec<Option<Arc<Matrix>>>,
    /// Immediate routed-expert outputs per layer (from `ws_imm`).
    imm_out: Vec<Option<Matrix>>,
    /// Deferred routed-expert outputs per layer (from `ws_def`).
    def_out: Vec<Option<Matrix>>,
    /// The batch's KV caches, indexed like `seq_rows`: moved in by
    /// [`HybridEngine::forward_batch`] for one step and handed back
    /// after it.
    caches: Vec<KvCache>,
    /// Final logits of the step, one slot per sequence (`None` for a
    /// sequence that asked for none; arena-backed, callers hand them
    /// back via [`HybridEngine::recycle_logits`]).
    logits: Option<Vec<Option<Matrix>>>,
    /// First error raised by any stage or task (checked after each step).
    error: Option<String>,
}

/// Device-stage step workspace: an arena for engine temporaries
/// (residual stream, normed activations, per-sequence logits) plus a
/// MoE workspace and routing for device-executed expert GEMMs (dense
/// MLP and shared experts).
struct GpuWorkspace {
    arena: ScratchArena,
    moe: MoeWorkspace,
    /// The dense MLP's and the shared experts' routing: every row to
    /// every expert at weight 1. Grow-only (see [`AllExperts`]).
    all: AllExperts,
    /// `ffn_in` Arcs still held by an in-flight deferred task when the
    /// merge tried to reclaim them; drained by the next MoE layer's
    /// merge once that deferred task has finished, and at the next embed
    /// (which catches buffers an errored step left behind).
    pending: Vec<Arc<Matrix>>,
}

impl GpuWorkspace {
    fn new() -> Self {
        GpuWorkspace {
            arena: ScratchArena::new(),
            moe: MoeWorkspace::new(),
            all: AllExperts::default(),
            pending: Vec::new(),
        }
    }

    /// Restores `ffn_in` buffers whose last task-held clone has since
    /// been dropped.
    fn reclaim_pending(&mut self) {
        for arc in std::mem::take(&mut self.pending) {
            self.reclaim(arc);
        }
    }

    /// Returns a saved FFN input to the arena, or parks it while a
    /// deferred task still holds a clone.
    fn reclaim(&mut self, arc: Arc<Matrix>) {
        match Arc::try_unwrap(arc) {
            Ok(m) => self.arena.restore(m),
            Err(arc) => self.pending.push(arc),
        }
    }
}

/// A routing that sends every row to every expert at weight 1, kept
/// across steps: rows past the step's are parked, not freed, and a row
/// is rewritten only when the expert count changes, so a steady step
/// allocates nothing for it.
#[derive(Default)]
struct AllExperts {
    routing: MoeRouting,
    /// Row lists beyond the current row count, for the next larger step.
    parked: Vec<Vec<(usize, f32)>>,
}

impl AllExperts {
    /// The routing for `rows` rows over experts `0..n_experts`.
    fn get(&mut self, rows: usize, n_experts: usize) -> &MoeRouting {
        let a = &mut self.routing.assignments;
        if a.len() > rows {
            self.parked.extend(a.drain(rows..));
        }
        while a.len() < rows {
            a.push(self.parked.pop().unwrap_or_default());
        }
        for row in a.iter_mut().filter(|row| row.len() != n_experts) {
            row.clear();
            row.extend((0..n_experts).map(|e| (e, 1.0)));
        }
        &self.routing
    }
}

/// Everything a stage or a CPU expert task touches: the weights, the
/// step state and its workspaces.
struct EngineShared {
    /// The weights the engine schedules.
    model: MoeModel,
    /// Deferred experts per MoE layer during decode
    /// ([`EngineConfig::n_deferred`]).
    n_deferred: usize,
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
    /// Device-stage workspace (embed/attention/shared/head stages).
    ///
    /// Lock discipline: device stages may take `state` then a workspace
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
}

/// A fault-injection hook: given a module path such as
/// `model.layers.3.mlp.experts`, decides whether to inject a failure.
pub type FaultHook = Arc<dyn Fn(&str) -> bool + Send + Sync>;

/// Every stage and task error is carried as its message.
fn msg(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl EngineShared {
    fn new(model: MoeModel, n_deferred: usize) -> Result<Arc<Self>, EngineError> {
        let cfg = model.config();
        let (n_layers, n_experts) = (cfg.n_layers, cfg.n_routed_experts);
        let counters = || (0..n_layers).map(|_| AtomicUsize::new(0)).collect();
        let state = StepState {
            tokens: Vec::new(),
            seq_rows: Vec::new(),
            decode_row: Vec::new(),
            logit_rows: Vec::new(),
            tags: Vec::new(),
            x: Matrix::zeros(1, cfg.hidden)?,
            ffn_in: vec![None; n_layers],
            imm_out: vec![None; n_layers],
            def_out: vec![None; n_layers],
            caches: Vec::new(),
            logits: None,
            error: None,
        };
        Ok(Arc::new(EngineShared {
            model,
            n_deferred,
            state: Mutex::new(state),
            imm_pending: counters(),
            def_pending: counters(),
            profile: Mutex::new(ExpertProfile::new(n_layers, n_experts)),
            fault: Mutex::new(None),
            ws_gpu: Mutex::new(GpuWorkspace::new()),
            ws_imm: Mutex::new(MoeWorkspace::new()),
            ws_def: Mutex::new(MoeWorkspace::new()),
        }))
    }

    /// MoE layer `li`'s constants. Dense layers lead and every later
    /// layer is MoE (`MoeModel` guarantees it), so a MoE layer's merge
    /// folds in the deferred outputs of the layer just before it, and
    /// the final layer never defers (no later merge would fold them in).
    fn layer_plan(&self, li: usize) -> LayerPlan {
        let cfg = self.model.config();
        let n_def = if li + 1 < cfg.n_layers {
            self.n_deferred.min(cfg.top_k.saturating_sub(1))
        } else {
            0
        };
        LayerPlan {
            n_imm: cfg.top_k - n_def,
            n_def,
            prev_moe: (li > cfg.n_dense_layers).then(|| li - 1),
        }
    }

    /// The one stage runner: opens the stage's span, skips the stage
    /// once the step has failed, and dispatches on its kind with the
    /// state lock held (each stage body releases it as its lock
    /// discipline needs). A stage's error becomes the step error.
    fn run_stage(self: &Arc<Self>, cpu: &CpuBackend, stage: Stage) {
        let li = stage.layer;
        let mut span = stage
            .kind
            .span()
            .map(|k| kt_trace::span_ab(k, li as u32, 0));
        let st = self.state.lock();
        if st.error.is_some() {
            return;
        }
        let result = match stage.kind {
            StageKind::Embed => self.embed(st),
            StageKind::Attention => self.attention(st, li),
            StageKind::Submit => self.submit(st, cpu, li),
            StageKind::SharedExperts => self.shared_experts(st, li),
            StageKind::Merge => self.merge(st, li),
            StageKind::LmHead => self.lm_head(st, span.as_mut()),
        };
        if let Err(e) = result {
            self.state.lock().error.get_or_insert(e);
        }
    }

    /// Embedding lookup. Also the step's workspace turnover point: last
    /// step's residual stream (and any unclaimed logits) go back to the
    /// arena, and `ffn_in` buffers whose deferred task outlived its
    /// merge are reclaimed — every task of the previous step has
    /// drained by now.
    fn embed(&self, mut guard: MutexGuard<'_, StepState>) -> Result<(), String> {
        let st = &mut *guard;
        let mut ws = self.ws_gpu.lock();
        ws.reclaim_pending();
        for m in st.logits.take().into_iter().flatten().flatten() {
            ws.arena.restore(m);
        }
        let x = ws
            .arena
            .checkout(st.tokens.len(), st.x.cols())
            .map_err(msg)?;
        ws.arena.restore(std::mem::replace(&mut st.x, x));
        drop(ws);
        for (i, &t) in st.tokens.iter().enumerate() {
            st.x.row_mut(i)
                .copy_from_slice(self.model.embed().row(t as usize));
        }
        Ok(())
    }

    /// Attention on the device, then the FFN norm: a dense layer runs
    /// its MLP into the residual, a MoE layer parks the normed FFN input
    /// in `ffn_in` for its submit.
    fn attention(&self, mut guard: MutexGuard<'_, StepState>, li: usize) -> Result<(), String> {
        let layer = &self.model.blocks()[li];
        let st = &mut *guard;
        let mut ws = self.ws_gpu.lock();
        let mut normed = ws.arena.checkout(st.x.rows(), st.x.cols()).map_err(msg)?;
        layer.attn_norm.forward_into(&st.x, &mut normed);
        // One call over the whole batch: each sequence's rows attend
        // against its own cache, every projection runs once.
        let caches = st.caches.iter_mut().map(|c| c.layer_mut(li));
        let rope = self.model.rope();
        match layer
            .attn
            .forward_batch(&normed, &st.seq_rows, &st.tags, caches, rope, None)
        {
            Ok(out) => add_assign(st.x.as_mut_slice(), out.as_slice()),
            Err(e) => {
                ws.arena.restore(normed);
                return Err(msg(e));
            }
        }
        // Reuse the normed buffer for the FFN input: the attention
        // residual is already folded into x.
        let mut ffn_in = normed;
        layer.ffn_norm.forward_into(&st.x, &mut ffn_in);
        let Ffn::Dense(mlp) = &layer.ffn else {
            st.ffn_in[li] = Some(Arc::new(ffn_in));
            return Ok(());
        };
        let ws = &mut *ws;
        let r = mlp.forward_accumulate_with(
            &ffn_in,
            ws.all.get(ffn_in.rows(), 1),
            &mut st.x,
            None,
            SchedulePolicy::Dynamic,
            &mut ws.moe,
        );
        ws.arena.restore(ffn_in);
        r.map_err(msg)
    }

    /// Submit — a host callback inside the stream. Routes layer `li`'s
    /// rows, arms its completion counters and queues its CPU expert
    /// tasks: the immediate experts, merged by this layer's merge, and
    /// under Expert Deferral the deferred ones, merged one MoE layer
    /// later.
    fn submit(
        self: &Arc<Self>,
        st: MutexGuard<'_, StepState>,
        cpu: &CpuBackend,
        li: usize,
    ) -> Result<(), String> {
        let Ffn::Moe { router, .. } = &self.model.blocks()[li].ffn else {
            return Ok(());
        };
        // Arc clone: the expert tasks share the saved FFN input, no
        // deep copy.
        let Some(ffn_in) = st.ffn_in[li].clone() else {
            return Ok(());
        };
        let routing = {
            let _span = kt_trace::span_ab(SpanKind::Gating, li as u32, 0);
            router.route(&ffn_in)
        };
        // Expert Deferral gates per ROW: only decode rows defer (§4.1 —
        // decode-only), so a mixed prefill/decode batch keeps every
        // sequence's deferral semantics independent. The split reads
        // the step's decode rows under the state lock, so nothing is
        // copied out of it.
        let plan = self.layer_plan(li);
        let split = (plan.n_def > 0).then(|| routing.split_deferred(plan.n_imm, &st.decode_row));
        drop(st);
        // Fault-injection hook (test harness): a registered injector
        // can fail this layer's expert submission before any task is
        // queued.
        let hook = self.fault.lock().clone();
        if let Some(h) = hook {
            let path = format!("model.layers.{li}.mlp.experts");
            if h(&path) {
                return Err(format!("injected fault at {path}"));
            }
        }
        // Record activation statistics (the per-expert hit counters).
        self.profile.lock().record(li, &routing);
        let (imm, def) = split.unwrap_or_else(|| (routing, MoeRouting::new(Vec::new())));
        let has_def = def.n_activations() > 0;

        // Arm counters BEFORE submitting so the merge kernel can never
        // observe a stale zero.
        self.imm_pending[li].store(1, Ordering::Release);
        if has_def {
            self.def_pending[li].store(1, Ordering::Release);
        }
        let queue = |deferred: bool, ffn_in: Arc<Matrix>, routing: MoeRouting| {
            let shared = Arc::clone(self);
            cpu.submit(Box::new(move || {
                shared.run_experts(deferred, li, ffn_in, routing);
            }));
        };
        queue(false, Arc::clone(&ffn_in), imm);
        if has_def {
            queue(true, ffn_in, def);
        }
        Ok(())
    }

    /// Body of every CPU expert task, immediate or deferred: runs
    /// `routing`'s experts of layer `li` over `ffn_in` under the task's
    /// own workspace lock — dropped before `state` is taken (see the
    /// `ws_gpu` lock discipline) — publishes the output (or the step
    /// error), then clears the layer's pending counter. The counter
    /// clears even if the kernel panics: a poisoned request must fail,
    /// not wedge the merge spin. The task's `ffn_in` clone is dropped
    /// before completion is signalled, so the merge can usually reclaim
    /// the buffer right away.
    fn run_experts(&self, deferred: bool, li: usize, ffn_in: Arc<Matrix>, routing: MoeRouting) {
        let (kind, ws, pending) = if deferred {
            (
                SpanKind::CpuExpertDeferred,
                &self.ws_def,
                &self.def_pending[li],
            )
        } else {
            (
                SpanKind::CpuExpertImmediate,
                &self.ws_imm,
                &self.imm_pending[li],
            )
        };
        let result = {
            let _span = kt_trace::span_ab(kind, li as u32, 0);
            let model = &self.model;
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                routed(model, li)?.forward_with(
                    &ffn_in,
                    &routing,
                    None,
                    SchedulePolicy::Dynamic,
                    &mut ws.lock(),
                )
            }))
        };
        let mut st = self.state.lock();
        match result {
            Ok(Ok(out)) if deferred => st.def_out[li] = Some(out),
            Ok(Ok(out)) => st.imm_out[li] = Some(out),
            Ok(Err(e)) => st.error = Some(e.to_string()),
            Err(_) => st.error = Some("expert task panicked".into()),
        }
        drop(st);
        pending.store(0, Ordering::Release);
    }

    /// Shared experts on the device, overlapping the CPU's routed
    /// experts, accumulated into the residual.
    fn shared_experts(
        &self,
        mut guard: MutexGuard<'_, StepState>,
        li: usize,
    ) -> Result<(), String> {
        let Ffn::Moe {
            shared: Some(sh), ..
        } = &self.model.blocks()[li].ffn
        else {
            return Ok(());
        };
        let st = &mut *guard;
        let Some(ffn_in) = st.ffn_in[li].as_deref() else {
            return Ok(());
        };
        let mut ws = self.ws_gpu.lock();
        let ws = &mut *ws;
        sh.forward_accumulate_with(
            ffn_in,
            ws.all.get(ffn_in.rows(), sh.n_experts()),
            &mut st.x,
            None,
            SchedulePolicy::Dynamic,
            &mut ws.moe,
        )
        .map_err(msg)
    }

    /// Merge — the spinning kernel. Waits for layer `li`'s immediate
    /// experts and the previous MoE layer's deferred experts, then folds
    /// both into the residual stream.
    fn merge(&self, st: MutexGuard<'_, StepState>, li: usize) -> Result<(), String> {
        // Spin WITHOUT holding the state lock (workers need it to
        // publish their results).
        drop(st);
        let prev_moe = self.layer_plan(li).prev_moe;
        {
            let _span = kt_trace::span_ab(SpanKind::MergeSpin, li as u32, 0);
            spin_until_zero(&self.imm_pending[li], "immediate experts");
            if let Some(p) = prev_moe {
                spin_until_zero(&self.def_pending[p], "deferred experts");
                // Layer p's deferred task dropped its `ffn_in` clone
                // before clearing the counter, so the buffer p's merge
                // parked is uniquely owned again.
                self.ws_gpu.lock().reclaim_pending();
            }
        }
        let mut st = self.state.lock();
        let imm = st.imm_out[li].take();
        if let Some(m) = &imm {
            let _span = kt_trace::span_ab(SpanKind::ScatterAdd, li as u32, 0);
            add_assign(st.x.as_mut_slice(), m.as_slice());
        }
        let def = prev_moe.and_then(|p| Some((p, st.def_out[p].take()?)));
        if let Some((p, m)) = &def {
            let _span = kt_trace::span_ab(SpanKind::DeferralFlush, *p as u32, 0);
            add_assign(st.x.as_mut_slice(), m.as_slice());
        }
        let ffn_in = st.ffn_in[li].take();
        // Return scratch buffers OUTSIDE the state lock: a CPU task of
        // the next layer may hold its workspace lock while waiting for
        // `state`.
        drop(st);
        if let Some(m) = imm {
            self.ws_imm.lock().restore(m);
        }
        if let Some((_, m)) = def {
            self.ws_def.lock().restore(m);
        }
        if let Some(arc) = ffn_in {
            // This layer's own deferred task may still hold a clone;
            // the next MoE layer's merge reclaims it then.
            self.ws_gpu.lock().reclaim(arc);
        }
        Ok(())
    }

    /// Final norm + LM head over every row that samples, in batch
    /// order: one norm pass and one `gemm_rowwise` for the whole step,
    /// whose rows are then split into one logits matrix per sequence
    /// ([`LogitRows`] picks each sequence's rows). The kernel is
    /// row-stable at every row count, so a row's logits are a function
    /// of its residual row only: sequential decode, batched decode, any
    /// chunking of a prefill and any choice of rows give the same bits.
    fn lm_head(
        &self,
        mut guard: MutexGuard<'_, StepState>,
        span: Option<&mut SpanGuard>,
    ) -> Result<(), String> {
        let st = &mut *guard;
        let sampled = |s: usize| -> std::ops::Range<usize> {
            let (start, len) = st.seq_rows[s];
            match st.logit_rows[s] {
                LogitRows::None => start..start,
                LogitRows::Last => start + len - 1..start + len,
                LogitRows::All => start..start + len,
            }
        };
        let n_seqs = st.seq_rows.len();
        let rows: usize = (0..n_seqs).map(|s| sampled(s).len()).sum();
        if let Some(span) = span {
            span.set_labels(rows as u32, 0);
        }
        let mut logits = Vec::with_capacity(n_seqs);
        if rows == 0 {
            logits.resize_with(n_seqs, || None);
            st.logits = Some(logits);
            return Ok(());
        }
        let vocab = self.model.config().vocab;
        let mut ws = self.ws_gpu.lock();
        let arena = &mut ws.arena;
        let mut normed = arena.checkout(rows, st.x.cols()).map_err(msg)?;
        let norm = self.model.final_norm();
        for (r, t) in (0..n_seqs).flat_map(sampled).enumerate() {
            norm.forward_row(st.x.row(t), normed.row_mut(r));
        }
        let mut all = arena.checkout(rows, vocab).map_err(msg)?;
        gemm_rowwise(&normed, self.model.lm_head(), &mut all, None).map_err(msg)?;
        arena.restore(normed);
        let mut r = 0;
        for s in 0..n_seqs {
            let n = sampled(s).len();
            let m = if n == 0 {
                None
            } else {
                let mut m = arena.checkout(n, vocab).map_err(msg)?;
                m.as_mut_slice()
                    .copy_from_slice(&all.as_slice()[r * vocab..(r + n) * vocab]);
                r += n;
                Some(m)
            };
            logits.push(m);
        }
        arena.restore(all);
        st.logits = Some(logits);
        Ok(())
    }
}

/// Which of a sequence's new rows get logits in a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogitRows {
    /// No rows: nothing samples mid-prompt, so a non-final prefill
    /// chunk skips the LM head.
    None,
    /// The newest position's row only: all a sampler reads.
    Last,
    /// One row per new token, for callers that read every position
    /// (oracle comparisons, [`HybridEngine::forward`]).
    All,
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
    /// Which rows the step returns logits for. With
    /// [`LogitRows::None`] [`HybridEngine::forward_batch`] returns
    /// `None` in this sequence's slot; otherwise a matrix of one row
    /// ([`LogitRows::Last`]) or one row per new token
    /// ([`LogitRows::All`]).
    pub logits: LogitRows,
    /// Request-scoped trace tag (`kt_trace::TraceCtx::tag()`; 0 =
    /// untagged). When tracing is on, tagged sequences get a
    /// per-sequence `engine.seq_attention` span labeled
    /// `a = tag, b = rows`, correlating engine work back to the
    /// serving request that caused it.
    pub tag: u32,
}

impl BatchSeq {
    fn new(cache: KvCache, tokens: Vec<u32>, prefill: bool, logits: LogitRows) -> Self {
        BatchSeq {
            cache,
            tokens,
            prefill,
            logits,
            tag: 0,
        }
    }

    /// A decode row: one sampled token, deferral-eligible, its logits
    /// row returned.
    pub fn decode(cache: KvCache, token: u32) -> Self {
        Self::new(cache, vec![token], false, LogitRows::Last)
    }

    /// A whole prompt — or the final chunk of one: prefill rows, with
    /// logits returned for every new position.
    pub fn prefill(cache: KvCache, tokens: Vec<u32>) -> Self {
        Self::new(cache, tokens, true, LogitRows::All)
    }

    /// The final chunk of a prompt as a server runs it: prefill rows,
    /// with logits returned for the last position only (the one that
    /// samples the first generated token).
    pub fn prefill_last(cache: KvCache, tokens: Vec<u32>) -> Self {
        Self::new(cache, tokens, true, LogitRows::Last)
    }

    /// A non-final prompt chunk: prefill rows, no logits produced.
    pub fn prefill_chunk(cache: KvCache, tokens: Vec<u32>) -> Self {
        Self::new(cache, tokens, true, LogitRows::None)
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
    /// Serializes whole forwards: the engine processes one step at a
    /// time; concurrent callers queue here instead of corrupting the
    /// shared step state.
    inference_lock: Mutex<()>,
    vgpu: VirtualGpu,
    shared: Arc<EngineShared>,
    /// The step table, each stage with its closure (which holds the
    /// shared state and the CPU backend), built once.
    stages: Vec<(Stage, DeviceFn)>,
    /// The step table captured as one graph, replayed by every
    /// all-decode step (`AsyncGraph` only).
    graph: Option<GraphHandle>,
}

const SPIN_TIMEOUT: Duration = Duration::from_secs(30);

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

impl HybridEngine {
    /// Builds an engine that schedules `model`'s weights. The model is
    /// moved in, never copied; `econfig.backend` replaces the kernel
    /// backend of every expert pool (a runtime setting), and
    /// `econfig.precision` / `econfig.seed` are not consulted — the
    /// weights are already drawn and packed. The step table and its
    /// closures are built here, and under [`SchedMode::AsyncGraph`] the
    /// decode graph is captured here too.
    ///
    /// # Errors
    ///
    /// Propagates worker-pool and workspace construction failures.
    pub fn from_model(mut model: MoeModel, econfig: EngineConfig) -> Result<Self, EngineError> {
        install_trace_hooks();
        model.set_backend(econfig.backend);
        let table = step_table(model.config());
        let shared = EngineShared::new(model, econfig.n_deferred)?;
        let cpu = Arc::new(CpuBackend::new(econfig.n_cpu_workers)?);
        let stages = table
            .into_iter()
            .map(|stage| {
                let (shared, cpu) = (Arc::clone(&shared), Arc::clone(&cpu));
                let f: DeviceFn = Arc::new(move || shared.run_stage(&cpu, stage));
                (stage, f)
            })
            .collect();
        let mut engine = HybridEngine {
            inference_lock: Mutex::new(()),
            vgpu: VirtualGpu::new(econfig.vgpu),
            shared,
            stages,
            graph: None,
            econfig,
        };
        if engine.econfig.mode == SchedMode::AsyncGraph {
            engine.vgpu.begin_capture()?;
            for (stage, f) in &engine.stages {
                engine.launch(*stage, f);
            }
            engine.graph = Some(engine.vgpu.end_capture()?);
        }
        Ok(engine)
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
        &self.shared.model
    }

    /// Model configuration.
    pub fn config(&self) -> &ModelConfig {
        self.shared.model.config()
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
        Ok(self.model().save(w)?)
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
    /// conversation).
    pub fn fresh_cache(&self) -> KvCache {
        self.model().new_cache()
    }

    /// Checks that `cache` matches this engine's layout and holds a
    /// self-consistent sequence: layer count, per-layer row widths and
    /// capacity, and uniform length across layers. The serving layer
    /// calls this after seeding a lease from a prefix snapshot, before
    /// trusting the seeded state in a batch.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Exec`] naming the first violated
    /// invariant.
    pub fn validate_cache(&self, cache: &KvCache) -> Result<(), EngineError> {
        let blocks = self.model().blocks();
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
        }
        Ok(())
    }

    /// Installs a fault injector consulted on the expert-submission
    /// path. The hook receives a module path (e.g.
    /// `model.layers.3.mlp.experts`) once per MoE layer per forward;
    /// returning `true` fails that forward with an injected error
    /// before any expert task is queued. Test harnesses pair this with
    /// `kt-inject` fault patterns to exercise error propagation.
    pub fn set_fault_injector(&self, hook: impl Fn(&str) -> bool + Send + Sync + 'static) {
        *self.shared.fault.lock() = Some(Arc::new(hook));
    }

    /// Removes any installed fault injector.
    pub fn clear_fault_injector(&self) {
        *self.shared.fault.lock() = None;
    }

    /// Snapshot of the recorded expert-activation profile.
    pub fn expert_profile(&self) -> ExpertProfile {
        self.shared.profile.lock().clone()
    }

    /// Stored weight bytes of one routed expert, read from the packed
    /// weights themselves, so quantized experts report their
    /// post-quantization footprint.
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
        self.model().blocks().iter().find_map(|b| b.ffn.routed())
    }

    /// Runs one sequence's forward over `tokens`, appended to `cache`,
    /// and returns logits for every new position: a one-sequence
    /// [`HybridEngine::forward_batch`]. The argument order mirrors
    /// [`MoeModel::forward`], its bitwise oracle.
    ///
    /// A single token on a non-empty cache is a decode row (Expert
    /// Deferral applies, as in the paper); anything else is a prefill —
    /// a forward on an empty cache is the prompt's prefill whatever its
    /// length, exactly as the serving scheduler runs it.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Exec`] on invalid tokens or any failure
    /// raised by a stage; the cache is handed back either way, possibly
    /// partially advanced.
    pub fn forward(&self, tokens: &[u32], cache: &mut KvCache) -> Result<Matrix, EngineError> {
        let decode = tokens.len() == 1 && cache.seq_len() > 0;
        let mut seq = [BatchSeq::new(
            std::mem::take(cache),
            tokens.to_vec(),
            !decode,
            LogitRows::All,
        )];
        let result = self.forward_batch(&mut seq);
        let [seq] = seq;
        *cache = seq.cache;
        result?
            .pop()
            .flatten()
            .ok_or_else(|| EngineError::exec("forward produced no logits"))
    }

    /// Runs one continuously-batched forward: every sequence's new
    /// tokens are appended to its own KV cache and processed in a
    /// single step. Every projection, the expert FFNs and the LM head
    /// run once across the whole batch; only each sequence's RoPE,
    /// cache append and attention core run per sequence. Single-token
    /// non-prefill sequences are decode rows
    /// (Expert Deferral applies per row); prefill sequences append
    /// prompt positions — a whole prompt, or one chunk of it per step
    /// (see [`BatchSeq::prefill_chunk`]). Chunking is invariant: any
    /// split of a prompt into chunks produces bitwise-identical KV
    /// state and logits to a monolithic prefill.
    ///
    /// The returned logits are split per sequence, one slot each, with
    /// the rows its [`BatchSeq::logits`] asked for — `None` for
    /// [`LogitRows::None`] (non-final prefill chunks).
    ///
    /// Caches are moved into the engine for the step and handed back
    /// before returning — including on error, but a failed step may
    /// leave caches partially advanced; callers must reset a cache
    /// ([`KvCache::reset`]) before reusing it after an error.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Exec`] on an empty batch, invalid
    /// tokens, or any failure raised by a stage.
    pub fn forward_batch(&self, seqs: &mut [BatchSeq]) -> Result<Vec<Option<Matrix>>, EngineError> {
        if seqs.is_empty() {
            return Err(EngineError::exec(
                "forward_batch requires at least one sequence",
            ));
        }
        for s in seqs.iter() {
            self.model().validate_tokens(&s.tokens)?;
        }
        let _serialized = self.inference_lock.lock();
        let all_decode = {
            // The step's vectors are cleared and refilled, not rebuilt.
            let mut guard = self.shared.state.lock();
            let st = &mut *guard;
            st.tokens.clear();
            st.seq_rows.clear();
            st.decode_row.clear();
            st.logit_rows.clear();
            st.tags.clear();
            for s in seqs.iter_mut() {
                st.seq_rows.push((st.tokens.len(), s.tokens.len()));
                let is_decode = !s.prefill && s.tokens.len() == 1;
                st.decode_row
                    .extend(std::iter::repeat_n(is_decode, s.tokens.len()));
                st.tokens.extend_from_slice(&s.tokens);
                st.logit_rows.push(s.logits);
                st.tags.push(s.tag);
                st.caches.push(std::mem::take(&mut s.cache));
            }
            st.decode_row.iter().all(|&d| d)
        };
        let result = self.run_step(all_decode);
        // Hand caches back BEFORE propagating any error: a failed step
        // must not eat the batch's caches.
        let mut st = self.shared.state.lock();
        for (slot, cache) in seqs.iter_mut().zip(st.caches.drain(..)) {
            slot.cache = cache;
        }
        result
    }

    /// Launches one stage on the stream: the submit stage as a host
    /// func, every other stage as a kernel.
    fn launch(&self, stage: Stage, f: &DeviceFn) {
        if stage.kind == StageKind::Submit {
            self.vgpu.launch_host_func(Arc::clone(f));
        } else {
            self.vgpu.launch_kernel(Arc::clone(f));
        }
    }

    /// The per-stage lowering of the step table: launches every stage
    /// on its own; under [`SchedMode::Sync`] the stream is synchronized
    /// after each MoE layer's merge.
    fn launch_stages(&self) -> Result<(), EngineError> {
        let sync = self.econfig.mode == SchedMode::Sync;
        for (stage, f) in &self.stages {
            self.launch(*stage, f);
            if sync && stage.kind == StageKind::Merge {
                self.vgpu.synchronize()?;
            }
        }
        self.vgpu.synchronize()
    }

    /// Executes one step over the tokens/spans already staged in the
    /// step state. Callers must hold the inference lock. Returns one
    /// logits slot per sequence (in `seq_rows` order); callers should
    /// hand the matrices back via [`HybridEngine::recycle_logits`] once
    /// sampled so the arena can reuse them.
    fn run_step(&self, all_decode: bool) -> Result<Vec<Option<Matrix>>, EngineError> {
        let mut step_span = kt_trace::span(SpanKind::EngineStep);
        if kt_trace::enabled() {
            let st = self.shared.state.lock();
            step_span.set_labels(st.tokens.len() as u32, st.seq_rows.len() as u32);
        }
        // A stage that panicked comes back as a stream fault: the rest
        // of the stream was skipped, and the step fails below like any
        // stage error — the engine stays usable.
        let device = match &self.graph {
            // Stages read the batch shape from the step state, so the
            // one graph serves any all-decode batch.
            Some(graph) if all_decode => {
                self.vgpu.launch_graph(graph);
                self.vgpu.synchronize()
            }
            _ => self.launch_stages(),
        };
        if let Err(e) = device {
            self.shared.state.lock().error.get_or_insert(e.to_string());
        }

        // Drain: if a stage errored mid-stream, the merge kernels
        // skipped their spin-waits and CPU expert tasks may still be in
        // flight. Their late counter stores must not release the NEXT
        // forward's freshly armed counters, so wait them out here.
        for counter in self
            .shared
            .imm_pending
            .iter()
            .chain(&self.shared.def_pending)
        {
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
            let logits = st.logits.take();
            drop(st);
            {
                let mut ws = self.shared.ws_imm.lock();
                for m in imm {
                    ws.restore(m);
                }
            }
            {
                let mut ws = self.shared.ws_def.lock();
                for m in def {
                    ws.restore(m);
                }
            }
            let mut ws = self.shared.ws_gpu.lock();
            for arc in ffn {
                ws.reclaim(arc);
            }
            for m in logits.into_iter().flatten().flatten() {
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

    /// Prefills a prompt on a fresh cache (a new conversation), then
    /// greedily decodes `n_new` tokens.
    ///
    /// # Errors
    ///
    /// Propagates forward errors.
    pub fn generate_greedy(&self, prompt: &[u32], n_new: usize) -> Result<Vec<u32>, EngineError> {
        let mut rng = StdRng::seed_from_u64(0);
        self.generate(
            prompt,
            n_new,
            kt_model::sampler::Sampler::Greedy,
            &mut rng,
            |_| true,
        )
    }

    /// Prefills a prompt on a fresh cache (a new conversation), then
    /// decodes up to `max_new` tokens with the given sampler, invoking
    /// `on_token` after every generated token (streaming); generation
    /// stops early when `on_token` returns `false` (client disconnect,
    /// stop token, length policy).
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
        // The prompt's prefill computes logits for its last row only:
        // that is all the first sample reads.
        let mut seq = [BatchSeq::prefill_last(self.fresh_cache(), prompt.to_vec())];
        let logits = self.forward_batch(&mut seq)?.pop().flatten();
        let [BatchSeq { mut cache, .. }] = seq;
        let logits = logits.ok_or_else(|| EngineError::exec("prefill produced no logits"))?;
        let mut out = Vec::with_capacity(max_new);
        let mut next = sampler.sample(logits.row(0), rng);
        self.recycle_logits(logits);
        for step in 0..max_new {
            out.push(next);
            if !on_token(next) || step + 1 == max_new {
                break;
            }
            let logits = self.forward(&[next], &mut cache)?;
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
        let mut cache = e.fresh_cache();
        assert!(e.forward(&[], &mut cache).is_err());
        assert!(e.forward(&[70_000], &mut cache).is_err());
    }

    #[test]
    fn validate_cache_checks_layout_and_consistency() {
        let e = engine(SchedMode::Sync, 0, 1);
        let mut ok = e.fresh_cache();
        e.validate_cache(&ok).unwrap();

        // A cache the engine has actually advanced still validates.
        let _ = e.forward(&[1, 2, 3], &mut ok).unwrap();
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
        let logits = e.forward(&[1, 2, 3], &mut e.fresh_cache()).unwrap();
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

    /// Length of the step table: embed, one attention stage per layer,
    /// submit + shared experts + merge per MoE layer, head.
    fn table_len(cfg: &ModelConfig) -> u64 {
        (2 + cfg.n_layers + 3 * (cfg.n_layers - cfg.n_dense_layers)) as u64
    }

    #[test]
    fn graph_mode_replays_a_single_graph() {
        let e = engine(SchedMode::AsyncGraph, 0, 3);
        assert_eq!(step_table(e.config()).len() as u64, table_len(e.config()));
        let _ = e.generate_greedy(&[1, 2], 5).unwrap();
        let stats = e.launch_stats();
        // The 4 decode steps after the prefill each replay the graph
        // captured at construction: the whole table, one launch.
        assert_eq!(stats.graph_replays, 4, "{stats:?}");
        assert_eq!(stats.graph_ops, 4 * table_len(e.config()), "{stats:?}");
    }

    #[test]
    fn sync_mode_launches_every_op() {
        let e = engine(SchedMode::Sync, 0, 3);
        // A prefill and two decode forwards, each launching every stage.
        let _ = e.generate_greedy(&[1, 2], 3).unwrap();
        let stats = e.launch_stats();
        assert_eq!(stats.graph_replays, 0);
        assert_eq!(
            stats.kernel_launches + stats.host_funcs,
            3 * table_len(e.config()),
            "{stats:?}"
        );
    }

    #[test]
    fn deferral_zero_matches_standard() {
        // n_deferred = 0 must be bit-identical to the standard path.
        let a = engine(SchedMode::AsyncGraph, 0, 11);
        let b = engine(SchedMode::Sync, 0, 11);
        let (mut ca, mut cb) = (a.fresh_cache(), b.fresh_cache());
        let la = a.forward(&[3, 4, 5], &mut ca).unwrap();
        let lb = b.forward(&[3, 4, 5], &mut cb).unwrap();
        let da = a.forward(&[7], &mut ca).unwrap();
        let db = b.forward(&[7], &mut cb).unwrap();
        assert_eq!(la.as_slice(), lb.as_slice());
        assert_eq!(da.as_slice(), db.as_slice());
    }

    #[test]
    fn deferral_changes_decode_but_preserves_shape() {
        let std_e = engine(SchedMode::AsyncGraph, 0, 13);
        let def_e = engine(SchedMode::AsyncGraph, 3, 13);
        let (mut c_std, mut c_def) = (std_e.fresh_cache(), def_e.fresh_cache());
        // Same prefill (deferral is decode-only).
        let lp_std = std_e.forward(&[2, 4, 6], &mut c_std).unwrap();
        let lp_def = def_e.forward(&[2, 4, 6], &mut c_def).unwrap();
        assert_eq!(lp_std.as_slice(), lp_def.as_slice(), "prefill unaffected");
        // Decode logits differ (deferred contributions land later) but
        // stay close.
        let d_std = std_e.forward(&[8], &mut c_std).unwrap();
        let d_def = def_e.forward(&[8], &mut c_def).unwrap();
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
        let full = e.forward(&[5, 6, 7, 8], &mut e.fresh_cache()).unwrap();
        let mut cache = e.fresh_cache();
        let _ = e.forward(&[5, 6, 7], &mut cache).unwrap();
        let last = e.forward(&[8], &mut cache).unwrap();
        let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(full.row(3)), bits(last.row(0)));
    }

    #[test]
    fn one_token_prompt_is_a_standard_prefill_then_decode_defers() {
        // A forward on an empty cache is the prompt's prefill whatever
        // its length (as the server runs it); the next 1-token forward
        // is a deferred decode. Both on a GQA and an MLA preset.
        use kt_model::model::ExecMode;
        let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for preset in [ModelPreset::Qwen2Moe, ModelPreset::DeepSeekV3] {
            let e = HybridEngine::random(
                &preset.tiny_config(),
                EngineConfig {
                    n_cpu_workers: 2,
                    n_deferred: 2,
                    seed: 41,
                    ..Default::default()
                },
            )
            .unwrap();
            let model = e.model();
            let (mut ours, mut cache) = (e.fresh_cache(), model.new_cache());
            let deferred = ExecMode::Deferred {
                n_immediate: e.config().top_k - 2,
            };
            for (tok, mode) in [(9u32, ExecMode::Standard), (4, deferred)] {
                let got = e.forward(&[tok], &mut ours).unwrap();
                let want = model.forward(&[tok], &mut cache, mode, None).unwrap();
                assert_eq!(bits(got.row(0)), bits(want.row(0)), "{preset:?} {mode:?}");
            }
        }
    }

    #[test]
    fn reset_clears_cache() {
        let e = engine(SchedMode::Sync, 0, 23);
        let mut cache = e.fresh_cache();
        let a = e.forward(&[1, 2, 3], &mut cache).unwrap();
        assert_eq!(cache.seq_len(), 3);
        cache.reset();
        assert_eq!(cache.seq_len(), 0);
        let b = e.forward(&[1, 2, 3], &mut cache).unwrap();
        assert_eq!(a.as_slice(), b.as_slice(), "reset gives a clean slate");
    }

    #[test]
    fn steady_state_decode_allocates_nothing() {
        // The step workspaces are grow-only: once two decode steps have
        // sized them, every later step is pure reuse. The benchmark
        // deployment's vocab makes the LM head a realistic share of the
        // step. `kt_benchmark` reports the same counter as
        // `tensor.arena_allocs_per_step`.
        let mut cfg = ModelPreset::DeepSeekV3.tiny_config();
        cfg.vocab = 8192;
        let e = HybridEngine::random(
            &cfg,
            EngineConfig {
                n_cpu_workers: 1,
                mode: SchedMode::AsyncGraph,
                n_deferred: 2,
                seed: 17,
                ..Default::default()
            },
        )
        .unwrap();
        let mut cache = e.fresh_cache();
        let mut step = |tokens: &[u32]| {
            let l = e.forward(tokens, &mut cache).unwrap();
            let next = kt_model::model::argmax(l.row(l.rows() - 1));
            e.recycle_logits(l);
            next
        };
        let mut next = step(&[1, 2, 3]);
        for _ in 0..2 {
            next = step(&[next]);
        }
        let warm = e.workspace_stats();
        for i in 0..32 {
            next = step(&[next]);
            let now = e.workspace_stats();
            assert_eq!(
                now.allocations,
                warm.allocations,
                "decode step {i} after warmup allocated {} bytes",
                now.bytes_allocated - warm.bytes_allocated
            );
        }
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
        // Two threads hammering the same engine, each decoding its own
        // conversation, must not corrupt state; the inference lock
        // serializes whole forwards.
        let e = std::sync::Arc::new(engine(SchedMode::AsyncGraph, 2, 91));
        std::thread::scope(|scope| {
            for t in 0..2u32 {
                let e = std::sync::Arc::clone(&e);
                scope.spawn(move || {
                    let mut cache = e.fresh_cache();
                    let _ = e.forward(&[1, 2], &mut cache).unwrap();
                    for i in 0..4u32 {
                        let logits = e.forward(&[(t * 40 + i) % 256], &mut cache).unwrap();
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
        // token 300 pass `validate_tokens` and index out of bounds in a
        // stream op; every mismatch must fail both loaders up front.
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
        // The attention edits each move the expected shape of the MLA
        // projections: n_heads the widened query and the number of
        // per-head up-projections, head_dim the query halves, the
        // RoPE-key projection and every up-projection, the rank the
        // latent side of the up-projections, the kind all of them.
        let edits: [fn(&mut ModelConfig); 11] = [
            |c| c.vocab = 512,
            |c| c.n_heads = 8,
            |c| c.head_dim = 18,
            |c| c.attention = kt_model::AttentionKind::Mla { kv_lora_rank: 3 },
            |c| c.attention = kt_model::AttentionKind::Gqa { kv_heads: 2 },
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
        // A panicking hook runs inside the submit op, which the caller's
        // `synchronize` drains: the step must fail with the panic's
        // message, not wedge the stream, and the engine must serve
        // cleanly afterwards.
        for mode in [SchedMode::Sync, SchedMode::AsyncGraph] {
            let e = engine(mode, 2, 89);
            let want = e.generate_greedy(&[1, 2, 3], 4).unwrap();
            for prompt in [&[1u32, 2][..], &[7][..]] {
                e.set_fault_injector(|_| panic!("hook exploded"));
                let err = e.forward(prompt, &mut e.fresh_cache()).unwrap_err();
                assert!(err.to_string().contains("hook exploded"), "{mode:?}: {err}");
                e.clear_fault_injector();
            }
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
        let reference: Vec<_> = prompts
            .iter()
            .map(|p| e.generate_greedy(p, 6).unwrap())
            .collect();

        // Interleaved: two caller-held caches, alternating every step.
        let mut caches: Vec<_> = (0..2).map(|_| e.fresh_cache()).collect();
        let mut outputs: Vec<Vec<u32>> = vec![Vec::new(); 2];
        let mut next: Vec<u32> = Vec::new();
        for (p, cache) in prompts.iter().zip(&mut caches) {
            let logits = e.forward(p, cache).unwrap();
            next.push(kt_model::model::argmax(logits.row(logits.rows() - 1)));
        }
        for _ in 0..6 {
            for s in 0..2 {
                outputs[s].push(next[s]);
                let logits = e.forward(&[next[s]], &mut caches[s]).unwrap();
                next[s] = kt_model::model::argmax(logits.row(0));
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
        // alone, on the deployed backend.
        let cfg = ModelPreset::DeepSeekV3.tiny_config();
        let e = HybridEngine::random(
            &cfg,
            EngineConfig {
                n_cpu_workers: 2,
                mode: SchedMode::AsyncGraph,
                n_deferred: 2,
                seed: 101,
                ..Default::default()
            },
        )
        .unwrap();
        let prompts: [&[u32]; 3] = [&[1, 2, 3], &[9, 8], &[4, 5, 6, 7]];

        let reference: Vec<_> = prompts
            .iter()
            .map(|p| e.generate_greedy(p, 5).unwrap())
            .collect();

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
        // prefill's.
        let cfg = ModelPreset::DeepSeekV3.tiny_config();
        let e = HybridEngine::random(
            &cfg,
            EngineConfig {
                n_cpu_workers: 2,
                mode: SchedMode::Sync,
                n_deferred: 2,
                seed: 61,
                ..Default::default()
            },
        )
        .unwrap();
        let prompt: Vec<u32> = (0..13).map(|i| (i * 7 + 1) % 250).collect();

        // Monolithic reference: per-position logits plus one greedy
        // decode step.
        let mut cache = e.fresh_cache();
        let mono = e.forward(&prompt, &mut cache).unwrap();
        let next = kt_model::model::argmax(mono.row(mono.rows() - 1));
        let mono_next = {
            let l = e.forward(&[next], &mut cache).unwrap();
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
                    assert_eq!(l.row(r), mono.row(row), "splits {splits:?}, position {row}");
                    row += 1;
                }
            }
            assert_eq!(row, prompt.len());
            // The chunk-built cache decodes exactly like the
            // monolithic one: greedy continuations agree.
            batch[0].tokens = vec![next];
            batch[0].prefill = false;
            let l = e.forward_batch(&mut batch).unwrap();
            let chunk_next = kt_model::model::argmax(l[0].as_ref().unwrap().row(0));
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
        let err = e.forward(&[1, 2], &mut e.fresh_cache()).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        e.clear_fault_injector();
        assert!(
            e.forward(&[1, 2], &mut e.fresh_cache()).is_ok(),
            "engine recovers after fault"
        );
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

    #[test]
    fn profile_records_activations() {
        let e = engine(SchedMode::AsyncGraph, 2, 41);
        let _ = e.forward(&[1, 2, 3, 4], &mut e.fresh_cache()).unwrap();
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

    #[test]
    fn quantized_expert_bytes_and_dtype_come_from_packed_weights() {
        // `expert_weight_bytes` reports *stored* (post-quantization)
        // bytes and `expert_weight_dtype` the packed dtype.
        let f32_bytes = engine(SchedMode::AsyncGraph, 2, 91)
            .expert_weight_bytes()
            .unwrap();
        let q = HybridEngine::random(
            &ModelPreset::DeepSeekV3.tiny_config(),
            EngineConfig {
                precision: PrecisionPolicy::experts(kt_tensor::WeightDtype::Int4 { group: 8 }),
                seed: 91,
                ..Default::default()
            },
        )
        .unwrap();
        let q_bytes = q.expert_weight_bytes().unwrap();
        // Group 8 is the largest group dividing the tiny dims, so the
        // scale overhead is maximal: 4 code bits + 4 scale bits per
        // weight = exactly a quarter of F32's 32.
        assert!(
            q_bytes * 4 <= f32_bytes,
            "int4 expert ({q_bytes} B) must be at most a quarter of F32 ({f32_bytes} B)"
        );
        assert_eq!(q.expert_weight_dtype().unwrap().name(), "int4");
    }
}
