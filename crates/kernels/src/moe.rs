//! The fused MoE operator (§3.2, "Fused MoE Operator").
//!
//! A MoE layer evaluates, for every routed token, a SwiGLU expert MLP:
//! `down( silu(gate(x)) * up(x) )`, then scatter-adds the result back to
//! the token weighted by its routing score.
//!
//! Naively this is `3 * activated_experts` small GEMMs with a thread
//! barrier after each. The paper fuses them into exactly **two task
//! batches** with one barrier between:
//!
//! * **Batch 1** — Gate and Up projections of *all* activated experts,
//!   merged into one task list (they share inputs and have no mutual
//!   dependency).
//! * **Batch 2** — Down projections of all experts.
//!
//! Task granularity is one (expert matrix, output panel) pair for the
//! tiled kernel class and one (expert matrix, row block, panel group)
//! block for the vector class (see [`crate::gemm`]), matching Figure 6
//! step ① ("expert weight matrices are vertically partitioned into
//! tasks dynamically scheduled across threads"). Tasks of the same
//! expert are adjacent in the queue, so dynamic scheduling naturally
//! co-schedules them — the paper's cache-reuse heuristic.

use kt_tensor::{ArenaStats, Matrix, PackedWeights, ScratchArena, WeightDtype};
use rand::rngs::StdRng;

use crate::act::swiglu_combine;
use crate::dispatch::Backend;
use crate::error::KernelError;
use crate::gemm::{n_tasks, run_task, OutPtr};
use crate::schedule::{SchedulePolicy, ThreadPool};

/// The three projection matrices of one expert, packed for the hybrid
/// kernels at load time.
#[derive(Debug, Clone)]
pub struct ExpertWeights {
    /// Gate projection, `inter x hidden`.
    pub gate: PackedWeights,
    /// Up projection, `inter x hidden`.
    pub up: PackedWeights,
    /// Down projection, `hidden x inter`.
    pub down: PackedWeights,
}

impl ExpertWeights {
    /// Packs dense gate/up/down matrices into expert weights.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shape`] on inconsistent dimensions and
    /// propagates packing errors.
    pub fn from_matrices(
        gate: &Matrix,
        up: &Matrix,
        down: &Matrix,
        dtype: WeightDtype,
    ) -> Result<Self, KernelError> {
        let hidden = gate.cols();
        let inter = gate.rows();
        if up.rows() != inter || up.cols() != hidden {
            return Err(KernelError::shape(format!(
                "up is {}x{}, expected {inter}x{hidden}",
                up.rows(),
                up.cols()
            )));
        }
        if down.rows() != hidden || down.cols() != inter {
            return Err(KernelError::shape(format!(
                "down is {}x{}, expected {hidden}x{inter}",
                down.rows(),
                down.cols()
            )));
        }
        let pack = |m: &Matrix| {
            PackedWeights::pack(m, dtype).map_err(|e| KernelError::config(e.to_string()))
        };
        Ok(ExpertWeights {
            gate: pack(gate)?,
            up: pack(up)?,
            down: pack(down)?,
        })
    }

    /// Generates a random expert with Kaiming-scaled weights.
    ///
    /// # Errors
    ///
    /// Propagates packing errors (e.g. invalid quantization groups).
    pub fn random(
        hidden: usize,
        inter: usize,
        dtype: WeightDtype,
        rng: &mut StdRng,
    ) -> Result<Self, KernelError> {
        let mk = |r: usize, c: usize, rng: &mut StdRng| {
            Matrix::random_kaiming(r, c, rng).map_err(|e| KernelError::shape(e.to_string()))
        };
        let gate = mk(inter, hidden, rng)?;
        let up = mk(inter, hidden, rng)?;
        let down = mk(hidden, inter, rng)?;
        Self::from_matrices(&gate, &up, &down, dtype)
    }

    /// Hidden (model) dimension.
    pub fn hidden(&self) -> usize {
        self.gate.k()
    }

    /// Intermediate (expert MLP) dimension.
    pub fn inter(&self) -> usize {
        self.gate.n()
    }

    /// Total stored bytes of all three projections.
    pub fn stored_bytes(&self) -> usize {
        self.gate.stored_bytes() + self.up.stored_bytes() + self.down.stored_bytes()
    }

    /// Serializes the expert (three packed projections).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_to(&self, w: &mut impl std::io::Write) -> Result<(), KernelError> {
        for m in [&self.gate, &self.up, &self.down] {
            m.write_to(w).map_err(|e| KernelError::config(e.to_string()))?;
        }
        Ok(())
    }

    /// Deserializes an expert written by [`ExpertWeights::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Config`] on corrupt input or inconsistent
    /// projection shapes.
    pub fn read_from(r: &mut impl std::io::Read) -> Result<Self, KernelError> {
        fn read(r: &mut impl std::io::Read) -> Result<PackedWeights, KernelError> {
            PackedWeights::read_from(r).map_err(|e| KernelError::config(e.to_string()))
        }
        let gate = read(r)?;
        let up = read(r)?;
        let down = read(r)?;
        let (inter, hidden) = (gate.n(), gate.k());
        if up.n() != inter || up.k() != hidden || down.n() != hidden || down.k() != inter {
            return Err(KernelError::shape(
                "expert projections have inconsistent shapes",
            ));
        }
        Ok(ExpertWeights { gate, up, down })
    }
}

/// Routing decisions for a batch of tokens: `assignments[t]` lists the
/// `(expert_index, routing_weight)` pairs of token `t`.
#[derive(Debug, Clone, Default)]
pub struct MoeRouting {
    /// Per-token `(expert, weight)` activations.
    pub assignments: Vec<Vec<(usize, f32)>>,
}

impl MoeRouting {
    /// Builds a routing table; `assignments[t]` may have any length
    /// (top-k, deferred subsets, empty).
    pub fn new(assignments: Vec<Vec<(usize, f32)>>) -> Self {
        MoeRouting { assignments }
    }

    /// Number of tokens routed.
    pub fn n_tokens(&self) -> usize {
        self.assignments.len()
    }

    /// Total `(token, expert)` activation pairs.
    pub fn n_activations(&self) -> usize {
        self.assignments.iter().map(Vec::len).sum()
    }

    /// Splits into (immediate, deferred) routings by per-token score
    /// rank: the `n_immediate` highest-weight experts of each token stay
    /// immediate, the rest are deferred (§4.1: "only the top-2 experts
    /// with the highest routing score ... are immediate experts").
    ///
    /// Only tokens whose `may_defer` entry is true split (the engine
    /// defers decode rows only); their immediate experts come back
    /// sorted by weight, ties in routing order. Every other token,
    /// including any past the end of the mask, stays immediate in
    /// routing order with nothing deferred.
    pub fn split_deferred(
        &self,
        n_immediate: usize,
        may_defer: &[bool],
    ) -> (MoeRouting, MoeRouting) {
        let mut imm = Vec::with_capacity(self.assignments.len());
        let mut def = Vec::with_capacity(self.assignments.len());
        for (t, a) in self.assignments.iter().enumerate() {
            if !may_defer.get(t).copied().unwrap_or(false) {
                imm.push(a.clone());
                def.push(Vec::new());
                continue;
            }
            let mut sorted: Vec<(usize, f32)> = a.clone();
            sorted.sort_by(|x, y| y.1.total_cmp(&x.1));
            def.push(sorted.split_off(n_immediate.min(sorted.len())));
            imm.push(sorted);
        }
        (MoeRouting::new(imm), MoeRouting::new(def))
    }
}

/// Per-expert gathered workspace used inside one forward call.
struct Bucket {
    expert: usize,
    /// Routed token ids, ascending (built in token order) — the parallel
    /// scatter-add relies on this to binary-search its row range.
    token_ids: Vec<usize>,
    weights: Vec<f32>,
    /// Gathered inputs, `t_e x hidden`.
    x: Matrix,
    /// Fused gate|up outputs, `t_e x (2 * inter)`: columns `0..inter`
    /// are Gate, `inter..2*inter` are Up — one output buffer so the two
    /// projections form a single task batch.
    gu: Matrix,
    /// SwiGLU-combined activations, `t_e x inter`.
    h: Matrix,
    /// Down-projected outputs, `t_e x hidden`.
    d: Matrix,
}

/// Reusable scratch state for [`FusedMoE`] forwards.
///
/// Every scratch object a forward call needs — per-expert gather tables,
/// bucket matrices (`x`/`gu`/`h`/`d`), and the phase task descriptors —
/// is checked out of this workspace and returned at the end of the call,
/// so consecutive layers and steps that route similar token counts
/// perform **zero heap allocations** once the working set has warmed up.
/// A workspace may be shared across different `FusedMoE` instances
/// (e.g. routed + shared expert pools of all layers).
///
/// Reset-on-error: checked-out buffers are always zeroed on checkout and
/// bucket state is retired (or self-healed at the next call) even when a
/// forward fails partway, so no stale or poisoned data can leak into a
/// later step — see the equivalence proptests.
#[derive(Default)]
pub struct MoeWorkspace {
    arena: ScratchArena,
    /// Per-expert `(token_ids, weights)` gather table; grows to the
    /// largest expert pool seen, entries keep their capacity.
    gather: Vec<(Vec<usize>, Vec<f32>)>,
    /// Buckets of the in-flight forward (empty between calls).
    buckets: Vec<Bucket>,
    /// Reused phase task descriptors (cleared between phases).
    descs: Vec<PanelDesc>,
}

impl std::fmt::Debug for MoeWorkspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MoeWorkspace")
            .field("arena", &self.arena.stats())
            .finish_non_exhaustive()
    }
}

impl MoeWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out a zeroed matrix from the workspace arena (for callers
    /// that manage output buffers alongside the MoE scratch state).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shape`] for zero dimensions.
    pub fn checkout(&mut self, rows: usize, cols: usize) -> Result<Matrix, KernelError> {
        self.arena
            .checkout(rows, cols)
            .map_err(|e| KernelError::shape(e.to_string()))
    }

    /// Returns a matrix to the workspace arena for reuse.
    pub fn restore(&mut self, m: Matrix) {
        self.arena.restore(m);
    }

    /// Allocation/reuse counters of the backing arena.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Fills all pooled buffers with NaN (test hook; see
    /// [`ScratchArena::poison_for_test`]).
    pub fn poison_for_test(&mut self) {
        self.arena.poison_for_test();
    }
}

/// The fused MoE operator over a pool of experts.
#[derive(Debug)]
pub struct FusedMoE {
    experts: Vec<ExpertWeights>,
    hidden: usize,
    inter: usize,
    backend: Backend,
}

impl FusedMoE {
    /// Wraps a set of experts (all with identical shapes).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Config`] when `experts` is empty or shapes
    /// disagree.
    pub fn new(experts: Vec<ExpertWeights>, backend: Backend) -> Result<Self, KernelError> {
        let Some(first) = experts.first() else {
            return Err(KernelError::config("FusedMoE requires at least one expert"));
        };
        let hidden = first.hidden();
        let inter = first.inter();
        for (i, e) in experts.iter().enumerate() {
            if e.hidden() != hidden || e.inter() != inter {
                return Err(KernelError::config(format!(
                    "expert {i} has shape {}x{}, expected {hidden}x{inter}",
                    e.hidden(),
                    e.inter()
                )));
            }
        }
        Ok(FusedMoE {
            experts,
            hidden,
            inter,
            backend,
        })
    }

    /// Builds a random MoE pool.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn random(
        n_experts: usize,
        hidden: usize,
        inter: usize,
        dtype: WeightDtype,
        backend: Backend,
        rng: &mut StdRng,
    ) -> Result<Self, KernelError> {
        let experts = (0..n_experts)
            .map(|_| ExpertWeights::random(hidden, inter, dtype, rng))
            .collect::<Result<Vec<_>, _>>()?;
        Self::new(experts, backend)
    }

    /// Number of experts in the pool.
    pub fn n_experts(&self) -> usize {
        self.experts.len()
    }

    /// Hidden dimension.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Intermediate dimension.
    pub fn inter(&self) -> usize {
        self.inter
    }

    /// Direct access to an expert's packed weights.
    pub fn expert(&self, i: usize) -> &ExpertWeights {
        &self.experts[i]
    }

    /// Kernel backend the expert GEMMs dispatch through.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Replaces the kernel backend (a runtime setting: the weights are
    /// untouched, only the kernel class each bucket runs on changes).
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
    }

    /// Computes the MoE output for `x` (`tokens x hidden`) under
    /// `routing` and returns it as a fresh matrix (no residual).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shape`] on dimension or routing-index
    /// mismatches.
    pub fn forward(
        &self,
        x: &Matrix,
        routing: &MoeRouting,
        pool: Option<&ThreadPool>,
        policy: SchedulePolicy,
    ) -> Result<Matrix, KernelError> {
        let mut ws = MoeWorkspace::new();
        self.forward_with(x, routing, pool, policy, &mut ws)
    }

    /// [`FusedMoE::forward`] with a caller-owned workspace: the output
    /// matrix and all scratch buffers come from `ws`, so repeated calls
    /// allocate nothing once warmed up. Restore the returned matrix via
    /// [`MoeWorkspace::restore`] when done with it.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shape`] on dimension or routing-index
    /// mismatches.
    pub fn forward_with(
        &self,
        x: &Matrix,
        routing: &MoeRouting,
        pool: Option<&ThreadPool>,
        policy: SchedulePolicy,
        ws: &mut MoeWorkspace,
    ) -> Result<Matrix, KernelError> {
        let mut out = ws.checkout(x.rows(), self.hidden)?;
        self.forward_accumulate_with(x, routing, &mut out, pool, policy, ws)?;
        Ok(out)
    }

    /// Computes the MoE output and **adds** it into `out` (residual-style
    /// accumulation; used directly by Expert Deferral, which adds
    /// deferred contributions into a later layer's stream).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shape`] on dimension or routing-index
    /// mismatches.
    pub fn forward_accumulate(
        &self,
        x: &Matrix,
        routing: &MoeRouting,
        out: &mut Matrix,
        pool: Option<&ThreadPool>,
        policy: SchedulePolicy,
    ) -> Result<(), KernelError> {
        let mut ws = MoeWorkspace::new();
        self.forward_accumulate_with(x, routing, out, pool, policy, &mut ws)
    }

    /// [`FusedMoE::forward_accumulate`] with a caller-owned workspace.
    /// Results are bit-identical to the fresh-allocation path: checkouts
    /// are zeroed exactly like `Matrix::zeros`, and the execution order
    /// of every floating-point accumulation is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shape`] on dimension or routing-index
    /// mismatches.
    pub fn forward_accumulate_with(
        &self,
        x: &Matrix,
        routing: &MoeRouting,
        out: &mut Matrix,
        pool: Option<&ThreadPool>,
        policy: SchedulePolicy,
        ws: &mut MoeWorkspace,
    ) -> Result<(), KernelError> {
        self.validate_forward(x, routing)?;
        if out.rows() != x.rows() || out.cols() != self.hidden {
            return Err(KernelError::shape(format!(
                "out is {}x{}, expected {}x{}",
                out.rows(),
                out.cols(),
                x.rows(),
                self.hidden
            )));
        }

        // Self-heal: if a previous forward panicked mid-flight (e.g. a
        // fault-injected kernel), its buckets are still parked in the
        // workspace. Retire them back to the arena before reusing it.
        Self::retire_buckets(&mut ws.gather, &mut ws.buckets, &mut ws.arena);

        // Gather tokens per expert into workspace-owned buckets.
        if let Err(e) = self.build_buckets(x, routing, ws) {
            Self::retire_buckets(&mut ws.gather, &mut ws.buckets, &mut ws.arena);
            return Err(e);
        }
        let MoeWorkspace {
            arena,
            gather,
            buckets,
            descs,
        } = ws;
        if buckets.is_empty() {
            return Ok(());
        }

        self.run_phases(pool, policy, buckets, descs);

        // Weighted scatter-add back to token order. With a pool, tasks
        // own disjoint ranges of output token rows; within each range
        // buckets are visited in the same order as the serial loop, so
        // every token's floating-point accumulation order — and thus the
        // result — is bit-identical to serial execution.
        match pool {
            Some(p) => {
                let n_rows = out.rows();
                let out_cols = out.cols();
                // ~8 token rows per task: enough work per task at real
                // hidden sizes, and decode batches (a handful of rows)
                // degenerate gracefully to one task.
                let n_tasks = n_rows.div_ceil(SCATTER_ROWS_PER_TASK);
                let out_ptr = ScatterPtr(out.as_mut_slice().as_mut_ptr());
                // Capture the Sync wrapper by reference, not its raw
                // field (2021 disjoint capture would grab the bare ptr).
                let out_ptr = &out_ptr;
                let buckets = &*buckets;
                let scatter = |task: usize| {
                    let lo = task * SCATTER_ROWS_PER_TASK;
                    let hi = (lo + SCATTER_ROWS_PER_TASK).min(n_rows);
                    for b in buckets {
                        let s = b.token_ids.partition_point(|&t| t < lo);
                        let e = b.token_ids.partition_point(|&t| t < hi);
                        for i in s..e {
                            let t = b.token_ids[i];
                            let wgt = b.weights[i];
                            let src = b.d.row(i);
                            // SAFETY: rows `lo..hi` are owned exclusively
                            // by this task; `t` lies in `[lo, hi)`.
                            let dst = unsafe {
                                std::slice::from_raw_parts_mut(
                                    out_ptr.0.add(t * out_cols),
                                    out_cols,
                                )
                            };
                            for (o, s) in dst.iter_mut().zip(src) {
                                *o += wgt * s;
                            }
                        }
                    }
                };
                p.run(n_tasks, policy, scatter);
            }
            None => {
                for b in buckets.iter() {
                    for (row, (&t, &wgt)) in b.token_ids.iter().zip(&b.weights).enumerate() {
                        let src = b.d.row(row);
                        let dst = out.row_mut(t);
                        for (o, s) in dst.iter_mut().zip(src) {
                            *o += wgt * s;
                        }
                    }
                }
            }
        }

        // Return every scratch buffer to the workspace for the next call.
        Self::retire_buckets(gather, buckets, arena);
        Ok(())
    }

    /// Shape/range checks of every forward (they all reach
    /// [`FusedMoE::forward_accumulate_with`]).
    fn validate_forward(&self, x: &Matrix, routing: &MoeRouting) -> Result<(), KernelError> {
        if x.cols() != self.hidden {
            return Err(KernelError::shape(format!(
                "x has {} cols, expected hidden={}",
                x.cols(),
                self.hidden
            )));
        }
        if routing.n_tokens() != x.rows() {
            return Err(KernelError::shape(format!(
                "routing covers {} tokens but x has {}",
                routing.n_tokens(),
                x.rows()
            )));
        }
        for (t, a) in routing.assignments.iter().enumerate() {
            for &(e, _) in a {
                if e >= self.experts.len() {
                    return Err(KernelError::shape(format!(
                        "token {t} routed to expert {e}, pool has {}",
                        self.experts.len()
                    )));
                }
            }
        }
        Ok(())
    }

    /// The two fused task batches (Gate+Up, SwiGLU combine, Down) over
    /// built buckets — everything between gathering and scattering.
    fn run_phases(
        &self,
        pool: Option<&ThreadPool>,
        policy: SchedulePolicy,
        buckets: &mut [Bucket],
        descs: &mut Vec<PanelDesc>,
    ) {
        // Task batch 1: fused Gate+Up for all experts. A bucket's tasks
        // are its gate tasks, then its up tasks, keeping same-expert
        // tasks adjacent in the queue; how many that is depends on the
        // bucket's kernel class, so descriptors carry their first id.
        {
            descs.clear();
            let mut n_tasks1 = 0;
            for b in buckets.iter_mut() {
                let t_e = b.token_ids.len();
                descs.push(PanelDesc {
                    expert: b.expert,
                    input: &b.x,
                    out: OutPtr(b.gu.as_mut_slice().as_mut_ptr()),
                    t_e,
                    first_task: n_tasks1,
                });
                let gate = &self.experts[b.expert].gate;
                n_tasks1 += 2 * n_tasks(self.backend.kernel_for(t_e), t_e, gate);
            }
            let descs = &*descs;
            let run = |task: usize| {
                let b = PanelDesc::owning(descs, task);
                // SAFETY: descriptors are filled immediately above from
                // live buckets and consumed before the buckets move.
                let input = unsafe { &*b.input };
                let class = self.backend.kernel_for(b.t_e);
                let expert = &self.experts[b.expert];
                let per_proj = n_tasks(class, b.t_e, &expert.gate);
                let slot = task - b.first_task;
                // Gate writes columns [0 ..], Up writes columns
                // [inter ..] of the fused `gu` buffer.
                let (proj, col_off) = if slot < per_proj {
                    (&expert.gate, 0)
                } else {
                    (&expert.up, self.inter)
                };
                let shifted = OutPtr(
                    // SAFETY: `gu` is `t_e x 2*inter`; offsetting by
                    // `col_off <= inter` keeps all of a projection's
                    // writes (`col_off + n <= 2*inter`) in bounds.
                    unsafe { b.out.0.add(col_off) },
                );
                run_task(input, proj, shifted, 2 * self.inter, slot % per_proj, class);
            };
            match pool {
                Some(p) => p.run(n_tasks1, policy, run),
                None => (0..n_tasks1).for_each(run),
            }
        }

        // Barrier: combine SwiGLU elementwise per bucket.
        {
            let combine = |bi: usize| {
                // SAFETY note: serial/parallel over buckets; each task
                // touches only its own bucket via raw splitting below.
                let b_ptr = SyncBucketPtr(buckets.as_ptr() as *mut Bucket);
                // SAFETY: Each task index `bi` touches a distinct bucket.
                let b = unsafe { &mut *b_ptr.0.add(bi) };
                let inter = self.inter;
                for t in 0..b.token_ids.len() {
                    let gu = b.gu.row(t);
                    let (g, u) = gu.split_at(inter);
                    // Work around aliasing: copy combine into h.
                    let h = b.h.row_mut(t);
                    swiglu_combine(g, u, h);
                }
            };
            match pool {
                Some(p) => p.run(buckets.len(), policy, combine),
                None => (0..buckets.len()).for_each(combine),
            }
        }

        // Task batch 2: Down projections of all experts.
        {
            descs.clear();
            let mut n_tasks2 = 0;
            for b in buckets.iter_mut() {
                let t_e = b.token_ids.len();
                descs.push(PanelDesc {
                    expert: b.expert,
                    input: &b.h,
                    out: OutPtr(b.d.as_mut_slice().as_mut_ptr()),
                    t_e,
                    first_task: n_tasks2,
                });
                let down = &self.experts[b.expert].down;
                n_tasks2 += n_tasks(self.backend.kernel_for(t_e), t_e, down);
            }
            let descs = &*descs;
            let run = |task: usize| {
                let b = PanelDesc::owning(descs, task);
                // SAFETY: as for phase 1.
                let input = unsafe { &*b.input };
                let class = self.backend.kernel_for(b.t_e);
                let down = &self.experts[b.expert].down;
                run_task(input, down, b.out, self.hidden, task - b.first_task, class);
            };
            match pool {
                Some(p) => p.run(n_tasks2, policy, run),
                None => (0..n_tasks2).for_each(run),
            }
        }
        descs.clear();
    }

    /// Gathers tokens per expert into `ws.buckets`, drawing all scratch
    /// matrices from the workspace arena and reusing the gather tables'
    /// capacity.
    fn build_buckets(
        &self,
        x: &Matrix,
        routing: &MoeRouting,
        ws: &mut MoeWorkspace,
    ) -> Result<(), KernelError> {
        if ws.gather.len() < self.experts.len() {
            ws.gather.resize_with(self.experts.len(), Default::default);
        }
        for (ids, wgts) in ws.gather.iter_mut() {
            ids.clear();
            wgts.clear();
        }
        for (t, a) in routing.assignments.iter().enumerate() {
            for &(e, w) in a {
                ws.gather[e].0.push(t);
                ws.gather[e].1.push(w);
            }
        }
        let shape = |err: kt_tensor::TensorError| KernelError::shape(err.to_string());
        for e in 0..self.experts.len() {
            if ws.gather[e].0.is_empty() {
                continue;
            }
            let te = ws.gather[e].0.len();
            let mut xe = ws.arena.checkout(te, self.hidden).map_err(shape)?;
            for (row, &t) in ws.gather[e].0.iter().enumerate() {
                xe.row_mut(row).copy_from_slice(x.row(t));
            }
            let gu = ws.arena.checkout(te, 2 * self.inter).map_err(shape)?;
            let h = ws.arena.checkout(te, self.inter).map_err(shape)?;
            let d = ws.arena.checkout(te, self.hidden).map_err(shape)?;
            ws.buckets.push(Bucket {
                expert: e,
                token_ids: std::mem::take(&mut ws.gather[e].0),
                weights: std::mem::take(&mut ws.gather[e].1),
                x: xe,
                gu,
                h,
                d,
            });
        }
        Ok(())
    }

    /// Returns all bucket scratch back to the workspace: matrices to the
    /// arena, id/weight vectors (capacity intact) to the gather table.
    fn retire_buckets(
        gather: &mut [(Vec<usize>, Vec<f32>)],
        buckets: &mut Vec<Bucket>,
        arena: &mut ScratchArena,
    ) {
        for b in buckets.drain(..) {
            let Bucket {
                expert,
                mut token_ids,
                mut weights,
                x,
                gu,
                h,
                d,
            } = b;
            token_ids.clear();
            weights.clear();
            // A stale bucket from a larger pool than the current gather
            // table simply drops its vectors.
            if let Some(slot) = gather.get_mut(expert) {
                slot.0 = token_ids;
                slot.1 = weights;
            }
            arena.restore(x);
            arena.restore(gu);
            arena.restore(h);
            arena.restore(d);
        }
    }

    /// Serializes the pool (backend tag + every expert).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_to(&self, w: &mut impl std::io::Write) -> Result<(), KernelError> {
        let io = |e: kt_tensor::TensorError| KernelError::config(e.to_string());
        let tag = match self.backend {
            Backend::HybridAmxAvx512 => 0u64,
            Backend::TiledOnly => 1,
            Backend::VectorOnly => 2,
        };
        kt_tensor::serial::write_u64(w, tag).map_err(io)?;
        kt_tensor::serial::write_u64(w, self.experts.len() as u64).map_err(io)?;
        for e in &self.experts {
            e.write_to(w)?;
        }
        Ok(())
    }

    /// Deserializes a pool written by [`FusedMoE::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Config`] on corrupt input.
    pub fn read_from(r: &mut impl std::io::Read) -> Result<Self, KernelError> {
        let io = |e: kt_tensor::TensorError| KernelError::config(e.to_string());
        let backend = match kt_tensor::serial::read_u64(r).map_err(io)? {
            0 => Backend::HybridAmxAvx512,
            1 => Backend::TiledOnly,
            2 => Backend::VectorOnly,
            other => {
                return Err(KernelError::config(format!("unknown backend tag {other}")))
            }
        };
        let n = kt_tensor::serial::read_len(r, 1 << 20).map_err(io)?;
        let experts = (0..n)
            .map(|_| ExpertWeights::read_from(r))
            .collect::<Result<Vec<_>, _>>()?;
        FusedMoE::new(experts, backend)
    }

    /// FLOPs required to execute `routing` (2 ops per multiply-add,
    /// three projections per activation) — used by throughput reports.
    pub fn flops(&self, routing: &MoeRouting) -> u64 {
        let per_activation = 2u64 * 3 * self.hidden as u64 * self.inter as u64;
        per_activation * routing.n_activations() as u64
    }

    /// Weight bytes that must be streamed from memory for `routing`,
    /// counting each activated expert once (decode-phase bandwidth
    /// accounting).
    pub fn weight_bytes(&self, routing: &MoeRouting) -> u64 {
        let mut active = vec![false; self.experts.len()];
        for a in &routing.assignments {
            for &(e, _) in a {
                active[e] = true;
            }
        }
        active
            .iter()
            .zip(&self.experts)
            .filter(|(on, _)| **on)
            .map(|(_, e)| e.stored_bytes() as u64)
            .sum()
    }
}

/// Output token rows owned by one parallel scatter-add task.
const SCATTER_ROWS_PER_TASK: usize = 8;

/// Per-bucket task descriptor for the two GEMM phases. Stored in the
/// workspace (lifetime-free raw pointers) so the descriptor list is
/// reused across calls without allocating.
struct PanelDesc {
    expert: usize,
    /// Phase input (`x` for Gate+Up, `h` for Down).
    input: *const Matrix,
    /// Phase output base pointer (`gu` or `d`).
    out: OutPtr,
    t_e: usize,
    /// Id of this bucket's first task within the phase.
    first_task: usize,
}

impl PanelDesc {
    /// The descriptor whose task range contains `task` (`descs` is in
    /// ascending `first_task` order and starts at 0).
    fn owning(descs: &[PanelDesc], task: usize) -> &PanelDesc {
        &descs[descs.partition_point(|d| d.first_task <= task) - 1]
    }
}
// SAFETY: descriptors are filled from live buckets at the start of each
// phase and consumed within it; `OutPtr` targets are written at disjoint
// rectangles per task (see `run_task`), shared reads of `input` are safe.
unsafe impl Send for PanelDesc {}
unsafe impl Sync for PanelDesc {}

/// Raw output pointer for the parallel scatter-add tasks.
struct ScatterPtr(*mut f32);
// SAFETY: Each scatter task writes a disjoint range of output token
// rows (chunked by `SCATTER_ROWS_PER_TASK`).
unsafe impl Send for ScatterPtr {}
unsafe impl Sync for ScatterPtr {}

/// Raw bucket pointer for the per-bucket SwiGLU combine tasks.
struct SyncBucketPtr(*mut Bucket);
// SAFETY: Each combine task dereferences a distinct bucket index.
unsafe impl Send for SyncBucketPtr {}
unsafe impl Sync for SyncBucketPtr {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::act::silu;
    use kt_tensor::rng::seeded;

    /// Dense reference MoE: no fusion, no bucketing, no packing tricks.
    fn reference_moe(
        x: &Matrix,
        experts: &[(Matrix, Matrix, Matrix)],
        routing: &MoeRouting,
    ) -> Matrix {
        let hidden = x.cols();
        let mut out = Matrix::zeros(x.rows(), hidden).unwrap();
        for (t, a) in routing.assignments.iter().enumerate() {
            for &(e, wgt) in a {
                let (gate, up, down) = &experts[e];
                let xt = Matrix::from_rows(1, hidden, x.row(t)).unwrap();
                let g = xt.matmul_wt(gate).unwrap();
                let u = xt.matmul_wt(up).unwrap();
                let mut h = Matrix::zeros(1, gate.rows()).unwrap();
                for j in 0..gate.rows() {
                    h.set(0, j, silu(g.get(0, j)) * u.get(0, j));
                }
                let d = h.matmul_wt(down).unwrap();
                for j in 0..hidden {
                    let v = out.get(t, j);
                    out.set(t, j, v + wgt * d.get(0, j));
                }
            }
        }
        out
    }

    fn setup(
        n_experts: usize,
        hidden: usize,
        inter: usize,
        seed: u64,
    ) -> (Vec<(Matrix, Matrix, Matrix)>, FusedMoE) {
        let mut rng = seeded(seed);
        let mut dense = Vec::new();
        let mut packed = Vec::new();
        for _ in 0..n_experts {
            let gate = Matrix::random_kaiming(inter, hidden, &mut rng).unwrap();
            let up = Matrix::random_kaiming(inter, hidden, &mut rng).unwrap();
            let down = Matrix::random_kaiming(hidden, inter, &mut rng).unwrap();
            packed.push(
                ExpertWeights::from_matrices(&gate, &up, &down, WeightDtype::F32).unwrap(),
            );
            dense.push((gate, up, down));
        }
        let moe = FusedMoE::new(packed, Backend::HybridAmxAvx512).unwrap();
        (dense, moe)
    }

    fn topk_routing(n_tokens: usize, n_experts: usize, k: usize, seed: u64) -> MoeRouting {
        use rand::Rng;
        let mut rng = seeded(seed);
        let assignments = (0..n_tokens)
            .map(|_| {
                let mut picks: Vec<usize> = (0..n_experts).collect();
                for i in (1..picks.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    picks.swap(i, j);
                }
                picks[..k]
                    .iter()
                    .map(|&e| (e, rng.gen_range(0.05f32..1.0)))
                    .collect()
            })
            .collect();
        MoeRouting::new(assignments)
    }

    #[test]
    fn fused_matches_reference_decode_shape() {
        let (dense, moe) = setup(8, 32, 48, 1);
        let mut rng = seeded(2);
        let x = Matrix::random_uniform(1, 32, 1.0, &mut rng).unwrap();
        let routing = topk_routing(1, 8, 3, 3);
        let expect = reference_moe(&x, &dense, &routing);
        let got = moe.forward(&x, &routing, None, SchedulePolicy::Dynamic).unwrap();
        let err = expect.relative_error(&got);
        assert!(err < 1e-4, "err={err}");
    }

    #[test]
    fn fused_matches_reference_prefill_shape() {
        let (dense, moe) = setup(6, 32, 40, 4);
        let mut rng = seeded(5);
        let x = Matrix::random_uniform(17, 32, 1.0, &mut rng).unwrap();
        let routing = topk_routing(17, 6, 2, 6);
        let expect = reference_moe(&x, &dense, &routing);
        let got = moe.forward(&x, &routing, None, SchedulePolicy::Dynamic).unwrap();
        let err = expect.relative_error(&got);
        assert!(err < 1e-4, "err={err}");
    }

    #[test]
    fn parallel_matches_serial_execution() {
        let (_, moe) = setup(8, 32, 48, 7);
        let mut rng = seeded(8);
        let x = Matrix::random_uniform(9, 32, 1.0, &mut rng).unwrap();
        let routing = topk_routing(9, 8, 4, 9);
        let pool = ThreadPool::new(4).unwrap();
        let serial = moe.forward(&x, &routing, None, SchedulePolicy::Dynamic).unwrap();
        for policy in [SchedulePolicy::Static, SchedulePolicy::Dynamic] {
            let par = moe.forward(&x, &routing, Some(&pool), policy).unwrap();
            assert_eq!(serial.as_slice(), par.as_slice(), "{policy:?}");
        }
    }

    #[test]
    fn quantized_experts_are_close() {
        let mut rng = seeded(10);
        let hidden = 32;
        let inter = 64;
        let mut dense = Vec::new();
        let mut packed = Vec::new();
        for _ in 0..4 {
            let gate = Matrix::random_kaiming(inter, hidden, &mut rng).unwrap();
            let up = Matrix::random_kaiming(inter, hidden, &mut rng).unwrap();
            let down = Matrix::random_kaiming(hidden, inter, &mut rng).unwrap();
            packed.push(
                ExpertWeights::from_matrices(&gate, &up, &down, WeightDtype::Int8 { group: 32 })
                    .unwrap(),
            );
            dense.push((gate, up, down));
        }
        let moe = FusedMoE::new(packed, Backend::HybridAmxAvx512).unwrap();
        let x = Matrix::random_uniform(5, hidden, 1.0, &mut rng).unwrap();
        let routing = topk_routing(5, 4, 2, 11);
        let expect = reference_moe(&x, &dense, &routing);
        let got = moe.forward(&x, &routing, None, SchedulePolicy::Dynamic).unwrap();
        let err = expect.relative_error(&got);
        assert!(err < 0.05, "int8 err={err}");
    }

    #[test]
    fn split_deferred_partitions_by_score() {
        let routing = MoeRouting::new(vec![vec![(0, 0.1), (1, 0.9), (2, 0.5)]]);
        let (imm, def) = routing.split_deferred(2, &[true]);
        assert_eq!(imm.assignments[0], vec![(1, 0.9), (2, 0.5)]);
        assert_eq!(def.assignments[0], vec![(0, 0.1)]);
        // Immediate + deferred must equal the full computation.
        assert_eq!(imm.n_activations() + def.n_activations(), 3);
    }

    #[test]
    fn split_deferred_splits_only_masked_rows() {
        let row = vec![(3, 0.2), (0, 0.7), (5, 0.2), (1, 0.7)];
        let routing = MoeRouting::new(vec![row.clone(); 3]);
        let (imm, def) = routing.split_deferred(3, &[false, true]);
        // Masked off (and past the mask's end): unchanged, unsorted.
        for t in [0, 2] {
            assert_eq!(imm.assignments[t], row);
            assert!(def.assignments[t].is_empty());
        }
        // Masked on: top-3 by weight, ties kept in routing order.
        assert_eq!(imm.assignments[1], vec![(0, 0.7), (1, 0.7), (3, 0.2)]);
        assert_eq!(def.assignments[1], vec![(5, 0.2)]);
        // Nothing to defer once n_immediate covers the row.
        for n in [4, 9] {
            let (imm, def) = routing.split_deferred(n, &[true; 3]);
            assert_eq!(def.n_activations(), 0);
            assert_eq!(imm.n_activations(), 12);
        }
    }

    #[test]
    fn deferred_split_forward_sums_to_full_forward() {
        let (_, moe) = setup(8, 32, 48, 12);
        let mut rng = seeded(13);
        let x = Matrix::random_uniform(3, 32, 1.0, &mut rng).unwrap();
        let routing = topk_routing(3, 8, 4, 14);
        let full = moe.forward(&x, &routing, None, SchedulePolicy::Dynamic).unwrap();
        let (imm, def) = routing.split_deferred(2, &[true; 3]);
        let mut sum = moe.forward(&x, &imm, None, SchedulePolicy::Dynamic).unwrap();
        moe.forward_accumulate(&x, &def, &mut sum, None, SchedulePolicy::Dynamic)
            .unwrap();
        let err = full.relative_error(&sum);
        assert!(err < 1e-5, "err={err}");
    }

    #[test]
    fn empty_routing_yields_zero_output() {
        let (_, moe) = setup(4, 16, 24, 15);
        let mut rng = seeded(16);
        let x = Matrix::random_uniform(2, 16, 1.0, &mut rng).unwrap();
        let routing = MoeRouting::new(vec![vec![], vec![]]);
        let out = moe.forward(&x, &routing, None, SchedulePolicy::Dynamic).unwrap();
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn routing_validation_errors() {
        let (_, moe) = setup(4, 16, 24, 17);
        let mut rng = seeded(18);
        let x = Matrix::random_uniform(2, 16, 1.0, &mut rng).unwrap();
        // Wrong token count.
        let r = MoeRouting::new(vec![vec![]]);
        assert!(moe.forward(&x, &r, None, SchedulePolicy::Dynamic).is_err());
        // Expert out of range.
        let r = MoeRouting::new(vec![vec![(9, 1.0)], vec![]]);
        assert!(moe.forward(&x, &r, None, SchedulePolicy::Dynamic).is_err());
        // Wrong hidden dim.
        let bad = Matrix::zeros(2, 8).unwrap();
        let r = MoeRouting::new(vec![vec![], vec![]]);
        assert!(moe.forward(&bad, &r, None, SchedulePolicy::Dynamic).is_err());
    }

    #[test]
    fn accounting_counts_flops_and_bytes() {
        let (_, moe) = setup(4, 16, 24, 19);
        let routing = MoeRouting::new(vec![vec![(0, 1.0), (1, 0.5)], vec![(0, 0.3)]]);
        // 3 activations x 3 projections x 2 * 16 * 24 flops.
        assert_eq!(moe.flops(&routing), 3 * 3 * 2 * 16 * 24);
        // Two distinct experts activated.
        let one = moe.expert(0).stored_bytes() as u64;
        assert_eq!(moe.weight_bytes(&routing), 2 * one);
    }

    #[test]
    fn pool_serialization_round_trips() {
        let (_, moe) = setup(4, 32, 48, 30);
        let mut buf = Vec::new();
        moe.write_to(&mut buf).unwrap();
        let loaded = FusedMoE::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.n_experts(), 4);
        let mut rng = seeded(31);
        let x = Matrix::random_uniform(3, 32, 1.0, &mut rng).unwrap();
        let routing = topk_routing(3, 4, 2, 32);
        let a = moe.forward(&x, &routing, None, SchedulePolicy::Dynamic).unwrap();
        let b = loaded
            .forward(&x, &routing, None, SchedulePolicy::Dynamic)
            .unwrap();
        assert_eq!(a.as_slice(), b.as_slice(), "bit-exact after reload");
        // Corrupt backend tag fails cleanly.
        let mut bad = buf.clone();
        bad[0] = 7;
        assert!(FusedMoE::read_from(&mut bad.as_slice()).is_err());
    }

    #[test]
    fn vector_backend_batch_equals_single_row_forwards_bitwise() {
        // The vector class schedules (bucket, projection, row-block,
        // panel-group) tasks; a token's output must not depend on which
        // other tokens share its expert's row block. inter = 72 is 5
        // panels with a 8-lane tail (panel-group tail), and buckets grow
        // past one row block at the larger M.
        let (hidden, inter, n_experts, top_k) = (32, 72, 6, 3);
        for dtype in [WeightDtype::Int4 { group: 8 }, WeightDtype::Int8 { group: 8 }] {
            let mut rng = seeded(70);
            let moe =
                FusedMoE::random(n_experts, hidden, inter, dtype, Backend::VectorOnly, &mut rng)
                    .unwrap();
            let mut ws = MoeWorkspace::new();
            for m in 1..=8 {
                let x = Matrix::random_uniform(m, hidden, 1.0, &mut rng).unwrap();
                let routing = topk_routing(m, n_experts, top_k, 71 + m as u64);
                let batch = moe
                    .forward_with(&x, &routing, None, SchedulePolicy::Dynamic, &mut ws)
                    .unwrap();
                for t in 0..m {
                    let xt = Matrix::from_rows(1, hidden, x.row(t)).unwrap();
                    let rt = MoeRouting::new(vec![routing.assignments[t].clone()]);
                    let alone = moe
                        .forward_with(&xt, &rt, None, SchedulePolicy::Dynamic, &mut ws)
                        .unwrap();
                    assert_eq!(batch.row(t), alone.row(0), "{dtype:?} M={m} token {t}");
                    ws.restore(alone);
                }
                ws.restore(batch);
            }
        }
    }

    #[test]
    fn rejects_empty_or_mismatched_pools() {
        assert!(FusedMoE::new(vec![], Backend::HybridAmxAvx512).is_err());
        let mut rng = seeded(20);
        let a = ExpertWeights::random(16, 24, WeightDtype::F32, &mut rng).unwrap();
        let b = ExpertWeights::random(16, 32, WeightDtype::F32, &mut rng).unwrap();
        assert!(FusedMoE::new(vec![a, b], Backend::HybridAmxAvx512).is_err());
    }
}
