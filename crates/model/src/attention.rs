//! Attention blocks: grouped-query attention and MLA-style latent
//! attention.
//!
//! In the paper's placement, attention always executes on the GPU (it
//! has the highest arithmetic intensity); `kt-core` schedules these
//! forward calls on its virtual GPU device. The math here is the real
//! computation used by the runnable scaled-down models:
//!
//! * **GQA** — `kv_heads` key/value heads shared by `n_heads` query
//!   heads; roped keys and values are cached per position.
//! * **MLA (latent)** — DeepSeek-V2/V3's decoupled-RoPE form. Each
//!   position caches one row `[c ; k_rope]`: the compressed latent
//!   `c = W_a x` of rank `kv_lora_rank` and a head-shared key
//!   `k_rope = RoPE(W_kr x)` of width `head_dim`. The query is
//!   `[q_nope ; q_rope]` per head. Because RoPE touches only the
//!   separate `k_rope`, the key up-projection folds into the query and
//!   the value up-projection into the output: head `h` scores a row
//!   with `[W_UK[h]ᵀ q_nope ; q_rope]`, accumulates softmax-weighted
//!   *latents*, and applies `W_UV[h]` once per query row. Attention
//!   runs in latent space — what FlashInfer's MLA kernel computes — and
//!   the cache row is everything MLA ever keeps per position.
//!
//! The absorption happens on activations, never on weights: `W_UK[h]`
//! and `W_UV[h]` stay separate packed matrices, applied through the
//! row-stable `gemm_rowwise`, so quantized weights are never
//! re-rounded and a row's bits never depend on its batch-mates.
//!
//! Scores, softmax and the weighted sum run in one kernel for both
//! variants, [`kt_kernels::attn::attention`]: up to four heads of a KV
//! group per loaded KV row, 16-lane partial sums combined by one fixed
//! tree, and the same bits at every SIMD level. Each output row's bits
//! depend only on its query row and its own visible prefix. That, with
//! the row-stable projections, is what makes chunked prefill (any split
//! of a prompt into per-step chunks) and prefix seeding bitwise
//! identical to a monolithic prefill.

use kt_kernels::attn::{attention, AttnDims};
use kt_kernels::gemm::gemm_rowwise;
use kt_kernels::schedule::ThreadPool;
use kt_tensor::{Matrix, PackedWeights, WeightDtype};
use rand::rngs::StdRng;

use crate::config::AttentionKind;
use crate::error::ModelError;
use crate::paged::PagedKvStore;
use crate::rope::Rope;

/// Serialization tag of a GQA block.
const TAG_GQA: u64 = 0;
/// Tag of the retired MLA format that roped the decoded key (no
/// RoPE-key projection); rejected on read.
const TAG_MLA_DECODED_ROPE: u64 = 1;
/// Tag of a decoupled-RoPE MLA block.
const TAG_MLA: u64 = 2;

/// Variant-specific projection weights.
#[derive(Debug, Clone)]
enum KvProj {
    Gqa {
        /// Key projection, `kv_heads * head_dim x hidden`.
        wk: PackedWeights,
        /// Value projection, `kv_heads * head_dim x hidden`.
        wv: PackedWeights,
        kv_heads: usize,
    },
    Mla {
        /// Latent down-projection, `rank x hidden`.
        wa: PackedWeights,
        /// Head-shared RoPE-key projection, `head_dim x hidden`.
        wkr: PackedWeights,
        /// Per-head key up-projections in absorbed form, `rank x
        /// head_dim` each: `W_UK[h]ᵀ`, mapping `q_nope` into latent space.
        wkb: Vec<PackedWeights>,
        /// Per-head value up-projections `W_UV[h]`, `head_dim x rank`
        /// each, mapping a latent context to the head's output.
        wvb: Vec<PackedWeights>,
        rank: usize,
    },
}

/// One attention block.
#[derive(Debug, Clone)]
pub struct Attention {
    hidden: usize,
    n_heads: usize,
    head_dim: usize,
    /// Query projection, `n_heads * head_dim x hidden` (GQA) or
    /// `n_heads * 2 * head_dim x hidden` (MLA: `[q_nope ; q_rope]` per
    /// head).
    wq: PackedWeights,
    /// Output projection, `hidden x n_heads * head_dim`.
    wo: PackedWeights,
    kv: KvProj,
}

impl Attention {
    /// Creates an attention block with random weights.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Config`] on invalid head/hidden settings and
    /// propagates packing errors.
    pub fn random(
        hidden: usize,
        n_heads: usize,
        head_dim: usize,
        kind: AttentionKind,
        dtype: WeightDtype,
        rng: &mut StdRng,
    ) -> Result<Self, ModelError> {
        if n_heads == 0 || head_dim == 0 || hidden == 0 {
            return Err(ModelError::config("attention dims must be nonzero"));
        }
        let qdim = n_heads * head_dim;
        let pack =
            |rows: usize, cols: usize, rng: &mut StdRng| -> Result<PackedWeights, ModelError> {
                let m = Matrix::random_kaiming(rows, cols, rng)?;
                Ok(PackedWeights::pack(&m, dtype)?)
            };
        let (wq, wo, kv) = match kind {
            AttentionKind::Gqa { kv_heads } => {
                if kv_heads == 0 || !n_heads.is_multiple_of(kv_heads) {
                    return Err(ModelError::config(format!(
                        "kv_heads {kv_heads} must divide n_heads {n_heads}"
                    )));
                }
                let wq = pack(qdim, hidden, rng)?;
                let wo = pack(hidden, qdim, rng)?;
                let kv = KvProj::Gqa {
                    wk: pack(kv_heads * head_dim, hidden, rng)?,
                    wv: pack(kv_heads * head_dim, hidden, rng)?,
                    kv_heads,
                };
                (wq, wo, kv)
            }
            AttentionKind::Mla { kv_lora_rank: rank } => {
                if rank == 0 {
                    return Err(ModelError::config("kv_lora_rank must be nonzero"));
                }
                // W_UK[h] is drawn as the `head_dim x rank` map it is (the
                // decoded key reads `rank` latents) and stored transposed.
                let absorbed_uk = |rng: &mut StdRng| -> Result<PackedWeights, ModelError> {
                    let uk = Matrix::random_kaiming(head_dim, rank, rng)?;
                    let mut ukt = Matrix::zeros(rank, head_dim)?;
                    for i in 0..rank {
                        for (j, w) in ukt.row_mut(i).iter_mut().enumerate() {
                            *w = uk.row(j)[i];
                        }
                    }
                    Ok(PackedWeights::pack(&ukt, dtype)?)
                };
                let wq = pack(2 * qdim, hidden, rng)?;
                let wo = pack(hidden, qdim, rng)?;
                let kv = KvProj::Mla {
                    wa: pack(rank, hidden, rng)?,
                    wkr: pack(head_dim, hidden, rng)?,
                    wkb: (0..n_heads)
                        .map(|_| absorbed_uk(rng))
                        .collect::<Result<_, _>>()?,
                    wvb: (0..n_heads)
                        .map(|_| pack(head_dim, rank, rng))
                        .collect::<Result<_, _>>()?,
                    rank,
                };
                (wq, wo, kv)
            }
        };
        Ok(Attention {
            hidden,
            n_heads,
            head_dim,
            wq,
            wo,
            kv,
        })
    }

    /// Serializes the attention block (dims, variant, projections).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_to(&self, w: &mut impl std::io::Write) -> Result<(), ModelError> {
        use kt_tensor::serial::write_u64;
        write_u64(w, self.hidden as u64)?;
        write_u64(w, self.n_heads as u64)?;
        write_u64(w, self.head_dim as u64)?;
        self.wq.write_to(w)?;
        self.wo.write_to(w)?;
        match &self.kv {
            KvProj::Gqa { wk, wv, kv_heads } => {
                write_u64(w, TAG_GQA)?;
                write_u64(w, *kv_heads as u64)?;
                wk.write_to(w)?;
                wv.write_to(w)?;
            }
            KvProj::Mla {
                wa,
                wkr,
                wkb,
                wvb,
                rank,
            } => {
                write_u64(w, TAG_MLA)?;
                write_u64(w, *rank as u64)?;
                wa.write_to(w)?;
                wkr.write_to(w)?;
                for p in wkb.iter().chain(wvb) {
                    p.write_to(w)?;
                }
            }
        }
        Ok(())
    }

    /// Deserializes a block written by [`Attention::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Exec`] on corrupt input, and on an MLA
    /// block in the retired decoded-key-RoPE format (tag 1).
    pub fn read_from(r: &mut impl std::io::Read) -> Result<Self, ModelError> {
        use kt_tensor::serial::{read_len, read_u64, MAX_ELEMS};
        let hidden = read_len(r, MAX_ELEMS)?;
        let n_heads = read_len(r, MAX_ELEMS)?;
        let head_dim = read_len(r, MAX_ELEMS)?;
        let wq = PackedWeights::read_from(r)?;
        let wo = PackedWeights::read_from(r)?;
        let kv = match read_u64(r)? {
            TAG_GQA => {
                let kv_heads = read_len(r, MAX_ELEMS)?;
                if kv_heads == 0 || n_heads % kv_heads != 0 {
                    return Err(ModelError::exec("corrupt GQA kv_heads"));
                }
                KvProj::Gqa {
                    wk: PackedWeights::read_from(r)?,
                    wv: PackedWeights::read_from(r)?,
                    kv_heads,
                }
            }
            TAG_MLA_DECODED_ROPE => {
                return Err(ModelError::exec(
                    "MLA attention tag 1 is the retired decoded-key-RoPE format (no RoPE-key \
                     projection); only decoupled-RoPE MLA (tag 2) loads — regenerate the checkpoint",
                ))
            }
            TAG_MLA => {
                let rank = read_len(r, MAX_ELEMS)?;
                let wa = PackedWeights::read_from(r)?;
                let wkr = PackedWeights::read_from(r)?;
                let mut heads = || -> Result<Vec<PackedWeights>, ModelError> {
                    (0..n_heads)
                        .map(|_| Ok(PackedWeights::read_from(r)?))
                        .collect()
                };
                let wkb = heads()?;
                let wvb = heads()?;
                KvProj::Mla {
                    wa,
                    wkr,
                    wkb,
                    wvb,
                    rank,
                }
            }
            other => return Err(ModelError::exec(format!("unknown attention tag {other}"))),
        };
        let qdim = n_heads * head_dim;
        let shape = |p: &PackedWeights, n: usize, k: usize| p.n() == n && p.k() == k;
        let q_rows = match kv {
            KvProj::Gqa { .. } => qdim,
            KvProj::Mla { .. } => 2 * qdim,
        };
        if !shape(&wq, q_rows, hidden) || !shape(&wo, hidden, qdim) {
            return Err(ModelError::exec("corrupt attention projection shapes"));
        }
        match &kv {
            KvProj::Gqa { wk, wv, kv_heads } => {
                let kvdim = kv_heads * head_dim;
                if !shape(wk, kvdim, hidden) || !shape(wv, kvdim, hidden) {
                    return Err(ModelError::exec("corrupt GQA projection shapes"));
                }
            }
            KvProj::Mla {
                wa,
                wkr,
                wkb,
                wvb,
                rank,
            } => {
                if !shape(wa, *rank, hidden)
                    || !shape(wkr, head_dim, hidden)
                    || !wkb.iter().all(|p| shape(p, *rank, head_dim))
                    || !wvb.iter().all(|p| shape(p, head_dim, *rank))
                {
                    return Err(ModelError::exec("corrupt MLA projection shapes"));
                }
            }
        }
        Ok(Attention {
            hidden,
            n_heads,
            head_dim,
            wq,
            wo,
            kv,
        })
    }

    /// `(k_width, v_width)` the layer cache must be built with: GQA
    /// caches `kv_heads * head_dim` keys and values, MLA one
    /// `[c ; k_rope]` row of `rank + head_dim` floats and no values.
    pub fn cache_spec(&self) -> (usize, usize) {
        match &self.kv {
            KvProj::Gqa { kv_heads, .. } => (kv_heads * self.head_dim, kv_heads * self.head_dim),
            KvProj::Mla { rank, .. } => (rank + self.head_dim, 0),
        }
    }

    /// Causal attention over `x` (new tokens) given the layer cache.
    ///
    /// Token `t` of `x` has absolute position `cache.len() + t` at entry;
    /// all new tokens are appended to the cache.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Exec`] on shape mismatches or cache
    /// overflow.
    pub fn forward(
        &self,
        x: &Matrix,
        cache: &mut PagedKvStore,
        rope: &Rope,
        pool: Option<&ThreadPool>,
    ) -> Result<Matrix, ModelError> {
        if x.cols() != self.hidden {
            return Err(ModelError::exec(format!(
                "attention input has {} cols, expected {}",
                x.cols(),
                self.hidden
            )));
        }
        if rope.head_dim() != self.head_dim {
            return Err(ModelError::exec("RoPE table head_dim mismatch"));
        }
        let t_new = x.rows();
        let start = cache.len();
        let d = self.head_dim;
        let qdim = self.n_heads * d;

        let mut q = Matrix::zeros(t_new, self.wq.n())?;
        gemm_rowwise(x, &self.wq, &mut q, pool)?;

        // Rope the new positions, append their cache rows, and build
        // `qk`: each head's query in the coordinates of a cached key row.
        let qk = match &self.kv {
            KvProj::Gqa { wk, wv, kv_heads } => {
                let kvdim = kv_heads * d;
                let mut k = Matrix::zeros(t_new, kvdim)?;
                let mut v = Matrix::zeros(t_new, kvdim)?;
                gemm_rowwise(x, wk, &mut k, pool)?;
                gemm_rowwise(x, wv, &mut v, pool)?;
                for t in 0..t_new {
                    rope.apply_multihead(q.row_mut(t), start + t);
                    rope.apply_multihead(k.row_mut(t), start + t);
                    cache.push(k.row(t), v.row(t))?;
                }
                q
            }
            KvProj::Mla {
                wa, wkr, wkb, rank, ..
            } => {
                let mut c = Matrix::zeros(t_new, *rank)?;
                let mut k_rope = Matrix::zeros(t_new, d)?;
                gemm_rowwise(x, wa, &mut c, pool)?;
                gemm_rowwise(x, wkr, &mut k_rope, pool)?;
                let mut row = vec![0.0f32; rank + d];
                for t in 0..t_new {
                    for head in q.row_mut(t).chunks_mut(2 * d) {
                        rope.apply(&mut head[d..], start + t);
                    }
                    rope.apply(k_rope.row_mut(t), start + t);
                    row[..*rank].copy_from_slice(c.row(t));
                    row[*rank..].copy_from_slice(k_rope.row(t));
                    cache.push(&row, &[])?;
                }
                // Absorb W_UK: head h's query is [W_UK[h]ᵀ q_nope ; q_rope].
                let kw = rank + d;
                let mut qk = Matrix::zeros(t_new, self.n_heads * kw)?;
                for (h, wkb) in wkb.iter().enumerate() {
                    let mut q_lat = Matrix::zeros(t_new, *rank)?;
                    gemm_rowwise(&columns(&q, 2 * h * d, d)?, wkb, &mut q_lat, pool)?;
                    for t in 0..t_new {
                        let dst = &mut qk.row_mut(t)[h * kw..(h + 1) * kw];
                        dst[..*rank].copy_from_slice(q_lat.row(t));
                        dst[*rank..].copy_from_slice(&q.row(t)[(2 * h + 1) * d..(2 * h + 2) * d]);
                    }
                }
                qk
            }
        };

        // Per KV head: key width, value width and the softmax scale. MLA
        // is one head-shared KV head whose value is the latent prefix
        // of its key row; one dot over the row is its logit
        // q_nope·k_nope + q_rope·k_rope, scaled as 2 * head_dim wide.
        let (kv_heads, kw, vw, scale) = match &self.kv {
            KvProj::Gqa { kv_heads, .. } => (*kv_heads, d, d, 1.0 / (d as f32).sqrt()),
            KvProj::Mla { rank, .. } => (1, rank + d, *rank, 1.0 / ((2 * d) as f32).sqrt()),
        };
        // Resolve every visible position's rows once, up front: the
        // kernel touches each position once per query row and head
        // block, and a per-touch lookup would pay a page-table walk
        // every time.
        let total = cache.len();
        let cache = &*cache;
        let krows: Vec<&[f32]> = (0..total).map(|pos| cache.k_row(pos)).collect();
        let vrows: Vec<&[f32]> = match &self.kv {
            KvProj::Gqa { .. } => (0..total).map(|pos| cache.v_row(pos)).collect(),
            KvProj::Mla { .. } => krows.iter().map(|k| &k[..vw]).collect(),
        };

        // Scaled dot-product attention with causal masking.
        let mut ctx = Matrix::zeros(t_new, self.n_heads * vw)?;
        let dims = AttnDims {
            n_heads: self.n_heads,
            kv_heads,
            kw,
            vw,
        };
        attention(
            qk.as_slice(),
            &krows,
            &vrows,
            dims,
            scale,
            start,
            ctx.as_mut_slice(),
        );

        // MLA's context is a latent per head: apply W_UV[h] once per row.
        let ctx = match &self.kv {
            KvProj::Gqa { .. } => ctx,
            KvProj::Mla { wvb, .. } => {
                let mut heads = Matrix::zeros(t_new, qdim)?;
                let mut out = Matrix::zeros(t_new, d)?;
                for (h, wvb) in wvb.iter().enumerate() {
                    gemm_rowwise(&columns(&ctx, h * vw, vw)?, wvb, &mut out, pool)?;
                    for t in 0..t_new {
                        heads.row_mut(t)[h * d..(h + 1) * d].copy_from_slice(out.row(t));
                    }
                }
                heads
            }
        };

        // Output projection.
        let mut out = Matrix::zeros(t_new, self.hidden)?;
        gemm_rowwise(&ctx, &self.wo, &mut out, pool)?;
        Ok(out)
    }

    /// Model (input/output) width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Number of query heads.
    pub fn n_heads(&self) -> usize {
        self.n_heads
    }

    /// Per-head dimension.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// The attention variant these weights implement.
    pub(crate) fn kind(&self) -> AttentionKind {
        match &self.kv {
            KvProj::Gqa { kv_heads, .. } => AttentionKind::Gqa {
                kv_heads: *kv_heads,
            },
            KvProj::Mla { rank, .. } => AttentionKind::Mla {
                kv_lora_rank: *rank,
            },
        }
    }
}

/// Columns `lo..lo + width` of `m`, as a matrix of their own.
fn columns(m: &Matrix, lo: usize, width: usize) -> Result<Matrix, ModelError> {
    let mut out = Matrix::zeros(m.rows(), width)?;
    for t in 0..m.rows() {
        out.row_mut(t).copy_from_slice(&m.row(t)[lo..lo + width]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paged::BlockAllocator;
    use kt_tensor::rng::seeded;

    fn rope() -> Rope {
        rope_for(16)
    }

    fn rope_for(head_dim: usize) -> Rope {
        Rope::new(head_dim, 128, 10_000.0)
    }

    fn gqa_attn(seed: u64) -> Attention {
        let mut rng = seeded(seed);
        Attention::random(
            32,
            4,
            16,
            AttentionKind::Gqa { kv_heads: 2 },
            WeightDtype::F32,
            &mut rng,
        )
        .unwrap()
    }

    fn mla_attn_with(seed: u64, n_heads: usize, head_dim: usize, rank: usize) -> Attention {
        let mut rng = seeded(seed);
        Attention::random(
            32,
            n_heads,
            head_dim,
            AttentionKind::Mla { kv_lora_rank: rank },
            WeightDtype::F32,
            &mut rng,
        )
        .unwrap()
    }

    fn mla_attn(seed: u64) -> Attention {
        mla_attn_with(seed, 4, 16, 8)
    }

    /// `kt_benchmark`'s MLA shape: 4 heads × head_dim 64 × rank 32, so a
    /// cache row is 96 floats (six full 16-lane chunks, no tail) and the
    /// value row 32.
    fn mla_bench_shape(seed: u64) -> Attention {
        mla_attn_with(seed, 4, 64, 32)
    }

    fn cache_with_pages(attn: &Attention, page_rows: usize) -> PagedKvStore {
        let (kw, vw) = attn.cache_spec();
        PagedKvStore::new(kw, vw, 128, page_rows, &BlockAllocator::new(usize::MAX))
    }

    fn cache_for(attn: &Attention) -> PagedKvStore {
        cache_with_pages(attn, crate::paged::DEFAULT_PAGE_ROWS)
    }

    #[test]
    fn invalid_construction_is_rejected() {
        let mut rng = seeded(1);
        assert!(Attention::random(
            0,
            4,
            16,
            AttentionKind::Gqa { kv_heads: 2 },
            WeightDtype::F32,
            &mut rng
        )
        .is_err());
        assert!(Attention::random(
            32,
            4,
            16,
            AttentionKind::Gqa { kv_heads: 3 },
            WeightDtype::F32,
            &mut rng
        )
        .is_err());
        assert!(Attention::random(
            32,
            4,
            16,
            AttentionKind::Mla { kv_lora_rank: 0 },
            WeightDtype::F32,
            &mut rng
        )
        .is_err());
    }

    /// The core incremental-decoding invariant: prefilling all tokens at
    /// once must produce the same final-token output as prefilling a
    /// prefix and decoding the rest one token at a time.
    fn check_incremental(attn: &Attention) {
        let mut rng = seeded(42);
        let x = Matrix::random_uniform(6, 32, 1.0, &mut rng).unwrap();
        let rope = rope();

        let mut full_cache = cache_for(attn);
        let full = attn.forward(&x, &mut full_cache, &rope, None).unwrap();

        let mut inc_cache = cache_for(attn);
        let prefix = Matrix::from_rows(3, 32, &x.as_slice()[..3 * 32]).unwrap();
        let _ = attn.forward(&prefix, &mut inc_cache, &rope, None).unwrap();
        let mut last = None;
        for t in 3..6 {
            let one = Matrix::from_rows(1, 32, x.row(t)).unwrap();
            last = Some(attn.forward(&one, &mut inc_cache, &rope, None).unwrap());
        }
        let last = last.unwrap();
        for (a, b) in full.row(5).iter().zip(last.row(0)) {
            assert!((a - b).abs() < 1e-4, "full={a} inc={b}");
        }
    }

    #[test]
    fn gqa_incremental_matches_prefill() {
        check_incremental(&gqa_attn(7));
    }

    #[test]
    fn mla_incremental_matches_prefill() {
        check_incremental(&mla_attn(8));
    }

    #[test]
    fn causality_holds() {
        // Changing a later token must not affect an earlier token's
        // output.
        let attn = gqa_attn(9);
        let mut rng = seeded(10);
        let x1 = Matrix::random_uniform(4, 32, 1.0, &mut rng).unwrap();
        let mut x2 = x1.clone();
        for v in x2.row_mut(3) {
            *v += 1.0;
        }
        let rope = rope();
        let mut c1 = cache_for(&attn);
        let mut c2 = cache_for(&attn);
        let y1 = attn.forward(&x1, &mut c1, &rope, None).unwrap();
        let y2 = attn.forward(&x2, &mut c2, &rope, None).unwrap();
        for t in 0..3 {
            assert_eq!(y1.row(t), y2.row(t), "token {t} saw the future");
        }
        assert_ne!(y1.row(3), y2.row(3));
    }

    #[test]
    fn mla_cache_is_smaller_than_gqa() {
        let gqa = gqa_attn(11);
        let mla = mla_attn(12);
        let mut rng = seeded(13);
        let x = Matrix::random_uniform(8, 32, 1.0, &mut rng).unwrap();
        let rope = rope();
        let mut cg = cache_for(&gqa);
        let mut cm = cache_for(&mla);
        gqa.forward(&x, &mut cg, &rope, None).unwrap();
        mla.forward(&x, &mut cm, &rope, None).unwrap();
        // GQA: 2 sides x 2 kv_heads x 16 dims = 64 floats per position;
        // MLA: an 8-float latent beside a 16-float RoPE key = 24.
        assert_eq!(cm.k_width() + cm.v_width(), 24);
        assert!(2 * cm.bytes() < cg.bytes());
    }

    #[test]
    fn position_matters() {
        // The same token content at different positions attends
        // differently (RoPE), so outputs differ.
        let attn = gqa_attn(14);
        let mut rng = seeded(15);
        let row: Vec<f32> = {
            let m = Matrix::random_uniform(1, 32, 1.0, &mut rng).unwrap();
            m.row(0).to_vec()
        };
        let two = Matrix::from_rows(2, 32, &[row.clone(), row.clone()].concat()).unwrap();
        let rope = rope();
        let mut c = cache_for(&attn);
        let y = attn.forward(&two, &mut c, &rope, None).unwrap();
        assert_ne!(y.row(0), y.row(1));
    }

    #[test]
    fn parallel_pool_matches_serial() {
        // The projections are row-stable on a pool and the attention core
        // runs serially, so the pool changes no bit: MLA at 1-8 heads and
        // GQA over 67 rows (more than one 64-row block).
        let rope = rope();
        let pool = kt_kernels::ThreadPool::new(3).unwrap();
        let mut rng = seeded(17);
        let cases = (1..=8)
            .map(|h| (mla_attn_with(16 + h as u64, h, 16, 8), 5))
            .chain([(gqa_attn(16), 67)]);
        for (attn, rows) in cases {
            let x = Matrix::random_uniform(rows, 32, 1.0, &mut rng).unwrap();
            let mut c1 = cache_for(&attn);
            let mut c2 = cache_for(&attn);
            let y1 = attn.forward(&x, &mut c1, &rope, None).unwrap();
            let y2 = attn.forward(&x, &mut c2, &rope, Some(&pool)).unwrap();
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&y1),
                bits(&y2),
                "{:?} {} heads",
                attn.kind(),
                attn.n_heads()
            );
        }
    }

    #[test]
    fn page_size_is_pure_placement() {
        // Attention over 3-row pages must equal attention over one
        // page holding the whole sequence, bit for bit.
        for attn in [gqa_attn(21), mla_attn(23), mla_bench_shape(24)] {
            let mut small = cache_with_pages(&attn, 3);
            let mut single = cache_with_pages(&attn, 128);
            let mut rng = seeded(22);
            let rope = rope_for(attn.head_dim());
            let prompt = Matrix::random_uniform(6, 32, 1.0, &mut rng).unwrap();
            let a = attn.forward(&prompt, &mut small, &rope, None).unwrap();
            let b = attn.forward(&prompt, &mut single, &rope, None).unwrap();
            assert_eq!(a.as_slice(), b.as_slice());
            for t in 0..4 {
                let one = Matrix::random_uniform(1, 32, 1.0, &mut rng).unwrap();
                let ya = attn.forward(&one, &mut small, &rope, None).unwrap();
                let yb = attn.forward(&one, &mut single, &rope, None).unwrap();
                assert_eq!(ya.as_slice(), yb.as_slice(), "step {t}");
            }
            assert_eq!(small.pages().len(), 4);
            assert_eq!(single.pages().len(), 1);
        }
    }

    /// MLA without absorption, in f64: decode every position's per-head
    /// key and value from its latent, rope the query's and key's RoPE
    /// halves at their positions, and run full-head softmax attention.
    /// Returns one output row per position of `x`.
    fn mla_reference(attn: &Attention, x: &Matrix, rope: &Rope) -> Vec<Vec<f64>> {
        let KvProj::Mla {
            wa,
            wkr,
            wkb,
            wvb,
            rank,
        } = &attn.kv
        else {
            unreachable!("an MLA block")
        };
        let (d, n_heads, rank) = (attn.head_dim, attn.n_heads, *rank);
        let matvec = |w: &PackedWeights, v: &[f64]| -> Vec<f64> {
            let w = w.unpack();
            (0..w.rows())
                .map(|r| w.row(r).iter().zip(v).map(|(&a, b)| a as f64 * b).sum())
                .collect()
        };
        let roped = |v: &[f64], pos: usize| -> Vec<f64> {
            let mut f: Vec<f32> = v.iter().map(|&a| a as f32).collect();
            rope.apply(&mut f, pos);
            f.iter().map(|&a| a as f64).collect()
        };
        // `wkb[h]` stores W_UK[h]ᵀ, so the decoded key is its transpose.
        let decode_key = |h: usize, c: &[f64]| -> Vec<f64> {
            let w = wkb[h].unpack();
            (0..d)
                .map(|i| (0..rank).map(|r| w.get(r, i) as f64 * c[r]).sum())
                .collect()
        };
        let (mut keys, mut values, mut queries) = (Vec::new(), Vec::new(), Vec::new());
        for pos in 0..x.rows() {
            let xr: Vec<f64> = x.row(pos).iter().map(|&a| a as f64).collect();
            let c = matvec(wa, &xr);
            let k_rope = roped(&matvec(wkr, &xr), pos);
            let q = matvec(&attn.wq, &xr);
            let mut kh = Vec::new();
            let mut vh = Vec::new();
            let mut qh = Vec::new();
            for h in 0..n_heads {
                kh.push([decode_key(h, &c), k_rope.clone()].concat());
                vh.push(matvec(&wvb[h], &c));
                let head = &q[2 * h * d..(2 * h + 2) * d];
                qh.push([head[..d].to_vec(), roped(&head[d..], pos)].concat());
            }
            keys.push(kh);
            values.push(vh);
            queries.push(qh);
        }
        let scale = 1.0 / ((2 * d) as f64).sqrt();
        (0..x.rows())
            .map(|t| {
                let mut ctx = Vec::new();
                for h in 0..n_heads {
                    let s: Vec<f64> = (0..=t)
                        .map(|p| {
                            let dot: f64 = queries[t][h]
                                .iter()
                                .zip(&keys[p][h])
                                .map(|(a, b)| a * b)
                                .sum();
                            dot * scale
                        })
                        .collect();
                    let max = s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    let e: Vec<f64> = s.iter().map(|v| (v - max).exp()).collect();
                    let sum: f64 = e.iter().sum();
                    ctx.extend(
                        (0..d).map(|i| (0..=t).map(|p| e[p] / sum * values[p][h][i]).sum::<f64>()),
                    );
                }
                matvec(&attn.wo, &ctx)
            })
            .collect()
    }

    #[test]
    fn mla_absorbed_form_matches_non_absorbed_reference() {
        // The absorbed latent-space attention must compute what MLA
        // means: decoded per-head keys and values, full-head softmax.
        let rel = |got: &[f32], want: &[f64]| {
            let diff: f64 = got
                .iter()
                .zip(want)
                .map(|(&g, w)| (g as f64 - w).powi(2))
                .sum();
            let norm: f64 = want.iter().map(|w| w * w).sum();
            (diff / norm).sqrt()
        };
        // The last shape is the benchmark's: a 96-float row, so the score
        // kernel runs whole 16-lane chunks; the others end in a tail.
        let shapes = [
            (4, 16, 8),
            (2, 16, 4),
            (1, 16, 16),
            (4, 16, 32),
            (4, 64, 32),
        ];
        for (seed, (n_heads, d, rank)) in shapes.into_iter().enumerate() {
            let attn = mla_attn_with(60 + seed as u64, n_heads, d, rank);
            let rope = rope_for(d);
            let mut rng = seeded(70 + seed as u64);
            let x = Matrix::random_uniform(9, 32, 1.0, &mut rng).unwrap();
            let want = mla_reference(&attn, &x, &rope);
            for page_rows in [1, 3, 16] {
                let what = format!("heads {n_heads} head_dim {d} rank {rank} pages {page_rows}");
                // One-shot prefill.
                let mut cache = cache_with_pages(&attn, page_rows);
                let y = attn.forward(&x, &mut cache, &rope, None).unwrap();
                for (t, w) in want.iter().enumerate() {
                    let err = rel(y.row(t), w);
                    assert!(err < 1e-5, "{what} one-shot row {t}: {err}");
                }
                // Incremental: a 4-row chunk, then one row at a time.
                let mut cache = cache_with_pages(&attn, page_rows);
                let head = Matrix::from_rows(4, 32, &x.as_slice()[..4 * 32]).unwrap();
                let y = attn.forward(&head, &mut cache, &rope, None).unwrap();
                for (t, w) in want.iter().enumerate() {
                    let got = if t < 4 {
                        y.row(t).to_vec()
                    } else {
                        let one = Matrix::from_rows(1, 32, x.row(t)).unwrap();
                        attn.forward(&one, &mut cache, &rope, None)
                            .unwrap()
                            .row(0)
                            .to_vec()
                    };
                    let err = rel(&got, w);
                    assert!(err < 1e-5, "{what} incremental row {t}: {err}");
                }
                assert_eq!(cache.len(), x.rows());
            }
        }
    }

    #[test]
    fn serialization_round_trips_both_variants() {
        for attn in [gqa_attn(31), mla_attn(32)] {
            let mut buf = Vec::new();
            attn.write_to(&mut buf).unwrap();
            let loaded = Attention::read_from(&mut buf.as_slice()).unwrap();
            assert_eq!(loaded.kind(), attn.kind());
            let mut rng = seeded(33);
            let x = Matrix::random_uniform(3, 32, 1.0, &mut rng).unwrap();
            let rope = rope();
            let mut c1 = cache_for(&attn);
            let mut c2 = cache_for(&loaded);
            let a = attn.forward(&x, &mut c1, &rope, None).unwrap();
            let b = loaded.forward(&x, &mut c2, &rope, None).unwrap();
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn retired_and_misshapen_mla_blocks_are_rejected() {
        use kt_tensor::serial::write_u64;
        let mut rng = seeded(34);
        let mut pack = |rows: usize, cols: usize| {
            PackedWeights::pack(
                &Matrix::random_kaiming(rows, cols, &mut rng).unwrap(),
                WeightDtype::F32,
            )
            .unwrap()
        };
        let (hidden, n_heads, d, rank) = (32usize, 2usize, 16usize, 8usize);
        let (wq_old, wq, wo) = (
            pack(n_heads * d, hidden),
            pack(2 * n_heads * d, hidden),
            pack(hidden, n_heads * d),
        );
        let (wa, wkr) = (pack(rank, hidden), pack(d, hidden));
        let wkb: Vec<_> = (0..n_heads).map(|_| pack(rank, d)).collect();
        let wvb: Vec<_> = (0..n_heads).map(|_| pack(d, rank)).collect();
        let header = |wq: &PackedWeights, tag: u64| {
            let mut buf = Vec::new();
            for v in [hidden, n_heads, d] {
                write_u64(&mut buf, v as u64).unwrap();
            }
            wq.write_to(&mut buf).unwrap();
            wo.write_to(&mut buf).unwrap();
            write_u64(&mut buf, tag).unwrap();
            write_u64(&mut buf, rank as u64).unwrap();
            buf
        };
        let err_of = |buf: Vec<u8>| {
            Attention::read_from(&mut buf.as_slice())
                .unwrap_err()
                .to_string()
        };

        // Tag 1, written the way the decoded-key-RoPE format laid it
        // out: q of n_heads * head_dim rows, latent down, then one
        // stacked key and one stacked value up-projection.
        let mut old = header(&wq_old, 1);
        for p in [&wa, &pack(n_heads * d, rank), &pack(n_heads * d, rank)] {
            p.write_to(&mut old).unwrap();
        }
        let err = err_of(old);
        assert!(
            err.contains("tag 1") && err.contains("RoPE-key projection"),
            "{err}"
        );

        // Tag 2 with one projection of the wrong shape at a time.
        let block = |wq: &PackedWeights,
                     wkr: &PackedWeights,
                     wkb0: &PackedWeights,
                     wvb1: &PackedWeights| {
            let mut buf = header(wq, 2);
            wa.write_to(&mut buf).unwrap();
            wkr.write_to(&mut buf).unwrap();
            for p in [wkb0, &wkb[1], &wvb[0], wvb1] {
                p.write_to(&mut buf).unwrap();
            }
            buf
        };
        assert!(Attention::read_from(&mut block(&wq, &wkr, &wkb[0], &wvb[1]).as_slice()).is_ok());
        let wrong = pack(d, d);
        for (what, buf) in [
            (
                "query without its RoPE half",
                block(&wq_old, &wkr, &wkb[0], &wvb[1]),
            ),
            (
                "RoPE-key projection",
                block(&wq, &pack(d / 2, hidden), &wkb[0], &wvb[1]),
            ),
            ("key up-projection", block(&wq, &wkr, &wrong, &wvb[1])),
            ("value up-projection", block(&wq, &wkr, &wkb[0], &wrong)),
        ] {
            assert!(err_of(buf).contains("shapes"), "{what} accepted");
        }
    }

    #[test]
    fn shape_errors_are_reported() {
        let attn = gqa_attn(18);
        let rope = rope();
        let mut c = cache_for(&attn);
        let bad = Matrix::zeros(2, 16).unwrap();
        assert!(attn.forward(&bad, &mut c, &rope, None).is_err());
        let bad_rope = Rope::new(8, 64, 10_000.0);
        let ok = Matrix::zeros(2, 32).unwrap();
        assert!(attn.forward(&ok, &mut c, &bad_rope, None).is_err());
    }
}
