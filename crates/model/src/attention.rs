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
//! * **MLA (latent)** — queries are full-rank, but keys and values are
//!   reconstructed from a per-token compressed latent `c = W_a x` of
//!   rank `kv_lora_rank`; only the latent is cached, shrinking the KV
//!   cache by `2 * n_heads * head_dim / rank`.

use kt_kernels::act::softmax_inplace;
use kt_kernels::gemm::gemm_rowwise;
use kt_kernels::schedule::ThreadPool;
use kt_tensor::{Matrix, PackedWeights, WeightDtype};
use rand::rngs::StdRng;

use crate::config::AttentionKind;
use crate::error::ModelError;
use crate::paged::PagedKvStore;
use crate::rope::Rope;

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
        /// Key up-projection, `n_heads * head_dim x rank`.
        wkb: PackedWeights,
        /// Value up-projection, `n_heads * head_dim x rank`.
        wvb: PackedWeights,
        rank: usize,
    },
}

/// One attention block.
#[derive(Debug, Clone)]
pub struct Attention {
    hidden: usize,
    n_heads: usize,
    head_dim: usize,
    /// Query projection, `n_heads * head_dim x hidden`.
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
        let pack = |rows: usize, cols: usize, rng: &mut StdRng| -> Result<PackedWeights, ModelError> {
            let m = Matrix::random_kaiming(rows, cols, rng)?;
            Ok(PackedWeights::pack(&m, dtype)?)
        };
        let wq = pack(qdim, hidden, rng)?;
        let wo = pack(hidden, qdim, rng)?;
        let kv = match kind {
            AttentionKind::Gqa { kv_heads } => {
                if kv_heads == 0 || !n_heads.is_multiple_of(kv_heads) {
                    return Err(ModelError::config(format!(
                        "kv_heads {kv_heads} must divide n_heads {n_heads}"
                    )));
                }
                KvProj::Gqa {
                    wk: pack(kv_heads * head_dim, hidden, rng)?,
                    wv: pack(kv_heads * head_dim, hidden, rng)?,
                    kv_heads,
                }
            }
            AttentionKind::Mla { kv_lora_rank } => {
                if kv_lora_rank == 0 {
                    return Err(ModelError::config("kv_lora_rank must be nonzero"));
                }
                KvProj::Mla {
                    wa: pack(kv_lora_rank, hidden, rng)?,
                    wkb: pack(qdim, kv_lora_rank, rng)?,
                    wvb: pack(qdim, kv_lora_rank, rng)?,
                    rank: kv_lora_rank,
                }
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
                write_u64(w, 0)?;
                write_u64(w, *kv_heads as u64)?;
                wk.write_to(w)?;
                wv.write_to(w)?;
            }
            KvProj::Mla { wa, wkb, wvb, rank } => {
                write_u64(w, 1)?;
                write_u64(w, *rank as u64)?;
                wa.write_to(w)?;
                wkb.write_to(w)?;
                wvb.write_to(w)?;
            }
        }
        Ok(())
    }

    /// Deserializes a block written by [`Attention::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Exec`] on corrupt input.
    pub fn read_from(r: &mut impl std::io::Read) -> Result<Self, ModelError> {
        use kt_tensor::serial::{read_len, read_u64, MAX_ELEMS};
        let hidden = read_len(r, MAX_ELEMS)?;
        let n_heads = read_len(r, MAX_ELEMS)?;
        let head_dim = read_len(r, MAX_ELEMS)?;
        let wq = PackedWeights::read_from(r)?;
        let wo = PackedWeights::read_from(r)?;
        let kv = match read_u64(r)? {
            0 => {
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
            1 => {
                let rank = read_len(r, MAX_ELEMS)?;
                KvProj::Mla {
                    wa: PackedWeights::read_from(r)?,
                    wkb: PackedWeights::read_from(r)?,
                    wvb: PackedWeights::read_from(r)?,
                    rank,
                }
            }
            other => return Err(ModelError::exec(format!("unknown attention tag {other}"))),
        };
        let qdim = n_heads * head_dim;
        if wq.n() != qdim || wq.k() != hidden || wo.n() != hidden || wo.k() != qdim {
            return Err(ModelError::exec("corrupt attention projection shapes"));
        }
        match &kv {
            KvProj::Gqa { wk, wv, kv_heads } => {
                let kvdim = kv_heads * head_dim;
                if wk.n() != kvdim || wk.k() != hidden || wv.n() != kvdim || wv.k() != hidden {
                    return Err(ModelError::exec("corrupt GQA projection shapes"));
                }
            }
            KvProj::Mla { wa, wkb, wvb, rank } => {
                if wa.n() != *rank
                    || wa.k() != hidden
                    || wkb.n() != qdim
                    || wkb.k() != *rank
                    || wvb.n() != qdim
                    || wvb.k() != *rank
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

    /// `(k_width, v_width)` the layer cache must be built with.
    pub fn cache_spec(&self) -> (usize, usize) {
        match &self.kv {
            KvProj::Gqa { kv_heads, .. } => {
                (kv_heads * self.head_dim, kv_heads * self.head_dim)
            }
            KvProj::Mla { rank, .. } => (*rank, 0),
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
        let qdim = self.n_heads * self.head_dim;

        // Project queries for all new tokens and rope them.
        let mut q = Matrix::zeros(t_new, qdim)?;
        gemm_rowwise(x, &self.wq, &mut q, pool)?;
        for t in 0..t_new {
            rope.apply_multihead(q.row_mut(t), start + t);
        }

        // Append new positions to the cache.
        match &self.kv {
            KvProj::Gqa { wk, wv, kv_heads } => {
                let kvdim = kv_heads * self.head_dim;
                let mut k = Matrix::zeros(t_new, kvdim)?;
                let mut v = Matrix::zeros(t_new, kvdim)?;
                gemm_rowwise(x, wk, &mut k, pool)?;
                gemm_rowwise(x, wv, &mut v, pool)?;
                for t in 0..t_new {
                    rope.apply_multihead(k.row_mut(t), start + t);
                    cache.push(k.row(t), v.row(t))?;
                }
            }
            KvProj::Mla { wa, rank, .. } => {
                let mut c = Matrix::zeros(t_new, *rank)?;
                gemm_rowwise(x, wa, &mut c, pool)?;
                for t in 0..t_new {
                    cache.push(c.row(t), &[])?;
                }
            }
        }

        // K/V rows for the whole visible context. GQA rows are cached
        // in final form; MLA reconstructs full-head K/V from cached
        // latents (the non-absorbed path) and ropes keys at their
        // original positions — but each position is decoded **once**,
        // into the store's decoded-row memo, instead of the whole
        // context being re-materialized every step. Per-position
        // results are bitwise identical either way: every projection
        // here goes through `gemm_rowwise`, so a row decoded alone
        // carries exactly the bits it would carry inside any batch —
        // the invariant that makes chunked prefill (any split of the
        // prompt into per-step chunks) bit-identical to a monolithic
        // prefill.
        let total = cache.len();
        if let KvProj::Mla { wkb, wvb, rank, .. } = &self.kv {
            cache.memo_ensure(2 * qdim);
            let from = cache.memo_len();
            if from < total {
                let missing = total - from;
                let mut lat = Matrix::zeros(missing, *rank)?;
                for i in 0..missing {
                    lat.row_mut(i).copy_from_slice(cache.k_row(from + i));
                }
                let mut dk = Matrix::zeros(missing, qdim)?;
                let mut dv = Matrix::zeros(missing, qdim)?;
                gemm_rowwise(&lat, wkb, &mut dk, pool)?;
                gemm_rowwise(&lat, wvb, &mut dv, pool)?;
                let mut row = vec![0.0f32; 2 * qdim];
                for i in 0..missing {
                    rope.apply_multihead(dk.row_mut(i), from + i);
                    row[..qdim].copy_from_slice(dk.row(i));
                    row[qdim..].copy_from_slice(dv.row(i));
                    cache.memo_push(&row)?;
                }
            }
        }
        // Resolve every visible position's K/V slices once, up front:
        // the scores loop touches each position `n_heads` times per
        // query row, and a per-touch lookup would pay a page-table
        // walk every time. GQA reads cached rows; MLA reads the memo's
        // decoded `key ‖ value` rows.
        let cache = &*cache;
        let (krows, vrows, kv_heads_eff): (Vec<&[f32]>, Vec<&[f32]>, usize) = match &self.kv {
            KvProj::Gqa { kv_heads, .. } => (
                (0..total).map(|pos| cache.k_row(pos)).collect(),
                (0..total).map(|pos| cache.v_row(pos)).collect(),
                *kv_heads,
            ),
            KvProj::Mla { .. } => (
                (0..total).map(|pos| &cache.memo_row(pos)[..qdim]).collect(),
                (0..total).map(|pos| &cache.memo_row(pos)[qdim..]).collect(),
                self.n_heads,
            ),
        };

        // Scaled dot-product attention with causal masking. The score
        // buffer is sized once for the longest visible prefix and
        // sliced per token.
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let group = self.n_heads / kv_heads_eff;
        let mut ctx = Matrix::zeros(t_new, qdim)?;
        let mut scores_buf = vec![0.0f32; total];
        for t in 0..t_new {
            let visible = start + t + 1;
            let qrow = q.row(t);
            let scores = &mut scores_buf[..visible];
            for h in 0..self.n_heads {
                let kvh = h / group;
                let qh = &qrow[h * self.head_dim..(h + 1) * self.head_dim];
                for (pos, s) in scores.iter_mut().enumerate() {
                    let kh = &krows[pos][kvh * self.head_dim..(kvh + 1) * self.head_dim];
                    *s = qh.iter().zip(kh).map(|(a, b)| a * b).sum::<f32>() * scale;
                }
                softmax_inplace(scores);
                let out = &mut ctx.row_mut(t)[h * self.head_dim..(h + 1) * self.head_dim];
                for (pos, &w) in scores.iter().enumerate() {
                    let vh = &vrows[pos][kvh * self.head_dim..(kvh + 1) * self.head_dim];
                    for (o, &vv) in out.iter_mut().zip(vh) {
                        *o += w * vv;
                    }
                }
            }
        }

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paged::BlockAllocator;
    use kt_tensor::rng::seeded;

    fn rope() -> Rope {
        Rope::new(16, 128, 10_000.0)
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

    fn mla_attn(seed: u64) -> Attention {
        let mut rng = seeded(seed);
        Attention::random(
            32,
            4,
            16,
            AttentionKind::Mla { kv_lora_rank: 8 },
            WeightDtype::F32,
            &mut rng,
        )
        .unwrap()
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
        // GQA: 2 sides x 2 kv_heads x 16 dims; MLA: rank 8 latent only.
        assert!(cm.bytes() < cg.bytes() / 4);
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
        let attn = mla_attn(16);
        let mut rng = seeded(17);
        let x = Matrix::random_uniform(5, 32, 1.0, &mut rng).unwrap();
        let rope = rope();
        let pool = kt_kernels::ThreadPool::new(3).unwrap();
        let mut c1 = cache_for(&attn);
        let mut c2 = cache_for(&attn);
        let y1 = attn.forward(&x, &mut c1, &rope, None).unwrap();
        let y2 = attn.forward(&x, &mut c2, &rope, Some(&pool)).unwrap();
        let err = y1.relative_error(&y2);
        assert!(err < 1e-5, "err={err}");
    }

    #[test]
    fn page_size_is_pure_placement() {
        // Attention over 3-row pages must equal attention over one
        // page holding the whole sequence, bit for bit.
        for attn in [gqa_attn(21), mla_attn(23)] {
            let mut small = cache_with_pages(&attn, 3);
            let mut single = cache_with_pages(&attn, 128);
            let mut rng = seeded(22);
            let rope = rope();
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

    #[test]
    fn mla_memo_matches_full_rematerialization() {
        // The memo decodes each position once, in whatever batches the
        // steps happened to bring. Re-materializing the whole context
        // in one batch from the cached latents must give the same
        // rows **bitwise** — per-row decode carries exactly the bits
        // of the batched decode (independent row accumulators, single
        // k-block).
        let attn = mla_attn(41);
        let KvProj::Mla { wkb, wvb, rank, .. } = &attn.kv else {
            unreachable!("mla_attn builds MLA")
        };
        let qdim = attn.n_heads * attn.head_dim;
        let mut cache = cache_for(&attn);
        let mut rng = seeded(42);
        let rope = rope();
        let check = |cache: &PagedKvStore| {
            let total = cache.len();
            assert_eq!(cache.memo_len(), total, "memo covers every position");
            let mut lat = Matrix::zeros(total, *rank).unwrap();
            for pos in 0..total {
                lat.row_mut(pos).copy_from_slice(cache.k_row(pos));
            }
            let mut keys = Matrix::zeros(total, qdim).unwrap();
            let mut values = Matrix::zeros(total, qdim).unwrap();
            gemm_rowwise(&lat, wkb, &mut keys, None).unwrap();
            gemm_rowwise(&lat, wvb, &mut values, None).unwrap();
            for pos in 0..total {
                rope.apply_multihead(keys.row_mut(pos), pos);
                assert_eq!(&cache.memo_row(pos)[..qdim], keys.row(pos), "key {pos}");
                assert_eq!(&cache.memo_row(pos)[qdim..], values.row(pos), "value {pos}");
            }
        };
        let prompt = Matrix::random_uniform(6, 32, 1.0, &mut rng).unwrap();
        attn.forward(&prompt, &mut cache, &rope, None).unwrap();
        check(&cache);
        for _ in 0..5 {
            let one = Matrix::random_uniform(1, 32, 1.0, &mut rng).unwrap();
            attn.forward(&one, &mut cache, &rope, None).unwrap();
            check(&cache);
        }
    }

    #[test]
    fn mla_memo_rebuild_after_drop_is_bit_identical() {
        // A cache whose memo was dropped (placement changes discard
        // scratch) is healed in one batched decode that must produce
        // exactly the bits the incremental per-step decode produced.
        let attn = mla_attn(43);
        let mut rng = seeded(44);
        let rope = rope();
        let x = Matrix::random_uniform(5, 32, 1.0, &mut rng).unwrap();
        let mut c1 = cache_for(&attn);
        attn.forward(&x, &mut c1, &rope, None).unwrap();
        let mut c2 = c1.clone();
        // Reconfiguring the width clears the decoded rows; the next
        // forward rebuilds all positions in one batch.
        c2.memo_ensure(1);
        let step = Matrix::random_uniform(1, 32, 1.0, &mut rng).unwrap();
        let y1 = attn.forward(&step, &mut c1, &rope, None).unwrap();
        let y2 = attn.forward(&step, &mut c2, &rope, None).unwrap();
        assert_eq!(y1.as_slice(), y2.as_slice());
    }

    #[test]
    fn serialization_round_trips_both_variants() {
        for attn in [gqa_attn(31), mla_attn(32)] {
            let mut buf = Vec::new();
            attn.write_to(&mut buf).unwrap();
            let loaded = Attention::read_from(&mut buf.as_slice()).unwrap();
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
