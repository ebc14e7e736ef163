//! Property tests for the chunk-invariance of prefill: feeding a
//! prompt through [`Attention::forward`] in arbitrary chunks (any
//! split, down to one token per call) must produce **bitwise** the
//! same outputs and the same KV-cache state as one monolithic call.
//!
//! This is the model-layer contract the serving scheduler's chunked
//! prefill stands on. It holds structurally: every position-dependent
//! projection goes through the row-stable `gemm_rowwise`, attention
//! scores are per-token loops, and cache appends happen in position
//! order regardless of chunking. Checked for GQA and MLA, for every
//! weight dtype, and for page sizes from one row (every append opens a
//! page) to a single page holding the whole sequence, so chunk and
//! page boundaries fall in every relative position.

use kt_model::attention::Attention;
use kt_model::config::AttentionKind;
use kt_model::paged::{BlockAllocator, PagedKvStore};
use kt_model::rope::Rope;
use kt_tensor::rng::seeded;
use kt_tensor::{Matrix, WeightDtype};
use proptest::prelude::*;

const HIDDEN: usize = 24;
const N_HEADS: usize = 4;
const HEAD_DIM: usize = 8;
const MAX_SEQ: usize = 64;

fn dtype_strategy() -> impl Strategy<Value = WeightDtype> {
    prop_oneof![
        Just(WeightDtype::F32),
        Just(WeightDtype::Bf16),
        Just(WeightDtype::Int8 { group: 8 }),
        Just(WeightDtype::Int4 { group: 8 }),
    ]
}

fn page_rows_strategy() -> impl Strategy<Value = usize> {
    // The last is the single-page case: one contiguous buffer.
    prop_oneof![Just(1), Just(2), Just(3), Just(16), Just(MAX_SEQ)]
}

fn kind_strategy() -> impl Strategy<Value = AttentionKind> {
    prop_oneof![
        Just(AttentionKind::Gqa { kv_heads: 2 }),
        // Rank a multiple of the quant group so Int8/Int4 packing of
        // the per-head value up-projections (k = rank) is valid.
        Just(AttentionKind::Mla { kv_lora_rank: 8 }),
    ]
}

/// Turns proptest-drawn raw cut sizes into an exact cover of `total`.
fn chunks_covering(total: usize, raw: &[usize]) -> Vec<usize> {
    let mut chunks = Vec::new();
    let mut left = total;
    for &c in raw {
        if left == 0 {
            break;
        }
        let take = c.clamp(1, left);
        chunks.push(take);
        left -= take;
    }
    if left > 0 {
        chunks.push(left);
    }
    chunks
}

/// Runs the prompt through `attn` chunk by chunk, returning the
/// row-concatenated outputs.
fn forward_chunked(
    attn: &Attention,
    x: &Matrix,
    cache: &mut PagedKvStore,
    rope: &Rope,
    chunks: &[usize],
) -> Matrix {
    let mut out = Matrix::zeros(x.rows(), HIDDEN).unwrap();
    let mut start = 0;
    for &len in chunks {
        let flat = &x.as_slice()[start * HIDDEN..(start + len) * HIDDEN];
        let chunk = Matrix::from_rows(len, HIDDEN, flat).unwrap();
        let y = attn.forward(&chunk, cache, rope, None).unwrap();
        for t in 0..len {
            out.row_mut(start + t).copy_from_slice(y.row(t));
        }
        start += len;
    }
    assert_eq!(start, x.rows(), "chunks must cover the prompt");
    out
}

/// Asserts two KV stores hold bitwise-identical rows.
fn assert_same_cache(a: &PagedKvStore, b: &PagedKvStore) {
    assert_eq!(a.len(), b.len(), "cache lengths diverged");
    for pos in 0..a.len() {
        assert_eq!(a.k_row(pos), b.k_row(pos), "k row {pos} diverged");
        assert_eq!(a.v_row(pos), b.v_row(pos), "v row {pos} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chunked_prefill_is_bitwise_identical_at_every_page_size(
        seed in 0u64..1000,
        t_total in 1usize..20,
        raw_chunks in proptest::collection::vec(1usize..7, 0..12),
        dtype in dtype_strategy(),
        kind in kind_strategy(),
        page_rows in page_rows_strategy(),
    ) {
        let mut rng = seeded(seed);
        let attn =
            Attention::random(HIDDEN, N_HEADS, HEAD_DIM, kind, dtype, &mut rng).unwrap();
        let rope = Rope::new(HEAD_DIM, MAX_SEQ, 10_000.0);
        let x = Matrix::random_uniform(t_total, HIDDEN, 1.0, &mut rng).unwrap();
        let chunks = chunks_covering(t_total, &raw_chunks);
        let (kw, vw) = attn.cache_spec();
        let alloc = BlockAllocator::new(4 * MAX_SEQ);

        // Monolithic reference on a single page.
        let mut mono_cache = PagedKvStore::new(kw, vw, MAX_SEQ, MAX_SEQ, &alloc);
        let mono = attn.forward(&x, &mut mono_cache, &rope, None).unwrap();

        // Monolithic at the drawn page size: paging alone changes
        // nothing.
        let mut paged_mono = PagedKvStore::new(kw, vw, MAX_SEQ, page_rows, &alloc);
        let paged = attn.forward(&x, &mut paged_mono, &rope, None).unwrap();
        prop_assert_eq!(mono.as_slice(), paged.as_slice(), "page size {} diverged", page_rows);
        assert_same_cache(&mono_cache, &paged_mono);

        // Chunked at the drawn page size: outputs and KV state, bitwise.
        let mut cache = PagedKvStore::new(kw, vw, MAX_SEQ, page_rows, &alloc);
        let chunked = forward_chunked(&attn, &x, &mut cache, &rope, &chunks);
        prop_assert_eq!(
            mono.as_slice(),
            chunked.as_slice(),
            "outputs diverged for chunks {:?} at page size {}",
            &chunks,
            page_rows
        );
        assert_same_cache(&mono_cache, &cache);
        prop_assert_eq!(cache.pages().len(), t_total.div_ceil(page_rows));
    }
}
