//! Property tests for shared-prefix KV reuse: seeding a fresh cache
//! from a frozen prefix snapshot and prefilling only the suffix must
//! produce **bitwise** the same outputs and cache state as a cold full
//! prefill.
//!
//! This is the model-layer contract the serving layer's prefix cache
//! stands on, and it composes with the chunk-invariance contract next
//! door (`chunked_prefill_proptests`): a seeded-then-suffix-prefilled
//! sequence is exactly a cold prefill chunked at the seed boundary,
//! where the first chunk's rows came out of the snapshot instead of
//! being recomputed. Checked for GQA and MLA, for every weight dtype,
//! for page sizes from one row to a single page holding the whole
//! sequence, with prefix lengths that are not page-aligned, and for a
//! lease whose page size differs from the snapshot's (nothing can be
//! shared; every row is copied).
//!
//! A second property pins the eviction policy: whatever insert/lookup
//! sequence runs, resident bytes never exceed the configured budget.

use kt_model::attention::Attention;
use kt_model::config::AttentionKind;
use kt_model::paged::{BlockAllocator, PagedKvStore};
use kt_model::KvCache;
use kt_model::prefix::{PrefixCache, PrefixCacheConfig};
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

/// Asserts two KV stores hold bitwise-identical K/V rows.
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
    fn prefix_seeded_suffix_is_bitwise_identical_to_cold_prefill(
        seed in 0u64..1000,
        t_total in 2usize..20,
        split_raw in 1usize..64,
        dtype in dtype_strategy(),
        kind in kind_strategy(),
        page_sizes in (page_rows_strategy(), page_rows_strategy()),
    ) {
        let (page_rows, lease_page_rows) = page_sizes;
        let m = 1 + split_raw % (t_total - 1); // cached prefix length, 1..t_total
        let mut rng = seeded(seed);
        let attn =
            Attention::random(HIDDEN, N_HEADS, HEAD_DIM, kind, dtype, &mut rng).unwrap();
        let rope = Rope::new(HEAD_DIM, MAX_SEQ, 10_000.0);
        let x = Matrix::random_uniform(t_total, HIDDEN, 1.0, &mut rng).unwrap();
        let spec = attn.cache_spec();
        let tokens: Vec<u32> = (0..t_total).map(|i| ((i as u64 * 13 + seed) % 50) as u32).collect();

        // Cold reference: the whole prompt through a fresh cache.
        let alloc = BlockAllocator::new(8 * MAX_SEQ);
        let mut donor = KvCache::new_paged(&[spec], MAX_SEQ, &alloc, page_rows);
        let cold = attn.forward(&x, donor.layer_mut(0), &rope, None).unwrap();

        // Freeze the first m positions and look the prompt back up.
        let px = PrefixCache::new(PrefixCacheConfig { capacity_bytes: 1 << 20, min_prefix_len: 1 });
        px.insert(&tokens[..m], &donor);
        let mat = px.lookup(&tokens).expect("inserted prefix must hit");
        prop_assert_eq!(mat.len(), m);

        let suffix = Matrix::from_rows(
            t_total - m,
            HIDDEN,
            &x.as_slice()[m * HIDDEN..],
        )
        .unwrap();

        for rows in [page_rows, lease_page_rows] {
            // Seed, prefill the suffix, compare outputs and K/V rows
            // bitwise against the cold run.
            let mut fresh = KvCache::new_paged(&[spec], MAX_SEQ, &alloc, rows);
            mat.seed_into(&mut fresh).unwrap();
            prop_assert_eq!(fresh.seq_len(), m);
            // Whole pages below the (rarely aligned) match length join
            // by reference when the page sizes agree; otherwise, and
            // for the sub-page tail, rows are copied.
            let shared = if rows == page_rows { m / rows } else { 0 };
            prop_assert_eq!(fresh.layer(0).shared_pages(), shared);
            let warm = attn.forward(&suffix, fresh.layer_mut(0), &rope, None).unwrap();
            for t in 0..t_total - m {
                prop_assert_eq!(
                    warm.row(t),
                    cold.row(m + t),
                    "suffix output row {} diverged (split {}/{}, pages {}->{})",
                    t, m, t_total, page_rows, rows
                );
            }
            prop_assert_eq!(fresh.layer(0).shared_pages(), shared, "suffix wrote a shared page");
            assert_same_cache(donor.layer(0), fresh.layer(0));
        }
    }

    #[test]
    fn eviction_never_exceeds_the_byte_budget(
        capacity in 100usize..2000,
        ops in proptest::collection::vec(
            (proptest::collection::vec(0u32..4, 1..9), any::<bool>()),
            1..40,
        ),
    ) {
        // A tiny alphabet forces shared prefixes, edge splits and
        // promotions; the tight budget forces eviction churn (a 2-row
        // page of this shape is 40 bytes).
        let alloc = BlockAllocator::new(1 << 16);
        let px = PrefixCache::new(PrefixCacheConfig {
            capacity_bytes: capacity,
            min_prefix_len: 1,
        });
        for (tokens, is_insert) in &ops {
            if *is_insert {
                let mut donor = KvCache::new_paged(&[(3, 2)], MAX_SEQ, &alloc, 2);
                for (pos, &t) in tokens.iter().enumerate() {
                    let k = [pos as f32, t as f32, 0.5];
                    let v = [t as f32, pos as f32];
                    donor.layer_mut(0).push(&k, &v).unwrap();
                }
                px.insert(tokens, &donor);
            } else {
                let _ = px.lookup(tokens);
            }
            let s = px.stats();
            prop_assert!(
                s.resident_bytes <= capacity as u64,
                "budget exceeded: {} resident under a {} budget",
                s.resident_bytes,
                capacity
            );
            prop_assert_eq!(s.lookups, s.hits + s.misses);
            prop_assert_eq!(s.entries == 0, s.resident_bytes == 0);
        }
        // Every page the index still holds is accounted; dropping the
        // index returns them all.
        px.clear();
        prop_assert_eq!(alloc.allocated_pages(), 0, "pages leaked past the index");
    }
}
