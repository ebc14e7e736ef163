//! Property tests for the paged KV store: the block allocator's
//! page accounting must stay exact under arbitrary allocate / clone /
//! drop churn (no double-free, no leak — a page returns to the pool
//! exactly when its last reference drops), stores sharing pages must
//! never observe each other's writes (copy-on-write isolates every
//! mutation of a shared page), and a full churn of push / share /
//! reset across many stores must keep every store's readable rows
//! equal to an independently tracked shadow model.

use kt_model::paged::{BlockAllocator, PageData, PagedKvStore};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

const KW: usize = 3;
const VW: usize = 2;

/// Distinct live pages across every holder list.
fn live(holders: &[&[Arc<PageData>]]) -> usize {
    let set: HashSet<*const PageData> = holders
        .iter()
        .flat_map(|h| h.iter())
        .map(Arc::as_ptr)
        .collect();
    set.len()
}

proptest! {
    #[test]
    fn allocator_churn_never_double_frees_or_leaks(
        total in 1usize..10,
        ops in proptest::collection::vec(
            (0u8..4, 0usize..16), 1..60
        ),
    ) {
        let alloc = BlockAllocator::new(total);
        let mut held: Vec<Arc<PageData>> = Vec::new();
        let mut clones: Vec<Arc<PageData>> = Vec::new();
        for (op, pick) in ops {
            match op {
                // Allocate (or observe a correctly reported exhaustion).
                0 | 1 => match alloc.try_page(KW, VW, 4) {
                    Some(p) => held.push(p),
                    None => prop_assert_eq!(
                        live(&[&held, &clones]),
                        total,
                        "refused a page while some were free"
                    ),
                },
                // Add a second reference to a held page (a frozen
                // prefix segment or a sharing lessee would hold one).
                2 if !held.is_empty() => {
                    clones.push(Arc::clone(&held[pick % held.len()]));
                }
                // Drop one reference from either side.
                _ if !clones.is_empty() && pick % 2 == 0 => {
                    clones.swap_remove(pick % clones.len());
                }
                _ if !held.is_empty() => {
                    held.swap_remove(pick % held.len());
                }
                _ => {}
            }
            // The allocator's count equals the number of distinct
            // pages actually alive — dropping a clone of a still-held
            // page must not free it (double-free), dropping the last
            // reference must (leak).
            let s = alloc.stats();
            prop_assert_eq!(s.allocated, live(&[&held, &clones]));
            prop_assert_eq!(s.allocated + s.free, total);
            prop_assert_eq!(s.alloc_total - s.freed_total, s.allocated as u64);
        }
        held.clear();
        clones.clear();
        let s = alloc.stats();
        prop_assert_eq!(s.allocated, 0, "pages leaked after dropping all refs");
        prop_assert_eq!(s.free, total);
        prop_assert_eq!(s.alloc_total, s.freed_total);
    }

    #[test]
    fn store_churn_matches_shadow_model_and_conserves_pages(
        page_rows in 1usize..5,
        ops in proptest::collection::vec(
            (0u8..6, 0usize..4, 0usize..4, 0usize..8), 1..80
        ),
    ) {
        const N_STORES: usize = 4;
        let alloc = BlockAllocator::new(24);
        let mut stores: Vec<PagedKvStore> = (0..N_STORES)
            .map(|_| PagedKvStore::new(KW, VW, 6 * page_rows, page_rows, &alloc))
            .collect();
        // Shadow model: the scalar each readable row must hold
        // (rows shared out of a partially filled tail read as the
        // allocator's zero fill).
        let mut model: Vec<Vec<f32>> = vec![Vec::new(); N_STORES];
        let mut salt = 0.0f32;

        for (op, a, b, page) in ops {
            let (a, b) = (a % N_STORES, b % N_STORES);
            match op {
                // Push one row into store `a`.
                0..=2 => {
                    salt += 1.0;
                    match stores[a].push(&[salt; KW], &[-salt; VW]) {
                        Ok(()) => model[a].push(salt),
                        // Pool exhausted or store at capacity: the
                        // failed push must not have grown the store.
                        Err(_) => prop_assert_eq!(stores[a].len(), model[a].len()),
                    }
                }
                // Share one of `a`'s pages into `b` (page-aligned
                // target only; the donor page may be a partially
                // filled tail, whose unwritten rows read as zero).
                3 | 4 if a != b => {
                    let n_pages = stores[a].pages().len();
                    if n_pages == 0
                        || !stores[b].len().is_multiple_of(page_rows)
                        || stores[b].len() + page_rows > stores[b].capacity()
                    {
                        continue;
                    }
                    let idx = page % n_pages;
                    let shared = Arc::clone(&stores[a].pages()[idx]);
                    stores[b].share_page(&shared).unwrap();
                    let donated: Vec<f32> = (0..page_rows)
                        .map(|r| {
                            model[a].get(idx * page_rows + r).copied().unwrap_or(0.0)
                        })
                        .collect();
                    model[b].extend(donated);
                }
                // Reset a store: its uniquely held pages go back.
                5 => {
                    stores[a].reset();
                    model[a].clear();
                }
                _ => {}
            }
            // Conservation: the allocator's live count is exactly the
            // distinct pages reachable from the stores.
            let tables: Vec<&[Arc<PageData>]> =
                stores.iter().map(|s| s.pages()).collect();
            prop_assert_eq!(alloc.allocated_pages(), live(&tables));
            // Isolation: every store reads back its own shadow model —
            // a write that leaked through a shared page (missed
            // copy-on-write) or a copy that dropped rows would show up
            // here as a foreign or stale scalar.
            for (s, m) in stores.iter().zip(&model) {
                prop_assert_eq!(s.len(), m.len());
                for (pos, &want) in m.iter().enumerate() {
                    prop_assert_eq!(s.k_row(pos), &[want; KW][..]);
                    prop_assert_eq!(s.v_row(pos), &[-want; VW][..]);
                }
            }
        }
        for s in &mut stores {
            s.reset();
        }
        prop_assert_eq!(alloc.allocated_pages(), 0, "reset leaked pages");
    }

    #[test]
    fn cow_write_never_reaches_a_shared_page(
        page_rows in 2usize..6,
        fill in 1usize..5,
    ) {
        // Fill part of the first page, then freeze a second reference
        // to it (what a prefix segment holds). The next push lands in
        // that page and must copy-on-write: the frozen reference keeps
        // its bits — including the zero fill past `fill` — bit for bit.
        let fill = fill.min(page_rows - 1);
        let alloc = BlockAllocator::new(4);
        let mut store = PagedKvStore::new(KW, VW, 4 * page_rows, page_rows, &alloc);
        for i in 0..fill {
            let v = (i + 1) as f32;
            store.push(&[v; KW], &[-v; VW]).unwrap();
        }
        let frozen = Arc::clone(&store.pages()[0]);
        let before = alloc.allocated_pages();

        store.push(&[99.0; KW], &[-99.0; VW]).unwrap();

        // The write went to a private copy, not the frozen page.
        prop_assert!(
            !Arc::ptr_eq(&frozen, &store.pages()[0]),
            "store still writes the shared page"
        );
        prop_assert_eq!(alloc.allocated_pages(), before + 1);
        for r in 0..page_rows {
            let want = if r < fill { (r + 1) as f32 } else { 0.0 };
            prop_assert_eq!(frozen.k_row(r), &[want; KW][..]);
            prop_assert_eq!(frozen.v_row(r), &[-want; VW][..]);
        }
        prop_assert_eq!(store.k_row(fill), &[99.0; KW][..]);
        // Dropping the frozen reference frees exactly one page.
        drop(frozen);
        prop_assert_eq!(alloc.allocated_pages(), before);
        store.reset();
        prop_assert_eq!(alloc.allocated_pages(), 0);
    }
}
