//! Per-sequence KV caches.
//!
//! Grouped-query attention caches roped keys and values per position;
//! MLA caches the compressed per-token latent instead (the memory win
//! that makes DeepSeek's attention GPU-resident even at long contexts).
//! Either way one layer's rows live in a [`PagedKvStore`]: a page table
//! over fixed-size pages from a [`BlockAllocator`].

use crate::paged::{BlockAllocator, PagedKvStore, DEFAULT_PAGE_ROWS};

/// All layers' caches for one sequence.
///
/// Cloning is copy-on-write: the clone references the same pages, and
/// whichever side writes into a shared page first copies it.
#[derive(Debug, Clone)]
pub struct KvCache {
    layers: Vec<PagedKvStore>,
}

impl KvCache {
    /// Builds a standalone cache from per-layer `(k_width, v_width)`
    /// specs: pages of [`DEFAULT_PAGE_ROWS`] positions on a private
    /// unbounded allocator, so `capacity` is the only bound.
    pub fn new(specs: &[(usize, usize)], capacity: usize) -> Self {
        let alloc = BlockAllocator::new(usize::MAX);
        KvCache::new_paged(specs, capacity, &alloc, DEFAULT_PAGE_ROWS)
    }

    /// Builds a cache drawing pages of `page_rows` positions from
    /// `alloc`. `capacity` stays the logical per-sequence limit (the
    /// engine validates it against `max_seq`); actual memory is
    /// allocated page-by-page as positions arrive.
    pub fn new_paged(
        specs: &[(usize, usize)],
        capacity: usize,
        alloc: &BlockAllocator,
        page_rows: usize,
    ) -> Self {
        KvCache {
            layers: specs
                .iter()
                .map(|&(kw, vw)| PagedKvStore::new(kw, vw, capacity, page_rows, alloc))
                .collect(),
        }
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Sequence length (positions cached in layer 0).
    pub fn seq_len(&self) -> usize {
        self.layers.first().map_or(0, PagedKvStore::len)
    }

    /// Mutable access to one layer's store.
    pub fn layer_mut(&mut self, i: usize) -> &mut PagedKvStore {
        &mut self.layers[i]
    }

    /// Shared access to one layer's store.
    pub fn layer(&self, i: usize) -> &PagedKvStore {
        &self.layers[i]
    }

    /// Whether every layer draws `page_rows`-row pages from `alloc` —
    /// what a pool checks before parking a returned cache.
    pub fn is_backed_by(&self, alloc: &BlockAllocator, page_rows: usize) -> bool {
        self.layers.iter().all(|l| l.is_backed_by(alloc, page_rows))
    }

    /// Clears all layers, returning their uniquely-held pages to the
    /// allocator.
    pub fn reset(&mut self) {
        for l in &mut self.layers {
            l.reset();
        }
    }

    /// Pages this cache's page tables currently reference. Shared
    /// pages count once per referencing cache.
    pub fn pages_held(&self) -> usize {
        self.layers.iter().map(|l| l.pages().len()).sum()
    }

    /// Pages only this cache references — what a release actually
    /// returns to the allocator (shared pages just lose a reference).
    pub fn pages_owned(&self) -> usize {
        self.layers.iter().map(PagedKvStore::owned_pages).sum()
    }

    /// Total cached bytes across layers (authoritative rows only).
    pub fn bytes(&self) -> usize {
        self.layers.iter().map(PagedKvStore::bytes).sum()
    }

    /// Total decoded-row memo bytes across layers (reconstructible
    /// scratch, kept separate from [`KvCache::bytes`]).
    pub fn memo_bytes(&self) -> usize {
        self.layers.iter().map(PagedKvStore::memo_bytes).sum()
    }

    /// Bytes kept alive across layers: whole pages plus memo capacity
    /// (see [`PagedKvStore::allocated_bytes`]).
    pub fn allocated_bytes(&self) -> usize {
        self.layers.iter().map(PagedKvStore::allocated_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_layer_cache_tracks_seq_len() {
        let mut kv = KvCache::new(&[(4, 4), (8, 0)], 16);
        assert_eq!(kv.n_layers(), 2);
        assert_eq!(kv.seq_len(), 0);
        kv.layer_mut(0).push(&[0.0; 4], &[0.0; 4]).unwrap();
        kv.layer_mut(1).push(&[0.0; 8], &[]).unwrap();
        assert_eq!(kv.seq_len(), 1);
        assert!(kv.bytes() > 0);
        kv.reset();
        assert_eq!(kv.seq_len(), 0);
    }

    #[test]
    fn standalone_cache_is_bounded_by_capacity_only() {
        // Far more rows than one page, on the private allocator.
        let rows = 5 * DEFAULT_PAGE_ROWS + 3;
        let mut kv = KvCache::new(&[(2, 2)], rows);
        for pos in 0..rows {
            kv.layer_mut(0).push(&[pos as f32; 2], &[0.0; 2]).unwrap();
        }
        assert!(kv.layer_mut(0).push(&[0.0; 2], &[0.0; 2]).is_err());
        assert_eq!(kv.pages_held(), 6);
        assert_eq!(kv.layer(0).k_row(rows - 1), &[(rows - 1) as f32; 2]);
    }

    #[test]
    fn clone_diverges_privately() {
        // Clone semantics are copy-on-write: both sides reference the
        // same partially-filled tail page until one of them writes.
        let mut original = KvCache::new(&[(3, 2), (4, 0)], 64);
        for pos in 0..DEFAULT_PAGE_ROWS + 5 {
            let x = pos as f32;
            original.layer_mut(0).push(&[x, -x, 0.5], &[x; 2]).unwrap();
            original.layer_mut(1).push(&[x * 3.0; 4], &[]).unwrap();
        }
        // Every layer's K and V bits at `pos`.
        let bits = |cache: &KvCache, pos: usize| -> Vec<u32> {
            (0..cache.n_layers())
                .flat_map(|i| {
                    let l = cache.layer(i);
                    l.k_row(pos).iter().chain(l.v_row(pos)).map(|f| f.to_bits())
                })
                .collect()
        };
        let snapshot: Vec<Vec<u32>> =
            (0..original.seq_len()).map(|pos| bits(&original, pos)).collect();

        let mut clone = original.clone();
        assert_eq!(clone.pages_owned(), 0, "every page starts shared");
        // Write past the shared tail page, then on into a fresh page.
        for pos in 0..DEFAULT_PAGE_ROWS {
            clone.layer_mut(0).push(&[9e9; 3], &[9e9; 2]).unwrap();
            clone.layer_mut(1).push(&[9e9; 4], &[]).unwrap();
            assert_eq!(clone.seq_len(), original.seq_len() + pos + 1);
        }

        assert_eq!(original.seq_len(), snapshot.len());
        for (pos, want) in snapshot.iter().enumerate() {
            assert_eq!(
                &bits(&original, pos),
                want,
                "original row {pos} changed under the clone's writes"
            );
        }
        // The original appends into its own tail page in place: the
        // clone's copy-on-write left it the sole holder.
        let held = original.pages_held();
        original.layer_mut(0).push(&[1.0; 3], &[1.0; 2]).unwrap();
        assert_eq!(original.pages_held(), held);
        assert_eq!(clone.layer(0).k_row(snapshot.len()), &[9e9; 3]);
    }
}
