//! Paged KV storage: fixed-size pages behind a block allocator.
//!
//! KV state lives in fixed-size **pages** of
//! [`PagedKvStore::page_rows`] positions, allocated on demand from a
//! shared [`BlockAllocator`], so a sequence holds exactly
//! `ceil(len / page_rows)` pages per layer and admission can count
//! *pages actually needed* instead of reserving `max_seq` positions
//! per sequence.
//!
//! Pages are ref-counted (`Arc<PageData>`) and immutable-once-shared:
//!
//! * a store that uniquely owns a page writes into it in place;
//! * a page whose `Arc` is held elsewhere (a prefix-cache segment,
//!   another lease seeded from the same prefix, a clone of the store)
//!   is **copy-on-write**: the first divergent write clones the page
//!   into a fresh private one from the allocator and replaces the
//!   shared reference.
//!
//! Accounting is by construction rather than by convention: every
//! `PageData` holds a weak handle to its allocator and returns itself
//! on [`Drop`], so a page can never be double-freed (drop runs once)
//! and a leak is exactly an `Arc` that somebody still holds —
//! observable as `allocated > 0` in [`BlockAllocator::stats`] after
//! every holder is gone.
//!
//! The decoded-row memo (MLA) is a flat per-store scratch buffer, not
//! page-backed: it is reconstructible from the authoritative rows
//! bit-for-bit (the engine proves this), is dropped on every placement
//! change anyway, and therefore never needs to be shared or swapped.
//! It is excluded from [`PagedKvStore::bytes`].
//!
//! [`SwappedKv`] is the preemption tier: a flat, offloaded copy of a
//! whole cache's authoritative rows. Swap-out reads the rows and
//! swap-in pushes them back, so the round trip is bitwise exact.

use std::sync::{Arc, Mutex, Weak};

use crate::error::ModelError;
use crate::kvcache::KvCache;

/// Default page size in positions (rows per page).
pub const DEFAULT_PAGE_ROWS: usize = 16;

/// Point-in-time allocator occupancy and traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageStats {
    /// Pages the allocator may hand out in total.
    pub total: usize,
    /// Pages currently live (some `Arc<PageData>` exists).
    pub allocated: usize,
    /// Pages still available (`total - allocated`).
    pub free: usize,
    /// High-water mark of live pages.
    pub peak: usize,
    /// Live pages referenced from more than one place (prefix-shared
    /// or mid-copy-on-write). The raw allocator cannot enumerate page
    /// references (a `Weak` registry would defeat `Arc::get_mut`'s
    /// uniqueness test and force copy-on-write on every in-place
    /// append), so this is 0 in [`BlockAllocator::stats`] and filled
    /// by holders that can — [`crate::pool::KvCachePool::page_stats`]
    /// counts the prefix index's multiply-referenced pages.
    pub shared: usize,
    /// Pages ever allocated (monotonic).
    pub alloc_total: u64,
    /// Pages ever returned (monotonic; `alloc_total - freed_total ==
    /// allocated` at any quiescent point).
    pub freed_total: u64,
    /// Allocation requests refused because the pool was exhausted.
    pub exhausted_total: u64,
}

struct AllocState {
    allocated: usize,
    peak: usize,
    alloc_total: u64,
    freed_total: u64,
    exhausted_total: u64,
}

struct AllocInner {
    total: usize,
    state: Mutex<AllocState>,
}

/// One fixed-size KV page: `rows` positions of one layer's K and V
/// rows. Shared by `Arc`; returns itself to its allocator on drop.
pub struct PageData {
    k: Vec<f32>,
    v: Vec<f32>,
    k_width: usize,
    v_width: usize,
    rows: usize,
    alloc: Weak<AllocInner>,
}

impl PageData {
    /// Key row `r` (page-local, `r < rows`).
    pub fn k_row(&self, r: usize) -> &[f32] {
        &self.k[r * self.k_width..(r + 1) * self.k_width]
    }

    /// Value row `r` (page-local).
    pub fn v_row(&self, r: usize) -> &[f32] {
        &self.v[r * self.v_width..(r + 1) * self.v_width]
    }

    /// Positions this page holds.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Key-row width in floats.
    pub fn k_width(&self) -> usize {
        self.k_width
    }

    /// Value-row width in floats.
    pub fn v_width(&self) -> usize {
        self.v_width
    }

    /// Bytes of KV state this page stores.
    pub fn bytes(&self) -> usize {
        (self.k.len() + self.v.len()) * std::mem::size_of::<f32>()
    }

    fn write_row(&mut self, r: usize, k_row: &[f32], v_row: &[f32]) {
        self.k[r * self.k_width..(r + 1) * self.k_width].copy_from_slice(k_row);
        self.v[r * self.v_width..(r + 1) * self.v_width].copy_from_slice(v_row);
    }
}

impl std::fmt::Debug for PageData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageData")
            .field("rows", &self.rows)
            .field("k_width", &self.k_width)
            .field("v_width", &self.v_width)
            .finish()
    }
}

impl Drop for PageData {
    fn drop(&mut self) {
        if let Some(alloc) = self.alloc.upgrade() {
            let mut st = alloc.state.lock().unwrap_or_else(|e| e.into_inner());
            st.allocated = st.allocated.saturating_sub(1);
            st.freed_total += 1;
        }
    }
}

/// A bounded, thread-safe pool of KV pages. Cheap to clone (handles
/// share one pool). Pages are freed by dropping their last `Arc`, so
/// accounting is exact however many stores, prefix segments, or
/// in-flight seedings share a page.
#[derive(Clone)]
pub struct BlockAllocator {
    inner: Arc<AllocInner>,
}

impl BlockAllocator {
    /// Creates a pool of `total_pages` pages.
    pub fn new(total_pages: usize) -> Self {
        BlockAllocator {
            inner: Arc::new(AllocInner {
                total: total_pages,
                state: Mutex::new(AllocState {
                    allocated: 0,
                    peak: 0,
                    alloc_total: 0,
                    freed_total: 0,
                    exhausted_total: 0,
                }),
            }),
        }
    }

    /// Allocates one zeroed page, or `None` when the pool is
    /// exhausted (the admission/preemption signal).
    pub fn try_page(
        &self,
        k_width: usize,
        v_width: usize,
        page_rows: usize,
    ) -> Option<Arc<PageData>> {
        let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.allocated >= self.inner.total {
            st.exhausted_total += 1;
            return None;
        }
        st.allocated += 1;
        st.peak = st.peak.max(st.allocated);
        st.alloc_total += 1;
        let page = Arc::new(PageData {
            k: vec![0.0; k_width * page_rows],
            v: vec![0.0; v_width * page_rows],
            k_width,
            v_width,
            rows: page_rows,
            alloc: Arc::downgrade(&self.inner),
        });
        Some(page)
    }

    /// Pages the pool may hand out in total.
    pub fn total_pages(&self) -> usize {
        self.inner.total
    }

    /// Pages currently live.
    pub fn allocated_pages(&self) -> usize {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .allocated
    }

    /// Pages still available.
    pub fn free_pages(&self) -> usize {
        self.inner.total - self.allocated_pages()
    }

    /// Occupancy snapshot. `shared` is 0 here — see [`PageStats::shared`]
    /// for who fills it.
    pub fn stats(&self) -> PageStats {
        let st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        PageStats {
            total: self.inner.total,
            allocated: st.allocated,
            free: self.inner.total - st.allocated,
            peak: st.peak,
            shared: 0,
            alloc_total: st.alloc_total,
            freed_total: st.freed_total,
            exhausted_total: st.exhausted_total,
        }
    }
}

impl std::fmt::Debug for BlockAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("BlockAllocator")
            .field("total", &s.total)
            .field("allocated", &s.allocated)
            .field("shared", &s.shared)
            .finish()
    }
}

/// One layer's KV state as a page table over allocator pages: what
/// attention needs from a cache. Rows are positions and stay contiguous
/// within a page; `k_width`/`v_width` depend on the attention kind
/// (GQA: `kv_heads * head_dim` each; MLA: latent rank and 0).
#[derive(Debug, Clone)]
pub struct PagedKvStore {
    pages: Vec<Arc<PageData>>,
    len: usize,
    k_width: usize,
    v_width: usize,
    page_rows: usize,
    capacity: usize,
    alloc: BlockAllocator,
    /// Decoded-row memo (see [`PagedKvStore::memo_ensure`]): flat
    /// scratch, never paged or shared (see the module docs).
    memo: Vec<f32>,
    memo_width: usize,
}

impl PagedKvStore {
    /// Creates an empty paged store drawing pages from `alloc`.
    pub fn new(
        k_width: usize,
        v_width: usize,
        capacity: usize,
        page_rows: usize,
        alloc: &BlockAllocator,
    ) -> Self {
        assert!(page_rows > 0, "page_rows must be nonzero");
        PagedKvStore {
            pages: Vec::new(),
            len: 0,
            k_width,
            v_width,
            page_rows,
            capacity,
            alloc: alloc.clone(),
            memo: Vec::new(),
            memo_width: 0,
        }
    }

    /// Positions per page.
    pub fn page_rows(&self) -> usize {
        self.page_rows
    }

    /// The page table (for freezing into prefix segments).
    pub fn pages(&self) -> &[Arc<PageData>] {
        &self.pages
    }

    /// Pages whose only reference is this store (the pages a release
    /// actually returns to the allocator; shared pages just lose one
    /// reference).
    pub fn owned_pages(&self) -> usize {
        self.pages
            .iter()
            .filter(|p| Arc::strong_count(p) == 1)
            .count()
    }

    /// Pages currently shared with another holder.
    pub fn shared_pages(&self) -> usize {
        self.pages.len() - self.owned_pages()
    }

    /// Whether this store draws `page_rows`-row pages from `alloc`
    /// (the same pool, not merely an equal one).
    pub fn is_backed_by(&self, alloc: &BlockAllocator, page_rows: usize) -> bool {
        self.page_rows == page_rows && Arc::ptr_eq(&self.alloc.inner, &alloc.inner)
    }

    /// Appends one *full* shared page by reference (the zero-copy half
    /// of prefix seeding). Sharing is page-aligned by construction: a
    /// page joins whole at a page boundary or not at all, so a shared
    /// page is never split mid-page and appends after it always start
    /// a fresh private page.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Exec`] when the store's length is not
    /// page-aligned, the page's shape does not match, or the page
    /// would exceed capacity.
    pub fn share_page(&mut self, page: &Arc<PageData>) -> Result<(), ModelError> {
        if !self.len.is_multiple_of(self.page_rows) {
            return Err(ModelError::exec(format!(
                "shared pages must land on a page boundary (len {} % {} != 0)",
                self.len, self.page_rows
            )));
        }
        if page.k_width != self.k_width
            || page.v_width != self.v_width
            || page.rows != self.page_rows
        {
            return Err(ModelError::exec(format!(
                "shared page shape {}x{}/{} does not match store {}x{}/{}",
                page.k_width, page.v_width, page.rows, self.k_width, self.v_width, self.page_rows
            )));
        }
        if self.len + self.page_rows > self.capacity {
            return Err(ModelError::exec(format!(
                "shared page would exceed capacity {}",
                self.capacity
            )));
        }
        self.pages.push(Arc::clone(page));
        self.len += self.page_rows;
        Ok(())
    }

    /// Mutable access to page `idx`, cloning it first when shared
    /// (copy-on-write): the write then lands in a private page and the
    /// shared original keeps its bits.
    fn page_mut(&mut self, idx: usize) -> Result<&mut PageData, ModelError> {
        if Arc::get_mut(&mut self.pages[idx]).is_none() {
            let mut fresh = self
                .alloc
                .try_page(self.k_width, self.v_width, self.page_rows)
                .ok_or_else(|| ModelError::exec("KV page pool exhausted during copy-on-write"))?;
            {
                let dst = Arc::get_mut(&mut fresh).expect("fresh page is unshared");
                dst.k.copy_from_slice(&self.pages[idx].k);
                dst.v.copy_from_slice(&self.pages[idx].v);
            }
            self.pages[idx] = fresh;
        }
        Ok(Arc::get_mut(&mut self.pages[idx]).expect("page made unique above"))
    }

    /// Clears the store, returning every uniquely-held page to the
    /// allocator (shared pages just lose this store's reference).
    pub fn reset(&mut self) {
        self.pages.clear();
        self.len = 0;
        self.memo.clear();
    }

    /// Bytes of authoritative rows currently cached — the state that
    /// must persist or transfer on placement changes. Unused page
    /// tails and the memo are excluded.
    pub fn bytes(&self) -> usize {
        self.len * (self.k_width + self.v_width) * std::mem::size_of::<f32>()
    }

    /// Bytes held by this store's page references and memo, counting
    /// whole pages (what the store keeps alive in the pool).
    pub fn allocated_bytes(&self) -> usize {
        self.pages.iter().map(|p| p.bytes()).sum::<usize>()
            + self.memo.capacity() * std::mem::size_of::<f32>()
    }

    /// Bytes held by the decoded-row memo.
    pub fn memo_bytes(&self) -> usize {
        self.memo.len() * std::mem::size_of::<f32>()
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no positions are cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Key (or latent) row width in floats.
    pub fn k_width(&self) -> usize {
        self.k_width
    }

    /// Value row width in floats.
    pub fn v_width(&self) -> usize {
        self.v_width
    }

    /// Maximum positions this store will accept.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends one position.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Exec`] when full, on width mismatch, or
    /// when the allocator has no page left; a failed push changes
    /// nothing.
    pub fn push(&mut self, k_row: &[f32], v_row: &[f32]) -> Result<(), ModelError> {
        if self.len >= self.capacity {
            return Err(ModelError::exec(format!(
                "KV cache full at {} positions",
                self.capacity
            )));
        }
        if k_row.len() != self.k_width || v_row.len() != self.v_width {
            return Err(ModelError::exec(format!(
                "cache row widths {}/{} do not match {}/{}",
                k_row.len(),
                v_row.len(),
                self.k_width,
                self.v_width
            )));
        }
        let r = self.len % self.page_rows;
        if r == 0 {
            let page = self
                .alloc
                .try_page(self.k_width, self.v_width, self.page_rows)
                .ok_or_else(|| ModelError::exec("KV page pool exhausted"))?;
            self.pages.push(page);
        }
        let idx = self.len / self.page_rows;
        self.page_mut(idx)?.write_row(r, k_row, v_row);
        self.len += 1;
        Ok(())
    }

    /// Key (or latent) row at `pos`.
    pub fn k_row(&self, pos: usize) -> &[f32] {
        self.pages[pos / self.page_rows].k_row(pos % self.page_rows)
    }

    /// Value row at `pos`.
    pub fn v_row(&self, pos: usize) -> &[f32] {
        self.pages[pos / self.page_rows].v_row(pos % self.page_rows)
    }

    /// Configures the decoded-row memo to `width` floats per position.
    ///
    /// The memo is an acceleration tier for attention variants whose
    /// cached rows are not directly usable (MLA caches compressed
    /// latents): rows that are expensive to recompute each step but
    /// always reconstructible from the authoritative cached rows. A
    /// width change drops every memo row, and rows beyond `len()` are
    /// dropped here too, so a stale memo can never outlive the state
    /// it was decoded from.
    pub fn memo_ensure(&mut self, width: usize) {
        if self.memo_width != width {
            self.memo.clear();
            self.memo_width = width;
        }
        self.memo.truncate(self.len * width);
    }

    /// Positions currently present in the decoded-row memo.
    pub fn memo_len(&self) -> usize {
        self.memo
            .len()
            .checked_div(self.memo_width)
            .unwrap_or_default()
    }

    /// Decoded-row memo width in floats (0 = memo unconfigured).
    pub fn memo_width(&self) -> usize {
        self.memo_width
    }

    /// Appends one decoded row to the memo.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Exec`] on width mismatch or when the memo
    /// would run ahead of the cached positions it mirrors.
    pub fn memo_push(&mut self, row: &[f32]) -> Result<(), ModelError> {
        if self.memo_width == 0 || row.len() != self.memo_width {
            return Err(ModelError::exec(format!(
                "memo row width {} does not match {}",
                row.len(),
                self.memo_width
            )));
        }
        if self.memo_len() >= self.len {
            return Err(ModelError::exec(
                "decoded-row memo cannot run ahead of the cache",
            ));
        }
        self.memo.extend_from_slice(row);
        Ok(())
    }

    /// Decoded row at `pos` (must be `< memo_len()`).
    pub fn memo_row(&self, pos: usize) -> &[f32] {
        self.memo_rows(pos..pos + 1)
    }

    /// Decoded rows `range`, contiguous (`range.end <= memo_len()`).
    pub fn memo_rows(&self, range: std::ops::Range<usize>) -> &[f32] {
        &self.memo[range.start * self.memo_width..range.end * self.memo_width]
    }
}

/// Pages needed to hold `rows` positions at `page_rows` per page.
pub fn pages_for_rows(rows: usize, page_rows: usize) -> usize {
    rows.div_ceil(page_rows.max(1))
}

/// A flat, offloaded copy of one cache's authoritative KV rows — the
/// swap tier a preempted sequence's pages move to. Captured by reading
/// rows and restored by pushing them back, so the round trip is
/// bitwise exact. The decoded-row memo is deliberately not captured:
/// it rebuilds bit-identically from the restored rows.
#[derive(Debug, Clone)]
pub struct SwappedKv {
    layers: Vec<SwappedLayer>,
    rows: usize,
}

#[derive(Debug, Clone)]
struct SwappedLayer {
    k: Vec<f32>,
    v: Vec<f32>,
    k_width: usize,
    v_width: usize,
}

impl SwappedKv {
    /// Copies every layer's cached rows out of `cache`.
    pub fn capture(cache: &KvCache) -> SwappedKv {
        let rows = cache.seq_len();
        let layers = (0..cache.n_layers())
            .map(|i| {
                let l = cache.layer(i);
                let (kw, vw) = (l.k_width(), l.v_width());
                let mut k = Vec::with_capacity(rows * kw);
                let mut v = Vec::with_capacity(rows * vw);
                for pos in 0..rows {
                    k.extend_from_slice(l.k_row(pos));
                    v.extend_from_slice(l.v_row(pos));
                }
                SwappedLayer {
                    k,
                    v,
                    k_width: kw,
                    v_width: vw,
                }
            })
            .collect();
        SwappedKv { layers, rows }
    }

    /// Positions captured.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bytes this swapped copy holds (the swap traffic, one way).
    pub fn bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| (l.k.len() + l.v.len()) * std::mem::size_of::<f32>())
            .sum()
    }

    /// Pushes the captured rows back into an empty `cache`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Exec`] when the cache is not empty, its
    /// layout does not match, or the allocator runs out of pages
    /// mid-restore.
    pub fn restore(&self, cache: &mut KvCache) -> Result<(), ModelError> {
        if cache.seq_len() != 0 {
            return Err(ModelError::exec("swap-in requires an empty KV cache"));
        }
        if cache.n_layers() != self.layers.len() {
            return Err(ModelError::exec(format!(
                "swapped copy has {} layers, cache has {}",
                self.layers.len(),
                cache.n_layers()
            )));
        }
        for (i, sl) in self.layers.iter().enumerate() {
            let store = cache.layer_mut(i);
            for pos in 0..self.rows {
                store.push(
                    &sl.k[pos * sl.k_width..(pos + 1) * sl.k_width],
                    &sl.v[pos * sl.v_width..(pos + 1) * sl.v_width],
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_bounds_and_counts() {
        let alloc = BlockAllocator::new(2);
        assert_eq!(alloc.total_pages(), 2);
        let a = alloc.try_page(4, 2, 8).unwrap();
        let b = alloc.try_page(4, 2, 8).unwrap();
        assert!(alloc.try_page(4, 2, 8).is_none(), "pool exhausted");
        assert_eq!(alloc.free_pages(), 0);
        drop(a);
        assert_eq!(alloc.free_pages(), 1);
        let s = alloc.stats();
        assert_eq!((s.alloc_total, s.freed_total), (3 - 1, 1)); // 2 grants, 1 back
        assert_eq!(s.exhausted_total, 1);
        assert_eq!(s.peak, 2);
        drop(b);
        assert_eq!(alloc.allocated_pages(), 0, "all pages returned");
    }

    #[test]
    fn shared_pages_track_multiply_referenced_pages() {
        let alloc = BlockAllocator::new(4);
        let mut s = PagedKvStore::new(2, 2, 32, 4, &alloc);
        for _ in 0..6 {
            s.push(&[0.0; 2], &[0.0; 2]).unwrap();
        }
        assert_eq!(s.shared_pages(), 0);
        let held = Arc::clone(&s.pages()[0]);
        assert_eq!(s.shared_pages(), 1);
        assert_eq!(s.owned_pages(), 1);
        drop(held);
        assert_eq!(s.shared_pages(), 0);
    }

    #[test]
    fn push_and_read_round_trip_across_pages() {
        let alloc = BlockAllocator::new(64);
        let mut s = PagedKvStore::new(3, 2, 40, 4, &alloc);
        let row = |pos: usize| ([pos as f32, pos as f32 * 2.0, 0.5], [pos as f32 * 10.0, 1.0]);
        for pos in 0..23 {
            let (k, v) = row(pos);
            s.push(&k, &v).unwrap();
        }
        assert_eq!(s.len(), 23);
        assert_eq!(s.pages().len(), 6, "ceil(23/4) pages");
        for pos in 0..23 {
            let (k, v) = row(pos);
            assert_eq!(s.k_row(pos), &k);
            assert_eq!(s.v_row(pos), &v);
        }
        s.reset();
        assert_eq!(alloc.allocated_pages(), 0, "reset frees every page");
    }

    #[test]
    fn zero_width_values_for_mla() {
        let alloc = BlockAllocator::new(8);
        let mut s = PagedKvStore::new(8, 0, 4, 4, &alloc);
        s.push(&[0.5; 8], &[]).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.v_row(0), &[] as &[f32]);
        assert_eq!(s.bytes(), 32);
    }

    #[test]
    fn reset_clears_state() {
        let alloc = BlockAllocator::new(8);
        let mut s = PagedKvStore::new(2, 2, 4, 4, &alloc);
        s.push(&[1.0; 2], &[2.0; 2]).unwrap();
        s.reset();
        assert!(s.is_empty());
        s.push(&[3.0; 2], &[4.0; 2]).unwrap();
        assert_eq!(s.k_row(0), &[3.0, 3.0]);
    }

    #[test]
    fn push_fails_cleanly_when_pool_exhausted() {
        let alloc = BlockAllocator::new(1);
        let mut s = PagedKvStore::new(2, 2, 64, 4, &alloc);
        for _ in 0..4 {
            s.push(&[0.0; 2], &[0.0; 2]).unwrap();
        }
        let err = s.push(&[0.0; 2], &[0.0; 2]);
        assert!(err.is_err(), "second page cannot be allocated");
        assert_eq!(s.len(), 4, "failed push changes nothing");
    }

    #[test]
    fn capacity_and_width_checks() {
        let alloc = BlockAllocator::new(8);
        let mut s = PagedKvStore::new(4, 2, 3, 4, &alloc);
        assert!(s.push(&[0.0; 3], &[0.0; 2]).is_err(), "k width");
        assert!(s.push(&[0.0; 4], &[0.0; 1]).is_err(), "v width");
        assert_eq!(s.len(), 0, "a rejected push changes nothing");
        for _ in 0..3 {
            s.push(&[0.0; 4], &[0.0; 2]).unwrap();
        }
        assert!(s.push(&[0.0; 4], &[0.0; 2]).is_err(), "capacity enforced");
    }

    #[test]
    fn copy_on_write_never_aliases_after_a_write() {
        let alloc = BlockAllocator::new(8);
        let mut a = PagedKvStore::new(2, 1, 32, 4, &alloc);
        for pos in 0..4 {
            a.push(&[pos as f32; 2], &[pos as f32]).unwrap();
        }
        // Share a's full page into b, then overwrite a row in a.
        let mut b = PagedKvStore::new(2, 1, 32, 4, &alloc);
        b.share_page(&a.pages()[0]).unwrap();
        assert_eq!(b.shared_pages(), 1);
        assert_eq!(alloc.allocated_pages(), 1, "sharing allocates nothing");

        // Writing through a (its page is now shared) must CoW.
        let before_b: Vec<f32> = b.k_row(1).to_vec();
        a.page_mut(0).unwrap().write_row(1, &[99.0, 99.0], &[99.0]);
        assert_eq!(a.k_row(1), &[99.0, 99.0]);
        assert_eq!(b.k_row(1), before_b.as_slice(), "b unchanged");
        assert_eq!(alloc.allocated_pages(), 2, "CoW allocated a private copy");
        assert_eq!(b.shared_pages(), 0, "pages no longer alias");
    }

    #[test]
    fn share_page_requires_alignment_and_shape() {
        let alloc = BlockAllocator::new(8);
        let mut donor = PagedKvStore::new(2, 1, 32, 4, &alloc);
        for pos in 0..4 {
            donor.push(&[pos as f32; 2], &[pos as f32]).unwrap();
        }
        let page = Arc::clone(&donor.pages()[0]);
        let mut s = PagedKvStore::new(2, 1, 32, 4, &alloc);
        s.push(&[0.0; 2], &[0.0]).unwrap();
        assert!(s.share_page(&page).is_err(), "mid-page share rejected");
        let mut wrong = PagedKvStore::new(3, 1, 32, 4, &alloc);
        assert!(wrong.share_page(&page).is_err(), "shape mismatch rejected");
        let mut tiny = PagedKvStore::new(2, 1, 2, 4, &alloc);
        assert!(tiny.share_page(&page).is_err(), "capacity enforced");
    }

    #[test]
    fn memo_tracks_cache_and_heals_on_shrink() {
        let alloc = BlockAllocator::new(8);
        let mut s = PagedKvStore::new(4, 0, 8, 4, &alloc);
        s.memo_ensure(6);
        assert!(s.memo_push(&[0.0; 6]).is_err(), "memo cannot run ahead");
        s.push(&[1.0; 4], &[]).unwrap();
        s.push(&[2.0; 4], &[]).unwrap();
        s.memo_push(&[0.5; 6]).unwrap();
        s.memo_push(&[1.5; 6]).unwrap();
        assert_eq!(s.memo_len(), 2);
        assert_eq!(s.memo_row(1), &[1.5; 6]);
        assert_eq!(s.memo_bytes(), 2 * 6 * 4);
        assert_eq!(s.bytes(), 2 * 4 * 4, "memo never counts as cache bytes");
        assert!(s.memo_push(&[0.0; 5]).is_err(), "width mismatch");
        s.memo_ensure(10);
        assert_eq!(s.memo_len(), 0, "width change drops stale rows");
        // After a reset the memo is gone too: it may never describe
        // positions the cache no longer holds.
        s.memo_ensure(6);
        s.memo_push(&[0.25; 6]).unwrap();
        s.reset();
        assert_eq!(s.memo_len(), 0);
        s.push(&[3.0; 4], &[]).unwrap();
        s.memo_ensure(6);
        assert_eq!(s.memo_len(), 0);
    }

    #[test]
    fn swap_round_trip_is_bit_exact() {
        let alloc = BlockAllocator::new(64);
        let mut cache = KvCache::new_paged(&[(3, 2), (4, 0)], 64, &alloc, 4);
        for pos in 0..11 {
            cache
                .layer_mut(0)
                .push(&[pos as f32, 0.25, -1.0], &[pos as f32; 2])
                .unwrap();
            cache.layer_mut(1).push(&[pos as f32 * 3.0; 4], &[]).unwrap();
        }
        let swapped = SwappedKv::capture(&cache);
        assert_eq!(swapped.rows(), 11);
        assert_eq!(swapped.bytes(), 11 * (3 + 2 + 4) * 4);
        let reference = cache.clone();
        cache.reset();
        assert_eq!(alloc.allocated_pages() % 3, 0, "reference clone keeps pages");
        let mut restored = KvCache::new_paged(&[(3, 2), (4, 0)], 64, &alloc, 4);
        swapped.restore(&mut restored).unwrap();
        for i in 0..2 {
            for pos in 0..11 {
                assert_eq!(restored.layer(i).k_row(pos), reference.layer(i).k_row(pos));
                assert_eq!(restored.layer(i).v_row(pos), reference.layer(i).v_row(pos));
            }
        }
        assert!(swapped.restore(&mut restored).is_err(), "non-empty rejected");
    }

    #[test]
    fn pages_for_rows_rounds_up() {
        assert_eq!(pages_for_rows(0, 16), 0);
        assert_eq!(pages_for_rows(1, 16), 1);
        assert_eq!(pages_for_rows(16, 16), 1);
        assert_eq!(pages_for_rows(17, 16), 2);
    }
}
