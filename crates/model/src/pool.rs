//! A pool of per-sequence KV caches for multi-request serving.
//!
//! A continuous-batching server admits a request only when a cache and
//! the pages its prompt needs are available, so the pool doubles as the
//! admission-control valve: one [`BlockAllocator`] bounds resident KV
//! memory across every lease and the prefix index, and `max_leases`
//! bounds concurrency.
//!
//! The prefix index fills whatever pages its byte budget allows, and
//! gives them back on demand: [`KvCachePool::reclaim_pages`] evicts its
//! least-recently-touched leaves until enough pages are free, passing
//! over leaves whose pages a running lease still shares. Admission
//! ([`KvCachePool::lease_for_prompt`]) calls it before refusing a lease,
//! and the serving scheduler calls it before preempting anyone.
//!
//! Leases are move-only tokens: [`KvCachePool::lease`] hands out a
//! [`CacheLease`] owning its cache, and only [`KvCachePool::release`]
//! takes it back. The pool tracks outstanding lease ids, so a cache can
//! never be handed to two requests at once and forgotten leases are
//! observable via [`KvCachePool::in_use`].

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::error::ModelError;
use crate::kvcache::KvCache;
use crate::paged::{pages_for_rows, BlockAllocator, PageStats, DEFAULT_PAGE_ROWS};
use crate::prefix::{PrefixCache, PrefixCacheConfig, PrefixStats};

/// Source of process-unique pool tags, so a lease can never be released
/// into a pool it did not come from — even when two pools happen to
/// hand out the same lease id.
static NEXT_POOL_TAG: AtomicU64 = AtomicU64::new(1);

/// A leased per-sequence KV cache. Obtained from
/// [`KvCachePool::lease`]; give it back with [`KvCachePool::release`].
#[derive(Debug)]
pub struct CacheLease {
    /// The leased cache. Exclusively owned until released.
    pub cache: KvCache,
    id: u64,
    /// Tag of the pool that issued this lease.
    pool_tag: u64,
}

impl CacheLease {
    /// Unique id of this lease (never reused within a pool).
    pub fn id(&self) -> u64 {
        self.id
    }
}

struct PoolState {
    /// Reset caches ready for reuse.
    free: Vec<KvCache>,
    /// Ids of leases currently out.
    leased: HashSet<u64>,
    next_id: u64,
    peak: usize,
    /// Caches ever constructed by this pool (leased + free, minus any
    /// dropped for shape mismatch on release).
    constructed: usize,
}

/// A point-in-time view of pool occupancy, read under one lock so the
/// `in_use + free == constructed` invariant holds in every snapshot
/// even while other threads lease and release concurrently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolOccupancy {
    /// Leases currently out.
    pub in_use: usize,
    /// Reset caches parked in the free list.
    pub free: usize,
    /// High-water mark of concurrent leases.
    pub peak: usize,
    /// Caches ever constructed (and still owned) by this pool.
    pub constructed: usize,
}

/// A bounded pool of identically-shaped [`KvCache`]s drawing pages from
/// one shared allocator, optionally backed by a [`PrefixCache`] so
/// leases start pre-seeded with shared-prefix KV state instead of
/// blank.
pub struct KvCachePool {
    specs: Vec<(usize, usize)>,
    capacity: usize,
    max_leases: usize,
    tag: u64,
    state: Mutex<PoolState>,
    prefix: Option<PrefixCache>,
    /// The allocator every lease (and the prefix index) draws from.
    alloc: BlockAllocator,
    page_rows: usize,
}

impl KvCachePool {
    /// Builds a pool of caches with per-layer `(k_width, v_width)`
    /// `specs` and `capacity` token slots each, allowing at most
    /// `max_leases` concurrent leases. Pages are [`DEFAULT_PAGE_ROWS`]
    /// positions from an unbounded allocator — `max_leases` is the only
    /// valve — until [`KvCachePool::with_paged`] sets a page budget.
    pub fn new(specs: &[(usize, usize)], capacity: usize, max_leases: usize) -> Self {
        KvCachePool {
            specs: specs.to_vec(),
            capacity,
            max_leases,
            tag: NEXT_POOL_TAG.fetch_add(1, Ordering::Relaxed),
            state: Mutex::new(PoolState {
                free: Vec::new(),
                leased: HashSet::new(),
                next_id: 0,
                peak: 0,
                constructed: 0,
            }),
            prefix: None,
            alloc: BlockAllocator::new(usize::MAX),
            page_rows: DEFAULT_PAGE_ROWS,
        }
    }

    /// Sets the page budget: leases draw pages of `page_rows`
    /// positions from one shared allocator of `total_pages` pages
    /// (across all layers and leases), and admission counts pages
    /// actually needed. `max_leases` still bounds concurrency, but
    /// page supply is the real valve.
    pub fn with_paged(mut self, total_pages: usize, page_rows: usize) -> Self {
        assert!(page_rows > 0, "page_rows must be nonzero");
        self.alloc = BlockAllocator::new(total_pages);
        self.page_rows = page_rows;
        self
    }

    /// Attaches a shared-prefix cache: [`KvCachePool::lease_for_prompt`]
    /// will seed leases from it and
    /// [`KvCachePool::release_with_prefix`] will freeze completed
    /// prefixes into it.
    pub fn with_prefix_cache(mut self, cfg: PrefixCacheConfig) -> Self {
        self.prefix = Some(PrefixCache::new(cfg));
        self
    }

    /// The attached prefix cache, if any.
    pub fn prefix_cache(&self) -> Option<&PrefixCache> {
        self.prefix.as_ref()
    }

    /// Prefix-cache counters, when a prefix cache is attached.
    pub fn prefix_stats(&self) -> Option<PrefixStats> {
        self.prefix.as_ref().map(PrefixCache::stats)
    }

    /// Builds a pool whose caches are shaped like `prototype` (e.g. an
    /// engine's `fresh_cache()`).
    pub fn for_prototype(prototype: &KvCache, max_leases: usize) -> Self {
        let specs: Vec<(usize, usize)> = (0..prototype.n_layers())
            .map(|i| {
                let l = prototype.layer(i);
                (l.k_width(), l.v_width())
            })
            .collect();
        let capacity = if prototype.n_layers() > 0 {
            prototype.layer(0).capacity()
        } else {
            0
        };
        KvCachePool::new(&specs, capacity, max_leases)
    }

    /// Leases a cache, or `None` when `max_leases` are already out
    /// (the admission-control signal: the caller should queue).
    pub fn lease(&self) -> Option<CacheLease> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.leased.len() >= self.max_leases {
            return None;
        }
        let cache = st.free.pop().unwrap_or_else(|| {
            st.constructed += 1;
            KvCache::new_paged(&self.specs, self.capacity, &self.alloc, self.page_rows)
        });
        let id = st.next_id;
        st.next_id += 1;
        st.leased.insert(id);
        st.peak = st.peak.max(st.leased.len());
        Some(CacheLease {
            cache,
            id,
            pool_tag: self.tag,
        })
    }

    /// Leases a cache pre-seeded with the longest cached prefix of
    /// `prompt`, returning the lease and the number of seeded tokens
    /// (0 on a miss or when no prefix cache is attached — the lease is
    /// then blank, exactly as from [`KvCachePool::lease`]).
    ///
    /// The match is capped at `prompt.len() - 1`: the final prompt
    /// position is always left to prefill so the step that feeds it
    /// produces the logits the first sampled token needs.
    ///
    /// Admission additionally requires enough free pages for the rows
    /// the prompt will actually allocate — the whole
    /// prompt minus the page-aligned shared region (shared pages are
    /// references, not allocations), plus one row of headroom for the
    /// first sampled token — evicting least-recently-touched prefix
    /// leaves to free them ([`KvCachePool::reclaim_pages`]; the held
    /// match pins the matched path, so it is never what goes). A match
    /// pins its whole last edge, not just the rows it shares, so when
    /// that is not enough and no other lease is out, the match is
    /// dropped and the prompt admitted cold if the valve can then free
    /// its pages (with leases out, queueing keeps the hot prefix).
    /// `None` means "queue", exactly like lease exhaustion; with no
    /// other lease out it only happens to a prompt larger than the pool.
    pub fn lease_for_prompt(&self, prompt: &[u32]) -> Option<(CacheLease, usize)> {
        let mut lease = self.lease()?;
        let mut m = if prompt.len() >= 2 {
            self.prefix
                .as_ref()
                .and_then(|px| px.lookup(&prompt[..prompt.len() - 1]))
        } else {
            None
        };
        let shared = m.as_ref().map_or(0, |m| m.page_aligned_len(self.page_rows));
        let new_rows = prompt.len().saturating_sub(shared) + 1;
        if !self.reclaim_pages(self.pages_needed(new_rows)) {
            let alone = self.in_use() == 1;
            let matched = m.take().is_some();
            if !(alone && matched && self.reclaim_pages(self.pages_needed(prompt.len() + 1))) {
                let _ = self.release(lease);
                return None;
            }
        }
        let Some(m) = m else {
            return Some((lease, 0));
        };
        match m.seed_into(&mut lease.cache) {
            Ok(()) => Some((lease, m.len())),
            Err(_) => {
                // A layout mismatch (or page exhaustion mid-seed) means
                // the snapshot cannot serve this lease; fall back cold.
                lease.cache.reset();
                Some((lease, 0))
            }
        }
    }

    /// Returns a lease to the pool. The cache is reset before reuse,
    /// so partially-advanced state from a failed step cannot leak into
    /// the next request.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Exec`] when the lease does not belong to
    /// this pool (wrong pool — detected by pool tag even when lease ids
    /// collide across pools — or forged after a release).
    pub fn release(&self, lease: CacheLease) -> Result<(), ModelError> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if lease.pool_tag != self.tag {
            return Err(ModelError::exec(format!(
                "lease {} belongs to another pool",
                lease.id
            )));
        }
        if !st.leased.remove(&lease.id) {
            return Err(ModelError::exec(format!(
                "lease {} is not outstanding in this pool",
                lease.id
            )));
        }
        let mut cache = lease.cache;
        cache.reset();
        // Only recycle caches that still match the pool's shape and
        // draw from its allocator; a cache swapped out for a foreign
        // one is simply dropped.
        if cache.n_layers() == self.specs.len() && cache.is_backed_by(&self.alloc, self.page_rows) {
            st.free.push(cache);
        } else {
            st.constructed = st.constructed.saturating_sub(1);
        }
        Ok(())
    }

    /// Freezes the lease's first `fed_tokens.len()` positions into the
    /// attached prefix cache (insert or promote), then releases the
    /// lease. `fed_tokens` must be exactly the tokens whose KV state
    /// the cache holds — prompt plus generated-and-fed tokens; the
    /// insert is skipped when the lengths disagree (a partially
    /// advanced cache after a failed step) or when no prefix cache is
    /// attached.
    ///
    /// # Errors
    ///
    /// Same as [`KvCachePool::release`]. A foreign lease inserts
    /// nothing.
    pub fn release_with_prefix(
        &self,
        lease: CacheLease,
        fed_tokens: &[u32],
    ) -> Result<(), ModelError> {
        if lease.pool_tag == self.tag {
            if let Some(px) = &self.prefix {
                if fed_tokens.len() == lease.cache.seq_len() {
                    px.insert(fed_tokens, &lease.cache);
                }
            }
        }
        self.release(lease)
    }

    /// Number of leases currently out.
    pub fn in_use(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .leased
            .len()
    }

    /// Leases still available before the pool saturates.
    pub fn available(&self) -> usize {
        self.max_leases - self.in_use()
    }

    /// Reset caches currently parked in the free list.
    pub fn pooled(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .free
            .len()
    }

    /// High-water mark of concurrent leases.
    pub fn peak_in_use(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).peak
    }

    /// Caches ever constructed (and still owned) by this pool.
    pub fn constructed(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .constructed
    }

    /// Atomic occupancy snapshot: every field read under one lock, so
    /// `in_use + free == constructed` holds in the returned view even
    /// under concurrent lease/release traffic.
    pub fn occupancy(&self) -> PoolOccupancy {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        PoolOccupancy {
            in_use: st.leased.len(),
            free: st.free.len(),
            peak: st.peak,
            constructed: st.constructed,
        }
    }

    /// Maximum concurrent leases.
    pub fn max_leases(&self) -> usize {
        self.max_leases
    }

    /// Token capacity of each cache.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rows per page.
    pub fn page_rows(&self) -> usize {
        self.page_rows
    }

    /// The shared block allocator.
    pub fn block_allocator(&self) -> &BlockAllocator {
        &self.alloc
    }

    /// Pages required to store `rows` new positions across every layer.
    pub fn pages_needed(&self, rows: usize) -> usize {
        self.specs.len() * pages_for_rows(rows, self.page_rows)
    }

    /// Pages a lease must newly allocate to grow from `rows` to
    /// `rows + growth` positions, across every layer. Exact for
    /// append-only growth: pushes only allocate when they cross a page
    /// boundary, and seeding never leaves a partially filled *shared*
    /// page (the sub-page tail is always row-copied into an owned
    /// page), so appends never copy-on-write.
    pub fn pages_needed_growth(&self, rows: usize, growth: usize) -> usize {
        let r = self.page_rows;
        self.specs.len() * (pages_for_rows(rows + growth, r) - pages_for_rows(rows, r))
    }

    /// Pages still available in the allocator.
    pub fn free_pages(&self) -> usize {
        self.alloc.free_pages()
    }

    /// Allocator occupancy, with the shared gauge filled from the
    /// prefix index (the allocator itself cannot enumerate references
    /// — see [`PageStats::shared`]).
    pub fn page_stats(&self) -> PageStats {
        let mut stats = self.alloc.stats();
        if let Some(px) = &self.prefix {
            stats.shared = px.shared_pages();
        }
        stats
    }

    /// The page valve: makes `pages` pages free if the prefix index can
    /// give them back, evicting its least-recently-touched leaves one
    /// at a time and stopping as soon as enough are free. A leaf whose
    /// pages a lease still shares would free nothing and stays cached.
    /// Returns whether `pages` pages are free; `false` means leases
    /// (alone or together with the index) hold the rest.
    pub fn reclaim_pages(&self, pages: usize) -> bool {
        let enough = || self.alloc.free_pages() >= pages;
        enough()
            || self
                .prefix
                .as_ref()
                .is_some_and(|px| px.evict_until(enough))
    }
}

impl std::fmt::Debug for KvCachePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvCachePool")
            .field("n_layers", &self.specs.len())
            .field("capacity", &self.capacity)
            .field("max_leases", &self.max_leases)
            .field("in_use", &self.in_use())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(max: usize) -> KvCachePool {
        KvCachePool::new(&[(4, 4), (4, 4)], 8, max)
    }

    #[test]
    fn lease_up_to_max_then_starve() {
        let p = pool(2);
        let a = p.lease().unwrap();
        let b = p.lease().unwrap();
        assert!(p.lease().is_none(), "pool saturated");
        assert_eq!(p.in_use(), 2);
        assert_eq!(p.available(), 0);
        p.release(a).unwrap();
        assert_eq!(p.available(), 1);
        let c = p.lease().unwrap();
        assert_ne!(b.id(), c.id(), "lease ids are never reused");
    }

    #[test]
    fn released_caches_are_recycled_reset() {
        let p = pool(1);
        let mut lease = p.lease().unwrap();
        lease
            .cache
            .layer_mut(0)
            .push(&[1.0; 4], &[2.0; 4])
            .unwrap();
        assert_eq!(p.page_stats().allocated, 1);
        p.release(lease).unwrap();
        assert_eq!(p.pooled(), 1);
        assert_eq!(p.page_stats().allocated, 0, "release returns the pages");
        let again = p.lease().unwrap();
        assert_eq!(p.pooled(), 0, "recycled, not reallocated");
        assert_eq!(again.cache.seq_len(), 0, "recycled cache is reset");
        p.release(again).unwrap();
    }

    #[test]
    fn returned_cache_from_another_allocator_is_not_recycled() {
        let p = pool(1);
        let mut lease = p.lease().unwrap();
        lease.cache = KvCache::new(&[(4, 4), (4, 4)], 8);
        p.release(lease).unwrap();
        let occ = p.occupancy();
        assert_eq!((occ.in_use, occ.free, occ.constructed), (0, 0, 0));
        let fresh = p.lease().unwrap();
        assert!(fresh.cache.is_backed_by(p.block_allocator(), p.page_rows()));
        p.release(fresh).unwrap();
    }

    #[test]
    fn foreign_lease_is_rejected() {
        let p1 = pool(1);
        let p2 = pool(1);
        let lease = p1.lease().unwrap();
        assert!(p2.release(lease).is_err());
        // p1 still considers the lease out: it was consumed by the
        // failed release, which counts as a leak p1 can observe.
        assert_eq!(p1.in_use(), 1);
    }

    #[test]
    fn foreign_lease_with_colliding_id_is_rejected() {
        // Both pools hand out id 0 first: only the pool tag can tell
        // the leases apart. Without it p1 would accept p2's lease,
        // corrupt its accounting, and park a cache drawing from p2's
        // allocator in its free list.
        let p1 = pool(2);
        let p2 = pool(2);
        let mut own = p1.lease().unwrap();
        let mut foreign = p2.lease().unwrap();
        assert_eq!(own.id(), foreign.id(), "ids collide across pools");
        own.cache.layer_mut(0).push(&[1.0; 4], &[2.0; 4]).unwrap();
        foreign.cache.layer_mut(0).push(&[3.0; 4], &[4.0; 4]).unwrap();
        assert!(p1.release(foreign).is_err());
        let occ = p1.occupancy();
        assert_eq!((occ.in_use, occ.free, occ.constructed), (1, 0, 1));
        assert_eq!(p1.page_stats().allocated, 1, "own lease's page untouched");
        p1.release(own).unwrap();
        let occ = p1.occupancy();
        assert_eq!((occ.in_use, occ.free, occ.constructed), (0, 1, 1));
        assert_eq!(p1.page_stats().allocated, 0);
    }

    #[test]
    fn prefixed_lease_seeds_and_release_inserts() {
        use crate::prefix::PrefixCacheConfig;
        let p = KvCachePool::new(&[(4, 4)], 16, 2).with_prefix_cache(PrefixCacheConfig {
            capacity_bytes: 1 << 20,
            min_prefix_len: 2,
        });
        let prompt = [3u32, 1, 4, 1, 5];

        // Cold: nothing cached yet.
        let (mut lease, seeded) = p.lease_for_prompt(&prompt).unwrap();
        assert_eq!(seeded, 0);
        for (pos, &t) in prompt.iter().enumerate() {
            lease
                .cache
                .layer_mut(0)
                .push(&[pos as f32, t as f32, 0.0, 0.0], &[t as f32; 4])
                .unwrap();
        }
        p.release_with_prefix(lease, &prompt).unwrap();
        assert_eq!(p.prefix_stats().unwrap().entries, 1);

        // Warm: the same prompt seeds all but the final position.
        let (lease, seeded) = p.lease_for_prompt(&prompt).unwrap();
        assert_eq!(seeded, prompt.len() - 1);
        assert_eq!(lease.cache.seq_len(), prompt.len() - 1);
        assert_eq!(lease.cache.layer(0).k_row(2), &[2.0, 4.0, 0.0, 0.0]);
        p.release(lease).unwrap();

        // Pools without a prefix cache degrade to blank leases.
        let bare = KvCachePool::new(&[(4, 4)], 16, 1);
        let (lease, seeded) = bare.lease_for_prompt(&prompt).unwrap();
        assert_eq!(seeded, 0);
        bare.release_with_prefix(lease, &prompt).unwrap();
    }

    #[test]
    fn pool_admits_by_pages_needed() {
        use crate::prefix::PrefixCacheConfig;
        // 2 layers, page_rows 4, 8 pages total. A 6-token prompt needs
        // ceil(7/4)=2 pages per layer = 4 pages.
        let p = KvCachePool::new(&[(4, 4), (4, 4)], 32, 8)
            .with_prefix_cache(PrefixCacheConfig {
                capacity_bytes: 1 << 20,
                min_prefix_len: 2,
            })
            .with_paged(8, 4);
        assert_eq!(p.page_rows(), 4);
        assert_eq!(p.pages_needed(7), 4);
        let prompt = [1u32, 2, 3, 4, 5, 6];

        let (mut a, seeded) = p.lease_for_prompt(&prompt).unwrap();
        assert_eq!(seeded, 0);
        for (pos, &t) in prompt.iter().enumerate() {
            let row = [pos as f32, t as f32, 0.0, 0.0];
            a.cache.layer_mut(0).push(&row, &row).unwrap();
            a.cache.layer_mut(1).push(&row, &row).unwrap();
        }
        // 6 rows -> 2 pages x 2 layers allocated.
        assert_eq!(p.free_pages(), 4);
        // A second identical prompt cannot fit: needs 4 pages free but
        // sharing is impossible (nothing frozen yet)... 4 are free, so
        // it would fit; a *longer* prompt cannot.
        assert!(p.lease_for_prompt(&[9u32; 12]).is_none(), "queue signal");

        // Freeze the first sequence; its pages move to the index.
        p.release_with_prefix(a, &prompt).unwrap();
        assert_eq!(p.free_pages(), 4, "frozen pages stay resident");

        // Warm re-admission: the aligned 4 rows are shared (free), so
        // only rows 4..6+1 allocate -> 1 page per layer.
        let (b, seeded) = p.lease_for_prompt(&prompt).unwrap();
        assert_eq!(seeded, prompt.len() - 1);
        assert_eq!(p.free_pages(), 2);
        let stats = p.page_stats();
        assert_eq!(stats.total, 8);
        assert_eq!(stats.shared, 2, "one aligned page per layer shared");
        p.release(b).unwrap();

        // Pressure relief: the index gives its pages back on demand.
        assert!(p.reclaim_pages(8));
        assert_eq!(p.free_pages(), 8);
        assert_eq!(p.prefix_stats().unwrap().entries, 0);
    }

    #[test]
    fn leases_take_index_pages_lru_leaf_first() {
        use crate::prefix::PrefixCacheConfig;
        // One layer, 4-row pages, 8 pages: three frozen 8-token prompts
        // leave the index holding 6 of them.
        let p = KvCachePool::new(&[(4, 4)], 32, 4)
            .with_prefix_cache(PrefixCacheConfig {
                capacity_bytes: 1 << 20,
                min_prefix_len: 2,
            })
            .with_paged(8, 4);
        let px = p.prefix_cache().unwrap();
        let prompt = |first: u32, len: u32| -> Vec<u32> { (first..first + len).collect() };
        for first in [10, 20, 30] {
            let tokens = prompt(first, 8);
            let (mut lease, _) = p.lease_for_prompt(&tokens).unwrap();
            for &t in &tokens {
                lease
                    .cache
                    .layer_mut(0)
                    .push(&[t as f32; 4], &[t as f32; 4])
                    .unwrap();
            }
            p.release_with_prefix(lease, &tokens).unwrap();
        }
        assert_eq!(p.free_pages(), 2);
        // Touch the oldest entry: the least recently touched leaf is
        // now the 20.. prompt.
        assert!(px.lookup(&prompt(10, 8)).is_some());

        // A cold 12-token prompt needs ceil(13 / 4) = 4 pages: one
        // evicted leaf (two pages) is enough, and eviction stops there.
        let (cold, seeded) = p
            .lease_for_prompt(&prompt(40, 12))
            .expect("index gives pages back");
        assert_eq!(seeded, 0);
        assert_eq!(p.free_pages(), 4);
        let s = p.prefix_stats().unwrap();
        assert_eq!((s.evictions, s.entries), (1, 2));
        assert!(px.lookup(&prompt(20, 8)).is_none(), "LRU leaf went first");

        // A warm 24-token prompt over the 30.. prefix shares its two
        // pages and needs ceil((24 - 8 + 1) / 4) = 5 more: the lookup
        // touched its own prefix, so the other leaf goes instead.
        let mut warm_prompt = prompt(30, 8);
        warm_prompt.extend(prompt(60, 16));
        let (warm, seeded) = p.lease_for_prompt(&warm_prompt).expect("second eviction");
        assert_eq!(seeded, 8);
        assert_eq!(p.prefix_stats().unwrap().entries, 1);
        assert!(px.lookup(&prompt(10, 8)).is_none());
        assert!(px.lookup(&prompt(30, 8)).is_some(), "the hit stays cached");

        // The only leaf left is one the warm lease shares: evicting it
        // would free nothing, so a failed reclaim leaves it cached.
        assert!(!p.reclaim_pages(8));
        assert_eq!(p.prefix_stats().unwrap().evictions, 2);
        assert_eq!(p.free_pages(), 6);
        assert!(px.lookup(&prompt(30, 8)).is_some(), "a shared leaf survives");
        p.release(warm).unwrap();
        p.release(cold).unwrap();
        // Once no lease shares it, the same leaf gives its pages back.
        assert!(p.reclaim_pages(8));
        assert_eq!(p.prefix_stats().unwrap().entries, 0);
        assert_eq!(p.free_pages(), 8);
    }

    #[test]
    fn a_match_pinning_the_pages_a_prompt_needs_admits_it_cold() {
        use crate::prefix::PrefixCacheConfig;
        // One layer, 4-row pages, 8 pages; a frozen 24-token prompt
        // holds 6 of them in one leaf.
        let p = KvCachePool::new(&[(4, 4)], 32, 4)
            .with_prefix_cache(PrefixCacheConfig {
                capacity_bytes: 1 << 20,
                min_prefix_len: 2,
            })
            .with_paged(8, 4);
        let frozen: Vec<u32> = (0..24).collect();
        let (mut lease, _) = p.lease_for_prompt(&frozen).unwrap();
        for &t in &frozen {
            lease.cache.layer_mut(0).push(&[t as f32; 4], &[t as f32; 4]).unwrap();
        }
        p.release_with_prefix(lease, &frozen).unwrap();
        assert_eq!(p.free_pages(), 2);
        // A 27-token prompt sharing one page of it needs 6 more, but its
        // own match pins the whole leaf. Cold it needs 7 of the 8: with
        // another lease out it queues and the prefix stays; alone it is
        // admitted cold.
        let mut prompt: Vec<u32> = (0..4).collect();
        prompt.extend(100..123);
        let other = p.lease().unwrap();
        assert!(p.lease_for_prompt(&prompt).is_none());
        assert_eq!(p.prefix_stats().unwrap().entries, 1);
        p.release(other).unwrap();
        let (lease, seeded) = p.lease_for_prompt(&prompt).expect("admitted cold");
        assert_eq!(seeded, 0);
        assert_eq!(p.prefix_stats().unwrap().entries, 0);
        assert_eq!(p.free_pages(), 8);
        p.release(lease).unwrap();
    }

    #[test]
    fn prototype_shapes_match() {
        let proto = KvCache::new(&[(6, 2), (4, 4)], 16);
        let p = KvCachePool::for_prototype(&proto, 3);
        let lease = p.lease().unwrap();
        assert_eq!(lease.cache.n_layers(), 2);
        assert_eq!(lease.cache.layer(0).k_width(), 6);
        assert_eq!(lease.cache.layer(1).v_width(), 4);
        assert_eq!(p.capacity(), 16);
        p.release(lease).unwrap();
        assert_eq!(p.peak_in_use(), 1);
    }
}
