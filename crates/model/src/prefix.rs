//! Shared-prefix KV reuse: a token-keyed radix index over frozen,
//! ref-counted KV snapshots.
//!
//! Serving workloads repeat prompt prefixes constantly — system
//! prompts, few-shot templates, multi-turn history — yet a blank lease
//! recomputes identical KV state for every request. This module caches
//! that state once: completed prefixes are frozen into immutable
//! [`Segment`]s (per-layer page references plus, when present, the MLA
//! decoded-row memo) keyed by their token sequence in a radix tree, and
//! admission seeds a fresh lease from the longest cached prefix so the
//! scheduler only prefills the uncached suffix.
//!
//! Copy-on-write contract: snapshot pages are immutable and shared
//! (`Arc<Segment>` holding `Arc<PageData>`); a lease takes *references*
//! to whole frozen pages and appends privately from the first page
//! boundary past the match ([`PrefixMatch::seed_into`]). A lease that
//! must overwrite a shared page copies it first
//! ([`crate::paged::PagedKvStore`]'s copy-on-write). Eviction can
//! therefore drop any segment at any time — in-flight seedings hold
//! their own `Arc` and finish safely.
//!
//! Page-alignment invariant: shared pages are taken whole or not at
//! all. [`PrefixMatch::page_aligned_len`] rounds the match down to a
//! page boundary, seeding shares exactly that many rows by reference,
//! and the remaining matched rows (fewer than one page) are row-copied
//! — so sharing never splits mid-page, and
//! [`crate::paged::PagedKvStore::share_page`] enforces it. Admission
//! probes `prompt[..len-1]` (at least one token must be prefilled to
//! produce logits) while inserts freeze full fed sequences, so a match
//! length is rarely page-aligned on its own; rounding down, not up,
//! keeps the shared region independent of that off-by-one.
//!
//! Bitwise equality: cached K/V rows are position-dependent only on the
//! tokens at or before them (causal attention; RoPE is applied at push
//! time from the absolute position), and every projection that produced
//! them went through the row-stable `gemm_rowwise`. A row copied out of
//! a snapshot therefore carries exactly the bits a cold prefill would
//! produce at that position, and a seeded-then-suffix-prefilled
//! sequence is indistinguishable — bit for bit — from a cold full
//! prefill chunked at the seed boundary.
//!
//! Eviction is LRU-by-bytes: every lookup/insert touches the nodes on
//! its path, and when resident bytes exceed the budget the
//! least-recently-touched *leaf* is dropped (leaves first keeps every
//! interior prefix valid: a parent's rows never reference its
//! children).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::error::ModelError;
use crate::kvcache::KvCache;
use crate::paged::{PageData, PagedKvStore};

/// Configuration for a [`PrefixCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixCacheConfig {
    /// Resident-byte budget for frozen snapshots. 0 caches nothing.
    pub capacity_bytes: usize,
    /// Shortest prefix worth reusing: lookups matching fewer tokens
    /// miss, and shorter completed sequences are not inserted.
    pub min_prefix_len: usize,
}

impl Default for PrefixCacheConfig {
    fn default() -> Self {
        PrefixCacheConfig {
            capacity_bytes: 32 << 20,
            min_prefix_len: 4,
        }
    }
}

/// One layer's frozen rows for a radix-edge token span: references to
/// the donor's immutable pages — zero bytes copied, and the pages
/// become sharable with later leases.
#[derive(Debug)]
struct LayerSeg {
    /// Pages covering the span, in order. The first and last may
    /// extend beyond the span (a span rarely starts or ends on a page
    /// boundary); `start` is the span's row offset within `pages[0]`.
    /// The offset always equals the span's absolute position mod
    /// `page_rows`, because segments are frozen at their absolute
    /// positions and splits preserve them — that is what lets a later
    /// lease share these pages at the same absolute positions.
    pages: Vec<Arc<PageData>>,
    start: usize,
    page_rows: usize,
    /// Decoded-row memo for the span — captured only when the donor
    /// memo covered every position of the span, empty otherwise, so a
    /// present memo is always contiguous from the span start. The memo
    /// is per-store flat scratch, never page-backed, so it is the one
    /// part of a span that freezes by copy: reseeding it costs O(span
    /// bytes) but saves the seeded lease from re-decoding every shared
    /// position through the MLA up-projections on its first forward —
    /// bit-identical either way (`gemm_rowwise` row invariance), so
    /// this is purely a latency trade.
    memo: Vec<f32>,
    memo_width: usize,
}

impl LayerSeg {
    /// Freezes span rows `range` of a page table whose row 0 is
    /// `pages[0]`'s row 0, with the matching window of `memo` (the
    /// memo of span rows `0..`, or empty).
    fn window(
        pages: &[Arc<PageData>],
        page_rows: usize,
        range: std::ops::Range<usize>,
        memo: &[f32],
        memo_width: usize,
    ) -> LayerSeg {
        let first = range.start / page_rows;
        let last = (range.end - 1) / page_rows;
        LayerSeg {
            pages: pages[first..=last].to_vec(),
            start: range.start % page_rows,
            page_rows,
            memo: memo.to_vec(),
            memo_width: if memo.is_empty() { 0 } else { memo_width },
        }
    }

    fn page_row(&self, r: usize) -> (&PageData, usize) {
        let at = self.start + r;
        (&self.pages[at / self.page_rows], at % self.page_rows)
    }

    fn k_row(&self, r: usize) -> &[f32] {
        let (page, row) = self.page_row(r);
        page.k_row(row)
    }

    fn v_row(&self, r: usize) -> &[f32] {
        let (page, row) = self.page_row(r);
        page.v_row(row)
    }

    fn memo_row(&self, r: usize) -> &[f32] {
        &self.memo[r * self.memo_width..(r + 1) * self.memo_width]
    }

    fn memo_rows(&self) -> usize {
        self.memo
            .len()
            .checked_div(self.memo_width)
            .unwrap_or_default()
    }

    /// Whole pages, conservatively: that is what holding these
    /// references keeps alive in the allocator (a page straddling a
    /// split boundary is counted by both halves). The memo rides on
    /// top: it is copied, not page-backed.
    fn bytes(&self) -> usize {
        self.pages.iter().map(|p| p.bytes()).sum::<usize>()
            + self.memo.len() * std::mem::size_of::<f32>()
    }
}

/// A frozen, immutable KV snapshot for one radix-edge token span:
/// per-layer page references (and the MLA decoded-row memo where the
/// donor had one) for `rows` consecutive positions.
///
/// Segments are shared by reference between the index and in-flight
/// seedings; they are never mutated after construction.
#[derive(Debug)]
pub struct Segment {
    layers: Vec<LayerSeg>,
    rows: usize,
    bytes: usize,
}

impl Segment {
    fn from_layers(layers: Vec<LayerSeg>, rows: usize) -> Segment {
        let bytes = layers.iter().map(LayerSeg::bytes).sum();
        Segment { layers, rows, bytes }
    }

    /// Freezes positions `start..end` of every layer of `cache` by
    /// taking page references (zero copy; the donor's pages are
    /// immutable once it releases, and any still-active writer
    /// copies-on-write).
    fn from_cache(cache: &KvCache, start: usize, end: usize) -> Segment {
        let layers = (0..cache.n_layers())
            .map(|i| {
                let store = cache.layer(i);
                let memo = if store.memo_len() >= end {
                    store.memo_rows(start..end)
                } else {
                    &[]
                };
                LayerSeg::window(
                    store.pages(),
                    store.page_rows(),
                    start..end,
                    memo,
                    store.memo_width(),
                )
            })
            .collect();
        Segment::from_layers(layers, end - start)
    }

    /// Splits into the first `m` rows and the rest (for edge splits),
    /// zero-copy: both halves reference the same immutable pages (a
    /// page straddling the boundary appears in both halves' tables),
    /// with adjusted row windows. Both halves inherit the memo (it
    /// covered the whole span, so it covers each half contiguously).
    fn split(&self, m: usize) -> (Segment, Segment) {
        let part = |range: std::ops::Range<usize>| -> Segment {
            let layers = self
                .layers
                .iter()
                .map(|ls| {
                    let mw = ls.memo_width;
                    LayerSeg::window(
                        &ls.pages,
                        ls.page_rows,
                        ls.start + range.start..ls.start + range.end,
                        &ls.memo[range.start * mw..range.end * mw],
                        mw,
                    )
                })
                .collect();
            Segment::from_layers(layers, range.len())
        };
        (part(0..m), part(m..self.rows))
    }

    /// Positions this segment holds.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Resident bytes (whole referenced pages plus memo across layers).
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

/// The longest cached prefix found by [`PrefixCache::lookup`]: a chain
/// of shared segments covering `len` tokens, ready to seed a lease.
#[derive(Debug)]
pub struct PrefixMatch {
    len: usize,
    /// `(segment, rows used)` — the last part may be partial when the
    /// query diverged mid-edge.
    parts: Vec<(Arc<Segment>, usize)>,
}

impl PrefixMatch {
    /// Tokens this match covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the match covers no tokens.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Seeds the decoded-row memo for one layer. The memo must stay
    /// contiguous from position 0, so seeding stops at the first part
    /// without one (or with a different width); the attention memo
    /// rebuilds the rest incrementally.
    fn seed_memo(&self, layer: usize, store: &mut PagedKvStore) -> Result<(), ModelError> {
        let width = self
            .parts
            .first()
            .map_or(0, |(seg, _)| seg.layers[layer].memo_width);
        if width == 0 {
            return Ok(());
        }
        store.memo_ensure(width);
        for (seg, rows) in &self.parts {
            let ls = &seg.layers[layer];
            if ls.memo_width != width || ls.memo_rows() < *rows {
                break;
            }
            for r in 0..*rows {
                store.memo_push(ls.memo_row(r))?;
            }
        }
        Ok(())
    }

    /// The match length rounded down to a page boundary — the longest
    /// region seeding may take by whole-page reference (the
    /// page-alignment invariant: sharing never splits mid-page). The
    /// unaligned remainder is row-copied instead.
    pub fn page_aligned_len(&self, page_rows: usize) -> usize {
        if page_rows == 0 {
            return 0;
        }
        self.len - self.len % page_rows
    }

    /// Builds the per-layer table of sharable whole pages for the first
    /// [`PrefixMatch::page_aligned_len`] rows, walking the part chain
    /// at absolute positions.
    ///
    /// Later parts overwrite earlier assignments for a page straddling
    /// a part boundary: the earlier part's copy of that page may carry
    /// rows from a *different* branch beyond the boundary (radix edges
    /// split mid-page), while the later part's copy is the one whose
    /// donor actually matched those rows — and the rows below the
    /// boundary are bitwise identical across donors by the prefix
    /// determinism argument in the module docs. A full page assigned by
    /// the last part touching it therefore carries exactly the matched
    /// bits. A snapshot frozen at another page size shares nothing (its
    /// pages cannot join this store's table); everything is row-copied.
    fn shared_page_map(&self, layer: usize, page_rows: usize) -> Vec<Arc<PageData>> {
        let n_full = self.page_aligned_len(page_rows) / page_rows;
        if self
            .parts
            .iter()
            .any(|(seg, _)| seg.layers[layer].page_rows != page_rows)
        {
            return Vec::new();
        }
        let mut map: Vec<Option<Arc<PageData>>> = vec![None; n_full];
        let mut abs = 0usize;
        for (seg, used) in &self.parts {
            let ls = &seg.layers[layer];
            // Absolute row of pages[0]'s row 0 (a multiple of page_rows:
            // `start == abs % page_rows`, see `LayerSeg::pages`).
            let base = abs - ls.start;
            for (pi, page) in ls.pages.iter().enumerate() {
                let page_lo = base + pi * page_rows;
                if page_lo >= abs + used {
                    break;
                }
                if let Some(slot) = map.get_mut(page_lo / page_rows) {
                    *slot = Some(Arc::clone(page));
                }
            }
            abs += used;
        }
        map.into_iter().map_while(|p| p).collect()
    }

    /// Seeds one layer (which must be empty): shares the maximal
    /// aligned run of whole pages by reference, then row-copies the
    /// remaining matched rows. Returns the rows shared by reference.
    fn seed_layer(&self, layer: usize, store: &mut PagedKvStore) -> Result<usize, ModelError> {
        if !store.is_empty() {
            return Err(ModelError::exec(
                "prefix seeding requires an empty KV store",
            ));
        }
        for page in &self.shared_page_map(layer, store.page_rows()) {
            store.share_page(page)?;
        }
        let shared_rows = store.len();
        // Row-copy the matched tail (fewer than one page past the last
        // shared page, plus anything the map could not share).
        let mut abs = 0usize;
        for (seg, used) in &self.parts {
            let ls = &seg.layers[layer];
            for r in shared_rows.saturating_sub(abs)..*used {
                store.push(ls.k_row(r), ls.v_row(r))?;
            }
            abs += used;
        }
        // The memo is flat scratch, never page-backed, so it seeds by
        // copy — without it the lease would re-decode every shared
        // position through the MLA up-projections on its first
        // forward, which costs far more than the copy.
        self.seed_memo(layer, store)?;
        Ok(shared_rows)
    }

    /// Seeds every layer of an empty `cache` from the snapshot chain:
    /// whole frozen pages are shared by reference — O(1) per page
    /// instead of O(bytes) — and only the sub-page remainder is
    /// row-copied; the lease appends privately from there, copying a
    /// shared page first if it ever must overwrite one.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Exec`] when the cache is not empty, its
    /// layout does not match the snapshot, or the page allocator is
    /// exhausted mid-seed.
    pub fn seed_into(&self, cache: &mut KvCache) -> Result<(), ModelError> {
        let n_layers = self.parts.first().map_or(0, |(s, _)| s.layers.len());
        if cache.n_layers() != n_layers {
            return Err(ModelError::exec(format!(
                "prefix snapshot has {} layers, cache has {}",
                n_layers,
                cache.n_layers()
            )));
        }
        let _span = kt_trace::span_ab(
            kt_trace::SpanKind::PrefixSeed,
            self.len.min(u32::MAX as usize) as u32,
            n_layers.min(u32::MAX as usize) as u32,
        );
        let mut shared_rows = 0usize;
        for i in 0..n_layers {
            shared_rows = self.seed_layer(i, cache.layer_mut(i))?;
        }
        kt_trace::counter_add(
            kt_trace::CounterKind::PrefixSharedRows,
            shared_rows as u64,
        );
        Ok(())
    }
}

/// One radix-tree node: the edge token span from its parent, the frozen
/// segment holding that span's rows, and its children.
#[derive(Debug)]
struct Node {
    /// Edge label (non-empty).
    tokens: Vec<u32>,
    seg: Arc<Segment>,
    children: Vec<Node>,
    /// LRU tick of the last lookup/insert that walked through here.
    last_touch: u64,
}

/// Counters and occupancy of a [`PrefixCache`] (monotonic except the
/// `resident_bytes`/`entries` gauges).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Lookups that matched at least `min_prefix_len` tokens.
    pub hits: u64,
    /// Lookups that matched nothing reusable.
    pub misses: u64,
    /// Total tokens served from cached prefixes.
    pub hit_tokens: u64,
    /// Segments frozen into the index.
    pub insertions: u64,
    /// Segments evicted by the byte budget.
    pub evictions: u64,
    /// Bytes freed by eviction.
    pub evicted_bytes: u64,
    /// Bytes currently resident in frozen segments.
    pub resident_bytes: u64,
    /// Segments currently resident.
    pub entries: u64,
}

#[derive(Debug, Default)]
struct Inner {
    children: Vec<Node>,
    tick: u64,
    stats: PrefixStats,
}

/// A token-keyed radix index mapping prompt prefixes to frozen KV
/// snapshots, with LRU-by-bytes eviction under a configurable budget.
///
/// Thread-safe: lookups and inserts serialize on an interior lock;
/// matched segments are returned by `Arc` so seeding happens outside
/// it.
#[derive(Debug)]
pub struct PrefixCache {
    cfg: PrefixCacheConfig,
    inner: Mutex<Inner>,
}

impl PrefixCache {
    /// Creates an empty index under `cfg`'s budget.
    pub fn new(cfg: PrefixCacheConfig) -> PrefixCache {
        PrefixCache {
            cfg,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The configured budget and match threshold.
    pub fn config(&self) -> PrefixCacheConfig {
        self.cfg
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Finds the longest cached prefix of `tokens`, touching every node
    /// on the path for LRU. Matches shorter than `min_prefix_len` count
    /// as misses.
    pub fn lookup(&self, tokens: &[u32]) -> Option<PrefixMatch> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let mut parts: Vec<(Arc<Segment>, usize)> = Vec::new();
        let mut matched = 0usize;
        let mut cur = &mut inner.children;
        while matched < tokens.len() {
            let Some(ci) = cur.iter().position(|c| c.tokens[0] == tokens[matched]) else {
                break;
            };
            let (common, edge_len) = {
                let child = &mut cur[ci];
                let common = child
                    .tokens
                    .iter()
                    .zip(&tokens[matched..])
                    .take_while(|(a, b)| a == b)
                    .count();
                child.last_touch = tick;
                parts.push((Arc::clone(&child.seg), common));
                (common, child.tokens.len())
            };
            matched += common;
            if common < edge_len {
                break;
            }
            cur = &mut cur[ci].children;
        }
        inner.stats.lookups += 1;
        kt_trace::counter_add(kt_trace::CounterKind::PrefixLookups, 1);
        kt_trace::instant(
            kt_trace::SpanKind::PrefixLookup,
            tokens.len().min(u32::MAX as usize) as u32,
            matched.min(u32::MAX as usize) as u32,
        );
        if matched >= self.cfg.min_prefix_len.max(1) {
            inner.stats.hits += 1;
            inner.stats.hit_tokens += matched as u64;
            kt_trace::counter_add(kt_trace::CounterKind::PrefixHits, 1);
            kt_trace::counter_add(kt_trace::CounterKind::PrefixHitTokens, matched as u64);
            Some(PrefixMatch {
                len: matched,
                parts,
            })
        } else {
            inner.stats.misses += 1;
            kt_trace::counter_add(kt_trace::CounterKind::PrefixMisses, 1);
            None
        }
    }

    /// Freezes the first `tokens.len()` positions of `cache` into the
    /// index (inserting new segments, splitting edges on divergence, or
    /// just promoting an already-cached prefix). No-op when `tokens` is
    /// shorter than `min_prefix_len` or longer than the cached
    /// sequence. Evicts least-recently-used leaves if the insert pushed
    /// residency over budget.
    pub fn insert(&self, tokens: &[u32], cache: &KvCache) {
        if tokens.is_empty()
            || tokens.len() < self.cfg.min_prefix_len
            || tokens.len() > cache.seq_len()
            || self.cfg.capacity_bytes == 0
        {
            return;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let mut pos = 0usize;
        let mut delta_bytes = 0usize;
        let mut delta_entries = 0u64;
        let mut insertions = 0u64;
        let mut cur = &mut inner.children;
        while pos < tokens.len() {
            let Some(ci) = cur.iter().position(|c| c.tokens[0] == tokens[pos]) else {
                // Nothing shares this next token: freeze the whole
                // remaining span as a fresh leaf.
                let seg = Segment::from_cache(cache, pos, tokens.len());
                delta_bytes += seg.bytes();
                delta_entries += 1;
                insertions += 1;
                cur.push(Node {
                    tokens: tokens[pos..].to_vec(),
                    seg: Arc::new(seg),
                    children: Vec::new(),
                    last_touch: tick,
                });
                break;
            };
            let (common, edge_len) = {
                let child = &mut cur[ci];
                let common = child
                    .tokens
                    .iter()
                    .zip(&tokens[pos..])
                    .take_while(|(a, b)| a == b)
                    .count();
                child.last_touch = tick;
                (common, child.tokens.len())
            };
            if common == edge_len {
                pos += common;
                cur = &mut cur[ci].children;
                continue;
            }
            if pos + common == tokens.len() {
                // Query exhausted mid-edge: the existing (longer) edge
                // already covers this prefix. The touch above is the
                // promotion.
                break;
            }
            // Divergence mid-edge: split the edge at the shared head,
            // hang the old tail and the new branch under it. The old
            // segment may still be referenced by in-flight seedings —
            // the halves are fresh allocations; the shared Arc just
            // loses this index's reference.
            let old = cur.remove(ci);
            let (head_seg, tail_seg) = old.seg.split(common);
            let new_seg = Segment::from_cache(cache, pos + common, tokens.len());
            delta_bytes += head_seg.bytes() + tail_seg.bytes() + new_seg.bytes();
            delta_bytes -= old.seg.bytes();
            delta_entries += 2; // one edge became two, plus the new leaf
            insertions += 1;
            let tail = Node {
                tokens: old.tokens[common..].to_vec(),
                seg: Arc::new(tail_seg),
                children: old.children,
                last_touch: old.last_touch,
            };
            let branch = Node {
                tokens: tokens[pos + common..].to_vec(),
                seg: Arc::new(new_seg),
                children: Vec::new(),
                last_touch: tick,
            };
            cur.push(Node {
                tokens: old.tokens[..common].to_vec(),
                seg: Arc::new(head_seg),
                children: vec![tail, branch],
                last_touch: tick,
            });
            break;
        }
        inner.stats.insertions += insertions;
        inner.stats.resident_bytes += delta_bytes as u64;
        inner.stats.entries += delta_entries;
        self.evict_to_budget(&mut inner);
    }

    /// Drops least-recently-touched leaves until residency fits the
    /// budget. Leaves only: every interior prefix stays valid, and
    /// in-flight seedings hold their own `Arc` so dropping is safe.
    fn evict_to_budget(&self, inner: &mut Inner) {
        let mut freed = 0usize;
        let mut evicted = 0u64;
        while inner.stats.resident_bytes > self.cfg.capacity_bytes as u64 {
            let Some(touch) = min_leaf_touch(&inner.children) else {
                break;
            };
            let Some(bytes) = remove_leaf(&mut inner.children, touch) else {
                break;
            };
            freed += bytes;
            evicted += 1;
            inner.stats.resident_bytes -= bytes as u64;
            inner.stats.entries -= 1;
        }
        if evicted > 0 {
            inner.stats.evictions += evicted;
            inner.stats.evicted_bytes += freed as u64;
            kt_trace::counter_add(kt_trace::CounterKind::PrefixEvictedBytes, freed as u64);
            kt_trace::instant(
                kt_trace::SpanKind::PrefixEvict,
                freed.min(u32::MAX as usize) as u32,
                evicted.min(u64::from(u32::MAX)) as u32,
            );
        }
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> PrefixStats {
        self.lock().stats
    }

    /// Distinct frozen pages currently shared beyond the index itself
    /// (referenced by at least one lease or in-flight seeding). A page
    /// may legitimately appear in several segments (splits share the
    /// straddling page), so "shared" means strong references exceed
    /// the index's own occurrence count.
    pub fn shared_pages(&self) -> usize {
        let inner = self.lock();
        let mut occurrences: HashMap<usize, (usize, usize)> = HashMap::new();
        fn walk(nodes: &[Node], occ: &mut HashMap<usize, (usize, usize)>) {
            for n in nodes {
                for p in n.seg.layers.iter().flat_map(|ls| &ls.pages) {
                    let e = occ
                        .entry(Arc::as_ptr(p) as usize)
                        .or_insert((0, Arc::strong_count(p)));
                    e.0 += 1;
                }
            }
            for n in nodes {
                walk(&n.children, occ);
            }
        }
        walk(&inner.children, &mut occurrences);
        occurrences
            .values()
            .filter(|&&(in_index, strong)| strong > in_index)
            .count()
    }

    /// Drops every frozen segment, returning the bytes released. Used
    /// under page pressure: prefix residency is an optimization, and
    /// releasing the index's page references lets the allocator
    /// reclaim them as soon as no lease shares them.
    pub fn clear(&self) -> u64 {
        let mut inner = self.lock();
        inner.children.clear();
        let freed = inner.stats.resident_bytes;
        inner.stats.evictions += inner.stats.entries;
        inner.stats.evicted_bytes += freed;
        inner.stats.resident_bytes = 0;
        inner.stats.entries = 0;
        if freed > 0 {
            kt_trace::counter_add(kt_trace::CounterKind::PrefixEvictedBytes, freed);
        }
        freed
    }
}

/// Smallest `last_touch` over every leaf in the forest.
fn min_leaf_touch(nodes: &[Node]) -> Option<u64> {
    nodes
        .iter()
        .filter_map(|n| {
            if n.children.is_empty() {
                Some(n.last_touch)
            } else {
                min_leaf_touch(&n.children)
            }
        })
        .min()
}

/// Removes the first leaf stamped `touch`, returning its bytes.
fn remove_leaf(nodes: &mut Vec<Node>, touch: u64) -> Option<usize> {
    for i in 0..nodes.len() {
        if nodes[i].children.is_empty() {
            if nodes[i].last_touch == touch {
                return Some(nodes.remove(i).seg.bytes());
            }
        } else if let Some(b) = remove_leaf(&mut nodes[i].children, touch) {
            return Some(b);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kvcache::KvCache;

    /// A standalone single-layer cache whose rows encode their position
    /// and token, plus a memo when `memo_width > 0`.
    fn donor(tokens: &[u32], memo_width: usize) -> KvCache {
        let mut c = KvCache::new(&[(3, 2)], 64);
        for (pos, &t) in tokens.iter().enumerate() {
            let k = [pos as f32, t as f32, 0.25];
            let v = [pos as f32 * 10.0, t as f32 * 10.0];
            c.layer_mut(0).push(&k, &v).unwrap();
            if memo_width > 0 {
                c.layer_mut(0).memo_ensure(memo_width);
                c.layer_mut(0)
                    .memo_push(&vec![pos as f32 + 0.5; memo_width])
                    .unwrap();
            }
        }
        c
    }

    fn cfg(bytes: usize, min: usize) -> PrefixCacheConfig {
        PrefixCacheConfig {
            capacity_bytes: bytes,
            min_prefix_len: min,
        }
    }

    #[test]
    fn insert_lookup_seed_round_trip_with_memo() {
        let px = PrefixCache::new(cfg(1 << 20, 1));
        let tokens = [5u32, 6, 7, 8];
        let cache = donor(&tokens, 4);
        px.insert(&tokens, &cache);

        let m = px.lookup(&[5, 6, 7, 8, 9]).expect("prefix hit");
        assert_eq!(m.len(), 4);
        let mut seeded = KvCache::new(&[(3, 2)], 64);
        m.seed_into(&mut seeded).unwrap();
        assert_eq!(seeded.seq_len(), 4);
        for pos in 0..4 {
            assert_eq!(seeded.layer(0).k_row(pos), cache.layer(0).k_row(pos));
            assert_eq!(seeded.layer(0).v_row(pos), cache.layer(0).v_row(pos));
            assert_eq!(
                seeded.layer(0).memo_row(pos),
                cache.layer(0).memo_row(pos),
                "memo rides along"
            );
        }
        assert_eq!(seeded.layer(0).memo_len(), 4);

        let s = px.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (1, 1, 0));
        assert_eq!(s.hit_tokens, 4);
        assert_eq!(s.entries, 1);
        assert!(s.resident_bytes > 0);
    }

    #[test]
    fn divergence_splits_the_edge_and_both_branches_hit() {
        let px = PrefixCache::new(cfg(1 << 20, 1));
        let a = [1u32, 2, 3, 4];
        let b = [1u32, 2, 9, 9];
        px.insert(&a, &donor(&a, 0));
        px.insert(&b, &donor(&b, 0));
        assert_eq!(px.stats().entries, 3, "head + two branches");

        for want in [&a[..], &b[..]] {
            let m = px.lookup(want).expect("hit");
            assert_eq!(m.len(), 4);
            let mut seeded = KvCache::new(&[(3, 2)], 64);
            m.seed_into(&mut seeded).unwrap();
            let reference = donor(want, 0);
            for pos in 0..4 {
                assert_eq!(seeded.layer(0).k_row(pos), reference.layer(0).k_row(pos));
                assert_eq!(seeded.layer(0).v_row(pos), reference.layer(0).v_row(pos));
            }
        }
        // Partial-edge match: only the shared head of a diverging query.
        let m = px.lookup(&[1, 2, 3, 7]).expect("partial hit");
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn min_prefix_len_gates_both_sides() {
        let px = PrefixCache::new(cfg(1 << 20, 3));
        px.insert(&[1, 2], &donor(&[1, 2], 0));
        assert_eq!(px.stats().entries, 0, "too short to insert");
        px.insert(&[1, 2, 3, 4], &donor(&[1, 2, 3, 4], 0));
        assert!(px.lookup(&[1, 2]).is_none(), "match below threshold");
        assert_eq!(px.lookup(&[1, 2, 3]).unwrap().len(), 3);
        let s = px.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn eviction_respects_budget_and_lru_order() {
        let a = [1u32, 11, 12, 13];
        let b = [2u32, 21, 22, 23];
        let c = [3u32, 31, 32, 33];
        // What one 4-token single-layer segment costs, measured.
        let seg = {
            let probe = PrefixCache::new(cfg(1 << 20, 1));
            probe.insert(&a, &donor(&a, 0));
            probe.stats().resident_bytes
        };
        // Budget fits two segments, not three.
        let budget = 2 * seg + seg / 2;
        let px = PrefixCache::new(cfg(budget as usize, 1));
        px.insert(&a, &donor(&a, 0));
        px.insert(&b, &donor(&b, 0));
        assert_eq!(px.stats().entries, 2);
        // Touch `a` so `b` is the LRU leaf, then overflow.
        assert!(px.lookup(&a).is_some());
        px.insert(&c, &donor(&c, 0));
        let s = px.stats();
        assert!(s.resident_bytes <= budget, "budget respected: {s:?}");
        assert_eq!(s.evictions, 1);
        assert_eq!(s.evicted_bytes, seg);
        assert!(px.lookup(&a).is_some(), "recently used survives");
        assert!(px.lookup(&c).is_some(), "newest survives");
        assert!(px.lookup(&b).is_none(), "LRU leaf evicted");
    }

    #[test]
    fn zero_budget_caches_nothing() {
        let px = PrefixCache::new(cfg(0, 1));
        px.insert(&[1, 2, 3], &donor(&[1, 2, 3], 0));
        assert_eq!(px.stats().entries, 0);
        assert!(px.lookup(&[1, 2, 3]).is_none());
    }

    #[test]
    fn insert_longer_than_cache_is_ignored() {
        let px = PrefixCache::new(cfg(1 << 20, 1));
        let cache = donor(&[1, 2], 0);
        px.insert(&[1, 2, 3], &cache);
        assert_eq!(px.stats().entries, 0);
    }

    #[test]
    fn seeding_requires_an_empty_matching_cache() {
        let px = PrefixCache::new(cfg(1 << 20, 1));
        let tokens = [5u32, 6, 7];
        px.insert(&tokens, &donor(&tokens, 0));
        let m = px.lookup(&tokens).unwrap();
        let mut busy = donor(&[9], 0);
        assert!(m.seed_into(&mut busy).is_err(), "non-empty cache");
        let mut wrong = KvCache::new(&[(3, 2), (3, 2)], 64);
        assert!(m.seed_into(&mut wrong).is_err(), "layer-count mismatch");
    }

    /// `donor` without a memo, on 64-row-capacity pages of `page_rows`
    /// from `alloc`.
    fn paged_donor(
        tokens: &[u32],
        alloc: &crate::paged::BlockAllocator,
        page_rows: usize,
    ) -> KvCache {
        let mut c = KvCache::new_paged(&[(3, 2)], 64, alloc, page_rows);
        for (pos, &t) in tokens.iter().enumerate() {
            let k = [pos as f32, t as f32, 0.25];
            let v = [pos as f32 * 10.0, t as f32 * 10.0];
            c.layer_mut(0).push(&k, &v).unwrap();
        }
        c
    }

    #[test]
    fn paged_seed_shares_whole_pages_and_copies_tail() {
        let alloc = crate::paged::BlockAllocator::new(64);
        let px = PrefixCache::new(cfg(1 << 20, 1));
        let tokens: Vec<u32> = (100..110).collect(); // 10 rows, R=4
        let cache = paged_donor(&tokens, &alloc, 4);
        px.insert(&tokens, &cache);
        drop(cache); // donor releases; frozen pages keep its state alive

        let m = px.lookup(&tokens).expect("hit");
        assert_eq!(m.len(), 10);
        assert_eq!(m.page_aligned_len(4), 8, "rounded down to a page boundary");

        let before = alloc.allocated_pages();
        let mut seeded = KvCache::new_paged(&[(3, 2)], 64, &alloc, 4);
        m.seed_into(&mut seeded).unwrap();
        assert_eq!(seeded.seq_len(), 10);
        // Two pages shared by reference, one fresh page for the 2-row tail.
        assert_eq!(alloc.allocated_pages(), before + 1);
        assert_eq!(seeded.layer(0).shared_pages(), 2);
        assert_eq!(px.shared_pages(), 2);

        let reference = donor(&tokens, 0);
        for pos in 0..10 {
            assert_eq!(seeded.layer(0).k_row(pos), reference.layer(0).k_row(pos));
            assert_eq!(seeded.layer(0).v_row(pos), reference.layer(0).v_row(pos));
        }

        // Appending past the seed lands in private pages.
        seeded.layer_mut(0).push(&[9.0; 3], &[9.0; 2]).unwrap();
        assert_eq!(seeded.layer(0).shared_pages(), 2);
    }

    #[test]
    fn paged_branch_straddling_page_comes_from_the_matching_branch() {
        // Two branches diverge mid-page: the page straddling the split
        // exists in both donors with different rows past the branch
        // point. The shared-page map must take it from the *branch*
        // part (the last part touching it), not the head.
        let alloc = crate::paged::BlockAllocator::new(64);
        let px = PrefixCache::new(cfg(1 << 20, 1));
        let a: Vec<u32> = (1..=10).collect();
        let mut b: Vec<u32> = (1..=6).collect();
        b.extend([90, 91, 92, 93]);
        px.insert(&a, &paged_donor(&a, &alloc, 4));
        px.insert(&b, &paged_donor(&b, &alloc, 4));

        for want in [&a, &b] {
            let m = px.lookup(want).expect("hit");
            assert_eq!(m.len(), 10);
            let mut seeded = KvCache::new_paged(&[(3, 2)], 64, &alloc, 4);
            m.seed_into(&mut seeded).unwrap();
            let reference = donor(want, 0);
            for pos in 0..10 {
                assert_eq!(
                    seeded.layer(0).k_row(pos),
                    reference.layer(0).k_row(pos),
                    "k row {pos} of {want:?}"
                );
                assert_eq!(
                    seeded.layer(0).v_row(pos),
                    reference.layer(0).v_row(pos),
                    "v row {pos} of {want:?}"
                );
            }
        }
    }

    #[test]
    fn snapshots_frozen_at_another_page_size_row_copy() {
        // The donor froze 16-row pages; a 4-row lease cannot adopt
        // them, so it seeds by row copy (nothing shared), bit-exact.
        let alloc = crate::paged::BlockAllocator::new(64);
        let px = PrefixCache::new(cfg(1 << 20, 1));
        let tokens: Vec<u32> = (7..16).collect();
        let wide = donor(&tokens, 0);
        px.insert(&tokens, &wide);
        let m = px.lookup(&tokens).expect("hit");
        let mut seeded = KvCache::new_paged(&[(3, 2)], 64, &alloc, 4);
        m.seed_into(&mut seeded).unwrap();
        assert_eq!(seeded.seq_len(), tokens.len());
        assert_eq!(seeded.layer(0).shared_pages(), 0);
        for pos in 0..tokens.len() {
            assert_eq!(seeded.layer(0).k_row(pos), wide.layer(0).k_row(pos));
            assert_eq!(seeded.layer(0).v_row(pos), wide.layer(0).v_row(pos));
        }
    }

    #[test]
    fn clearing_the_index_releases_page_references() {
        let alloc = crate::paged::BlockAllocator::new(64);
        let px = PrefixCache::new(cfg(1 << 20, 1));
        let tokens: Vec<u32> = (0..8).collect();
        px.insert(&tokens, &paged_donor(&tokens, &alloc, 4));
        assert_eq!(alloc.allocated_pages(), 2, "index keeps frozen pages");
        let freed = px.clear();
        assert!(freed > 0);
        assert_eq!(px.stats().entries, 0);
        assert_eq!(alloc.allocated_pages(), 0, "pages reclaimed");
        assert!(px.lookup(&tokens).is_none());
    }

    #[test]
    fn promotion_of_cached_prefix_adds_nothing() {
        let px = PrefixCache::new(cfg(1 << 20, 1));
        let tokens = [4u32, 5, 6, 7];
        let cache = donor(&tokens, 0);
        px.insert(&tokens, &cache);
        let before = px.stats();
        px.insert(&tokens, &cache);
        px.insert(&tokens[..2], &cache); // shorter: covered mid-edge
        let after = px.stats();
        assert_eq!(after.entries, before.entries);
        assert_eq!(after.resident_bytes, before.resident_bytes);
        assert_eq!(after.insertions, before.insertions);
    }
}
