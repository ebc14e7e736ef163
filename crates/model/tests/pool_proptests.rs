//! Property tests for the KV-cache pool: random lease/release
//! schedules must never alias a cache, never leak a lease, and always
//! make released slots reusable — and misuse (releasing a lease into
//! the wrong pool, even one whose ids collide) must error without
//! corrupting the free list. With a prefix cache attached, concurrent
//! lease/insert/evict churn must preserve the construction invariant
//! `in_use + free == constructed` at every observable instant.

use kt_model::pool::{CacheLease, KvCachePool};
use kt_model::prefix::PrefixCacheConfig;
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #[test]
    fn lease_release_schedules_preserve_invariants(
        max_leases in 1usize..5,
        ops in proptest::collection::vec((any::<bool>(), 0usize..8), 1..40),
    ) {
        let pool = KvCachePool::new(&[(4, 4), (2, 2)], 8, max_leases);
        let mut held: Vec<CacheLease> = Vec::new();
        let mut seen_ids: HashSet<u64> = HashSet::new();

        for (is_lease, pick) in ops {
            if is_lease {
                match pool.lease() {
                    Some(lease) => {
                        prop_assert!(
                            held.len() < max_leases,
                            "lease granted beyond max_leases"
                        );
                        // No aliasing: every lease id is fresh.
                        prop_assert!(
                            seen_ids.insert(lease.id()),
                            "lease id {} handed out twice", lease.id()
                        );
                        // Recycled caches arrive reset.
                        prop_assert_eq!(lease.cache.seq_len(), 0);
                        held.push(lease);
                    }
                    None => prop_assert_eq!(
                        held.len(), max_leases,
                        "pool starved below its limit"
                    ),
                }
            } else if !held.is_empty() {
                let mut lease = held.swap_remove(pick % held.len());
                // Dirty the cache; the pool must reset it on release.
                lease.cache.layer_mut(0).push(&[1.0; 4], &[2.0; 4]).unwrap();
                pool.release(lease).unwrap();
            }
            // Accounting stays consistent after every op.
            prop_assert_eq!(pool.in_use(), held.len());
            prop_assert_eq!(pool.available(), max_leases - held.len());
        }

        // Releasing everything leaves no leaks: the pool drains to
        // zero outstanding and a full complement of leases is
        // available again.
        for lease in held.drain(..) {
            pool.release(lease).unwrap();
        }
        prop_assert_eq!(pool.in_use(), 0);
        prop_assert_eq!(pool.available(), max_leases);
        let refill: Vec<CacheLease> =
            (0..max_leases).map(|_| pool.lease().unwrap()).collect();
        prop_assert!(pool.lease().is_none());
        for lease in refill {
            prop_assert_eq!(lease.cache.seq_len(), 0, "recycled cache not reset");
            pool.release(lease).unwrap();
        }
    }

    #[test]
    fn concurrent_lease_release_is_race_free(
        seed_ops in proptest::collection::vec(1usize..6, 2..5),
    ) {
        // Several threads hammer one pool; aggregate invariants must
        // hold no matter the interleaving.
        let pool = std::sync::Arc::new(KvCachePool::new(&[(4, 4)], 4, 3));
        let ids = std::sync::Arc::new(std::sync::Mutex::new(HashSet::<u64>::new()));
        std::thread::scope(|scope| {
            for &rounds in &seed_ops {
                let pool = std::sync::Arc::clone(&pool);
                let ids = std::sync::Arc::clone(&ids);
                scope.spawn(move || {
                    for _ in 0..rounds * 8 {
                        if let Some(lease) = pool.lease() {
                            assert!(
                                ids.lock().unwrap().insert(lease.id()),
                                "aliased lease id under concurrency"
                            );
                            assert_eq!(lease.cache.seq_len(), 0);
                            pool.release(lease).unwrap();
                        }
                        std::hint::spin_loop();
                    }
                });
            }
        });
        prop_assert_eq!(pool.in_use(), 0, "leases leaked under concurrency");
        prop_assert!(pool.pooled() <= 3, "free list exceeded max_leases");
    }

    #[test]
    fn foreign_colliding_releases_error_without_corrupting_the_free_list(
        ops in proptest::collection::vec(any::<bool>(), 1..15),
    ) {
        for misroute in ops {
            // Two pools with identical shapes: their first lease ids
            // collide (both count from zero), so only the pool tag can
            // tell a foreign lease apart.
            let a = KvCachePool::new(&[(4, 4)], 8, 2);
            let b = KvCachePool::new(&[(4, 4)], 8, 2);
            let mut la = a.lease().unwrap();
            let mut lb = b.lease().unwrap();
            prop_assert_eq!(la.id(), lb.id(), "ids collide by construction");
            // Both hold a page, so a misparked cache would show up in
            // the wrong allocator's accounting.
            la.cache.layer_mut(0).push(&[1.0; 4], &[2.0; 4]).unwrap();
            lb.cache.layer_mut(0).push(&[3.0; 4], &[4.0; 4]).unwrap();
            if misroute {
                // Misrouted releases error; the foreign cache never
                // lands in the wrong pool's free list. The consumed
                // lease stays observable as a leak in its origin pool.
                prop_assert!(a.release(lb).is_err(), "foreign lease accepted");
                prop_assert!(b.release(la).is_err(), "foreign lease accepted");
                for p in [&a, &b] {
                    let o = p.occupancy();
                    prop_assert_eq!((o.in_use, o.free, o.constructed), (1, 0, 1));
                }
            } else {
                a.release(la).unwrap();
                b.release(lb).unwrap();
                for p in [&a, &b] {
                    let o = p.occupancy();
                    prop_assert_eq!((o.in_use, o.free, o.constructed), (0, 1, 1));
                }
            }
            // Whatever happened, pool `a` still serves fresh leases
            // from an uncorrupted free list, up to its limit.
            let drain: Vec<CacheLease> = std::iter::from_fn(|| a.lease()).collect();
            prop_assert_eq!(drain.len(), if misroute { 1 } else { 2 });
            for l in drain {
                prop_assert_eq!(l.cache.seq_len(), 0, "recycled cache not reset");
                a.release(l).unwrap();
            }
            let o = a.occupancy();
            prop_assert_eq!(o.in_use + o.free, o.constructed, "free list corrupted");
            for p in [&a, &b] {
                prop_assert_eq!(p.page_stats().allocated, 0, "pages stranded");
            }
        }
    }

    #[test]
    fn concurrent_prefix_churn_preserves_construction_invariant(
        thread_rounds in proptest::collection::vec(2usize..8, 2..4),
        budget in 400usize..2400,
    ) {
        // A tight prefix budget (a frozen page of this shape is 320
        // bytes) forces insert/evict churn while several threads lease,
        // seed, extend and release. The pool's construction invariant
        // must hold at every sampled instant (occupancy() reads all
        // fields under one lock, so samples are consistent snapshots).
        let pool = std::sync::Arc::new(
            KvCachePool::new(&[(3, 2)], 16, 3).with_prefix_cache(PrefixCacheConfig {
                capacity_bytes: budget,
                min_prefix_len: 2,
            }),
        );
        std::thread::scope(|scope| {
            for (t, &rounds) in thread_rounds.iter().enumerate() {
                let pool = std::sync::Arc::clone(&pool);
                scope.spawn(move || {
                    for r in 0..rounds * 4 {
                        // Overlapping prompts across threads: hits,
                        // splits and evictions all occur.
                        let n = 3 + (t + r) % 6;
                        let prompt: Vec<u32> = (0..n).map(|i| (i % 3) as u32 + (r % 2) as u32).collect();
                        let Some((mut lease, seeded)) = pool.lease_for_prompt(&prompt) else {
                            continue;
                        };
                        assert!(seeded < prompt.len(), "seed must leave a suffix");
                        // Rows are a pure function of (position, token),
                        // so seeded rows match what we would push.
                        for (pos, &tok) in prompt.iter().enumerate().skip(seeded) {
                            let k = [pos as f32, tok as f32, 1.5];
                            let v = [tok as f32, pos as f32];
                            lease.cache.layer_mut(0).push(&k, &v).unwrap();
                        }
                        let o = pool.occupancy();
                        assert_eq!(
                            o.in_use + o.free,
                            o.constructed,
                            "construction invariant broken mid-flight"
                        );
                        assert!(o.in_use <= 3, "leases beyond max");
                        pool.release_with_prefix(lease, &prompt).unwrap();
                    }
                });
            }
        });
        let o = pool.occupancy();
        prop_assert_eq!(o.in_use, 0, "leases leaked under churn");
        prop_assert_eq!(o.in_use + o.free, o.constructed);
        let s = pool.prefix_stats().expect("prefix cache attached");
        prop_assert!(s.resident_bytes <= budget as u64, "budget exceeded: {:?}", s);
        prop_assert_eq!(s.lookups, s.hits + s.misses);
    }
}
