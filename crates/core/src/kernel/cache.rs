//! Concurrent, size-bounded, LRU-evicting kernel cache.
//!
//! Every expensive kernel object in this workspace — [`super::GTable`]
//! grids, [`super::GBatch`] coefficient tiles, [`super::PbTable`] DP
//! tables — is built once per key and then read many times. Before this
//! module existed each consumer carried its own `&mut self` `HashMap`
//! memo ([`super::PbCache`], `sim::sweep::SharedGridCache`), which meant warm
//! tables could not be shared across engine worker threads, let alone
//! across the requests of a long-lived daemon.
//!
//! [`SharedCache`] is the one primitive those memos now rebase on:
//!
//! * **Thread-safe by sharding** — the key space is split over a fixed
//!   number of `Mutex`-guarded shards (selected by the key's hash), so
//!   concurrent lookups of *different* keys rarely contend while lookups
//!   of the *same* key serialize exactly enough to build each value once.
//! * **`Arc`-shared values** — a lookup returns `Arc<V>`; workers clone
//!   the handle and drop the lock before evaluating, so a warm table is
//!   shared across threads without copying and survives eviction for as
//!   long as any worker still holds it.
//! * **Size-bounded with deterministic LRU eviction** — each shard keeps
//!   a `BTreeMap<u64, K>` recency index from a monotone per-shard tick to
//!   the key last touched at that tick. When a shard exceeds its slice of
//!   the capacity it pops the *smallest* tick: eviction order is a pure
//!   function of the access sequence, never of `HashMap` iteration order
//!   (which the workspace's `deterministic-iteration` lint forbids in
//!   library code).
//! * **Counted** — hit / miss / eviction totals are kept in relaxed
//!   atomics and snapshot as one [`CacheStats`], the uniform stats type
//!   printed by the serve daemon's shutdown summary and recorded in
//!   `bench::runner` manifests.
//!
//! ## Determinism contract
//!
//! A cache can change *allocation* (who builds a table, when it is
//! dropped) but never *values*: [`SharedCache::get_or_try_insert_with`]
//! runs the builder under the shard lock, so a key is built at most once
//! per residency and every reader observes the same bits. Builders must
//! therefore be deterministic functions of the key — true of every
//! kernel builder in this workspace — and must not re-enter the cache
//! (they run under a shard lock; re-entry on the same shard would
//! deadlock). Eviction followed by a rebuild reproduces the identical
//! value, so bounded capacity also only changes allocation.

use crate::error::Result;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independent mutex-guarded buckets a cache is split into.
/// Eight keeps lock contention negligible at the pool sizes the engine
/// runs (≤ 16 workers) while keeping the per-shard capacity slices large
/// enough that LRU behaves like a single global list in practice.
pub const CACHE_SHARDS: usize = 8;

/// Uniform hit/miss/eviction snapshot shared by every cache in the
/// workspace ([`super::PbCache`], `sim::sweep::SharedGridCache`,
/// `mech::evaluator::ResponseCache`). Produced by [`SharedCache::stats`],
/// printed in the serve daemon's shutdown summary, and recorded by
/// `bench::runner` manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from a resident entry.
    pub hits: u64,
    /// Lookups that had to build (or rebuild after eviction) the value.
    pub misses: u64,
    /// Entries evicted to keep the cache inside its capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries (`0` means unbounded).
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups served warm, in `[0, 1]`; `0` before any
    /// lookup has happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            out,
            "hits {} misses {} evictions {} entries {}/{} hit-rate {:.1}%",
            self.hits,
            self.misses,
            self.evictions,
            self.entries,
            if self.capacity == 0 { "∞".to_string() } else { self.capacity.to_string() },
            100.0 * self.hit_rate()
        )
    }
}

/// One resident value plus the recency tick under which the shard's
/// order index currently files it.
#[derive(Debug)]
struct Slot<V> {
    value: Arc<V>,
    tick: u64,
}

/// One mutex-guarded bucket: the key→value map, the tick→key recency
/// index (a `BTreeMap` so eviction pops a *deterministic* least-recent
/// entry instead of iterating the `HashMap`), and the shard-local clock.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, Slot<V>>,
    order: BTreeMap<u64, K>,
    tick: u64,
}

impl<K, V> Shard<K, V> {
    fn new() -> Self {
        Shard { map: HashMap::new(), order: BTreeMap::new(), tick: 0 }
    }
}

/// A thread-safe, size-bounded, LRU-evicting map from `K` to `Arc<V>`.
///
/// See the [module docs](self) for the design; in short: sharded
/// `Mutex` buckets, `Arc`-shared values, deterministic least-recently-
/// used eviction, and [`CacheStats`] counters. The only insertion path
/// is [`get_or_try_insert_with`](Self::get_or_try_insert_with) — an
/// entry-style API that builds under the shard lock and therefore cannot
/// observe "entry missing right after insert".
#[derive(Debug)]
pub struct SharedCache<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    /// Per-shard resident bound (`u64::MAX` when unbounded).
    shard_capacity: usize,
    /// Total capacity as configured (`0` = unbounded), for stats.
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Eq + Hash + Clone, V> SharedCache<K, V> {
    /// A cache holding at most `capacity` entries (`0` = unbounded),
    /// split over [`CACHE_SHARDS`] buckets.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, CACHE_SHARDS)
    }

    /// As [`new`](Self::new) with an explicit shard count (≥ 1); tests
    /// use one shard to make global LRU order exact.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let shard_capacity =
            if capacity == 0 { usize::MAX } else { capacity.div_ceil(shards).max(1) };
        SharedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_capacity,
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Index of the bucket holding `key`. `DefaultHasher::new()` is
    /// deliberately *unseeded* (unlike `RandomState`), so the shard
    /// assignment — and with it the eviction trace — is reproducible
    /// across runs.
    fn shard_index(&self, key: &K) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() % self.shards.len() as u64) as usize
    }

    /// The value for `key`, building it with `build` on a miss (or after
    /// an eviction). The builder runs under the shard lock, so each key
    /// is built at most once per residency even under concurrent lookups
    /// of the same key; a builder error is propagated and caches nothing.
    pub fn get_or_try_insert_with(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V>,
    ) -> Result<Arc<V>> {
        let mut shard = match self.shards[self.shard_index(&key)].lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(slot) = shard.map.get_mut(&key) {
            let value = Arc::clone(&slot.value);
            let old_tick = slot.tick;
            slot.tick = tick;
            shard.order.remove(&old_tick);
            shard.order.insert(tick, key);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(value);
        }
        let value = Arc::new(build()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        shard.map.insert(key.clone(), Slot { value: Arc::clone(&value), tick });
        shard.order.insert(tick, key);
        while shard.map.len() > self.shard_capacity {
            // Deterministic LRU: pop the smallest tick in the recency
            // index, never an arbitrary HashMap entry.
            let Some((_, victim)) = shard.order.pop_first() else { break };
            shard.map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(value)
    }

    /// Snapshot of the hit/miss/eviction counters and current size (the
    /// entry count sums the shards; a racing insert can make it
    /// momentarily stale, which is fine for reporting).
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| match s.lock() {
                Ok(guard) => guard.map.len(),
                Err(poisoned) => poisoned.into_inner().map.len(),
            })
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread;

    fn build(n: u64) -> Result<u64> {
        Ok(n * 10)
    }

    /// Whether `key` is resident, without inserting it: a failing builder
    /// caches nothing. Like any lookup it bumps recency on a hit.
    fn resident(cache: &SharedCache<u64, u64>, key: u64) -> bool {
        cache.get_or_try_insert_with(key, || Err(crate::error::Error::EmptyProfile)).is_ok()
    }

    #[test]
    fn builds_once_then_hits() {
        let cache: SharedCache<u64, u64> = SharedCache::new(16);
        let a = cache.get_or_try_insert_with(7, || build(7)).unwrap();
        let b = cache.get_or_try_insert_with(7, || build(7)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the first build");
        assert_eq!(*a, 70);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.capacity, 16);
        assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
    }

    #[test]
    fn builder_error_caches_nothing() {
        let cache: SharedCache<u64, u64> = SharedCache::new(16);
        let err =
            cache.get_or_try_insert_with(1, || Err(crate::error::Error::EmptyProfile)).unwrap_err();
        assert_eq!(err, crate::error::Error::EmptyProfile);
        assert_eq!(cache.stats().entries, 0);
        // The key is still buildable afterwards.
        assert_eq!(*cache.get_or_try_insert_with(1, || build(1)).unwrap(), 10);
    }

    #[test]
    fn evicts_least_recently_used_deterministically() {
        // One shard so the global LRU order is exact.
        let cache: SharedCache<u64, u64> = SharedCache::with_shards(2, 1);
        cache.get_or_try_insert_with(1, || build(1)).unwrap();
        cache.get_or_try_insert_with(2, || build(2)).unwrap();
        // Touch 1 so 2 becomes the least-recent entry.
        assert!(resident(&cache, 1));
        cache.get_or_try_insert_with(3, || build(3)).unwrap();
        assert_eq!(cache.stats().entries, 2);
        assert!(!resident(&cache, 2), "2 was least-recent and must be the victim");
        assert!(resident(&cache, 1));
        assert!(resident(&cache, 3));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn eviction_trace_is_reproducible() {
        // The same access sequence must evict the same keys, run after
        // run — DefaultHasher is unseeded, BTreeMap pops the min tick.
        let trace = |caches: &SharedCache<u64, u64>| -> Vec<bool> {
            for key in 0..32u64 {
                caches.get_or_try_insert_with(key, || build(key)).unwrap();
            }
            (0..32u64).map(|key| resident(caches, key)).collect()
        };
        let a = trace(&SharedCache::new(8));
        let b = trace(&SharedCache::new(8));
        assert_eq!(a, b);
        assert!(a.iter().filter(|present| **present).count() <= 8 + CACHE_SHARDS);
    }

    #[test]
    fn capacity_zero_is_unbounded() {
        let cache: SharedCache<u64, u64> = SharedCache::new(0);
        for key in 0..100 {
            cache.get_or_try_insert_with(key, || build(key)).unwrap();
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions, stats.capacity), (100, 0, 0));
    }

    #[test]
    fn concurrent_same_key_builds_once() {
        let cache: Arc<SharedCache<u64, u64>> = Arc::new(SharedCache::new(64));
        let barrier = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    *cache.get_or_try_insert_with(42, || build(42)).unwrap()
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), 420);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "the build must happen exactly once");
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn stats_display_and_merge() {
        let a = CacheStats { hits: 3, misses: 1, evictions: 0, entries: 1, capacity: 4 };
        let line = format!("{a}");
        assert!(line.contains("hits 3") && line.contains("entries 1/4"), "{line}");
        let unbounded = format!("{}", CacheStats::default());
        assert!(unbounded.contains("0/∞"), "{unbounded}");
    }
}
