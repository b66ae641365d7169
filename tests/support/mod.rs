//! The lossless reference cache `tests/cache_props.rs` compares the
//! library's lock-free `AtomicCache` against: the sharded-mutex map that
//! was the serving cache before it, unbounded or capped, strictly
//! lossless below its capacity. It lives here, not in the library, because
//! nothing but that comparison needs it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tpu_repro::learned::{CacheStats, KernelCache};

/// Number of independent shards; bounds lock contention under parallel
/// lookups without a concurrent-map dependency.
const SHARDS: usize = 16;

/// Thread-safe prediction cache keyed by the canonical kernel hash.
///
/// Stores `Option<f64>` so "this backend cannot score that kernel" (the
/// analytical model on kernels without tile-size options, §6.3 footnote 3)
/// is cached too instead of being recomputed on every visit.
///
/// A lookup or an insert holds one shard's lock for one `HashMap`
/// operation, never across a model evaluation.
pub struct PredictionCache {
    shards: [Mutex<HashMap<u64, Option<f64>>>; SHARDS],
    /// Per-shard entry caps; `None` = unbounded. The caps sum to exactly
    /// the `max_entries` passed to [`PredictionCache::with_capacity`].
    shard_caps: Option<[usize; SHARDS]>,
    evictions: AtomicU64,
}

impl PredictionCache {
    /// An unbounded cache.
    pub fn new() -> PredictionCache {
        PredictionCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            shard_caps: None,
            evictions: AtomicU64::new(0),
        }
    }

    /// A cache holding at most **exactly** `max_entries` predictions:
    /// capacity is distributed over the shards so the per-shard caps sum
    /// to `max_entries` (historically the per-shard cap was rounded *up*,
    /// so small capacities overshot — `with_capacity(3)` could hold 48
    /// entries). Inserting into a full shard evicts an arbitrary resident
    /// entry of that shard, and inserting into a shard with no slots at
    /// all (`max_entries < SHARDS` leaves some empty) discards the
    /// incoming entry; both are counted in [`CacheStats::evictions`].
    /// `max_entries == 0` disables storage entirely — every lookup
    /// misses, nothing is counted as an eviction — which gives
    /// cache-sensitive code an uncached baseline without a second code
    /// path.
    pub fn with_capacity(max_entries: usize) -> PredictionCache {
        let base = max_entries / SHARDS;
        let extra = max_entries % SHARDS;
        PredictionCache {
            shard_caps: Some(std::array::from_fn(|i| base + usize::from(i < extra))),
            ..PredictionCache::new()
        }
    }

    fn shard_index(hash: u64) -> usize {
        (hash % SHARDS as u64) as usize
    }

    fn shard(&self, hash: u64) -> &Mutex<HashMap<u64, Option<f64>>> {
        &self.shards[PredictionCache::shard_index(hash)]
    }

    /// Lock a shard, recovering from mutex poisoning: shard updates are
    /// single `HashMap` operations (never left half-done by a panic) and
    /// predictions are deterministic, so a panic on another serving thread
    /// must not take the cache — and every future lookup — down with it.
    fn lock(
        shard: &Mutex<HashMap<u64, Option<f64>>>,
    ) -> std::sync::MutexGuard<'_, HashMap<u64, Option<f64>>> {
        shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Look up by pre-computed hash.
    pub fn lookup_hash(&self, hash: u64) -> Option<Option<f64>> {
        PredictionCache::lock(self.shard(hash)).get(&hash).copied()
    }

    /// Insert a prediction under a pre-computed hash, evicting if full.
    /// No-op on a zero-capacity cache.
    pub fn insert_hash(&self, hash: u64, prediction: Option<f64>) {
        let cap = self
            .shard_caps
            .map(|caps| caps[PredictionCache::shard_index(hash)]);
        if cap == Some(0) {
            // A shard with no slots. On a zero-capacity cache storage is
            // simply disabled (the uncached baseline — not eviction
            // pressure, so nothing is counted); with a nonzero total
            // capacity the incoming entry is discarded under pressure
            // and accounted for, keeping `len + evictions` equal to the
            // number of distinct inserts.
            if self
                .shard_caps
                .is_some_and(|caps| caps.iter().any(|&c| c != 0))
            {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        let mut map = PredictionCache::lock(self.shard(hash));
        if let Some(cap) = cap {
            if map.len() >= cap && !map.contains_key(&hash) {
                if let Some(&victim) = map.keys().next() {
                    map.remove(&victim);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        map.insert(hash, prediction);
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| PredictionCache::lock(s).len())
            .sum()
    }

    /// Drop all entries (the eviction count is kept).
    pub fn clear(&self) {
        for s in &self.shards {
            PredictionCache::lock(s).clear();
        }
    }

    /// Snapshot the eviction count and the resident entries.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    /// Evictions so far — one atomic read, unlike [`PredictionCache::stats`]
    /// whose entry count locks every shard. Used by the instrumented
    /// predict path to attribute evictions without touching shard locks.
    pub fn eviction_count(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

impl KernelCache for PredictionCache {
    fn lookup_hash(&self, hash: u64) -> Option<Option<f64>> {
        PredictionCache::lookup_hash(self, hash)
    }
    fn insert_hash(&self, hash: u64, prediction: Option<f64>) {
        PredictionCache::insert_hash(self, hash, prediction)
    }
    fn len(&self) -> usize {
        PredictionCache::len(self)
    }
    fn clear(&self) {
        PredictionCache::clear(self)
    }
    fn stats(&self) -> CacheStats {
        PredictionCache::stats(self)
    }
    fn eviction_count(&self) -> u64 {
        PredictionCache::eviction_count(self)
    }
}
