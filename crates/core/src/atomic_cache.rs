//! A lock-free, fixed-capacity prediction cache with atomic packed
//! entries. A lossless sharded-mutex map is the reference the property
//! tests compare it against (`tests/support/` at the workspace root).
//!
//! The serving workload (a daemon answering kernel-cost queries from many
//! concurrent autotuner clients, §6.3 at fleet scale) is read-mostly and
//! collision-tolerant: a lost cache entry merely re-runs a deterministic
//! model, so the structure can trade strict residency guarantees for
//! zero-lock probes. This is the transposition-table idiom from
//! production game engines: a flat array of fixed slots, each packing a
//! verified key and a value into atomic words, with lossy replacement on
//! collision.
//!
//! # Memory layout and torn-read defense
//!
//! Each slot is a pair of `AtomicU64`s:
//!
//! ```text
//! slot := { tag: AtomicU64, val: AtomicU64 }
//! tag  == vkey ^ val        (vkey = nonzero mix of the kernel hash)
//! val  == encoded Option<f64> prediction
//! ```
//!
//! A probe loads both words and recomputes `tag ^ val`; only when the
//! result equals the probing key's `vkey` is the slot treated as a hit.
//! This is the seqlock idea with the version check folded into the key:
//! a reader that observes a *torn* pair — the tag of one write and the
//! value of another, which plain (non-tearing) atomic loads can produce
//! when two writers race on a slot — fails the XOR verification and
//! reports a miss instead of returning a wrong value. A torn pair can
//! only verify if it aliases the 64-bit `vkey` exactly, the same failure
//! class (and probability) as a canonical-hash collision, which the
//! cache design already accepts.
//!
//! Writers store `val` first and then the matching `tag`, both with
//! release ordering, so a verifying reader observes a value at least as
//! fresh as the tag it checked against. No compare-and-swap loops, no
//! locks, no waiting: every operation is a bounded number of atomic
//! loads and stores.
//!
//! # Capacity
//!
//! The slot array is allocated once at construction and never grows:
//! [`AtomicCache::with_capacity`]`(n)` holds **at most exactly `n`**
//! entries. Inserting into a full probe window lossily replaces the
//! window's first slot and counts an eviction.

use crate::engine::{CacheStats, KernelCache};
use std::sync::atomic::{AtomicU64, Ordering};
use tpu_hlo::{canonical_kernel_hash, Kernel};

/// Slots probed per key: the open-addressing window. Small enough that a
/// probe is a handful of cache lines, large enough that lossy
/// replacement is rare below ~50% load factor.
const PROBE_WINDOW: usize = 8;

/// Encoding of `None` ("the backend cannot score this kernel") in the
/// value word: a quiet-NaN bit pattern no backend produces. A prediction
/// whose bits equal this sentinel would be cached as `None`; like a
/// 64-bit hash collision, the aliasing probability is 2⁻⁶⁴-class and
/// accepted by design.
const NONE_WORD: u64 = 0x7FF8_0000_4E4F_4E45; // quiet NaN, "NONE" payload

fn encode(prediction: Option<f64>) -> u64 {
    match prediction {
        None => NONE_WORD,
        Some(x) => x.to_bits(),
    }
}

fn decode(word: u64) -> Option<f64> {
    if word == NONE_WORD {
        None
    } else {
        Some(f64::from_bits(word))
    }
}

/// Finalizer of splitmix64: a bijective mix that spreads canonical kernel
/// hashes (which may be structured) across slots and verification keys.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The nonzero verification key for a kernel hash. Zero is reserved so an
/// all-zero (empty) slot can never verify against any probe.
fn vkey(hash: u64) -> u64 {
    let k = splitmix64(hash);
    if k == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        k
    }
}

struct Slot {
    tag: AtomicU64,
    val: AtomicU64,
}

impl Slot {
    const fn empty() -> Slot {
        Slot {
            tag: AtomicU64::new(0),
            val: AtomicU64::new(0),
        }
    }
}

/// Lock-free, fixed-capacity, open-addressed prediction cache keyed by
/// the canonical kernel hash.
///
/// Behind the [`KernelCache`] trait it gives the [`CacheStats`] snapshot
/// (evictions and resident entries) and the `Option<Option<f64>>`
/// lookup contract (the cached value may itself be `None` for a kernel
/// the backend cannot score). A probe writes nothing: hits are counted
/// once, by [`predict_keyed`](crate::predict_keyed), in
/// [`EngineCounters`](crate::EngineCounters). Unlike a lossless map it
/// makes deliberate serving trade-offs:
///
/// - **lossy**: an insert may replace a colliding resident entry (or be
///   lost outright in a writer/writer race) — sound because predictions
///   are pure functions of the kernel and the frozen weights, so a lost
///   entry only costs a recomputation;
/// - **bounded exactly**: never more than `capacity()` resident entries;
/// - **lock-free**: probes and inserts are a bounded number of atomic
///   loads/stores; no operation can block another thread, and a verified
///   hit can never return a value written for a different key (see the
///   module docs on torn reads).
pub struct AtomicCache {
    slots: Box<[Slot]>,
    evictions: AtomicU64,
}

impl std::fmt::Debug for AtomicCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicCache")
            .field("capacity", &self.capacity())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for AtomicCache {
    fn default() -> AtomicCache {
        AtomicCache::serving_default()
    }
}

impl AtomicCache {
    /// A cache with exactly `slots` entry slots. `slots == 0` disables
    /// storage entirely (every lookup misses), giving cache-sensitive
    /// code an uncached baseline on the same code path.
    pub fn with_capacity(slots: usize) -> AtomicCache {
        AtomicCache {
            slots: (0..slots).map(|_| Slot::empty()).collect(),
            evictions: AtomicU64::new(0),
        }
    }

    /// The default serving size: 2¹⁶ slots (1 MiB of entries), enough for
    /// every distinct kernel of a large autotuning run without lossy
    /// pressure.
    pub fn serving_default() -> AtomicCache {
        AtomicCache::with_capacity(1 << 16)
    }

    /// Number of entry slots — the exact residency bound.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The cache key for a kernel.
    pub fn key(kernel: &Kernel) -> u64 {
        canonical_kernel_hash(kernel)
    }

    /// The probe sequence for a hash: `PROBE_WINDOW` consecutive slots
    /// (wrapping) starting at the mixed hash's home index.
    fn probe(&self, k: u64) -> impl Iterator<Item = &Slot> + '_ {
        let cap = self.slots.len();
        let base = (splitmix64(k ^ 0xA5A5_A5A5_A5A5_A5A5) % cap.max(1) as u64) as usize;
        (0..PROBE_WINDOW.min(cap)).map(move |i| &self.slots[(base + i) % cap])
    }

    /// Look up by pre-computed hash. Lock-free and read-only: at most
    /// `PROBE_WINDOW` pairs of atomic loads.
    pub fn lookup_hash(&self, hash: u64) -> Option<Option<f64>> {
        let k = vkey(hash);
        // Torn or foreign pairs fail the check and fall through to a
        // miss; only a self-consistent (tag, val) pair written for this
        // key can verify. A zero-capacity cache has an empty window.
        self.probe(k).find_map(|slot| {
            let tag = slot.tag.load(Ordering::Acquire);
            let val = slot.val.load(Ordering::Acquire);
            (tag ^ val == k).then(|| decode(val))
        })
    }

    /// Insert a prediction under a pre-computed hash. Lossy: a full probe
    /// window replaces its first slot (counted as an eviction); racing
    /// writers may drop one of their entries. No-op on a zero-capacity
    /// cache.
    pub fn insert_hash(&self, hash: u64, prediction: Option<f64>) {
        if self.slots.is_empty() {
            return;
        }
        let k = vkey(hash);
        let word = encode(prediction);
        // Pass 1: refresh an existing entry for this key in place.
        for slot in self.probe(k) {
            let tag = slot.tag.load(Ordering::Acquire);
            let val = slot.val.load(Ordering::Acquire);
            if tag ^ val == k {
                slot.val.store(word, Ordering::Release);
                slot.tag.store(k ^ word, Ordering::Release);
                return;
            }
        }
        // Pass 2: claim the first empty slot in the window.
        for slot in self.probe(k) {
            let tag = slot.tag.load(Ordering::Acquire);
            let val = slot.val.load(Ordering::Acquire);
            if tag == 0 && val == 0 {
                slot.val.store(word, Ordering::Release);
                slot.tag.store(k ^ word, Ordering::Release);
                return;
            }
        }
        // Pass 3: window full — lossy replace-on-probe of the home slot.
        let victim = self
            .probe(k)
            .next()
            .expect("nonempty cache has a home slot");
        self.evictions.fetch_add(1, Ordering::Relaxed);
        victim.val.store(word, Ordering::Release);
        victim.tag.store(k ^ word, Ordering::Release);
    }
}

/// The bookkeeping half of the contract lives only here; the probe and the
/// insert are also inherent, for callers that hold an `AtomicCache`.
impl KernelCache for AtomicCache {
    fn lookup_hash(&self, hash: u64) -> Option<Option<f64>> {
        AtomicCache::lookup_hash(self, hash)
    }
    fn insert_hash(&self, hash: u64, prediction: Option<f64>) {
        AtomicCache::insert_hash(self, hash, prediction)
    }
    /// Occupied slots: a full scan, and a point-in-time approximation under
    /// concurrent writes — use at phase boundaries, not per probe. Never
    /// exceeds [`AtomicCache::capacity`].
    fn len(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.tag.load(Ordering::Acquire) != 0 || s.val.load(Ordering::Acquire) != 0)
            .count()
    }
    fn clear(&self) {
        for s in self.slots.iter() {
            // tag first: an all-zero tag can never verify, so a reader
            // racing with clear misses instead of seeing a half-cleared
            // slot as a hit.
            s.tag.store(0, Ordering::Release);
            s.val.store(0, Ordering::Release);
        }
    }
    fn stats(&self) -> CacheStats {
        CacheStats {
            evictions: self.eviction_count(),
            entries: self.len(),
        }
    }
    /// One atomic read (no slot scan).
    fn eviction_count(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_lookup_roundtrips() {
        let cache = AtomicCache::with_capacity(64);
        cache.insert_hash(7, Some(42.5));
        cache.insert_hash(9, None);
        assert_eq!(cache.lookup_hash(7), Some(Some(42.5)));
        assert_eq!(cache.lookup_hash(9), Some(None));
        assert_eq!(cache.lookup_hash(8), None);
        assert_eq!(
            cache.stats(),
            CacheStats {
                evictions: 0,
                entries: 2
            }
        );
    }

    #[test]
    fn overwrite_same_key_updates_in_place() {
        let cache = AtomicCache::with_capacity(16);
        cache.insert_hash(3, Some(1.0));
        cache.insert_hash(3, Some(2.0));
        cache.insert_hash(3, None);
        assert_eq!(cache.lookup_hash(3), Some(None));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.eviction_count(), 0);
    }

    #[test]
    fn capacity_is_an_exact_bound() {
        for cap in [1usize, 2, 3, 5, 7, 16, 33] {
            let cache = AtomicCache::with_capacity(cap);
            for key in 0..10_000u64 {
                cache.insert_hash(key, Some(key as f64));
            }
            assert!(cache.len() <= cap, "len {} > cap {cap}", cache.len());
            assert!(
                cache.eviction_count() > 0,
                "cap {cap}: no evictions under pressure"
            );
        }
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let cache = AtomicCache::with_capacity(0);
        cache.insert_hash(1, Some(1.0));
        assert_eq!(cache.lookup_hash(1), None);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.eviction_count(), 0);
    }

    #[test]
    fn negative_zero_and_nan_predictions_roundtrip_bitwise() {
        let cache = AtomicCache::with_capacity(16);
        cache.insert_hash(1, Some(-0.0));
        cache.insert_hash(2, Some(f64::NAN));
        cache.insert_hash(3, Some(0.0));
        let neg_zero = cache.lookup_hash(1).unwrap().unwrap();
        assert_eq!(neg_zero.to_bits(), (-0.0f64).to_bits());
        assert!(cache.lookup_hash(2).unwrap().unwrap().is_nan());
        assert_eq!(cache.lookup_hash(3).unwrap().unwrap().to_bits(), 0);
    }

    #[test]
    fn clear_keeps_evictions_and_empties_slots() {
        let cache = AtomicCache::with_capacity(1);
        cache.insert_hash(1, Some(1.0));
        cache.insert_hash(2, Some(2.0));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.lookup_hash(2), None);
        assert_eq!(cache.eviction_count(), 1);
    }
}
