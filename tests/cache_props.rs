//! Property-based tests for the prediction caches — the lossy lock-free
//! [`AtomicCache`] the library ships and the lossless sharded-mutex
//! [`PredictionCache`] kept under `tests/support/` as its reference —
//! and the serving invariants of [`Predictor`] built on top of either.
//!
//! The cache is the correctness linchpin of the serving engine: a lost
//! entry silently re-runs the model (wrong perf), a corrupted entry
//! silently returns the wrong prediction (wrong results), and a broken
//! capacity bound turns long autotuning runs into a memory leak. These
//! properties pin all three under randomized keys, values, insertion
//! orders, and capacities. For the atomic cache the lossy contract is
//! pinned instead: hits are always bit-faithful, residency never exceeds
//! the slot count, and a `Predictor` produces identical predictions and
//! exact accounting over either backend.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tpu_repro::hlo::{DType, GraphBuilder, Kernel, Shape};
use tpu_repro::learned::{AtomicCache, CostModel, FnCostModel, KernelCache, Predictor};

mod support;
use support::PredictionCache;

/// Random (key, value) pairs with distinct keys; values may be `None`
/// (a kernel the backend cannot score is itself a cacheable answer).
fn arb_entries() -> impl Strategy<Value = Vec<(u64, Option<f64>)>> {
    prop::collection::vec((any::<u64>(), any::<bool>(), 0.0f64..1e12), 0..200).prop_map(|raw| {
        let mut seen: HashMap<u64, Option<f64>> = HashMap::new();
        for (k, some, v) in raw {
            seen.entry(k).or_insert(if some { Some(v) } else { None });
        }
        seen.into_iter().collect()
    })
}

proptest! {
    /// Unbounded cache: every inserted entry is retrievable bit-for-bit,
    /// nothing is evicted, and the entry count is exact.
    #[test]
    fn unbounded_cache_is_lossless(entries in arb_entries()) {
        let cache = PredictionCache::new();
        for &(k, v) in &entries {
            cache.insert_hash(k, v);
        }
        prop_assert_eq!(cache.len(), entries.len());
        prop_assert_eq!(cache.eviction_count(), 0);
        for &(k, v) in &entries {
            let got = cache.lookup_hash(k);
            prop_assert_eq!(got.map(|o| o.map(f64::to_bits)), Some(v.map(f64::to_bits)));
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.entries, entries.len());
        prop_assert_eq!(stats.evictions, 0);
    }

    /// Bounded cache: residency never exceeds `max_entries` *exactly*
    /// (per-shard capacities sum to the requested bound; small values no
    /// longer overshoot from per-shard round-up), every distinct key
    /// inserted is either resident or accounted for as an eviction, and
    /// re-inserting a resident key never evicts.
    #[test]
    fn bounded_cache_conserves_entries(
        entries in arb_entries(),
        max in 1usize..64,
    ) {
        let cache = PredictionCache::with_capacity(max);
        for &(k, v) in &entries {
            cache.insert_hash(k, v);
        }
        prop_assert!(cache.len() <= max, "{} > {}", cache.len(), max);
        // Conservation: distinct inserts = resident + evicted.
        prop_assert_eq!(
            cache.len() as u64 + cache.eviction_count(),
            entries.len() as u64
        );
        // Overwriting resident keys is not an eviction.
        let evictions_before = cache.eviction_count();
        let resident: Vec<u64> = entries
            .iter()
            .map(|&(k, _)| k)
            .filter(|&k| cache.lookup_hash(k).is_some())
            .collect();
        for &k in &resident {
            cache.insert_hash(k, Some(1.0));
        }
        prop_assert_eq!(cache.eviction_count(), evictions_before);
        prop_assert_eq!(cache.len() as u64 + evictions_before, entries.len() as u64);
    }

    /// Zero capacity disables storage: every lookup misses, nothing is
    /// ever resident, and no eviction is counted.
    #[test]
    fn zero_capacity_cache_stores_nothing(entries in arb_entries()) {
        let cache = PredictionCache::with_capacity(0);
        for &(k, v) in &entries {
            cache.insert_hash(k, v);
            prop_assert_eq!(cache.lookup_hash(k), None);
        }
        prop_assert_eq!(cache.len(), 0);
        prop_assert_eq!(cache.eviction_count(), 0);
    }

    /// A predictor over the lossless cache asks its model exactly once per
    /// distinct kernel, in any interleaving of revisits, and always
    /// answers with the first value.
    #[test]
    fn predictor_computes_once_per_key(
        // Visit sequence with deliberate revisits: indices into a small
        // key space so duplicates are common.
        visits in prop::collection::vec(0u64..24, 1..120),
    ) {
        let computes = AtomicUsize::new(0);
        let model = FnCostModel::new("count", |k: &Kernel| {
            computes.fetch_add(1, Ordering::Relaxed);
            Some(k.computation.node(k.computation.root()).shape.dim(0) as f64 * 3.5)
        });
        let predictor = Predictor::with_cache(model, Arc::new(PredictionCache::new()));
        let mut expected: HashMap<u64, f64> = HashMap::new();
        for &key in &visits {
            // Distinct kernels per key: rows encode the key.
            let mut b = GraphBuilder::new("k");
            let x = b.parameter("x", Shape::matrix(8 + key as usize, 8), DType::F32);
            let t = b.tanh(x);
            let kernel = Kernel::new(b.finish(t));
            let got = predictor.predict_kernel_ns(&kernel);
            let first = *expected.entry(key).or_insert((8 + key) as f64 * 3.5);
            prop_assert_eq!(got.map(f64::to_bits), Some(first.to_bits()));
        }
        prop_assert_eq!(computes.load(Ordering::Relaxed), expected.len());
    }

    /// Serving invariant: with structurally distinct kernels per call,
    /// every kernel is either a cache hit or a fresh model eval
    /// (`hits + model_evals == kernels`), revisit calls run zero batches,
    /// and predictions are bit-identical across visits.
    #[test]
    fn predictor_accounts_every_kernel(
        n_kernels in 1usize..32,
        revisits in 1usize..4,
    ) {
        let model = FnCostModel::new("prop", |k: &Kernel| {
            Some(k.computation.num_nodes() as f64 * 10.0)
        });
        let predictor = Predictor::with_cache(model, Arc::new(PredictionCache::new()));
        let kernels: Vec<Kernel> = (0..n_kernels)
            .map(|i| {
                let mut b = GraphBuilder::new("k");
                let x = b.parameter("x", Shape::matrix(16 + 4 * i, 32), DType::F32);
                let e = b.exp(x);
                Kernel::new(b.finish(e))
            })
            .collect();
        let refs: Vec<&Kernel> = kernels.iter().collect();

        let (first, cold) = predictor.predict_ns_refs(&refs);
        prop_assert_eq!(cold.kernels, n_kernels as u64);
        prop_assert_eq!(cold.cache_hits + cold.model_evals, cold.kernels);
        prop_assert_eq!(cold.cache_hits, 0);
        prop_assert_eq!(cold.model_batches, 1);

        for _ in 0..revisits {
            let (again, warm) = predictor.predict_ns_refs(&refs);
            prop_assert_eq!(warm.cache_hits, n_kernels as u64);
            prop_assert_eq!(warm.model_evals, 0);
            prop_assert_eq!(warm.model_batches, 0);
            let a: Vec<Option<u64>> = first.iter().map(|p| p.map(f64::to_bits)).collect();
            let b: Vec<Option<u64>> = again.iter().map(|p| p.map(f64::to_bits)).collect();
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(predictor.cache().len(), n_kernels);
    }

    /// Atomic cache under a bounded capacity: residency never exceeds the
    /// slot count, no matter how many distinct keys are inserted, and
    /// every hit is bit-faithful to what that key last stored.
    #[test]
    fn atomic_cache_never_exceeds_slot_count(
        entries in arb_entries(),
        slots in 1usize..64,
    ) {
        let cache = AtomicCache::with_capacity(slots);
        for &(k, v) in &entries {
            cache.insert_hash(k, v);
            prop_assert!(cache.len() <= slots, "{} > {}", cache.len(), slots);
        }
        // Lossy contract: a hit is exact; a miss is always legal.
        for &(k, v) in &entries {
            if let Some(found) = cache.lookup_hash(k) {
                prop_assert_eq!(found.map(f64::to_bits), v.map(f64::to_bits));
            }
        }
        prop_assert!(cache.len() <= slots);
    }

    /// Serial equivalence of the atomic cache vs. the mutex cache: on the
    /// same insert sequence, the atomic cache is a lossy subset of the
    /// lossless one — every atomic hit returns exactly the mutex cache's
    /// value, and with ample capacity nothing conflicts away.
    #[test]
    fn atomic_cache_is_a_faithful_subset_of_mutex_cache(entries in arb_entries()) {
        let atomic = AtomicCache::with_capacity(4096);
        let mutex = PredictionCache::new();
        for &(k, v) in &entries {
            atomic.insert_hash(k, v);
            mutex.insert_hash(k, v);
        }
        let mut atomic_hits = 0usize;
        for &(k, _) in &entries {
            let reference = mutex.lookup_hash(k).expect("lossless cache holds every key");
            if let Some(found) = atomic.lookup_hash(k) {
                prop_assert_eq!(
                    found.map(f64::to_bits),
                    reference.map(f64::to_bits),
                    "atomic hit disagrees with lossless reference for key {}", k
                );
                atomic_hits += 1;
            }
        }
        // With 4096 slots and <=200 keys, open-addressing conflicts are
        // rare; the subset must not be degenerate.
        prop_assert!(
            entries.is_empty() || atomic_hits * 10 >= entries.len() * 9,
            "atomic cache retained only {}/{} entries", atomic_hits, entries.len()
        );
    }

    /// The serving invariant holds over either cache backend, and the
    /// served predictions are bit-identical whichever backend is behind
    /// the predictor: `hits + model_evals == kernels` on both, and a
    /// deterministic model means a lossy miss can only re-derive the
    /// same value.
    #[test]
    fn predictor_accounting_holds_over_both_backends(
        n_kernels in 1usize..24,
        revisits in 1usize..4,
    ) {
        let model = || FnCostModel::new("prop", |k: &Kernel| {
            Some(k.computation.num_nodes() as f64 * 10.0)
        });
        let atomic = Predictor::with_cache(model(), Arc::new(AtomicCache::serving_default()));
        let mutex = Predictor::with_cache(model(), Arc::new(PredictionCache::new()));
        let kernels: Vec<Kernel> = (0..n_kernels)
            .map(|i| {
                let mut b = GraphBuilder::new("k");
                let x = b.parameter("x", Shape::matrix(16 + 4 * i, 24), DType::F32);
                let t = b.tanh(x);
                Kernel::new(b.finish(t))
            })
            .collect();
        let refs: Vec<&Kernel> = kernels.iter().collect();

        for _ in 0..=revisits {
            let (from_atomic, stats_a) = atomic.predict_ns_refs(&refs);
            let (from_mutex, stats_m) = mutex.predict_ns_refs(&refs);
            prop_assert_eq!(stats_a.cache_hits + stats_a.model_evals, stats_a.kernels);
            prop_assert_eq!(stats_m.cache_hits + stats_m.model_evals, stats_m.kernels);
            let a: Vec<Option<u64>> = from_atomic.iter().map(|p| p.map(f64::to_bits)).collect();
            let b: Vec<Option<u64>> = from_mutex.iter().map(|p| p.map(f64::to_bits)).collect();
            prop_assert_eq!(a, b);
        }
    }
}
