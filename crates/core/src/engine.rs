//! Batched, cached inference over trained models.
//!
//! Serving a learned cost model inside a compiler or autotuner (§6.3) has a
//! very different profile from training: the same kernels are scored over
//! and over (a simulated-annealing neighbourhood revisits configurations),
//! and throughput matters more than single-kernel latency. This module adds
//! the two pieces the paper's deployment story needs:
//!
//! - [`KernelCache`] — the storage contract: a thread-safe map from the
//!   canonical kernel hash ([`tpu_hlo::canonical_kernel_hash`]) to a
//!   cached prediction, with an eviction counter (the shipped
//!   implementation is the lock-free [`AtomicCache`]); hits are counted
//!   once, by the body below, in [`EngineCounters`],
//! - [`predict_keyed`] — the one serving body: it answers what it can from
//!   the cache, deduplicates the distinct misses, lends them to a scorer —
//!   borrowed, not copied — in **one** call, inserts the answers and
//!   records them in [`EngineCounters`]. It has two callers: a
//!   [`Predictor`] and the `tpu-serve` engine's miss,
//! - [`Predictor`] — a serving session over any [`CostModel`]: it hashes
//!   the incoming kernels and runs them through that body with the
//!   backend's `predict_refs_ns` as the scorer (one packed forward pass
//!   for the neural backends), reporting per-call and cumulative
//!   [`PredictStats`].
//!
//! Cache keys are structural: two kernels with identical computations,
//! kinds, and tile sizes share a key, so a prediction made for one is
//! served for the other. Predictions are pure functions of the kernel and
//! the frozen weights, which is what makes the cache sound.

use crate::atomic_cache::AtomicCache;
use crate::batch::{GraphBatch, Prepared};
use crate::cost_model::CostModel;
use crate::train::KernelModel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tpu_hlo::{canonical_kernel_hash, Kernel};
use tpu_nn::Tape;
use tpu_obs::{Counter, Histogram, Registry};

/// A point-in-time snapshot of a cache's residency. Hits are not a cache
/// statistic: the one body that probes, [`predict_keyed`], counts them in
/// [`EngineCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheStats {
    /// Entries discarded to stay within capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// The storage contract behind a [`Predictor`] session: a thread-safe map
/// from the canonical kernel hash to a cached prediction, with eviction
/// accounting.
///
/// One implementation ships: [`AtomicCache`] — fixed-capacity,
/// open-addressed, lock-free atomic slots with lossy replacement (see
/// the `atomic_cache` module docs for the torn-read defense). The
/// lossless sharded-mutex map it replaced lives on under
/// `tests/support/` as the reference `tests/cache_props.rs`
/// property-tests it against.
///
/// The stored value is `Option<f64>` so "this backend cannot score that
/// kernel" (§6.3 footnote 3) is itself cacheable. Implementations may be
/// lossy — dropping or replacing entries at will — because predictions
/// are pure functions of the kernel and the frozen weights; they must
/// never return a value that was inserted under a *different* hash.
pub trait KernelCache: Send + Sync {
    /// Look up by pre-computed hash. The outer `Option` is residency; the
    /// inner is the cached prediction itself.
    fn lookup_hash(&self, hash: u64) -> Option<Option<f64>>;

    /// Insert a prediction under a pre-computed hash.
    fn insert_hash(&self, hash: u64, prediction: Option<f64>);

    /// Number of resident entries.
    fn len(&self) -> usize;

    /// Whether the cache holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all entries (counters are kept).
    fn clear(&self);

    /// Snapshot the counters.
    fn stats(&self) -> CacheStats;

    /// Evictions so far, without scanning entries.
    fn eviction_count(&self) -> u64;
}

/// A shared cache handle is a cache: lets serving stacks select the
/// backend at runtime behind `Arc<dyn KernelCache>` and still satisfy
/// [`Predictor`]'s `C: KernelCache` bound.
impl<T: KernelCache + ?Sized> KernelCache for Arc<T> {
    fn lookup_hash(&self, hash: u64) -> Option<Option<f64>> {
        (**self).lookup_hash(hash)
    }
    fn insert_hash(&self, hash: u64, prediction: Option<f64>) {
        (**self).insert_hash(hash, prediction)
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn clear(&self) {
        (**self).clear()
    }
    fn stats(&self) -> CacheStats {
        (**self).stats()
    }
    fn eviction_count(&self) -> u64 {
        (**self).eviction_count()
    }
}

/// Serving counters for a [`Predictor`]: per call or cumulative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PredictStats {
    /// Kernels asked about (including duplicates).
    pub kernels: u64,
    /// Positions answered straight from the cache.
    pub cache_hits: u64,
    /// Fresh model evaluations: distinct kernels the backend scored.
    pub model_evals: u64,
    /// Batched backend calls — at most one per `predict` call, 0 when every
    /// kernel hit the cache. For the GNN this is the packed-forward count.
    pub model_batches: u64,
}

impl PredictStats {
    /// Fraction of kernels answered from the cache (0 when none asked).
    pub fn hit_rate(&self) -> f64 {
        if self.kernels == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.kernels as f64
        }
    }

    /// Counter-wise difference of two cumulative snapshots.
    pub fn since(&self, earlier: &PredictStats) -> PredictStats {
        PredictStats {
            kernels: self.kernels - earlier.kernels,
            cache_hits: self.cache_hits - earlier.cache_hits,
            model_evals: self.model_evals - earlier.model_evals,
            model_batches: self.model_batches - earlier.model_batches,
        }
    }
}

/// The cumulative [`PredictStats`] of one serving session, and their
/// `core.engine.*` metrics.
///
/// Both callers of [`predict_keyed`] keep one: a [`Predictor`] and the
/// `tpu-serve` engine. The four counters are atomics, and the metric
/// handles are resolved once, so recording costs a few relaxed atomic ops
/// (the handles cost nothing at all on the default no-op registry).
#[derive(Default)]
pub struct EngineCounters {
    kernels: AtomicU64,
    cache_hits: AtomicU64,
    model_evals: AtomicU64,
    model_batches: AtomicU64,
    obs: EngineObs,
}

/// The `core.engine.*` handles [`predict_keyed`] records into.
#[derive(Default)]
struct EngineObs {
    registry: Registry,
    kernels: Counter,
    cache_hits: Counter,
    model_evals: Counter,
    model_batches: Counter,
    cache_evictions: Counter,
    miss_batch_size: Histogram,
    predict_ns: Histogram,
    forward_ns: Histogram,
}

impl EngineObs {
    fn new(registry: &Registry) -> EngineObs {
        EngineObs {
            registry: registry.clone(),
            kernels: registry.counter("core.engine.kernels"),
            cache_hits: registry.counter("core.engine.cache_hits"),
            model_evals: registry.counter("core.engine.model_evals"),
            model_batches: registry.counter("core.engine.model_batches"),
            cache_evictions: registry.counter("core.engine.cache_evictions"),
            miss_batch_size: registry.histogram("core.engine.miss_batch_size"),
            predict_ns: registry.histogram("core.engine.predict_ns"),
            forward_ns: registry.histogram("core.engine.forward_ns"),
        }
    }
}

impl EngineCounters {
    /// Zeroed counters whose metrics go to `registry`.
    pub fn new(registry: &Registry) -> EngineCounters {
        EngineCounters {
            obs: EngineObs::new(registry),
            ..EngineCounters::default()
        }
    }

    /// The cumulative counters.
    pub fn stats(&self) -> PredictStats {
        PredictStats {
            kernels: self.kernels.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            model_evals: self.model_evals.load(Ordering::Relaxed),
            model_batches: self.model_batches.load(Ordering::Relaxed),
        }
    }

    /// Add one call's counters, to the atomics and to their
    /// `core.engine.*` counters. [`predict_keyed`] records every call it
    /// answers; a caller that answers a hit without it records the hit
    /// here.
    pub fn record(&self, stats: &PredictStats) {
        self.kernels.fetch_add(stats.kernels, Ordering::Relaxed);
        self.cache_hits
            .fetch_add(stats.cache_hits, Ordering::Relaxed);
        self.model_evals
            .fetch_add(stats.model_evals, Ordering::Relaxed);
        self.model_batches
            .fetch_add(stats.model_batches, Ordering::Relaxed);
        self.obs.kernels.add(stats.kernels);
        self.obs.cache_hits.add(stats.cache_hits);
        self.obs.model_evals.add(stats.model_evals);
        self.obs.model_batches.add(stats.model_batches);
    }
}

/// The one keyed serving body: `keys[i]` is the cache key of the kernel
/// at position `i`, which `kernel_of(i)` hands over when the body needs it.
///
/// It probes `cache` for every key, deduplicates the distinct misses in
/// first-occurrence order, asks `kernel_of` for the kernel of each — for
/// the first position of a missed key, and for no other position — and
/// lends them to `score` in **one** call. Then it inserts the answers,
/// fills every position (duplicates of a miss included), and records the
/// call in `counters`: the four [`PredictStats`] counters, the call's time
/// (`core.engine.predict_ns`), the scorer's time
/// (`core.engine.forward_ns`), the miss-batch size and the evictions the
/// inserts caused. An all-hit call never calls `kernel_of` or `score`.
///
/// Nothing is inserted, counted or timed before `score` returns, so a
/// scorer that panics leaves the cache, the counters and the metrics as
/// they were.
pub fn predict_keyed<'k, C: KernelCache + ?Sized>(
    cache: &C,
    counters: &EngineCounters,
    keys: &[u64],
    mut kernel_of: impl FnMut(usize) -> &'k Kernel,
    score: impl FnOnce(&[&Kernel]) -> Vec<Option<f64>>,
) -> (Vec<Option<f64>>, PredictStats) {
    let obs = &counters.obs;
    // Clock reads, not scoped timers: a timer would record while a
    // panicking scorer unwinds.
    let recording = obs.registry.is_enabled();
    let call_start = recording.then(Instant::now);
    // `Some(cached)` = resolved (the cached value may itself be `None`
    // for a kernel the backend cannot score); `None` = cache miss.
    let mut resolved: Vec<Option<Option<f64>>> =
        keys.iter().map(|&k| cache.lookup_hash(k)).collect();
    let cache_hits = resolved.iter().filter(|r| r.is_some()).count() as u64;

    // First input index per distinct missing key, and each missing key's
    // slot in that list.
    let mut pending: Vec<usize> = Vec::new();
    let mut slot: HashMap<u64, usize> = HashMap::new();
    for (i, r) in resolved.iter().enumerate() {
        if r.is_none() {
            slot.entry(keys[i]).or_insert_with(|| {
                pending.push(i);
                pending.len() - 1
            });
        }
    }

    let mut model_batches = 0u64;
    if !pending.is_empty() {
        let misses: Vec<&Kernel> = pending.iter().map(|&i| kernel_of(i)).collect();
        let forward_start = recording.then(Instant::now);
        let fresh = score(&misses);
        if let Some(start) = forward_start {
            obs.forward_ns.observe(ns_since(start));
        }
        let evictions_before = if recording { cache.eviction_count() } else { 0 };
        for (&i, &ns) in pending.iter().zip(&fresh) {
            cache.insert_hash(keys[i], ns);
        }
        for (i, r) in resolved.iter_mut().enumerate() {
            if r.is_none() {
                *r = Some(fresh[slot[&keys[i]]]);
            }
        }
        obs.miss_batch_size.observe(pending.len() as u64);
        if recording {
            obs.cache_evictions
                .add(cache.eviction_count() - evictions_before);
        }
        model_batches = 1;
    }

    let stats = PredictStats {
        kernels: keys.len() as u64,
        cache_hits,
        model_evals: pending.len() as u64,
        model_batches,
    };
    counters.record(&stats);
    if let Some(start) = call_start {
        obs.predict_ns.observe(ns_since(start));
    }
    // INVARIANT: every position is either a cache hit or the slot of a
    // distinct missing key, and `score` answered every slot.
    let out = resolved
        .into_iter()
        .map(|r| r.expect("every kernel resolved"))
        .collect();
    (out, stats)
}

/// Nanoseconds since `start`, saturating.
fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A serving session over any [`CostModel`]: cache in front, miss-batching
/// behind.
///
/// Every `predict` call hashes its kernels and runs them through
/// [`predict_keyed`] with the backend's [`CostModel::predict_refs_ns`] as
/// the scorer: the distinct misses are lent to the backend — the caller's
/// kernels, borrowed, not a copy of them — as **one** call. For the neural
/// backends that one call is one packed [`GraphBatch`] forward, so a batch
/// with `m` distinct misses costs exactly one forward pass — and a batch
/// with none costs zero.
///
/// The cache sits behind an [`Arc`] so one cache can back several sessions
/// (e.g. the autotuner's model phase and the final report) and survive the
/// session itself. `Predictor` is itself a [`CostModel`], so anything that
/// consumes the trait gets caching and miss-batching for free.
///
/// The cache backend is pluggable through [`KernelCache`]; the default is
/// the lock-free [`AtomicCache`], and [`Predictor::with_cache`] accepts
/// any other implementation unchanged. Predictions are bit-identical
/// whichever backend serves them — a lossy cache only changes *when* the
/// pure model is re-asked.
pub struct Predictor<M, C: KernelCache = AtomicCache> {
    model: M,
    cache: Arc<C>,
    name: String,
    counters: EngineCounters,
}

impl<M: CostModel> Predictor<M> {
    /// A session with a fresh lock-free cache at the default serving
    /// capacity ([`AtomicCache::serving_default`]).
    pub fn new(model: M) -> Predictor<M> {
        Predictor::with_cache(model, Arc::new(AtomicCache::serving_default()))
    }

    /// A session that never caches (zero-capacity cache): every distinct
    /// kernel in a call is evaluated fresh. The uncached baseline for
    /// benchmarks, on the same code path.
    pub fn uncached(model: M) -> Predictor<M> {
        Predictor::with_cache(model, Arc::new(AtomicCache::with_capacity(0)))
    }
}

impl<M: CostModel, C: KernelCache> Predictor<M, C> {
    /// A session over a shared (possibly pre-warmed) cache of any
    /// [`KernelCache`] backend.
    pub fn with_cache(model: M, cache: Arc<C>) -> Predictor<M, C> {
        let name = format!("cached-{}", model.name());
        Predictor {
            model,
            cache,
            name,
            counters: EngineCounters::default(),
        }
    }

    /// Attach an observability registry (builder-style): serving counters,
    /// miss-batch sizes, and per-call / per-forward latencies are recorded
    /// under `core.engine.*`. With the default no-op registry this is a
    /// no-op; instrumentation never changes predictions.
    ///
    /// The session *carries* the registry: objectives and searches built
    /// over it record into [`Predictor::registry`] without being handed
    /// one.
    pub fn observed(mut self, registry: &Registry) -> Predictor<M, C> {
        self.counters.obs = EngineObs::new(registry);
        self
    }

    /// The registry this session was [`observed`](Predictor::observed)
    /// with (the no-op registry otherwise).
    pub fn registry(&self) -> &Registry {
        &self.counters.obs.registry
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The cache (sharable via clone of the [`Arc`]).
    pub fn cache(&self) -> &Arc<C> {
        &self.cache
    }

    /// Export the shared cache's resident entries as the
    /// `core.cache.entries` gauge (lookups and hits are
    /// `core.engine.kernels` and `core.engine.cache_hits`). The count may
    /// scan the whole cache (an `AtomicCache` reads every slot), so
    /// call this at phase boundaries (end of a run, before writing a
    /// report), not per predict. No-op without an attached registry.
    pub fn record_cache_stats(&self) {
        let registry = self.registry();
        if !registry.is_enabled() {
            return;
        }
        let entries = self.cache.stats().entries;
        registry.gauge("core.cache.entries").set(entries as f64);
    }

    /// Cumulative serving counters for this session.
    pub fn stats(&self) -> PredictStats {
        self.counters.stats()
    }

    /// Runtime predictions (ns) for a slice of kernels, positionally, and
    /// this call's [`PredictStats`]. The [`CostModel`] methods answer
    /// through this one.
    pub fn predict_ns_refs(&self, kernels: &[&Kernel]) -> (Vec<Option<f64>>, PredictStats) {
        let hashes: Vec<u64> = kernels.iter().map(|k| canonical_kernel_hash(k)).collect();
        self.predict_keyed(&hashes, |i| kernels[i])
    }

    /// [`Predictor::predict_ns_refs`] for a caller that knows each
    /// position's cache key: `keys[i]` must be the
    /// [`canonical_kernel_hash`] of `kernel_of(i)`, which is asked for
    /// only at the first position of each missed key. The same lookups,
    /// miss batch, inserts and [`PredictStats`], minus the hashing, and
    /// minus whatever it costs the caller to produce a kernel that hits.
    pub fn predict_keyed<'k>(
        &self,
        keys: &[u64],
        kernel_of: impl FnMut(usize) -> &'k Kernel,
    ) -> (Vec<Option<f64>>, PredictStats) {
        predict_keyed(&*self.cache, &self.counters, keys, kernel_of, |misses| {
            self.model.predict_refs_ns(misses)
        })
    }
}

impl<M: CostModel, C: KernelCache> CostModel for Predictor<M, C> {
    fn predict_kernel_ns(&self, kernel: &Kernel) -> Option<f64> {
        // INVARIANT: predict_ns_refs returns one slot per input kernel.
        self.predict_ns_refs(&[kernel])
            .0
            .pop()
            .expect("one prediction per kernel")
    }
    fn predict_batch_ns(&self, kernels: &[Kernel]) -> Vec<Option<f64>> {
        self.predict_refs_ns(&kernels.iter().collect::<Vec<_>>())
    }
    fn predict_refs_ns(&self, kernels: &[&Kernel]) -> Vec<Option<f64>> {
        self.predict_ns_refs(kernels).0
    }
    fn name(&self) -> &str {
        &self.name
    }
}

/// One packed forward pass on the tape over already-featurized kernels,
/// in the log-ns domain: the whole slice becomes a single disjoint
/// [`GraphBatch`], as a training step's batch does. Empty input is an
/// empty output (no forward runs at all).
///
/// Serving does not come here: [`CostModel::predict_refs_ns`] of the
/// neural backends runs each kernel through the same forward without a
/// tape ([`crate::predict_each`]), and gives these bits.
pub fn forward_log_ns<M: KernelModel + ?Sized>(model: &M, prepared: &[&Prepared]) -> Vec<f64> {
    let Some(batch) = GraphBatch::pack(prepared) else {
        return Vec::new();
    };
    let mut tape = Tape::new();
    let pred = model.forward(&mut tape, &batch.graph());
    let t = tape.value(pred);
    (0..t.rows()).map(|r| t.get(r, 0) as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_model::FnCostModel;
    use crate::model::{GnnConfig, GnnModel};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;
    use tpu_hlo::{DType, GraphBuilder, Shape};

    fn kernel(cols: usize) -> Kernel {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(8, cols), DType::F32);
        let t = b.tanh(x);
        let e = b.exp(t);
        Kernel::new(b.finish(e))
    }

    #[test]
    fn hit_rates_are_zero_not_nan_before_any_request() {
        // Fresh-start stats must print as definite zeros: a serve daemon
        // answering a `stats` request before any predict traffic would
        // otherwise emit NaN, which is not representable in JSON.
        assert_eq!(PredictStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn predictor_serves_second_call_from_cache() {
        let calls = AtomicUsize::new(0);
        let inner = FnCostModel::new("probe", |k: &Kernel| {
            calls.fetch_add(1, Ordering::SeqCst);
            Some(k.computation.num_nodes() as f64)
        });
        let p = Predictor::new(inner);
        let k = kernel(32);
        let first = p.predict_kernel_ns(&k);
        let second = p.predict_kernel_ns(&k);
        assert_eq!(first, second);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "second call must hit cache"
        );
        assert_eq!(p.name(), "cached-probe");
        let s = p.stats();
        assert_eq!(
            (s.kernels, s.cache_hits, s.model_evals, s.model_batches),
            (2, 1, 1, 1)
        );
    }

    #[test]
    fn one_backend_batch_per_miss_batch() {
        // The Predictor must lend all distinct misses of a call as ONE
        // predict_refs_ns call (whose default reaches this probe's
        // predict_batch_ns once), however many kernels and duplicates the
        // call contains — and zero calls when everything hits the cache.
        let batch_calls = AtomicUsize::new(0);
        struct Probe<'a> {
            batch_calls: &'a AtomicUsize,
        }
        impl CostModel for Probe<'_> {
            fn predict_kernel_ns(&self, k: &Kernel) -> Option<f64> {
                Some(k.computation.num_nodes() as f64)
            }
            fn predict_batch_ns(&self, kernels: &[Kernel]) -> Vec<Option<f64>> {
                self.batch_calls.fetch_add(1, Ordering::SeqCst);
                kernels.iter().map(|k| self.predict_kernel_ns(k)).collect()
            }
            fn name(&self) -> &str {
                "probe"
            }
        }
        let p = Predictor::new(Probe {
            batch_calls: &batch_calls,
        });
        // 4 distinct structures among 8 inputs.
        let kernels: Vec<Kernel> = (0..8).map(|i| kernel(16 * (1 + i % 4))).collect();
        let (first, s1) = p.predict_ns_refs(&kernels.iter().collect::<Vec<_>>());
        assert_eq!(batch_calls.load(Ordering::SeqCst), 1);
        assert_eq!(
            (s1.kernels, s1.cache_hits, s1.model_evals, s1.model_batches),
            (8, 0, 4, 1)
        );
        let (second, s2) = p.predict_ns_refs(&kernels.iter().collect::<Vec<_>>());
        assert_eq!(
            batch_calls.load(Ordering::SeqCst),
            1,
            "all-hit call must not touch the model"
        );
        assert_eq!((s2.cache_hits, s2.model_evals, s2.model_batches), (8, 0, 0));
        assert_eq!(first, second);
        assert_eq!(first[0], first[4], "duplicate kernels share predictions");
    }

    #[test]
    fn a_model_that_overrides_only_the_owned_batch_still_sees_every_miss_batch() {
        // The shape of a tracing seam: it wraps a model and overrides
        // `predict_batch_ns` alone. The predictor lends its misses through
        // `predict_refs_ns`, whose default must reach that override with
        // every miss batch, in order, and nothing else.
        struct Seam<M> {
            inner: M,
            batches: Mutex<Vec<Vec<u64>>>,
        }
        impl<M: CostModel> CostModel for Seam<M> {
            fn predict_kernel_ns(&self, k: &Kernel) -> Option<f64> {
                self.inner.predict_kernel_ns(k)
            }
            fn predict_batch_ns(&self, kernels: &[Kernel]) -> Vec<Option<f64>> {
                let hashes = kernels.iter().map(canonical_kernel_hash).collect();
                self.batches.lock().unwrap().push(hashes);
                self.inner.predict_batch_ns(kernels)
            }
            fn name(&self) -> &str {
                self.inner.name()
            }
        }
        let model = GnnModel::new(GnnConfig::default());
        let p = Predictor::new(Seam {
            inner: &model,
            batches: Mutex::new(Vec::new()),
        });
        let kernels: Vec<Kernel> = (1..=6).map(|i| kernel(i * 16)).collect();
        let hash = |i: usize| canonical_kernel_hash(&kernels[i]);
        let calls: [&[usize]; 4] = [&[2, 0, 2, 1], &[0, 1, 2], &[5, 3, 0, 5, 4], &[4]];
        let mut got = Vec::new();
        for call in calls {
            let refs: Vec<&Kernel> = call.iter().map(|&i| &kernels[i]).collect();
            got.extend(p.predict_ns_refs(&refs).0);
        }
        assert_eq!(
            *p.model().batches.lock().unwrap(),
            vec![
                vec![hash(2), hash(0), hash(1)],
                vec![hash(5), hash(3), hash(4)]
            ],
            "distinct misses per call, first-occurrence order; no batch for an all-hit call"
        );
        let want: Vec<Option<f64>> = calls
            .iter()
            .flat_map(|call| call.iter().map(|&i| model.predict_kernel_ns(&kernels[i])))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn gnn_miss_batch_is_one_packed_forward() {
        // The acceptance-criterion wiring: Predictor over the real GNN, a
        // cold batch of N distinct kernels is exactly one backend batch
        // (one GraphBatch::pack + one forward inside predict_batch_ns),
        // and a warm batch is zero.
        let model = GnnModel::new(GnnConfig::default());
        let p = Predictor::new(&model);
        let kernels: Vec<Kernel> = (1..=6).map(|i| kernel(i * 16)).collect();
        let cold = p.predict_batch_ns(&kernels);
        let s = p.stats();
        assert_eq!((s.kernels, s.model_evals, s.model_batches), (6, 6, 1));
        let warm = p.predict_batch_ns(&kernels);
        let s = p.stats();
        assert_eq!((s.kernels, s.cache_hits, s.model_batches), (12, 6, 1));
        assert_eq!(cold, warm, "cached values are reused bit-for-bit");
        // And positionally bit-identical to the per-kernel path.
        for (k, c) in kernels.iter().zip(&cold) {
            assert_eq!(*c, model.predict_kernel_ns(k));
        }
    }

    #[test]
    fn uncached_predictor_always_reevaluates() {
        let calls = AtomicUsize::new(0);
        let inner = FnCostModel::new("probe", |_k: &Kernel| {
            calls.fetch_add(1, Ordering::SeqCst);
            Some(1.0)
        });
        let p = Predictor::uncached(inner);
        let k = kernel(32);
        p.predict_kernel_ns(&k);
        p.predict_kernel_ns(&k);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(p.stats().cache_hits, 0);
    }

    #[test]
    fn predictor_caches_unsupported_kernels() {
        let inner = FnCostModel::new("none", |_k: &Kernel| None);
        let p = Predictor::new(inner);
        let k = kernel(32);
        assert_eq!(p.predict_kernel_ns(&k), None);
        assert_eq!(p.predict_kernel_ns(&k), None);
        let s = p.stats();
        assert_eq!((s.cache_hits, s.model_evals), (1, 1), "None is cached too");
    }

    #[test]
    fn empty_batch_is_empty_and_free() {
        let model = GnnModel::new(GnnConfig::default());
        let p = Predictor::new(&model);
        assert!(p.predict_batch_ns(&[]).is_empty());
        assert_eq!(p.stats().model_batches, 0);
        assert!(forward_log_ns(&model, &[]).is_empty());
    }

    #[test]
    fn observed_predictor_mirrors_stats_into_registry() {
        let registry = Registry::enabled();
        let model = GnnModel::new(GnnConfig::default());
        let p = Predictor::new(&model).observed(&registry);
        assert!(
            p.registry().is_enabled(),
            "an observed session carries its registry"
        );
        assert!(!Predictor::new(&model).registry().is_enabled());
        let kernels: Vec<Kernel> = (1..=4).map(|i| kernel(i * 16)).collect();
        let cold = p.predict_batch_ns(&kernels);
        let warm = p.predict_batch_ns(&kernels);
        assert_eq!(cold, warm, "instrumentation must not perturb predictions");
        p.record_cache_stats();

        let s = registry.snapshot();
        let stats = p.stats();
        assert_eq!(s.counter("core.engine.kernels"), Some(stats.kernels));
        assert_eq!(s.counter("core.engine.cache_hits"), Some(stats.cache_hits));
        assert_eq!(
            s.counter("core.engine.model_evals"),
            Some(stats.model_evals)
        );
        assert_eq!(
            s.counter("core.engine.model_batches"),
            Some(stats.model_batches)
        );
        let miss = s.histogram("core.engine.miss_batch_size").unwrap();
        assert_eq!(
            (miss.count, miss.sum),
            (1, 4),
            "one miss-batch of 4 kernels"
        );
        let calls = s.histogram("core.engine.predict_ns").unwrap();
        assert_eq!(calls.count, 2);
        let fwd = s.histogram("core.engine.forward_ns").unwrap();
        assert_eq!(fwd.count, 1, "warm call must not time a forward");
        assert_eq!(s.gauge("core.cache.entries"), Some(4.0));
        // Lookups and hits are the engine's counters, not the cache's.
        assert_eq!(s.gauge("core.cache.lookups"), None);
        assert_eq!(s.gauge("core.cache.hit_rate"), None);
    }

    #[test]
    fn observed_predictor_counts_evictions() {
        let registry = Registry::enabled();
        let inner = FnCostModel::new("probe", |k: &Kernel| Some(k.computation.num_nodes() as f64));
        // 16 slots: inserting 64 distinct kernels must evict.
        let cache = Arc::new(AtomicCache::with_capacity(16));
        let p = Predictor::with_cache(inner, cache).observed(&registry);
        let kernels: Vec<Kernel> = (1..=64).map(kernel).collect();
        p.predict_batch_ns(&kernels);
        let observed = registry
            .snapshot()
            .counter("core.engine.cache_evictions")
            .unwrap();
        assert_eq!(observed, p.cache().stats().evictions);
        assert!(observed > 0);
    }

    #[test]
    fn a_panicking_scorer_leaves_cache_and_counters_untouched() {
        // The daemon isolates a panicking backend with `catch_unwind`
        // around this body; that is sound only because nothing is
        // inserted or counted before the scorer returns.
        let registry = Registry::enabled();
        let counters = EngineCounters::new(&registry);
        let cache = AtomicCache::with_capacity(64);
        let kernels: Vec<Kernel> = (1..=4).map(|i| kernel(i * 16)).collect();
        let refs: Vec<&Kernel> = kernels.iter().collect();
        let keys: Vec<u64> = refs.iter().map(|k| canonical_kernel_hash(k)).collect();
        // Two resident entries, so the panicking call has hits and misses.
        predict_keyed(
            &cache,
            &counters,
            &keys[..2],
            |i| refs[i],
            |m| m.iter().map(|_| Some(1.0)).collect(),
        );
        let (stats, counted) = (cache.stats(), counters.stats());
        let snapshot = registry.snapshot();

        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            predict_keyed(&cache, &counters, &keys, |i| refs[i], |_| panic!("backend"))
        }));
        assert!(panicked.is_err());

        assert_eq!(counters.stats(), counted, "no call counted");
        assert_eq!(registry.snapshot(), snapshot, "no metric recorded");
        assert_eq!(cache.stats(), stats, "entries and evictions as they were");
        let resident: Vec<_> = keys.iter().map(|&k| cache.lookup_hash(k)).collect();
        assert_eq!(resident, [Some(Some(1.0)), Some(Some(1.0)), None, None]);
    }

    #[test]
    fn tape_free_evaluation_is_the_packed_forward() {
        let model = GnnModel::new(GnnConfig::default());
        let kernels: Vec<Kernel> = (1..=7).map(|i| kernel(i * 16)).collect();
        let prepared: Vec<Prepared> = kernels.iter().map(Prepared::from_kernel).collect();
        let refs: Vec<&Prepared> = prepared.iter().collect();
        let packed = forward_log_ns(&model, &refs);
        let each: Vec<f64> = crate::predict_log_ns(&model, &prepared).collect();
        assert_eq!(packed, each, "disjoint segments: packing is invisible");
    }
}
