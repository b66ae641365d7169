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
//!   cached prediction, with hit/miss/eviction counters (the shipped
//!   implementation is the lock-free [`AtomicCache`]),
//! - [`Predictor`] — a serving session over any [`CostModel`]: it hashes
//!   the incoming kernels, answers what it can from the cache, deduplicates
//!   the distinct misses, and presents them to the backend as **one**
//!   `predict_batch_ns` call (one packed forward pass for the neural
//!   backends), reporting per-call and cumulative [`PredictStats`].
//!
//! Cache keys are structural: two kernels with identical computations,
//! kinds, and tile sizes share a key, so a prediction made for one is
//! served for the other. Predictions are pure functions of the kernel and
//! the frozen weights, which is what makes the cache sound.

use crate::atomic_cache::AtomicCache;
use crate::batch::{GraphBatch, Prepared};
use crate::cost_model::CostModel;
use crate::train::KernelModel;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tpu_hlo::{canonical_kernel_hash, HashedKernel, Kernel};
use tpu_nn::Tape;
use tpu_obs::{Counter, Gauge, Histogram, Registry};

/// A point-in-time snapshot of cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required computing a prediction.
    pub misses: u64,
    /// Entries discarded to stay within capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The storage contract behind a [`Predictor`] session: a thread-safe map
/// from the canonical kernel hash to a cached prediction, with hit /
/// miss / eviction accounting.
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
    /// Look up by pre-computed hash, counting a hit or miss. The outer
    /// `Option` is residency; the inner is the cached prediction itself.
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

/// A serving session over any [`CostModel`]: cache in front, miss-batching
/// behind.
///
/// Every `predict` call resolves its kernels in three steps: hash and look
/// up each kernel in the session's [`KernelCache`]; deduplicate the
/// distinct misses (first-occurrence order); hand those misses to the
/// backend as **one** [`CostModel::predict_batch_ns`] call. For the neural
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
    kernels: AtomicU64,
    hits: AtomicU64,
    evals: AtomicU64,
    batches: AtomicU64,
    obs: EngineObs,
}

/// `tpu-obs` handles for the serving path, resolved once per session so
/// the per-call cost is a few relaxed atomic ops (and nothing at all on
/// the default no-op registry). Metric names live under `core.engine.*`
/// (per-session serving counters and latencies) and `core.cache.*`
/// (gauges mirroring the shared cache's own counters).
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
    cache_entries: Gauge,
    cache_lookups: Gauge,
    cache_hit_rate: Gauge,
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
            cache_entries: registry.gauge("core.cache.entries"),
            cache_lookups: registry.gauge("core.cache.lookups"),
            cache_hit_rate: registry.gauge("core.cache.hit_rate"),
        }
    }
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
            kernels: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            evals: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            obs: EngineObs::default(),
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
        self.obs = EngineObs::new(registry);
        self
    }

    /// The registry this session was [`observed`](Predictor::observed)
    /// with (the no-op registry otherwise).
    pub fn registry(&self) -> &Registry {
        &self.obs.registry
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The cache (sharable via clone of the [`Arc`]).
    pub fn cache(&self) -> &Arc<C> {
        &self.cache
    }

    /// Shortcut for `self.cache().stats()`.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Export the shared cache's counters as `core.cache.*` gauges.
    /// The entry count may scan the whole cache ([`AtomicCache::len`]
    /// reads every slot), so call this at phase boundaries (end of a run,
    /// before writing a report), not per predict. No-op without an
    /// attached registry.
    pub fn record_cache_stats(&self) {
        if !self.obs.registry.is_enabled() {
            return;
        }
        let s = self.cache.stats();
        self.obs.cache_entries.set(s.entries as f64);
        self.obs.cache_lookups.set(s.lookups() as f64);
        self.obs.cache_hit_rate.set(s.hit_rate());
    }

    /// Cumulative serving counters for this session.
    pub fn stats(&self) -> PredictStats {
        PredictStats {
            kernels: self.kernels.load(Ordering::Relaxed),
            cache_hits: self.hits.load(Ordering::Relaxed),
            model_evals: self.evals.load(Ordering::Relaxed),
            model_batches: self.batches.load(Ordering::Relaxed),
        }
    }

    /// Runtime predictions (ns) for a slice of kernels, positionally.
    pub fn predict_ns(&self, kernels: &[Kernel]) -> Vec<Option<f64>> {
        let refs: Vec<&Kernel> = kernels.iter().collect();
        self.predict_ns_refs(&refs).0
    }

    /// Like [`Predictor::predict_ns`] but over references, returning this
    /// call's [`PredictStats`] alongside the predictions.
    pub fn predict_ns_refs(&self, kernels: &[&Kernel]) -> (Vec<Option<f64>>, PredictStats) {
        let _call_timer = self.obs.predict_ns.start_timer();
        let hashes: Vec<u64> = kernels.iter().map(|k| canonical_kernel_hash(k)).collect();
        self.predict_keyed(kernels, &hashes)
    }

    /// [`Predictor::predict_ns_refs`] for kernels that already carry their
    /// cache key: the same lookups, miss batch, inserts and
    /// [`PredictStats`], minus the hashing.
    pub fn predict_hashed(
        &self,
        kernels: &[&HashedKernel],
    ) -> (Vec<Option<f64>>, PredictStats) {
        let _call_timer = self.obs.predict_ns.start_timer();
        let refs: Vec<&Kernel> = kernels.iter().map(|k| k.kernel()).collect();
        let hashes: Vec<u64> = kernels.iter().map(|k| k.hash()).collect();
        self.predict_keyed(&refs, &hashes)
    }

    /// The one serving body: `hashes[i]` is the canonical hash of
    /// `kernels[i]`. Private so that only the two entries above, which
    /// guarantee that pairing, can reach the cache.
    fn predict_keyed(&self, kernels: &[&Kernel], hashes: &[u64]) -> (Vec<Option<f64>>, PredictStats) {
        // `Some(cached)` = resolved (the cached value may itself be `None`
        // for a kernel the backend cannot score); `None` = cache miss.
        let mut resolved: Vec<Option<Option<f64>>> =
            hashes.iter().map(|&h| self.cache.lookup_hash(h)).collect();
        let call_hits = resolved.iter().filter(|r| r.is_some()).count() as u64;

        // First input index per distinct missing hash.
        let mut pending: Vec<usize> = Vec::new();
        let mut seen: HashSet<u64> = HashSet::new();
        for (i, r) in resolved.iter().enumerate() {
            if r.is_none() && seen.insert(hashes[i]) {
                pending.push(i);
            }
        }

        let mut model_batches = 0u64;
        if !pending.is_empty() {
            let evictions_before = if self.obs.registry.is_enabled() {
                self.cache.eviction_count()
            } else {
                0
            };
            let miss_kernels: Vec<Kernel> =
                pending.iter().map(|&i| Kernel::clone(kernels[i])).collect();
            let forward_timer = self.obs.forward_ns.start_timer();
            let fresh = self.model.predict_batch_ns(&miss_kernels);
            forward_timer.stop();
            self.obs.miss_batch_size.observe(pending.len() as u64);
            model_batches = 1;
            let mut by_hash: HashMap<u64, Option<f64>> = HashMap::with_capacity(pending.len());
            for (&i, ns) in pending.iter().zip(fresh) {
                self.cache.insert_hash(hashes[i], ns);
                by_hash.insert(hashes[i], ns);
            }
            // Fill every position (including duplicates of a miss).
            for (i, r) in resolved.iter_mut().enumerate() {
                if r.is_none() {
                    *r = by_hash.get(&hashes[i]).copied();
                }
            }
            if self.obs.registry.is_enabled() {
                self.obs
                    .cache_evictions
                    .add(self.cache.eviction_count() - evictions_before);
            }
        }

        let stats = PredictStats {
            kernels: kernels.len() as u64,
            cache_hits: call_hits,
            model_evals: pending.len() as u64,
            model_batches,
        };
        self.kernels.fetch_add(stats.kernels, Ordering::Relaxed);
        self.hits.fetch_add(stats.cache_hits, Ordering::Relaxed);
        self.evals.fetch_add(stats.model_evals, Ordering::Relaxed);
        self.batches.fetch_add(stats.model_batches, Ordering::Relaxed);
        self.obs.kernels.add(stats.kernels);
        self.obs.cache_hits.add(stats.cache_hits);
        self.obs.model_evals.add(stats.model_evals);
        self.obs.model_batches.add(stats.model_batches);

        // INVARIANT: every position is either a cache hit or was filled
        // from `by_hash`, which covers every distinct missing hash.
        let out = resolved
            .into_iter()
            .map(|r| r.expect("every kernel resolved"))
            .collect();
        (out, stats)
    }
}

impl<M: CostModel, C: KernelCache> CostModel for Predictor<M, C> {
    fn predict_kernel_ns(&self, kernel: &Kernel) -> Option<f64> {
        // INVARIANT: predict_ns_refs returns one slot per input kernel.
        self.predict_ns_refs(&[kernel]).0.pop().expect("one prediction per kernel")
    }
    fn predict_batch_ns(&self, kernels: &[Kernel]) -> Vec<Option<f64>> {
        self.predict_ns(kernels)
    }
    fn name(&self) -> &str {
        &self.name
    }
}

/// A two-stage serving chain: score with `primary`, and for every position
/// where the primary's answer is unusable — `None` (backend cannot score
/// that kernel) or non-finite (a poisoned checkpoint, a diverged model, an
/// overflowed feature) — fall through to `secondary`.
///
/// This is the serving-side safety net for §6.3-style deployment: a
/// learned model that starts emitting NaN must degrade to a cheaper but
/// sound estimate (e.g. the calibrated analytical model) instead of
/// propagating NaN into the autotuner's objective. The secondary is asked
/// **once** per call, with only the fallen-through kernels, so neural
/// secondaries still get one packed forward.
///
/// `FallbackChain` is itself a [`CostModel`], so it nests (tertiary
/// fallbacks) and composes with [`Predictor`] — wrap the chain in a
/// session and resolved fallbacks are cached like any other prediction.
/// Positions the secondary also cannot answer stay `None`.
pub struct FallbackChain<P, S> {
    primary: P,
    secondary: S,
    name: String,
    fallbacks: AtomicU64,
    obs_fallbacks: Counter,
    breaker: Option<Arc<CircuitBreaker>>,
}

/// A usable prediction is present and finite.
fn usable(v: &Option<f64>) -> bool {
    matches!(v, Some(x) if x.is_finite())
}

/// Circuit-breaker tuning. All windows are counted in kernel positions,
/// never wall-clock time, so breaker state is a pure function of the
/// request sequence and replays bit-identically.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive unusable primary answers that trip the breaker open.
    pub trip_after: u32,
    /// Kernel positions served fallback-only while open before the next
    /// batch probes the primary (half-open).
    pub cooldown: u64,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            trip_after: 4,
            cooldown: 64,
        }
    }
}

/// Where the breaker currently routes traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every batch goes to the primary.
    Closed,
    /// Tripped: batches go fallback-only until the cool-down elapses.
    Open,
    /// Cool-down elapsed: the next primary batch is a probe.
    HalfOpen,
}

impl BreakerState {
    /// Stable wire name (`stats` replies, reports).
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// How a batch should be routed, decided before the primary runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchRoute {
    /// Send the batch to the primary; `probe` marks a half-open trial.
    Primary {
        /// True when this batch decides whether the breaker re-closes.
        probe: bool,
    },
    /// Breaker open: skip the primary entirely.
    FallbackOnly,
}

struct BreakerInner {
    state: BreakerState,
    consecutive_bad: u32,
    cooldown_left: u64,
}

/// A per-backend circuit breaker (§6.3 deployment hardening): consecutive
/// unusable primary answers — `None`, non-finite, or a panic reported via
/// [`CircuitBreaker::force_trip`] — trip it open, diverting whole batches
/// to the fallback for a deterministic cool-down window counted in kernel
/// positions. Once the window elapses the next batch runs as a half-open
/// probe against the primary: fully usable closes the breaker, anything
/// else re-opens it for another full cool-down.
///
/// Shared (`Arc`) between the [`FallbackChain`] that consults it per batch
/// and the serving engine that force-trips it on backend panics and reads
/// it for `stats` replies. All transitions are request-count driven, never
/// wall-clock, so a request script replays to bit-identical breaker state
/// regardless of thread count or machine speed.
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    inner: Mutex<BreakerInner>,
    trips: AtomicU64,
    open_served: AtomicU64,
    probes: AtomicU64,
    obs_trips: Counter,
    obs_open_served: Counter,
    obs_probes: Counter,
    obs_state: Gauge,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg: BreakerConfig {
                trip_after: cfg.trip_after.max(1),
                cooldown: cfg.cooldown.max(1),
            },
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_bad: 0,
                cooldown_left: 0,
            }),
            trips: AtomicU64::new(0),
            open_served: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            obs_trips: Counter::noop(),
            obs_open_served: Counter::noop(),
            obs_probes: Counter::noop(),
            obs_state: Gauge::noop(),
        }
    }

    /// Attach an observability registry (builder-style): transitions and
    /// diverted positions are exported as `serve.breaker.*`.
    pub fn observed(mut self, registry: &Registry) -> CircuitBreaker {
        self.obs_trips = registry.counter("serve.breaker.trips");
        self.obs_open_served = registry.counter("serve.breaker.open_served");
        self.obs_probes = registry.counter("serve.breaker.probes");
        self.obs_state = registry.gauge("serve.breaker.state");
        self
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        // A panic while holding this lock only poisons breaker metadata
        // (state enum + two counters), which the recovering caller still
        // reads consistently — predictions are never stored here.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Current routing state.
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// Times the breaker tripped open (including forced trips and failed
    /// probes).
    pub fn trip_count(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Kernel positions served fallback-only while the breaker was open.
    pub fn open_served_count(&self) -> u64 {
        self.open_served.load(Ordering::Relaxed)
    }

    /// Half-open probe batches sent to the primary.
    pub fn probe_count(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Trip the breaker open immediately (e.g. the primary panicked).
    pub fn force_trip(&self) {
        let mut inner = self.lock();
        self.trip(&mut inner);
    }

    fn trip(&self, inner: &mut BreakerInner) {
        inner.state = BreakerState::Open;
        inner.consecutive_bad = 0;
        inner.cooldown_left = self.cfg.cooldown;
        self.trips.fetch_add(1, Ordering::Relaxed);
        self.obs_trips.inc();
        self.obs_state.set(1.0);
    }

    /// Route a batch of `n` kernels. Open batches burn `n` positions off
    /// the cool-down; once it hits zero the *next* batch probes.
    pub fn begin_batch(&self, n: usize) -> BatchRoute {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed => BatchRoute::Primary { probe: false },
            BreakerState::HalfOpen => BatchRoute::Primary { probe: true },
            BreakerState::Open => {
                if inner.cooldown_left == 0 {
                    inner.state = BreakerState::HalfOpen;
                    self.probes.fetch_add(1, Ordering::Relaxed);
                    self.obs_probes.inc();
                    self.obs_state.set(2.0);
                    BatchRoute::Primary { probe: true }
                } else {
                    inner.cooldown_left = inner.cooldown_left.saturating_sub(n as u64);
                    self.open_served.fetch_add(n as u64, Ordering::Relaxed);
                    self.obs_open_served.add(n as u64);
                    BatchRoute::FallbackOnly
                }
            }
        }
    }

    /// Record the primary's per-position outcomes (`true` = usable) for a
    /// batch routed to it. A probe batch closes the breaker only when
    /// every position was usable; any bad position re-opens it.
    pub fn end_batch(&self, probe: bool, usable: &[bool]) {
        let mut inner = self.lock();
        if probe {
            if usable.iter().all(|&u| u) {
                inner.state = BreakerState::Closed;
                inner.consecutive_bad = 0;
                self.obs_state.set(0.0);
            } else {
                self.trip(&mut inner);
            }
            return;
        }
        for &u in usable {
            if u {
                inner.consecutive_bad = 0;
            } else {
                inner.consecutive_bad += 1;
                if inner.consecutive_bad >= self.cfg.trip_after {
                    self.trip(&mut inner);
                    return;
                }
            }
        }
    }
}

impl<P: CostModel, S: CostModel> FallbackChain<P, S> {
    /// Chain `primary` with `secondary` as its fallback.
    pub fn new(primary: P, secondary: S) -> FallbackChain<P, S> {
        let name = format!("{}+fallback-{}", primary.name(), secondary.name());
        FallbackChain {
            primary,
            secondary,
            name,
            fallbacks: AtomicU64::new(0),
            obs_fallbacks: Counter::noop(),
            breaker: None,
        }
    }

    /// Attach an observability registry (builder-style): every position
    /// that falls through to the secondary bumps `core.engine.fallbacks`.
    pub fn observed(mut self, registry: &Registry) -> FallbackChain<P, S> {
        self.obs_fallbacks = registry.counter("core.engine.fallbacks");
        self
    }

    /// Attach a circuit breaker (builder-style). Every batch is routed
    /// through [`CircuitBreaker::begin_batch`] first: while the breaker is
    /// open the primary is skipped entirely and the whole batch is served
    /// by the secondary. The `Arc` is shared with the serving engine so a
    /// worker that catches a primary panic can force-trip the same breaker.
    pub fn with_breaker(mut self, breaker: Arc<CircuitBreaker>) -> FallbackChain<P, S> {
        self.breaker = Some(breaker);
        self
    }

    /// The attached breaker, if any.
    pub fn breaker(&self) -> Option<&Arc<CircuitBreaker>> {
        self.breaker.as_ref()
    }

    /// The primary model.
    pub fn primary(&self) -> &P {
        &self.primary
    }

    /// The fallback model.
    pub fn secondary(&self) -> &S {
        &self.secondary
    }

    /// Positions that have fallen through to the secondary so far.
    pub fn fallback_count(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    fn count_fallbacks(&self, n: u64) {
        if n > 0 {
            self.fallbacks.fetch_add(n, Ordering::Relaxed);
            self.obs_fallbacks.add(n);
        }
    }
}

impl<P: CostModel, S: CostModel> CostModel for FallbackChain<P, S> {
    fn predict_kernel_ns(&self, kernel: &Kernel) -> Option<f64> {
        if self.breaker.is_some() {
            // Route through the batch path so breaker accounting sees a
            // single consistent position stream.
            return self
                .predict_batch_ns(std::slice::from_ref(kernel))
                .pop()
                .expect("one prediction per kernel");
        }
        let first = self.primary.predict_kernel_ns(kernel);
        if usable(&first) {
            return first;
        }
        self.count_fallbacks(1);
        self.secondary.predict_kernel_ns(kernel)
    }

    fn predict_batch_ns(&self, kernels: &[Kernel]) -> Vec<Option<f64>> {
        if kernels.is_empty() {
            return Vec::new();
        }
        let route = match &self.breaker {
            Some(b) => b.begin_batch(kernels.len()),
            None => BatchRoute::Primary { probe: false },
        };
        if route == BatchRoute::FallbackOnly {
            self.count_fallbacks(kernels.len() as u64);
            return self.secondary.predict_batch_ns(kernels);
        }
        let mut out = self.primary.predict_batch_ns(kernels);
        if let (Some(b), BatchRoute::Primary { probe }) = (&self.breaker, route) {
            let mask: Vec<bool> = out.iter().map(usable).collect();
            b.end_batch(probe, &mask);
        }
        let fallen: Vec<usize> = (0..out.len()).filter(|&i| !usable(&out[i])).collect();
        if fallen.is_empty() {
            return out;
        }
        self.count_fallbacks(fallen.len() as u64);
        let retry: Vec<Kernel> = fallen.iter().map(|&i| kernels[i].clone()).collect();
        for (&i, ns) in fallen.iter().zip(self.secondary.predict_batch_ns(&retry)) {
            out[i] = ns;
        }
        out
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// One packed forward pass over already-featurized kernels, in the log-ns
/// domain. Empty input is an empty output (no forward runs at all).
///
/// This is the shared serving primitive behind the neural backends'
/// [`CostModel::predict_batch_ns`]: the whole slice becomes a single
/// disjoint [`GraphBatch`].
pub fn forward_log_ns<M: KernelModel + ?Sized>(model: &M, prepared: &[&Prepared]) -> Vec<f64> {
    forward_log_ns_chunked(model, prepared, prepared.len())
}

/// Chunked variant of [`forward_log_ns`] for large evaluation sets, where
/// packing everything into one graph would be memory-hungry: one forward
/// per `chunk` kernels, one recycled tape arena across chunks. Results are
/// positionally identical to the unchunked call for the GNN (disjoint
/// segments) and within padding arithmetic for the masked LSTM.
pub fn forward_log_ns_chunked<M: KernelModel + ?Sized>(
    model: &M,
    prepared: &[&Prepared],
    chunk: usize,
) -> Vec<f64> {
    let chunk = chunk.max(1);
    let mut out = Vec::with_capacity(prepared.len());
    let mut tape = Tape::new();
    for part in prepared.chunks(chunk) {
        let Some(batch) = GraphBatch::pack(part) else {
            continue;
        };
        tape.reset();
        let pred = model.forward_batch(&mut tape, &batch);
        let t = tape.value(pred);
        out.extend((0..t.rows()).map(|r| t.get(r, 0) as f64));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_model::FnCostModel;
    use crate::model::{GnnConfig, GnnModel};
    use std::sync::atomic::AtomicUsize;
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
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        assert_eq!(PredictStats::default().hit_rate(), 0.0);
        assert_eq!(AtomicCache::with_capacity(8).stats().hit_rate(), 0.0);
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
        assert_eq!(calls.load(Ordering::SeqCst), 1, "second call must hit cache");
        assert_eq!(p.name(), "cached-probe");
        let s = p.stats();
        assert_eq!((s.kernels, s.cache_hits, s.model_evals, s.model_batches), (2, 1, 1, 1));
    }

    #[test]
    fn one_backend_batch_per_miss_batch() {
        // The Predictor must present all distinct misses of a call as ONE
        // predict_batch_ns call, however many kernels and duplicates the
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
        let p = Predictor::new(Probe { batch_calls: &batch_calls });
        // 4 distinct structures among 8 inputs.
        let kernels: Vec<Kernel> = (0..8).map(|i| kernel(16 * (1 + i % 4))).collect();
        let (first, s1) = p.predict_ns_refs(&kernels.iter().collect::<Vec<_>>());
        assert_eq!(batch_calls.load(Ordering::SeqCst), 1);
        assert_eq!((s1.kernels, s1.cache_hits, s1.model_evals, s1.model_batches), (8, 0, 4, 1));
        let (second, s2) = p.predict_ns_refs(&kernels.iter().collect::<Vec<_>>());
        assert_eq!(batch_calls.load(Ordering::SeqCst), 1, "all-hit call must not touch the model");
        assert_eq!((s2.cache_hits, s2.model_evals, s2.model_batches), (8, 0, 0));
        assert_eq!(first, second);
        assert_eq!(first[0], first[4], "duplicate kernels share predictions");
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
        let cold = p.predict_ns(&kernels);
        let s = p.stats();
        assert_eq!((s.kernels, s.model_evals, s.model_batches), (6, 6, 1));
        let warm = p.predict_ns(&kernels);
        let s = p.stats();
        assert_eq!((s.kernels, s.cache_hits, s.model_batches), (12, 6, 1));
        assert_eq!(cold, warm, "cached values are reused bit-for-bit");
        // And positionally bit-identical to the per-kernel path.
        for (k, c) in kernels.iter().zip(&cold) {
            assert_eq!(*c, Some(model.predict_ns(k)));
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
        assert!(p.predict_ns(&[]).is_empty());
        assert_eq!(p.stats().model_batches, 0);
        assert!(forward_log_ns(&model, &[]).is_empty());
    }

    #[test]
    fn observed_predictor_mirrors_stats_into_registry() {
        let registry = Registry::enabled();
        let model = GnnModel::new(GnnConfig::default());
        let p = Predictor::new(&model).observed(&registry);
        assert!(p.registry().is_enabled(), "an observed session carries its registry");
        assert!(!Predictor::new(&model).registry().is_enabled());
        let kernels: Vec<Kernel> = (1..=4).map(|i| kernel(i * 16)).collect();
        let cold = p.predict_ns(&kernels);
        let warm = p.predict_ns(&kernels);
        assert_eq!(cold, warm, "instrumentation must not perturb predictions");
        p.record_cache_stats();

        let s = registry.snapshot();
        let stats = p.stats();
        assert_eq!(s.counter("core.engine.kernels"), Some(stats.kernels));
        assert_eq!(s.counter("core.engine.cache_hits"), Some(stats.cache_hits));
        assert_eq!(s.counter("core.engine.model_evals"), Some(stats.model_evals));
        assert_eq!(s.counter("core.engine.model_batches"), Some(stats.model_batches));
        let miss = s.histogram("core.engine.miss_batch_size").unwrap();
        assert_eq!((miss.count, miss.sum), (1, 4), "one miss-batch of 4 kernels");
        let calls = s.histogram("core.engine.predict_ns").unwrap();
        assert_eq!(calls.count, 2);
        let fwd = s.histogram("core.engine.forward_ns").unwrap();
        assert_eq!(fwd.count, 1, "warm call must not time a forward");
        assert_eq!(s.gauge("core.cache.entries"), Some(4.0));
        assert_eq!(s.gauge("core.cache.hit_rate"), Some(0.5));
    }

    #[test]
    fn observed_predictor_counts_evictions() {
        let registry = Registry::enabled();
        let inner = FnCostModel::new("probe", |k: &Kernel| {
            Some(k.computation.num_nodes() as f64)
        });
        // 16 slots: inserting 64 distinct kernels must evict.
        let cache = Arc::new(AtomicCache::with_capacity(16));
        let p = Predictor::with_cache(inner, cache).observed(&registry);
        let kernels: Vec<Kernel> = (1..=64).map(kernel).collect();
        p.predict_ns(&kernels);
        let observed = registry
            .snapshot()
            .counter("core.engine.cache_evictions")
            .unwrap();
        assert_eq!(observed, p.cache_stats().evictions);
        assert!(observed > 0);
    }

    #[test]
    fn fallback_chain_rescues_none_and_non_finite() {
        let primary = FnCostModel::new("flaky", |k: &Kernel| {
            match k.computation.num_nodes() % 3 {
                0 => None,                // unsupported
                1 => Some(f64::NAN),      // poisoned
                _ => Some(100.0),         // healthy
            }
        });
        let secondary = FnCostModel::new("safe", |_k: &Kernel| Some(7.0));
        let chain = FallbackChain::new(primary, secondary);
        // num_nodes for kernel(cols) here is 3 (param, tanh, exp).
        let k = kernel(32);
        let n = k.computation.num_nodes();
        let expected = match n % 3 {
            0 | 1 => Some(7.0),
            _ => Some(100.0),
        };
        assert_eq!(chain.predict_kernel_ns(&k), expected);
        assert_eq!(chain.name(), "flaky+fallback-safe");
    }

    #[test]
    fn fallback_batch_splices_positionally_with_one_secondary_call() {
        struct Flaky;
        impl CostModel for Flaky {
            fn predict_kernel_ns(&self, k: &Kernel) -> Option<f64> {
                let cols = k.computation.node(tpu_hlo::NodeId(0)).shape.dims()[1];
                match cols {
                    16 => Some(f64::NAN),
                    32 => None,
                    48 => Some(f64::NEG_INFINITY),
                    c => Some(c as f64),
                }
            }
            fn name(&self) -> &str {
                "flaky"
            }
        }
        let secondary_batches = AtomicUsize::new(0);
        struct Safe<'a>(&'a AtomicUsize);
        impl CostModel for Safe<'_> {
            fn predict_kernel_ns(&self, k: &Kernel) -> Option<f64> {
                let cols = k.computation.node(tpu_hlo::NodeId(0)).shape.dims()[1];
                Some(1000.0 + cols as f64)
            }
            fn predict_batch_ns(&self, kernels: &[Kernel]) -> Vec<Option<f64>> {
                self.0.fetch_add(1, Ordering::SeqCst);
                kernels.iter().map(|k| self.predict_kernel_ns(k)).collect()
            }
            fn name(&self) -> &str {
                "safe"
            }
        }
        let registry = Registry::enabled();
        let chain = FallbackChain::new(Flaky, Safe(&secondary_batches)).observed(&registry);
        let kernels: Vec<Kernel> = [16, 32, 48, 64, 80].map(kernel).to_vec();
        let out = chain.predict_batch_ns(&kernels);
        assert_eq!(
            out,
            vec![Some(1016.0), Some(1032.0), Some(1048.0), Some(64.0), Some(80.0)],
            "fallen positions filled by secondary, healthy ones untouched"
        );
        assert_eq!(secondary_batches.load(Ordering::SeqCst), 1, "one packed fallback batch");
        assert_eq!(chain.fallback_count(), 3);
        assert_eq!(
            registry.snapshot().counter("core.engine.fallbacks"),
            Some(3)
        );
    }

    #[test]
    fn fallback_chain_is_silent_when_primary_is_healthy() {
        let primary = FnCostModel::new("ok", |_k: &Kernel| Some(5.0));
        let secondary = FnCostModel::new("never", |_k: &Kernel| panic!("must not be asked"));
        let chain = FallbackChain::new(primary, secondary);
        let kernels: Vec<Kernel> = (1..=3).map(|i| kernel(i * 16)).collect();
        assert_eq!(chain.predict_batch_ns(&kernels), vec![Some(5.0); 3]);
        assert_eq!(chain.fallback_count(), 0);
    }

    #[test]
    fn fallback_chain_composes_with_predictor() {
        // A NaN-emitting primary behind a Predictor session: the resolved
        // fallback value is cached, so the second call costs no model work
        // and no additional fallbacks.
        let primary = FnCostModel::new("nan", |_k: &Kernel| Some(f64::NAN));
        let secondary = FnCostModel::new("safe", |_k: &Kernel| Some(9.0));
        let p = Predictor::new(FallbackChain::new(primary, secondary));
        let k = kernel(32);
        assert_eq!(p.predict_kernel_ns(&k), Some(9.0));
        assert_eq!(p.predict_kernel_ns(&k), Some(9.0));
        let s = p.stats();
        assert_eq!((s.cache_hits, s.model_evals), (1, 1));
        assert_eq!(p.model().fallback_count(), 1, "cache absorbed the repeat");
    }

    #[test]
    fn unanswerable_positions_stay_none_after_the_chain() {
        let primary = FnCostModel::new("none", |_k: &Kernel| None);
        let secondary = FnCostModel::new("also-none", |_k: &Kernel| None);
        let chain = FallbackChain::new(primary, secondary);
        assert_eq!(chain.predict_kernel_ns(&kernel(32)), None);
        assert_eq!(chain.fallback_count(), 1);
    }

    #[test]
    fn breaker_trips_cools_down_probes_and_recloses() {
        let b = CircuitBreaker::new(BreakerConfig {
            trip_after: 2,
            cooldown: 3,
        });
        assert_eq!(b.state(), BreakerState::Closed);
        // One bad position does not trip; the second (consecutive) does.
        assert_eq!(b.begin_batch(1), BatchRoute::Primary { probe: false });
        b.end_batch(false, &[false]);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.begin_batch(1), BatchRoute::Primary { probe: false });
        b.end_batch(false, &[false]);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trip_count(), 1);
        // Three positions of cool-down served fallback-only...
        assert_eq!(b.begin_batch(2), BatchRoute::FallbackOnly);
        assert_eq!(b.begin_batch(1), BatchRoute::FallbackOnly);
        assert_eq!(b.open_served_count(), 3);
        // ...then the next batch probes, and a clean probe re-closes.
        assert_eq!(b.begin_batch(1), BatchRoute::Primary { probe: true });
        assert_eq!(b.probe_count(), 1);
        b.end_batch(true, &[true]);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_for_a_full_cooldown() {
        let b = CircuitBreaker::new(BreakerConfig {
            trip_after: 1,
            cooldown: 2,
        });
        b.force_trip();
        assert_eq!((b.state(), b.trip_count()), (BreakerState::Open, 1));
        assert_eq!(b.begin_batch(2), BatchRoute::FallbackOnly);
        assert_eq!(b.begin_batch(1), BatchRoute::Primary { probe: true });
        b.end_batch(true, &[true, false]);
        assert_eq!((b.state(), b.trip_count()), (BreakerState::Open, 2));
        // The re-trip restarts the whole cool-down window.
        assert_eq!(b.begin_batch(1), BatchRoute::FallbackOnly);
        assert_eq!(b.begin_batch(1), BatchRoute::FallbackOnly);
        assert_eq!(b.begin_batch(1), BatchRoute::Primary { probe: true });
    }

    #[test]
    fn good_traffic_resets_the_consecutive_bad_count() {
        let b = CircuitBreaker::new(BreakerConfig {
            trip_after: 2,
            cooldown: 8,
        });
        // bad, good, bad, good... never two in a row: never trips.
        for _ in 0..8 {
            assert_eq!(b.begin_batch(2), BatchRoute::Primary { probe: false });
            b.end_batch(false, &[false, true]);
        }
        assert_eq!((b.state(), b.trip_count()), (BreakerState::Closed, 0));
    }

    #[test]
    fn breaker_chain_skips_primary_while_open() {
        let primary_calls = AtomicUsize::new(0);
        let primary = FnCostModel::new("nan", |_k: &Kernel| {
            primary_calls.fetch_add(1, Ordering::SeqCst);
            Some(f64::NAN)
        });
        let secondary = FnCostModel::new("safe", |_k: &Kernel| Some(7.0));
        let registry = Registry::enabled();
        let breaker = Arc::new(
            CircuitBreaker::new(BreakerConfig {
                trip_after: 2,
                cooldown: 4,
            })
            .observed(&registry),
        );
        let chain =
            FallbackChain::new(primary, secondary).with_breaker(Arc::clone(&breaker));
        let kernels: Vec<Kernel> = (1..=2).map(|i| kernel(i * 16)).collect();
        // First batch: two NaNs trip the breaker (still served via fallback).
        assert_eq!(chain.predict_batch_ns(&kernels), vec![Some(7.0); 2]);
        assert_eq!(breaker.state(), BreakerState::Open);
        let calls_when_tripped = primary_calls.load(Ordering::SeqCst);
        // Cool-down traffic never touches the primary.
        assert_eq!(chain.predict_batch_ns(&kernels), vec![Some(7.0); 2]);
        assert_eq!(chain.predict_batch_ns(&kernels), vec![Some(7.0); 2]);
        assert_eq!(primary_calls.load(Ordering::SeqCst), calls_when_tripped);
        // Cool-down of 4 positions burned: next batch probes the (still
        // broken) primary and re-opens.
        assert_eq!(chain.predict_batch_ns(&kernels), vec![Some(7.0); 2]);
        assert!(primary_calls.load(Ordering::SeqCst) > calls_when_tripped);
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.trip_count(), 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.breaker.trips"), Some(2));
        assert_eq!(snap.counter("serve.breaker.open_served"), Some(4));
        assert_eq!(snap.counter("serve.breaker.probes"), Some(1));
        assert_eq!(snap.gauge("serve.breaker.state"), Some(1.0));
    }

    #[test]
    fn breaker_chain_single_kernel_path_counts_positions() {
        let primary = FnCostModel::new("dead", |_k: &Kernel| None);
        let secondary = FnCostModel::new("safe", |_k: &Kernel| Some(1.0));
        let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
            trip_after: 1,
            cooldown: 2,
        }));
        let chain =
            FallbackChain::new(primary, secondary).with_breaker(Arc::clone(&breaker));
        let k = kernel(32);
        assert_eq!(chain.predict_kernel_ns(&k), Some(1.0)); // trips
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(chain.predict_kernel_ns(&k), Some(1.0)); // cooldown 1/2
        assert_eq!(chain.predict_kernel_ns(&k), Some(1.0)); // cooldown 2/2
        assert_eq!(chain.predict_kernel_ns(&k), Some(1.0)); // probe, fails
        assert_eq!(breaker.trip_count(), 2);
        assert_eq!(chain.fallback_count(), 4, "every position was rescued");
    }

    #[test]
    fn chunked_forward_matches_unchunked() {
        let model = GnnModel::new(GnnConfig::default());
        let kernels: Vec<Kernel> = (1..=7).map(|i| kernel(i * 16)).collect();
        let prepared = Prepared::from_kernels(&kernels);
        let refs: Vec<&Prepared> = prepared.iter().collect();
        let whole = forward_log_ns(&model, &refs);
        let chunked = forward_log_ns_chunked(&model, &refs, 3);
        assert_eq!(whole, chunked, "disjoint segments: chunking is invisible");
    }
}
