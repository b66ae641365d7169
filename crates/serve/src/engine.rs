//! The serving engine: cache hits answered on the caller's thread, misses
//! batched by a worker thread into single [`Predictor::predict_hashed`]
//! calls.
//!
//! Frontends (`stdin`, TCP client threads) call
//! [`ServeEngine::submit_hashed`] with the kernel and the cache key they
//! computed while parsing ([`ServeEngine::submit`] hashes for a caller
//! that holds a bare kernel). `submit_hashed` probes the cache itself: a
//! hit is answered there, with no channel, no wake of the worker and no
//! allocation, as a one-request batch of hits would have been. Only a
//! miss is enqueued; the worker drains everything queued since its last
//! batch and answers it with one predictor call, so concurrent clients
//! share forward passes. Admission control bounds the queue: past
//! `max_pending` in-flight requests, `submit` fails fast with
//! [`ServeError::Overloaded`] instead of stacking latency. An optional
//! model-evaluation budget turns the daemon cache-only once spent —
//! cache hits keep being served, misses get [`ServeError::BudgetExhausted`]
//! (the budget can overshoot by at most one batch, since a batch is
//! committed as a unit).
//!
//! On top of that sits the resilience layer ([`ServeOptions`]):
//!
//! - **Deadlines** — each request carries an optional `deadline_ms` (or
//!   inherits [`ServeConfig::deadline_ms`]). The worker sheds jobs whose
//!   queue age already exceeds the budget *before* the batch runs and
//!   re-checks *after*, so a slow backend produces a typed
//!   [`ServeError::DeadlineExpired`] instead of a silently late answer.
//!   Time comes from a pluggable [`ServeClock`] so tests replay
//!   deterministically ([`TickClock`]); a `deadline_ms` of `0` expires
//!   immediately under any clock.
//! - **Circuit breaker** — a [`CircuitBreaker`] shared with the model's
//!   [`FallbackChain`](tpu_learned_cost::FallbackChain): the chain
//!   consults it per batch, the engine force-trips it when the primary
//!   panics and reports its state in [`ServeStats`]. Replies served while
//!   the breaker was open are marked degraded.
//! - **Validated hot reload** — [`ServeEngine::reload_from_bytes`] parses
//!   a `tpu-frozen.v2` blob off the worker thread, admission-checks it
//!   (finite predictions + Kendall-τ against the incumbent on a fixed
//!   probe panel), then atomically swaps it into the worker. The cache is
//!   cleared only on a successful swap, and a model-epoch tag mixed into
//!   every cache key makes stale entries unreachable even mid-swap.
//! - **Panic isolation** — the worker wraps every predict batch in
//!   `catch_unwind`; a panicking backend fails that batch with
//!   [`ServeError::BackendPanic`], trips the breaker, and the daemon
//!   keeps serving.
//!
//! The worker owns the model (`Box<dyn CostModel + Send>` — backends like
//! a fault-injected device are `Send` but not `Sync`), which also makes
//! request-order execution deterministic: the same serial request stream
//! against the same seed replays bit-identically, breaker and reload
//! state included (both are request-count driven, never wall-clock). A
//! hit on the caller's thread never reaches the model, so it moves none
//! of that state (DESIGN.md "Serving daemon" has the argument).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use tpu_hlo::{HashedKernel, Kernel};
use tpu_infer::FrozenModel;
use tpu_learned_cost::metrics::kendall_tau;
use tpu_learned_cost::{
    BreakerState, CacheStats, CircuitBreaker, CostModel, KernelCache, PredictStats, Predictor,
};
use tpu_obs::{Counter, Registry};

/// Why a request was not answered with a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control: too many requests already in flight.
    Overloaded,
    /// The model-evaluation budget is spent and the kernel missed the cache.
    BudgetExhausted,
    /// The engine is draining; no new work is accepted.
    ShuttingDown,
    /// The request's deadline elapsed before an answer was ready.
    DeadlineExpired,
    /// The backend panicked while scoring the batch holding this request.
    BackendPanic,
}

impl ServeError {
    /// Stable wire code for the error reply.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Overloaded => "overloaded",
            ServeError::BudgetExhausted => "budget",
            ServeError::ShuttingDown => "shutdown",
            ServeError::DeadlineExpired => "deadline",
            ServeError::BackendPanic => "backend_panic",
        }
    }

    /// Human-readable detail for the error reply.
    pub fn message(&self) -> &'static str {
        match self {
            ServeError::Overloaded => "too many requests in flight; retry later",
            ServeError::BudgetExhausted => {
                "model evaluation budget exhausted and kernel not cached"
            }
            ServeError::ShuttingDown => "daemon is shutting down",
            ServeError::DeadlineExpired => "request deadline expired before an answer was ready",
            ServeError::BackendPanic => "backend panicked while scoring this batch",
        }
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Most kernels answered by one predictor call.
    pub batch_max: usize,
    /// Admission-control bound on in-flight requests.
    pub max_pending: usize,
    /// Model evaluations allowed before the daemon turns cache-only.
    pub eval_budget: Option<u64>,
    /// Default per-request deadline for requests that carry none.
    pub deadline_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            batch_max: 64,
            max_pending: 1024,
            eval_budget: None,
            deadline_ms: None,
        }
    }
}

/// A monotonically non-decreasing millisecond clock for deadline checks.
///
/// Pluggable so the deadline machinery itself is testable without real
/// waiting: production uses [`MonotonicClock`], deterministic tests use
/// [`TickClock`]. Whatever the clock, a `deadline_ms` of `0` always
/// expires (queue age is compared with `>=`).
pub trait ServeClock: Send + Sync {
    /// Milliseconds since an arbitrary fixed epoch.
    fn now_ms(&self) -> u64;
}

/// Wall-clock [`ServeClock`] over [`Instant`]; the production default.
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    /// A clock whose epoch is its construction time.
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> MonotonicClock {
        MonotonicClock::new()
    }
}

impl ServeClock for MonotonicClock {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }
}

/// Deterministic [`ServeClock`] for tests: every `now_ms` call returns the
/// current tick then advances it by a fixed step, so "time" is a pure
/// function of how many clock reads the request script causes.
pub struct TickClock {
    now: AtomicU64,
    step: u64,
}

impl TickClock {
    /// A clock that advances `step` ms per read (0 = frozen).
    pub fn advancing(step: u64) -> TickClock {
        TickClock {
            now: AtomicU64::new(0),
            step,
        }
    }

    /// A frozen clock moved only by [`TickClock::advance`].
    pub fn frozen() -> TickClock {
        TickClock::advancing(0)
    }

    /// Move the clock forward by `ms`.
    pub fn advance(&self, ms: u64) {
        self.now.fetch_add(ms, Ordering::SeqCst);
    }
}

impl ServeClock for TickClock {
    fn now_ms(&self) -> u64 {
        self.now.fetch_add(self.step, Ordering::SeqCst)
    }
}

/// A served prediction plus degradation marker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// The prediction, exactly as `Predictor::predict_ns` produced it.
    pub ns: Option<f64>,
    /// True when the batch ran while the circuit breaker was open (the
    /// answer came from the fallback path, not the primary backend).
    pub degraded: bool,
}

/// Why a hot reload was refused. The daemon keeps serving the incumbent
/// model in every case.
#[derive(Debug, Clone, PartialEq)]
pub enum ReloadError {
    /// The engine was started without a [`ReloadPolicy`].
    Disabled,
    /// The blob could not be read from disk.
    Io(String),
    /// The bytes are not a valid `tpu-frozen.v2` blob.
    Parse(String),
    /// The candidate produced a missing or non-finite prediction on the
    /// probe panel (0-based position).
    NonFinite(usize),
    /// The candidate's ranking diverges from the incumbent's.
    TauTooLow {
        /// Kendall-τ between candidate and incumbent on the probe panel.
        tau: f64,
        /// The policy's admission threshold.
        min: f64,
    },
    /// The engine is draining; the swap was not attempted.
    ShuttingDown,
}

impl ReloadError {
    /// Stable machine-readable reason for the `reload_rejected` reply.
    pub fn reason(&self) -> &'static str {
        match self {
            ReloadError::Disabled => "disabled",
            ReloadError::Io(_) => "io",
            ReloadError::Parse(_) => "parse",
            ReloadError::NonFinite(_) => "non_finite",
            ReloadError::TauTooLow { .. } => "tau",
            ReloadError::ShuttingDown => "shutdown",
        }
    }

    /// Human-readable detail for the `reload_rejected` reply.
    pub fn message(&self) -> String {
        match self {
            ReloadError::Disabled => "this engine was started without a reload policy".to_string(),
            ReloadError::Io(e) => format!("reading the blob failed: {e}"),
            ReloadError::Parse(e) => format!("blob rejected: {e}"),
            ReloadError::NonFinite(i) => {
                format!("candidate produced a missing or non-finite prediction on probe kernel {i}")
            }
            ReloadError::TauTooLow { tau, min } => {
                format!("candidate kendall-tau {tau:.4} against incumbent below admission minimum {min}")
            }
            ReloadError::ShuttingDown => "daemon is shutting down".to_string(),
        }
    }
}

/// Admission policy for hot reloads: how a candidate `tpu-frozen.v2` blob
/// is validated and wrapped before it replaces the serving model.
pub struct ReloadPolicy {
    /// Minimum Kendall-τ between candidate and incumbent predictions on
    /// the probe panel (the paper's ranking-quality metric, §5).
    pub min_tau: f64,
    /// The fixed probe-kernel panel both models are scored on.
    pub panel: Vec<Kernel>,
    /// Wraps the validated frozen model into the served backend (e.g.
    /// re-attaching the fallback chain and breaker).
    pub wrap: Box<dyn Fn(FrozenModel) -> Box<dyn CostModel + Send> + Send + Sync>,
}

/// Resilience wiring for [`ServeEngine::start_with`]; the plain
/// [`ServeEngine::start`] uses the defaults (wall clock, no breaker, no
/// reload).
pub struct ServeOptions {
    /// Deadline clock; swap in a [`TickClock`] for deterministic tests.
    pub clock: Arc<dyn ServeClock>,
    /// Breaker handle shared with the model's fallback chain, so the
    /// engine can force-trip it on panics and report it in stats.
    pub breaker: Option<Arc<CircuitBreaker>>,
    /// Hot-reload admission policy; `None` disables the `reload` op.
    pub reload: Option<ReloadPolicy>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            clock: Arc::new(MonotonicClock::new()),
            breaker: None,
            reload: None,
        }
    }
}

/// Cumulative serving counters, for `stats` replies and run reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests offered to `submit` (including rejected ones).
    pub submitted: u64,
    /// Requests answered with a prediction (`ns` or `null`).
    pub answered: u64,
    /// Requests refused by admission control.
    pub rejected: u64,
    /// Requests refused because the evaluation budget was spent.
    pub budget_denied: u64,
    /// Predictor batches executed.
    pub batches: u64,
    /// Requests answered with a `deadline` error (shed + late).
    pub deadline_expired: u64,
    /// Of those, requests shed before the batch ran (queue age already
    /// over budget).
    pub deadline_shed: u64,
    /// Predict batches that panicked in the backend.
    pub backend_panics: u64,
    /// Hot reloads accepted and swapped in.
    pub reloads: u64,
    /// Hot reloads rejected by the admission check.
    pub reloads_rejected: u64,
    /// Model epoch: bumps on every accepted reload (tags cache keys).
    pub epoch: u64,
    /// Times the circuit breaker tripped open (0 when no breaker).
    pub breaker_trips: u64,
    /// Kernel positions served fallback-only while the breaker was open.
    pub breaker_open_served: u64,
    /// Breaker state: 0 closed, 1 open, 2 half-open.
    pub breaker_state: u8,
    /// Predictor counters summed over every served batch (monotonic
    /// across reloads).
    pub predict: PredictStats,
    /// Cache residency at the time of the call.
    pub cache_entries: usize,
    /// Cache evictions at the time of the call.
    pub cache_evictions: u64,
}

impl ServeStats {
    /// Stable wire name of the breaker state.
    pub fn breaker_state_name(&self) -> &'static str {
        match self.breaker_state {
            1 => "open",
            2 => "half_open",
            _ => "closed",
        }
    }
}

enum Job {
    Predict {
        kernel: HashedKernel,
        deadline_ms: Option<u64>,
        enqueued_ms: u64,
        reply: SyncSender<Result<Prediction, ServeError>>,
    },
    /// Score the probe panel with the *current* model (reload admission
    /// reads the incumbent's answers through this, so they reflect
    /// whatever the worker actually serves).
    Snapshot {
        panel: Vec<Kernel>,
        reply: SyncSender<Vec<Option<f64>>>,
    },
    /// Swap in an already-validated model, bump the epoch, clear the
    /// cache, and answer with the new incumbent's panel predictions.
    Swap {
        model: Box<dyn CostModel + Send>,
        panel: Vec<Kernel>,
        reply: SyncSender<Vec<Option<f64>>>,
    },
}

/// A [`KernelCache`] wrapper mixing the model epoch into every key, so a
/// swapped-in model can never be answered with the previous model's
/// predictions even if a stale entry survived the post-swap clear. Epoch
/// 0 leaves hashes untouched (bit-compatible with the unwrapped cache).
struct EpochCache {
    inner: Arc<dyn KernelCache>,
    shared: Arc<Shared>,
}

impl EpochCache {
    fn tag(&self, hash: u64) -> u64 {
        let e = self.shared.epoch.load(Ordering::Relaxed);
        // splitmix64's odd multiplier: distinct epochs decorrelate fully.
        hash ^ e.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

impl KernelCache for EpochCache {
    fn lookup_hash(&self, hash: u64) -> Option<Option<f64>> {
        self.inner.lookup_hash(self.tag(hash))
    }
    fn insert_hash(&self, hash: u64, prediction: Option<f64>) {
        self.inner.insert_hash(self.tag(hash), prediction);
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn clear(&self) {
        self.inner.clear();
    }
    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
    fn eviction_count(&self) -> u64 {
        self.inner.eviction_count()
    }
}

/// Shared between `submit` callers, the worker, and stats readers.
struct Shared {
    pending: AtomicUsize,
    max_pending: usize,
    submitted: AtomicU64,
    answered: AtomicU64,
    rejected: AtomicU64,
    budget_denied: AtomicU64,
    batches: AtomicU64,
    deadline_expired: AtomicU64,
    deadline_shed: AtomicU64,
    backend_panics: AtomicU64,
    reloads: AtomicU64,
    reloads_rejected: AtomicU64,
    // Model epoch: bumped by the worker on every swap, read by
    // `EpochCache::tag` and by stats.
    epoch: AtomicU64,
    // The serving predict counters: the worker adds each batch's
    // `PredictStats` before it sends that batch's replies, and
    // `submit_hashed` adds a hit it answers before it returns.
    kernels: AtomicU64,
    cache_hits: AtomicU64,
    model_evals: AtomicU64,
    model_batches: AtomicU64,
}

impl Shared {
    fn new(max_pending: usize) -> Shared {
        Shared {
            pending: AtomicUsize::new(0),
            max_pending,
            submitted: AtomicU64::new(0),
            answered: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            budget_denied: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            deadline_shed: AtomicU64::new(0),
            backend_panics: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            reloads_rejected: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            kernels: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            model_evals: AtomicU64::new(0),
            model_batches: AtomicU64::new(0),
        }
    }
}

/// A running serving engine; see the module docs for the design.
pub struct ServeEngine {
    shared: Arc<Shared>,
    // The epoch-tagged cache, shared with the worker's predictor: hits are
    // answered through it on the caller's thread, and `stats` reads its
    // residency and eviction count on request.
    cache: Arc<EpochCache>,
    // The registry's `core.engine.kernels` / `cache_hits`: the worker's
    // predictor counts what is enqueued, these the hits answered here.
    obs_kernels: Counter,
    obs_cache_hits: Counter,
    tx: Mutex<Option<Sender<Job>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
    backend: Mutex<String>,
    clock: Arc<dyn ServeClock>,
    default_deadline_ms: Option<u64>,
    breaker: Option<Arc<CircuitBreaker>>,
    // Reload policy plus the incumbent's cached panel predictions; the
    // Mutex also serializes concurrent reload attempts.
    reload: Option<Mutex<ReloadSlot>>,
}

struct ReloadSlot {
    policy: ReloadPolicy,
    incumbent: Option<Vec<Option<f64>>>,
}

impl ServeEngine {
    /// Spawn the worker thread over `model` and `cache` with default
    /// resilience options (wall clock, no breaker, no reload).
    ///
    /// The cache is taken as `Arc<dyn KernelCache>` so the caller keeps a
    /// handle on it (to pre-warm or inspect it); metrics go to `registry`
    /// through the predictor's usual `core.engine.*` surface, hits
    /// answered on the caller's thread included.
    pub fn start(
        model: Box<dyn CostModel + Send>,
        cache: Arc<dyn KernelCache>,
        cfg: ServeConfig,
        registry: &Registry,
    ) -> ServeEngine {
        ServeEngine::start_with(model, cache, cfg, ServeOptions::default(), registry)
    }

    /// Spawn the worker thread with explicit resilience wiring.
    pub fn start_with(
        model: Box<dyn CostModel + Send>,
        cache: Arc<dyn KernelCache>,
        cfg: ServeConfig,
        opts: ServeOptions,
        registry: &Registry,
    ) -> ServeEngine {
        let shared = Arc::new(Shared::new(cfg.max_pending));
        // Captured before the model moves onto the worker thread, so stats
        // replies and run reports can name the serving backend.
        let backend = model.name().to_string();
        // One tagged cache for caller and worker, so both tag keys with
        // the one epoch the worker bumps.
        let cache = Arc::new(EpochCache {
            inner: cache,
            shared: Arc::clone(&shared),
        });
        let (tx, rx) = mpsc::channel::<Job>();
        let worker_shared = Arc::clone(&shared);
        let obs_kernels = registry.counter("core.engine.kernels");
        let obs_cache_hits = registry.counter("core.engine.cache_hits");
        let registry = registry.clone();
        let batch_max = cfg.batch_max.max(1);
        let budget = cfg.eval_budget;
        let worker_clock = Arc::clone(&opts.clock);
        let worker_breaker = opts.breaker.clone();
        let worker_cache = Arc::clone(&cache);
        let worker = std::thread::Builder::new()
            .name("tpu-serve-worker".to_string())
            .spawn(move || {
                let mut ctx = Worker {
                    predictor: Predictor::with_cache(model, Arc::clone(&worker_cache))
                        .observed(&registry),
                    cache: worker_cache,
                    registry,
                    shared: worker_shared,
                    clock: worker_clock,
                    breaker: worker_breaker,
                    batch_max,
                    budget,
                };
                ctx.run(&rx);
            })
            .expect("spawn serve worker");
        ServeEngine {
            shared,
            cache,
            obs_kernels,
            obs_cache_hits,
            tx: Mutex::new(Some(tx)),
            worker: Mutex::new(Some(worker)),
            backend: Mutex::new(backend),
            clock: opts.clock,
            default_deadline_ms: cfg.deadline_ms,
            breaker: opts.breaker,
            reload: opts.reload.map(|policy| {
                Mutex::new(ReloadSlot {
                    policy,
                    incumbent: None,
                })
            }),
        }
    }

    /// Name of the cost model serving this engine (the model's
    /// [`CostModel::name`], e.g. `"learned-gnn"` or `"frozen-gnn"`).
    /// Tracks reloads: after an accepted swap it names the new model.
    pub fn backend(&self) -> String {
        self.backend.lock().expect("serve backend lock").clone()
    }

    /// Submit one kernel with the engine's default deadline: a cache hit
    /// is answered on this thread, a miss blocks until the worker answers
    /// it.
    ///
    /// Concurrent misses are batched by the worker; this returns the
    /// prediction exactly as `Predictor::predict_ns` would produce it.
    pub fn submit(&self, kernel: Kernel) -> Result<Option<f64>, ServeError> {
        self.submit_with_deadline(kernel, None).map(|p| p.ns)
    }

    /// Submit one kernel with an explicit deadline (`None` inherits
    /// [`ServeConfig::deadline_ms`]). A deadline of `Some(0)` always
    /// expires: the job is shed and answered with a `deadline` error.
    pub fn submit_with_deadline(
        &self,
        kernel: Kernel,
        deadline_ms: Option<u64>,
    ) -> Result<Prediction, ServeError> {
        self.submit_hashed(HashedKernel::new(kernel), deadline_ms)
    }

    /// [`ServeEngine::submit_with_deadline`] for a kernel that already
    /// carries its cache key: the frontends hash where they parse, on the
    /// caller's thread, so the one worker never hashes — and the key is
    /// probed here, so a hit never reaches the worker.
    pub fn submit_hashed(
        &self,
        kernel: HashedKernel,
        deadline_ms: Option<u64>,
    ) -> Result<Prediction, ServeError> {
        let s = &self.shared;
        s.submitted.fetch_add(1, Ordering::Relaxed);
        if s.pending.fetch_add(1, Ordering::SeqCst) >= s.max_pending {
            s.pending.fetch_sub(1, Ordering::SeqCst);
            s.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded);
        }
        let deadline_ms = deadline_ms.or(self.default_deadline_ms);
        let release = |result| {
            s.pending.fetch_sub(1, Ordering::SeqCst);
            result
        };
        if self.tx.lock().expect("serve tx lock").is_none() {
            return release(Err(ServeError::ShuttingDown));
        }
        if let Some(ns) = self.cache.lookup_hash(kernel.hash()) {
            return release(self.answer_hit(ns, deadline_ms));
        }
        let Some(tx) = self.sender() else {
            return release(Err(ServeError::ShuttingDown));
        };
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let job = Job::Predict {
            kernel,
            deadline_ms,
            enqueued_ms: self.clock.now_ms(),
            reply: reply_tx,
        };
        if tx.send(job).is_err() {
            return release(Err(ServeError::ShuttingDown));
        }
        reply_rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Answer a cache hit as the worker answered a one-request batch of
    /// hits: the deadline judged at queue age 0, `degraded` read from the
    /// breaker, and one batch, kernel, cache hit and answer counted.
    fn answer_hit(
        &self,
        ns: Option<f64>,
        deadline_ms: Option<u64>,
    ) -> Result<Prediction, ServeError> {
        let s = &self.shared;
        s.batches.fetch_add(1, Ordering::Relaxed);
        if expired(0, 0, deadline_ms) {
            s.deadline_expired.fetch_add(1, Ordering::Relaxed);
            s.deadline_shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::DeadlineExpired);
        }
        let degraded = degraded(&self.breaker);
        s.kernels.fetch_add(1, Ordering::Relaxed);
        s.cache_hits.fetch_add(1, Ordering::Relaxed);
        s.answered.fetch_add(1, Ordering::Relaxed);
        self.obs_kernels.inc();
        self.obs_cache_hits.inc();
        Ok(Prediction { ns, degraded })
    }

    /// A sender into the worker's queue; `None` once shutdown began.
    fn sender(&self) -> Option<Sender<Job>> {
        self.tx.lock().expect("serve tx lock").clone()
    }

    /// Hot-reload the serving model from a `tpu-frozen.v2` blob on disk.
    /// See [`ServeEngine::reload_from_bytes`].
    pub fn reload_from_path(&self, path: &str) -> Result<u64, ReloadError> {
        // Policy check before touching the filesystem: an engine with no
        // reload policy answers `disabled` whatever the path says.
        if self.reload.is_none() {
            self.shared.reloads_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ReloadError::Disabled);
        }
        let bytes = std::fs::read(path).map_err(|e| {
            self.shared.reloads_rejected.fetch_add(1, Ordering::Relaxed);
            ReloadError::Io(format!("{path}: {e}"))
        })?;
        self.reload_from_bytes(&bytes)
    }

    /// Validate `bytes` as a `tpu-frozen.v2` blob and, if it passes the
    /// admission check, atomically swap it into the worker. Returns the
    /// new model epoch.
    ///
    /// Admission (all failures leave the incumbent serving untouched):
    /// 1. the blob parses ([`ReloadError::Parse`]),
    /// 2. the candidate scores every probe-panel kernel with a finite
    ///    prediction ([`ReloadError::NonFinite`]),
    /// 3. Kendall-τ between candidate and incumbent panel predictions is
    ///    at least [`ReloadPolicy::min_tau`] ([`ReloadError::TauTooLow`]).
    ///
    /// On success the worker swaps models between batches, bumps the
    /// cache-key epoch, and clears the cache — in-flight requests are
    /// answered by whichever model their batch ran under, and no request
    /// is ever dropped.
    pub fn reload_from_bytes(&self, bytes: &[u8]) -> Result<u64, ReloadError> {
        let result = self.try_reload(bytes);
        match &result {
            Ok(_) => {
                self.shared.reloads.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.shared.reloads_rejected.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    fn try_reload(&self, bytes: &[u8]) -> Result<u64, ReloadError> {
        let slot = self.reload.as_ref().ok_or(ReloadError::Disabled)?;
        let mut slot = slot.lock().expect("serve reload lock");
        let candidate =
            FrozenModel::from_bytes(bytes).map_err(|e| ReloadError::Parse(e.to_string()))?;
        let cand_preds = candidate.predict_batch_ns(&slot.policy.panel);
        if let Some(i) = cand_preds
            .iter()
            .position(|p| !matches!(p, Some(x) if x.is_finite()))
        {
            return Err(ReloadError::NonFinite(i));
        }
        // The incumbent's panel answers are produced by the worker itself
        // (lazily, then refreshed on every swap), so they reflect exactly
        // what the daemon serves — fallback chain, breaker and all.
        if slot.incumbent.is_none() {
            let panel = slot.policy.panel.clone();
            slot.incumbent = Some(self.control(|reply| Job::Snapshot { panel, reply })?);
        }
        let incumbent = slot.incumbent.as_ref().expect("incumbent panel filled");
        let (a, b): (Vec<f64>, Vec<f64>) = incumbent
            .iter()
            .zip(&cand_preds)
            .filter_map(|(inc, cand)| match (inc, cand) {
                (Some(x), Some(y)) if x.is_finite() => Some((*x, *y)),
                _ => None,
            })
            .unzip();
        let tau = if a.len() < 2 {
            0.0
        } else {
            kendall_tau(&a, &b)
        };
        if tau < slot.policy.min_tau {
            return Err(ReloadError::TauTooLow {
                tau,
                min: slot.policy.min_tau,
            });
        }
        let model = (slot.policy.wrap)(candidate);
        let new_backend = model.name().to_string();
        let panel = slot.policy.panel.clone();
        let new_incumbent = self.control(|reply| Job::Swap {
            model,
            panel,
            reply,
        })?;
        slot.incumbent = Some(new_incumbent);
        *self.backend.lock().expect("serve backend lock") = new_backend;
        Ok(self.shared.epoch.load(Ordering::SeqCst))
    }

    /// Send a control job to the worker and wait for its panel answer.
    fn control(
        &self,
        make: impl FnOnce(SyncSender<Vec<Option<f64>>>) -> Job,
    ) -> Result<Vec<Option<f64>>, ReloadError> {
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let tx = self.sender().ok_or(ReloadError::ShuttingDown)?;
        if tx.send(make(reply_tx)).is_err() {
            return Err(ReloadError::ShuttingDown);
        }
        reply_rx.recv().map_err(|_| ReloadError::ShuttingDown)
    }

    /// Snapshot the serving counters. The cache numbers are read from the
    /// cache here, not kept by the worker: `len()` may scan every slot, so
    /// it runs once per `stats` call and never per batch.
    pub fn stats(&self) -> ServeStats {
        let s = &self.shared;
        let (breaker_trips, breaker_open_served, breaker_state) = match &self.breaker {
            Some(b) => (
                b.trip_count(),
                b.open_served_count(),
                match b.state() {
                    BreakerState::Closed => 0,
                    BreakerState::Open => 1,
                    BreakerState::HalfOpen => 2,
                },
            ),
            None => (0, 0, 0),
        };
        ServeStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            answered: s.answered.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            budget_denied: s.budget_denied.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            deadline_expired: s.deadline_expired.load(Ordering::Relaxed),
            deadline_shed: s.deadline_shed.load(Ordering::Relaxed),
            backend_panics: s.backend_panics.load(Ordering::Relaxed),
            reloads: s.reloads.load(Ordering::Relaxed),
            reloads_rejected: s.reloads_rejected.load(Ordering::Relaxed),
            epoch: s.epoch.load(Ordering::Relaxed),
            breaker_trips,
            breaker_open_served,
            breaker_state,
            predict: PredictStats {
                kernels: s.kernels.load(Ordering::Relaxed),
                cache_hits: s.cache_hits.load(Ordering::Relaxed),
                model_evals: s.model_evals.load(Ordering::Relaxed),
                model_batches: s.model_batches.load(Ordering::Relaxed),
            },
            cache_entries: self.cache.len(),
            cache_evictions: self.cache.eviction_count(),
        }
    }

    /// Graceful shutdown: stop accepting work, drain the queue, join the
    /// worker. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        let tx = self.tx.lock().expect("serve tx lock").take();
        drop(tx);
        let worker = self.worker.lock().expect("serve worker lock").take();
        if let Some(handle) = worker {
            let _ = handle.join();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Whether a job queued at `enqueued_ms` with `deadline_ms` has expired
/// at `now_ms`; a deadline of 0 has expired at any queue age.
fn expired(now_ms: u64, enqueued_ms: u64, deadline_ms: Option<u64>) -> bool {
    match deadline_ms {
        Some(d) => now_ms.saturating_sub(enqueued_ms) >= d,
        None => false,
    }
}

/// Replies answered while the breaker is not closed are marked degraded:
/// the primary backend did not (or may not) have answered them. Read
/// before a batch, and by a hit at the same point of a serial stream, so
/// the marker is a pure function of the request sequence.
fn degraded(breaker: &Option<Arc<CircuitBreaker>>) -> bool {
    breaker
        .as_ref()
        .is_some_and(|b| b.state() != BreakerState::Closed)
}

struct Worker {
    predictor: Predictor<Box<dyn CostModel + Send>, EpochCache>,
    cache: Arc<EpochCache>,
    registry: Registry,
    shared: Arc<Shared>,
    clock: Arc<dyn ServeClock>,
    breaker: Option<Arc<CircuitBreaker>>,
    batch_max: usize,
    budget: Option<u64>,
}

impl Worker {
    fn run(&mut self, rx: &Receiver<Job>) {
        loop {
            // Block for the first job, then drain whatever else queued
            // while the previous batch ran — natural batching with zero
            // added wait. Control jobs are handled between batches, never
            // inside one, so a swap can't split a batch across models.
            let first = match rx.recv() {
                Ok(job) => job,
                Err(_) => return, // all senders dropped: drained, exit
            };
            let mut jobs = Vec::new();
            let mut control = None;
            match first {
                Job::Predict { .. } => jobs.push(first),
                other => {
                    self.handle_control(other);
                    continue;
                }
            }
            while jobs.len() < self.batch_max && control.is_none() {
                match rx.try_recv() {
                    Ok(job @ Job::Predict { .. }) => jobs.push(job),
                    Ok(other) => control = Some(other),
                    Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
                }
            }
            self.run_batch(jobs);
            if let Some(job) = control {
                self.handle_control(job);
            }
        }
    }

    fn run_batch(&mut self, jobs: Vec<Job>) {
        self.shared.batches.fetch_add(1, Ordering::Relaxed);

        // Pre-batch deadline check: shed jobs whose queue age already
        // exceeds their budget — a reply now would be late anyway, and
        // skipping them keeps an overloaded daemon's batches useful.
        let now = self.clock.now_ms();
        let mut kernels: Vec<HashedKernel> = Vec::with_capacity(jobs.len());
        let mut live = Vec::with_capacity(jobs.len());
        for job in jobs {
            let Job::Predict {
                kernel,
                deadline_ms,
                enqueued_ms,
                reply,
            } = job
            else {
                unreachable!("run_batch only takes predict jobs");
            };
            if expired(now, enqueued_ms, deadline_ms) {
                self.shared.deadline_expired.fetch_add(1, Ordering::Relaxed);
                self.shared.deadline_shed.fetch_add(1, Ordering::Relaxed);
                self.shared.pending.fetch_sub(1, Ordering::SeqCst);
                let _ = reply.send(Err(ServeError::DeadlineExpired));
            } else {
                kernels.push(kernel);
                live.push((deadline_ms, enqueued_ms, reply));
            }
        }
        if live.is_empty() {
            return;
        }

        let degraded = degraded(&self.breaker);

        let evals_so_far = self.shared.model_evals.load(Ordering::Relaxed);
        let within_budget = self.budget.is_none_or(|b| evals_so_far < b);
        let results: Vec<Result<Option<f64>, ServeError>> = if within_budget {
            let refs: Vec<&HashedKernel> = kernels.iter().collect();
            // Panic isolation: a panicking backend fails this batch with a
            // typed error and trips the breaker instead of killing the
            // daemon. The cache and the counters are updated only after a
            // successful batch, so they stay consistent.
            match catch_unwind(AssertUnwindSafe(|| self.predictor.predict_hashed(&refs))) {
                Ok((preds, batch)) => {
                    // Counted before the replies below go out, so a
                    // `stats` request that follows a reply sees its batch.
                    let s = &self.shared;
                    s.kernels.fetch_add(batch.kernels, Ordering::Relaxed);
                    s.cache_hits.fetch_add(batch.cache_hits, Ordering::Relaxed);
                    s.model_evals
                        .fetch_add(batch.model_evals, Ordering::Relaxed);
                    s.model_batches
                        .fetch_add(batch.model_batches, Ordering::Relaxed);
                    preds.into_iter().map(Ok).collect()
                }
                Err(_) => {
                    self.shared.backend_panics.fetch_add(1, Ordering::Relaxed);
                    if let Some(b) = &self.breaker {
                        b.force_trip();
                    }
                    vec![Err(ServeError::BackendPanic); kernels.len()]
                }
            }
        } else {
            // Budget spent: serve what the cache already knows, deny the rest.
            kernels
                .iter()
                .map(|k| match self.predictor.cache().lookup_hash(k.hash()) {
                    Some(cached) => Ok(cached),
                    None => Err(ServeError::BudgetExhausted),
                })
                .collect()
        };

        // Post-batch deadline check: a result that took too long to
        // compute is reported expired, never silently served late.
        let now = self.clock.now_ms();
        for ((deadline_ms, enqueued_ms, reply), result) in live.into_iter().zip(results) {
            let result = match result {
                Ok(_) if expired(now, enqueued_ms, deadline_ms) => Err(ServeError::DeadlineExpired),
                other => other,
            };
            match &result {
                Ok(_) => {
                    self.shared.answered.fetch_add(1, Ordering::Relaxed);
                }
                Err(ServeError::BudgetExhausted) => {
                    self.shared.budget_denied.fetch_add(1, Ordering::Relaxed);
                }
                Err(ServeError::DeadlineExpired) => {
                    self.shared.deadline_expired.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {}
            }
            self.shared.pending.fetch_sub(1, Ordering::SeqCst);
            // A client that hung up loses its answer; that is its problem.
            let _ = reply.send(result.map(|ns| Prediction { ns, degraded }));
        }
    }

    fn handle_control(&mut self, job: Job) {
        match job {
            Job::Snapshot { panel, reply } => {
                // Bypass cache and counters: admission wants the model's
                // own answers, and probing must not perturb serving stats.
                let preds = self.predictor.model().predict_batch_ns(&panel);
                let _ = reply.send(preds);
            }
            Job::Swap {
                model,
                panel,
                reply,
            } => {
                // Bump the epoch first (new keys immediately diverge),
                // then clear: stale entries are doubly unreachable.
                self.shared.epoch.fetch_add(1, Ordering::SeqCst);
                self.cache.clear();
                self.predictor =
                    Predictor::with_cache(model, Arc::clone(&self.cache)).observed(&self.registry);
                let preds = self.predictor.model().predict_batch_ns(&panel);
                let _ = reply.send(preds);
            }
            Job::Predict { .. } => unreachable!("handle_control only takes control jobs"),
        }
    }
}
