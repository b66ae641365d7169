//! The serving engine: every request is answered on the thread that
//! submitted it — a cache hit by a lock-free probe, a miss by the served
//! model while holding the model lock.
//!
//! Frontends (`stdin`, TCP client threads) call
//! [`ServeEngine::submit_hashed`] with the kernel and the cache key they
//! computed while parsing ([`ServeEngine::submit`] hashes for a caller
//! that holds a bare kernel). `submit_hashed` probes the cache itself: a
//! hit is answered with no lock and no allocation. A miss takes the model
//! lock and is scored there after a second probe under the lock, so two
//! clients' concurrent misses of one kernel cost one forward.
//! The NDJSON frontend probes first with the request's text key (a hash of
//! the kernel's bytes as they came, see `protocol::KernelRef::text_key`)
//! and parses only on a miss; the answer is then stored under both keys,
//! in the one cache, tagged from one epoch load. A reload's bump-then-clear
//! covers both.
//! Admission control bounds the callers in flight: past `max_pending`,
//! `submit` fails fast with [`ServeError::Overloaded`] instead of stacking
//! latency. An optional model-evaluation budget turns the daemon
//! cache-only once spent — hits keep being served, misses get
//! [`ServeError::BudgetExhausted`]. It is checked and spent under the
//! model lock one kernel at a time, so it is never overshot.
//!
//! On top of that sits the resilience layer ([`ServeOptions`]):
//!
//! - **Deadlines** — each request carries an optional `deadline_ms` (or
//!   inherits [`ServeConfig::deadline_ms`]). A miss reads the clock when
//!   it arrives, again once it holds the model lock — it is shed, before
//!   the model runs, if the wait used its deadline up — and once more
//!   after the model answered, so a slow backend produces a typed
//!   [`ServeError::DeadlineExpired`] instead of a silently late answer. A
//!   hit has no wait and is judged at age 0. Time comes from a pluggable
//!   [`ServeClock`] so tests replay deterministically ([`TickClock`]); a
//!   `deadline_ms` of `0` expires immediately under any clock.
//! - **Fallback and circuit breaker** — [`ServeOptions::fallback`] puts a
//!   second model behind the served one: every position the primary
//!   answers `None` or non-finite is lent to the fallback, and a
//!   [circuit breaker](BreakerConfig) the engine owns sends everything
//!   there while it is open. The engine routes each miss through it,
//!   force-trips it when the primary panics and reports it in
//!   [`ServeStats`]. Replies served while the breaker was not closed are
//!   marked degraded.
//! - **Validated hot reload** — [`ServeEngine::reload_from_bytes`] parses
//!   a `tpu-frozen.v2` blob and admission-checks it (finite predictions +
//!   Kendall-τ against the incumbent on a fixed probe panel) without the
//!   model lock, then swaps it in under the lock, so no predict call is
//!   split across models. A reload replaces only the primary: the fallback
//!   and the breaker serve on across every swap. The cache is cleared only
//!   on a successful swap, and a model-epoch tag mixed into every cache key
//!   makes stale entries unreachable even for a hit probing mid-swap.
//! - **Panic isolation** — every model call runs under `catch_unwind`; a
//!   panicking backend fails that request with
//!   [`ServeError::BackendPanic`], trips the breaker, and the daemon
//!   keeps serving.
//!
//! The models sit in a `Mutex` (`Box<dyn CostModel + Send>`: a backend
//! need not be `Sync`), so misses are scored one at a time in the order
//! they take the lock: the same serial
//! request stream against the same seed replays bit-identically, breaker
//! and reload state included (both are request-count driven, never
//! wall-clock). A hit never reaches the model, so it moves none of that
//! state (DESIGN.md "tpu-serve: the serving daemon" has the argument).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::breaker::{BatchRoute, BreakerConfig, BreakerState, CircuitBreaker};
use tpu_hlo::{HashedKernel, Kernel};
use tpu_infer::FrozenModel;
use tpu_learned_cost::metrics::kendall_tau;
use tpu_learned_cost::{predict_keyed, CostModel, EngineCounters, KernelCache, PredictStats};
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
    /// The backend panicked while scoring this request.
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
/// expires (a request's age is compared with `>=`).
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
}

impl ServeClock for TickClock {
    fn now_ms(&self) -> u64 {
        self.now.fetch_add(self.step, Ordering::SeqCst)
    }
}

/// A served prediction plus degradation marker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// The prediction: the primary's answer, or the fallback's where the
    /// primary's was unusable or the breaker was open.
    pub ns: Option<f64>,
    /// True when the circuit breaker was not closed as the request was
    /// answered (the answer came from the fallback path, not the primary
    /// backend).
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
/// is validated before it replaces the primary model.
pub struct ReloadPolicy {
    /// Minimum Kendall-τ between candidate and incumbent predictions on
    /// the probe panel (the paper's ranking-quality metric, §5).
    pub min_tau: f64,
    /// The fixed probe-kernel panel both models are scored on.
    pub panel: Vec<Kernel>,
}

/// The model behind the served one, and the breaker that routes between
/// the two. A reload replaces only the primary, so both survive every
/// swap.
pub struct Fallback {
    /// Answers every position the primary cannot — a `None` or non-finite
    /// answer — and every position while the breaker is open.
    pub model: Box<dyn CostModel + Send>,
    /// Circuit-breaker thresholds; `None` asks the primary every time.
    pub breaker: Option<BreakerConfig>,
}

/// Resilience wiring for [`ServeEngine::start_with`]; the plain
/// [`ServeEngine::start`] uses the defaults (wall clock, no fallback, no
/// reload).
pub struct ServeOptions {
    /// Deadline clock; swap in a [`TickClock`] for deterministic tests.
    pub clock: Arc<dyn ServeClock>,
    /// The fallback model and its breaker; `None` serves the primary alone.
    pub fallback: Option<Fallback>,
    /// Hot-reload admission policy; `None` disables the `reload` op.
    pub reload: Option<ReloadPolicy>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            clock: Arc::new(MonotonicClock::new()),
            fallback: None,
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
    /// Requests past admission and the shutdown check: each is answered
    /// as a batch of one.
    pub batches: u64,
    /// Requests answered with a `deadline` error (shed + late).
    pub deadline_expired: u64,
    /// Of those, requests shed before the model ran (the wait for the
    /// model lock already over budget).
    pub deadline_shed: u64,
    /// Model calls that panicked in the backend.
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
    /// Prediction counters summed over every served request (monotonic
    /// across reloads).
    pub predict: PredictStats,
    /// Cache slots resident at the time of the call. A kernel holds one
    /// slot under its canonical key and, once served from text, one more
    /// per distinct text it came in: N spellings take N + 1 slots.
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

/// The caller's [`KernelCache`] with the model epoch mixed into every key,
/// so a swapped-in model can never be answered with the previous model's
/// predictions even if a stale entry survived the post-swap clear. Epoch
/// 0 leaves hashes untouched (bit-compatible with the untagged cache).
struct EpochCache {
    inner: Arc<dyn KernelCache>,
    // Bumped by every swap, read by `tag` and by stats.
    epoch: AtomicU64,
}

impl EpochCache {
    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    fn lookup(&self, hash: u64) -> Option<Option<f64>> {
        self.inner.lookup_hash(tag(hash, self.epoch()))
    }
}

/// `hash` tagged with model epoch `epoch`. Two keys stored for one answer
/// are tagged from one epoch load, so both name the model that gave it.
fn tag(hash: u64, epoch: u64) -> u64 {
    // splitmix64's odd multiplier: distinct epochs decorrelate fully.
    hash ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Admission and the counters `stats` reads, shared by every caller.
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
        }
    }
}

/// What the model lock guards: the primary, which a reload replaces, and
/// the fallback, which it keeps.
struct Models {
    primary: Box<dyn CostModel + Send>,
    fallback: Option<Box<dyn CostModel + Send>>,
}

impl Models {
    /// The served backend's name: `{primary}+fallback-{fallback}`.
    fn backend(&self) -> String {
        match &self.fallback {
            Some(f) => format!("{}+fallback-{}", self.primary.name(), f.name()),
            None => self.primary.name().to_string(),
        }
    }
}

/// A running serving engine; see the module docs for the design.
pub struct ServeEngine {
    shared: Shared,
    // The epoch-tagged cache: hits are answered through it without the
    // model lock, and `stats` reads its residency and eviction count on
    // request.
    cache: EpochCache,
    // The predict counters: a miss adds itself under the model lock,
    // through the keyed body; a hit without it. Both before
    // `submit_hashed` returns.
    counters: EngineCounters,
    // `core.engine.fallbacks`: positions of served misses the fallback
    // was asked for.
    fallbacks: Counter,
    // The model lock: a miss is scored holding it, a reload swaps under
    // it, and `shutdown` takes it once to wait for the miss inside.
    model: Mutex<Models>,
    closed: AtomicBool,
    backend: Mutex<String>,
    clock: Arc<dyn ServeClock>,
    default_deadline_ms: Option<u64>,
    budget: Option<u64>,
    // Fed only under the model lock; read without it by hits and stats.
    breaker: Option<CircuitBreaker>,
    // Reload policy plus the incumbent's cached panel predictions; the
    // Mutex also serializes concurrent reload attempts.
    reload: Option<Mutex<ReloadSlot>>,
}

struct ReloadSlot {
    policy: ReloadPolicy,
    incumbent: Option<Vec<Option<f64>>>,
}

impl ServeEngine {
    /// Serve `model` over `cache` with default resilience options (wall
    /// clock, no fallback, no reload).
    ///
    /// The cache is taken as `Arc<dyn KernelCache>` so the caller keeps a
    /// handle on it (to pre-warm or inspect it). Metrics go to `registry`:
    /// a miss runs the body a `Predictor` runs, so it records the same
    /// eight `core.engine.*` names; a hit adds to the `kernels` and
    /// `cache_hits` counters without the timings. On top of those come
    /// `core.engine.fallbacks` and `serve.breaker.*`.
    pub fn start(
        model: Box<dyn CostModel + Send>,
        cache: Arc<dyn KernelCache>,
        cfg: ServeConfig,
        registry: &Registry,
    ) -> ServeEngine {
        ServeEngine::start_with(model, cache, cfg, ServeOptions::default(), registry)
    }

    /// [`ServeEngine::start`] with explicit resilience wiring.
    pub fn start_with(
        model: Box<dyn CostModel + Send>,
        cache: Arc<dyn KernelCache>,
        cfg: ServeConfig,
        opts: ServeOptions,
        registry: &Registry,
    ) -> ServeEngine {
        let (fallback, breaker) = match opts.fallback {
            Some(f) => (
                Some(f.model),
                f.breaker.map(|b| CircuitBreaker::new(b, registry)),
            ),
            None => (None, None),
        };
        let models = Models {
            primary: model,
            fallback,
        };
        // Kept outside the model lock, so stats replies and run reports
        // name the serving backend without waiting for a miss.
        let backend = models.backend();
        ServeEngine {
            shared: Shared::new(cfg.max_pending),
            model: Mutex::new(models),
            cache: EpochCache {
                inner: cache,
                epoch: AtomicU64::new(0),
            },
            counters: EngineCounters::new(registry),
            fallbacks: registry.counter("core.engine.fallbacks"),
            closed: AtomicBool::new(false),
            backend: Mutex::new(backend),
            clock: opts.clock,
            default_deadline_ms: cfg.deadline_ms,
            budget: cfg.eval_budget,
            breaker,
            reload: opts.reload.map(|policy| {
                Mutex::new(ReloadSlot {
                    policy,
                    incumbent: None,
                })
            }),
        }
    }

    /// Name of the backend serving this engine: the primary's
    /// [`CostModel::name`] (e.g. `"frozen-gnn"`), followed by
    /// `+fallback-{name}` when it has a fallback. Tracks reloads: after an
    /// accepted swap it names the new primary.
    pub fn backend(&self) -> String {
        self.backend.lock().expect("serve backend lock").clone()
    }

    /// Submit one kernel with the engine's default deadline. It is
    /// answered on this thread: a cache hit at once, a miss once this
    /// thread holds the model lock, so concurrent misses run one after
    /// another.
    ///
    /// Returns the prediction exactly as the served model gives it.
    pub fn submit(&self, kernel: Kernel) -> Result<Option<f64>, ServeError> {
        self.submit_with_deadline(kernel, None).map(|p| p.ns)
    }

    /// Submit one kernel with an explicit deadline (`None` inherits
    /// [`ServeConfig::deadline_ms`]). A deadline of `Some(0)` always
    /// expires: the request is shed and answered with a `deadline` error.
    pub fn submit_with_deadline(
        &self,
        kernel: Kernel,
        deadline_ms: Option<u64>,
    ) -> Result<Prediction, ServeError> {
        self.submit_hashed(HashedKernel::new(kernel), deadline_ms)
    }

    /// [`ServeEngine::submit_with_deadline`] for a kernel that already
    /// carries its cache key: the frontends hash where they parse, and
    /// the key is probed here, so a hit never takes the model lock.
    pub fn submit_hashed(
        &self,
        kernel: HashedKernel,
        deadline_ms: Option<u64>,
    ) -> Result<Prediction, ServeError> {
        self.submit_parsed(&kernel, None, deadline_ms)
    }

    /// Answer a request from its text key alone, if the key is resident:
    /// the frontend probes with it before it parses anything. `None` on a
    /// miss, which moves no counter; the caller then parses the text and
    /// calls [`ServeEngine::submit_parsed`] with the same key. A hit goes
    /// through the admission, shutdown and deadline checks of any other
    /// and counts what a canonical hit counts.
    pub(crate) fn submit_text(
        &self,
        text_key: u64,
        deadline_ms: Option<u64>,
    ) -> Option<Result<Prediction, ServeError>> {
        let ns = self.cache.lookup(text_key)?;
        Some(self.admitted(deadline_ms, |deadline_ms| self.answer_hit(ns, deadline_ms)))
    }

    /// [`ServeEngine::submit_hashed`] for a kernel parsed from text whose
    /// text key is `text_key`: whoever resolves its answer — a canonical
    /// hit, or the model under its lock — stores it under the text key
    /// too, tagged from the same epoch load as the canonical key.
    pub(crate) fn submit_parsed(
        &self,
        kernel: &HashedKernel,
        text_key: Option<u64>,
        deadline_ms: Option<u64>,
    ) -> Result<Prediction, ServeError> {
        self.admitted(deadline_ms, |deadline_ms| {
            let epoch = self.cache.epoch();
            match self.cache.inner.lookup_hash(tag(kernel.hash(), epoch)) {
                Some(ns) => {
                    // A second spelling of a resident kernel. Should a
                    // reload swap between the probe and this insert, the
                    // entry is tagged with the old epoch: unreachable.
                    if let Some(text_key) = text_key {
                        self.cache.inner.insert_hash(tag(text_key, epoch), ns);
                    }
                    self.answer_hit(ns, deadline_ms)
                }
                None => self.answer_miss(kernel, text_key, deadline_ms),
            }
        })
    }

    /// Count a request in, apply admission control and the shutdown check,
    /// and answer it with `answer` under its effective deadline.
    fn admitted(
        &self,
        deadline_ms: Option<u64>,
        answer: impl FnOnce(Option<u64>) -> Result<Prediction, ServeError>,
    ) -> Result<Prediction, ServeError> {
        let s = &self.shared;
        s.submitted.fetch_add(1, Ordering::Relaxed);
        if s.pending.fetch_add(1, Ordering::SeqCst) >= s.max_pending {
            s.pending.fetch_sub(1, Ordering::SeqCst);
            s.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded);
        }
        let result = if self.closed.load(Ordering::SeqCst) {
            Err(ServeError::ShuttingDown)
        } else {
            answer(deadline_ms.or(self.default_deadline_ms))
        };
        s.pending.fetch_sub(1, Ordering::SeqCst);
        result
    }

    /// Answer a cache hit as a batch of one that waited for nothing: the
    /// deadline judged at age 0, `degraded` read from the breaker, and one
    /// batch, kernel, cache hit and answer counted.
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
        let degraded = self.degraded();
        self.counters.record(&PredictStats {
            kernels: 1,
            cache_hits: 1,
            ..PredictStats::default()
        });
        s.answered.fetch_add(1, Ordering::Relaxed);
        Ok(Prediction { ns, degraded })
    }

    /// Answer a cache miss as a batch of one under the model lock. The
    /// clock is read on arrival, again once the lock is held — the request
    /// is shed if the wait used its deadline up — and once more after the
    /// model answered, so a late answer is reported expired, never
    /// silently served.
    fn answer_miss(
        &self,
        kernel: &HashedKernel,
        text_key: Option<u64>,
        deadline_ms: Option<u64>,
    ) -> Result<Prediction, ServeError> {
        let s = &self.shared;
        let arrived_ms = self.clock.now_ms();
        let models = self.model.lock().expect("serve model lock");
        s.batches.fetch_add(1, Ordering::Relaxed);
        if expired(self.clock.now_ms(), arrived_ms, deadline_ms) {
            s.deadline_expired.fetch_add(1, Ordering::Relaxed);
            s.deadline_shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::DeadlineExpired);
        }
        let degraded = self.degraded();
        let within_budget = self
            .budget
            .is_none_or(|b| self.counters.stats().model_evals < b);
        let result = if within_budget {
            self.score(&models, kernel, text_key)
        } else {
            // Budget spent: serve what the cache already knows, deny the rest.
            self.cache
                .lookup(kernel.hash())
                .ok_or(ServeError::BudgetExhausted)
        };
        let now = self.clock.now_ms();
        let result = match result {
            Ok(_) if expired(now, arrived_ms, deadline_ms) => Err(ServeError::DeadlineExpired),
            other => other,
        };
        match &result {
            Ok(_) => {
                s.answered.fetch_add(1, Ordering::Relaxed);
            }
            Err(ServeError::BudgetExhausted) => {
                s.budget_denied.fetch_add(1, Ordering::Relaxed);
            }
            Err(ServeError::DeadlineExpired) => {
                s.deadline_expired.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {}
        }
        result.map(|ns| Prediction { ns, degraded })
    }

    /// Score a missed kernel through the keyed body a `Predictor` runs,
    /// under its epoch-tagged key; `models` is the content of the held
    /// model lock. The body probes the cache again — another client may
    /// have scored the kernel while this one waited — and lends a miss to
    /// `route`; the positions the fallback answered are counted here, not
    /// in `route`, which also scores the reload panel. The body inserts
    /// and counts only once the route has returned, so a panic leaves
    /// cache and counters as they were. The answer it resolved is stored
    /// under `text_key` too, still under the lock: a reload swaps under
    /// it, so an old model's answer never lands under a new epoch.
    fn score(
        &self,
        models: &Models,
        kernel: &HashedKernel,
        text_key: Option<u64>,
    ) -> Result<Option<f64>, ServeError> {
        let epoch = self.cache.epoch();
        let key = tag(kernel.hash(), epoch);
        // Panic isolation: a panicking backend fails this request with a
        // typed error and trips the breaker instead of killing the daemon.
        let (answers, _) = catch_unwind(AssertUnwindSafe(|| {
            predict_keyed(
                &*self.cache.inner,
                &self.counters,
                &[key],
                |_| kernel.kernel(),
                |misses| {
                    let (answers, fell_back) = self.route(models, misses);
                    self.fallbacks.add(fell_back);
                    answers
                },
            )
        }))
        .map_err(|_| {
            self.shared.backend_panics.fetch_add(1, Ordering::Relaxed);
            if let Some(b) = &self.breaker {
                b.force_trip();
            }
            ServeError::BackendPanic
        })?;
        if let Some(text_key) = text_key {
            self.cache
                .inner
                .insert_hash(tag(text_key, epoch), answers[0]);
        }
        Ok(answers[0])
    }

    /// One batch through the primary and the fallback: route it through
    /// the breaker, ask the primary for the whole batch (the fallback while
    /// the breaker is open), feed the breaker the primary's answers, and
    /// lend every position still unusable — `None` or non-finite — to the
    /// fallback in one call. Returns the answers and how many positions the
    /// fallback was asked for; without a fallback the primary's answers
    /// stand as they are.
    fn route(&self, models: &Models, kernels: &[&Kernel]) -> (Vec<Option<f64>>, u64) {
        let Some(fallback) = &models.fallback else {
            return (models.primary.predict_refs_ns(kernels), 0);
        };
        if kernels.is_empty() {
            return (Vec::new(), 0);
        }
        let route = match &self.breaker {
            Some(b) => b.begin_batch(kernels.len()),
            None => BatchRoute::Primary { probe: false },
        };
        let BatchRoute::Primary { probe } = route else {
            return (fallback.predict_refs_ns(kernels), kernels.len() as u64);
        };
        let mut answers = models.primary.predict_refs_ns(kernels);
        if let Some(b) = &self.breaker {
            b.end_batch(probe, answers.iter().map(usable));
        }
        let fallen: Vec<usize> = (0..answers.len())
            .filter(|&i| !usable(&answers[i]))
            .collect();
        if !fallen.is_empty() {
            let retry: Vec<&Kernel> = fallen.iter().map(|&i| kernels[i]).collect();
            for (&i, ns) in fallen.iter().zip(fallback.predict_refs_ns(&retry)) {
                answers[i] = ns;
            }
        }
        (answers, fallen.len() as u64)
    }

    /// The reload panel's answers from the served models, routed like a
    /// miss (the breaker sees them) but neither cached nor counted.
    fn score_panel(&self, models: &Models, panel: &[Kernel]) -> Vec<Option<f64>> {
        let refs: Vec<&Kernel> = panel.iter().collect();
        self.route(models, &refs).0
    }

    /// The model lock for a reload; refused once shutdown has begun.
    fn lock_model(&self) -> Result<MutexGuard<'_, Models>, ReloadError> {
        let model = self.model.lock().expect("serve model lock");
        if self.closed.load(Ordering::SeqCst) {
            return Err(ReloadError::ShuttingDown);
        }
        Ok(model)
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
    /// admission check, swap it in under the model lock. Returns the new
    /// model epoch.
    ///
    /// Admission (all failures leave the incumbent serving untouched):
    /// 1. the blob parses ([`ReloadError::Parse`]),
    /// 2. the candidate scores every probe-panel kernel with a finite
    ///    prediction ([`ReloadError::NonFinite`]),
    /// 3. Kendall-τ between candidate and incumbent panel predictions is
    ///    at least [`ReloadPolicy::min_tau`] ([`ReloadError::TauTooLow`]).
    ///
    /// On success the swap bumps the cache-key epoch, clears the cache and
    /// replaces the model, all under the lock — each miss is answered by
    /// the model it started under, and no request is ever dropped.
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
        // The incumbent's panel answers come from the served models
        // themselves (lazily, then refreshed on every swap), so they reflect
        // exactly what the daemon serves — fallback, breaker and all.
        if slot.incumbent.is_none() {
            let models = self.lock_model()?;
            slot.incumbent = Some(self.score_panel(&models, &slot.policy.panel));
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
        let mut models = self.lock_model()?;
        // Bump the epoch first (new keys immediately diverge), then clear:
        // stale entries are doubly unreachable.
        let epoch = self.cache.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        self.cache.inner.clear();
        models.primary = Box::new(candidate);
        let preds = self.score_panel(&models, &slot.policy.panel);
        let backend = models.backend();
        drop(models);
        slot.incumbent = Some(preds);
        *self.backend.lock().expect("serve backend lock") = backend;
        Ok(epoch)
    }

    /// Replies answered while the breaker is not closed are marked
    /// degraded: the primary did not (or may not) have answered them. Read
    /// before the model runs — by a hit at the same point of a serial
    /// stream — so the marker is a pure function of the request sequence.
    fn degraded(&self) -> bool {
        self.breaker
            .as_ref()
            .is_some_and(|b| b.state() != BreakerState::Closed)
    }

    /// Snapshot the serving counters. The cache numbers are read from the
    /// cache here, not kept per request: `len()` may scan every slot, so
    /// it runs once per `stats` call.
    pub fn stats(&self) -> ServeStats {
        let s = &self.shared;
        let (breaker_trips, breaker_open_served, breaker_state) = match &self.breaker {
            Some(b) => (b.trip_count(), b.open_served_count(), b.state() as u8),
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
            epoch: self.cache.epoch(),
            breaker_trips,
            breaker_open_served,
            breaker_state,
            predict: self.counters.stats(),
            cache_entries: self.cache.inner.len(),
            cache_evictions: self.cache.inner.eviction_count(),
        }
    }

    /// Graceful shutdown: refuse new requests and reloads, then wait for
    /// the miss inside the model, if any. A miss already past the shutdown
    /// check is still answered. Idempotent.
    pub fn shutdown(&self) {
        self.closed.store(true, Ordering::SeqCst);
        drop(self.model.lock());
    }
}

/// Whether a request that arrived at `arrived_ms` with `deadline_ms` has
/// expired at `now_ms`; a deadline of 0 has expired at any age.
fn expired(now_ms: u64, arrived_ms: u64, deadline_ms: Option<u64>) -> bool {
    match deadline_ms {
        Some(d) => now_ms.saturating_sub(arrived_ms) >= d,
        None => false,
    }
}

/// A usable prediction is present and finite.
fn usable(v: &Option<f64>) -> bool {
    matches!(v, Some(x) if x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo_kernels;
    use tpu_learned_cost::{AtomicCache, FnCostModel};

    /// The demo kernel's index, from its name.
    fn index(k: &Kernel) -> usize {
        let name = k.computation.name();
        name.rsplit('_').next().unwrap().parse().unwrap()
    }

    /// A fallback that answers `1000 + index` and records the indices of
    /// every batch it is asked for.
    struct Recorder(Arc<Mutex<Vec<Vec<usize>>>>);

    impl CostModel for Recorder {
        fn predict_kernel_ns(&self, k: &Kernel) -> Option<f64> {
            Some(1000.0 + index(k) as f64)
        }
        fn predict_refs_ns(&self, kernels: &[&Kernel]) -> Vec<Option<f64>> {
            self.0
                .lock()
                .unwrap()
                .push(kernels.iter().map(|k| index(k)).collect());
            kernels.iter().map(|k| self.predict_kernel_ns(k)).collect()
        }
        fn name(&self) -> &str {
            "safe"
        }
    }

    fn engine(breaker: Option<BreakerConfig>, calls: &Arc<Mutex<Vec<Vec<usize>>>>) -> ServeEngine {
        let flaky = FnCostModel::new("flaky", |k: &Kernel| match index(k) {
            0 => None,
            1 => Some(f64::NAN),
            2 => Some(f64::NEG_INFINITY),
            i => Some(i as f64),
        });
        ServeEngine::start_with(
            Box::new(flaky),
            Arc::new(AtomicCache::serving_default()),
            ServeConfig::default(),
            ServeOptions {
                fallback: Some(Fallback {
                    model: Box::new(Recorder(Arc::clone(calls))),
                    breaker,
                }),
                ..ServeOptions::default()
            },
            &Registry::noop(),
        )
    }

    #[test]
    fn route_splices_the_fallback_positionally_with_one_call() {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let engine = engine(None, &calls);
        let kernels = demo_kernels(5);
        let refs: Vec<&Kernel> = kernels.iter().collect();
        let (answers, fell_back) = engine.route(&engine.model.lock().unwrap(), &refs);
        assert_eq!(
            answers,
            [
                Some(1000.0),
                Some(1001.0),
                Some(1002.0),
                Some(3.0),
                Some(4.0)
            ],
            "fallen positions filled by the fallback, healthy ones untouched"
        );
        assert_eq!(*calls.lock().unwrap(), [vec![0, 1, 2]], "one fallback call");
        assert_eq!(fell_back, 3);
    }

    #[test]
    fn an_open_breaker_routes_the_whole_batch_to_the_fallback() {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let engine = engine(
            Some(BreakerConfig {
                trip_after: 1,
                cooldown: 8,
            }),
            &calls,
        );
        let kernels = demo_kernels(5);
        let refs: Vec<&Kernel> = kernels.iter().collect();
        let models = engine.model.lock().unwrap();
        // The first position's `None` trips the breaker; the fallen three
        // are still rescued in one call.
        engine.route(&models, &refs);
        assert!(engine.degraded());
        let (answers, fell_back) = engine.route(&models, &refs);
        assert_eq!(
            answers,
            (1000..1005).map(|i| Some(i as f64)).collect::<Vec<_>>()
        );
        assert_eq!(*calls.lock().unwrap(), [vec![0, 1, 2], vec![0, 1, 2, 3, 4]]);
        assert_eq!(fell_back, 5);
    }
}
