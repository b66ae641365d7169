//! The circuit breaker between the served model and its fallback.
//!
//! Consecutive unusable primary answers — `None`, non-finite, or a panic
//! reported through [`CircuitBreaker::force_trip`] — trip it open, and the
//! engine then sends whole batches to the fallback for a deterministic
//! cool-down counted in kernel positions. Once the cool-down has elapsed
//! the next batch runs as a half-open probe against the primary: fully
//! usable closes the breaker, anything else re-opens it for another full
//! cool-down.
//!
//! The engine owns the one breaker and feeds it only under its model
//! lock; hits read its state without that lock. Every transition is
//! request-count driven, never wall-clock, so a request script replays to
//! bit-identical breaker state whatever the thread count or machine speed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use tpu_obs::{Counter, Gauge, Registry};

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

/// Where the breaker currently routes traffic; the discriminant is the
/// `stats` reply's and the `serve.breaker.state` gauge's number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerState {
    /// Healthy: every batch goes to the primary.
    Closed = 0,
    /// Tripped: batches go fallback-only until the cool-down elapses.
    Open = 1,
    /// Cool-down elapsed: the next primary batch is a probe.
    HalfOpen = 2,
}

/// How a batch is routed, decided before the primary runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BatchRoute {
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

/// See the module docs.
pub(crate) struct CircuitBreaker {
    cfg: BreakerConfig,
    inner: Mutex<BreakerInner>,
    trips: AtomicU64,
    open_served: AtomicU64,
    obs_trips: Counter,
    obs_open_served: Counter,
    obs_probes: Counter,
    obs_state: Gauge,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds, exporting its
    /// transitions and diverted positions as `serve.breaker.*`.
    pub(crate) fn new(cfg: BreakerConfig, registry: &Registry) -> CircuitBreaker {
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
            obs_trips: registry.counter("serve.breaker.trips"),
            obs_open_served: registry.counter("serve.breaker.open_served"),
            obs_probes: registry.counter("serve.breaker.probes"),
            obs_state: registry.gauge("serve.breaker.state"),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BreakerInner> {
        // A panic while holding this lock only poisons breaker metadata
        // (state enum + two counters), which the recovering caller still
        // reads consistently — predictions are never stored here.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Current routing state.
    pub(crate) fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// Times the breaker tripped open (including forced trips and failed
    /// probes).
    pub(crate) fn trip_count(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Kernel positions served fallback-only while the breaker was open.
    pub(crate) fn open_served_count(&self) -> u64 {
        self.open_served.load(Ordering::Relaxed)
    }

    /// Trip the breaker open immediately (the primary panicked).
    pub(crate) fn force_trip(&self) {
        let mut inner = self.lock();
        self.trip(&mut inner);
    }

    fn set_state(&self, inner: &mut BreakerInner, state: BreakerState) {
        inner.state = state;
        self.obs_state.set(f64::from(state as u8));
    }

    fn trip(&self, inner: &mut BreakerInner) {
        self.set_state(inner, BreakerState::Open);
        inner.consecutive_bad = 0;
        inner.cooldown_left = self.cfg.cooldown;
        self.trips.fetch_add(1, Ordering::Relaxed);
        self.obs_trips.inc();
    }

    /// Route a batch of `n` kernels. Open batches burn `n` positions off
    /// the cool-down; once it hits zero the *next* batch probes.
    pub(crate) fn begin_batch(&self, n: usize) -> BatchRoute {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed => BatchRoute::Primary { probe: false },
            BreakerState::HalfOpen => BatchRoute::Primary { probe: true },
            BreakerState::Open if inner.cooldown_left == 0 => {
                self.set_state(&mut inner, BreakerState::HalfOpen);
                self.obs_probes.inc();
                BatchRoute::Primary { probe: true }
            }
            BreakerState::Open => {
                inner.cooldown_left = inner.cooldown_left.saturating_sub(n as u64);
                self.open_served.fetch_add(n as u64, Ordering::Relaxed);
                self.obs_open_served.add(n as u64);
                BatchRoute::FallbackOnly
            }
        }
    }

    /// Record the primary's per-position outcomes (`true` = usable) for a
    /// batch routed to it. A probe batch closes the breaker only when
    /// every position was usable; any bad position re-opens it.
    pub(crate) fn end_batch(&self, probe: bool, usable: impl IntoIterator<Item = bool>) {
        let mut inner = self.lock();
        let mut usable = usable.into_iter();
        if probe {
            if usable.all(|u| u) {
                self.set_state(&mut inner, BreakerState::Closed);
                inner.consecutive_bad = 0;
            } else {
                self.trip(&mut inner);
            }
            return;
        }
        for u in usable {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(trip_after: u32, cooldown: u64, registry: &Registry) -> CircuitBreaker {
        CircuitBreaker::new(
            BreakerConfig {
                trip_after,
                cooldown,
            },
            registry,
        )
    }

    #[test]
    fn breaker_trips_cools_down_probes_and_recloses() {
        let registry = Registry::enabled();
        let b = breaker(2, 3, &registry);
        assert_eq!(b.state(), BreakerState::Closed);
        // One bad position does not trip; the second (consecutive) does.
        assert_eq!(b.begin_batch(1), BatchRoute::Primary { probe: false });
        b.end_batch(false, [false]);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.begin_batch(1), BatchRoute::Primary { probe: false });
        b.end_batch(false, [false]);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trip_count(), 1);
        // Three positions of cool-down served fallback-only...
        assert_eq!(b.begin_batch(2), BatchRoute::FallbackOnly);
        assert_eq!(b.begin_batch(1), BatchRoute::FallbackOnly);
        assert_eq!(b.open_served_count(), 3);
        // ...then the next batch probes, and a clean probe re-closes.
        assert_eq!(b.begin_batch(1), BatchRoute::Primary { probe: true });
        assert_eq!(registry.snapshot().counter("serve.breaker.probes"), Some(1));
        b.end_batch(true, [true]);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(registry.snapshot().gauge("serve.breaker.state"), Some(0.0));
    }

    #[test]
    fn failed_probe_reopens_for_a_full_cooldown() {
        let b = breaker(1, 2, &Registry::noop());
        b.force_trip();
        assert_eq!((b.state(), b.trip_count()), (BreakerState::Open, 1));
        assert_eq!(b.begin_batch(2), BatchRoute::FallbackOnly);
        assert_eq!(b.begin_batch(1), BatchRoute::Primary { probe: true });
        b.end_batch(true, [true, false]);
        assert_eq!((b.state(), b.trip_count()), (BreakerState::Open, 2));
        // The re-trip restarts the whole cool-down window.
        assert_eq!(b.begin_batch(1), BatchRoute::FallbackOnly);
        assert_eq!(b.begin_batch(1), BatchRoute::FallbackOnly);
        assert_eq!(b.begin_batch(1), BatchRoute::Primary { probe: true });
    }

    #[test]
    fn good_traffic_resets_the_consecutive_bad_count() {
        let b = breaker(2, 8, &Registry::noop());
        // bad, good, bad, good... never two in a row: never trips.
        for _ in 0..8 {
            assert_eq!(b.begin_batch(2), BatchRoute::Primary { probe: false });
            b.end_batch(false, [false, true]);
        }
        assert_eq!((b.state(), b.trip_count()), (BreakerState::Closed, 0));
    }
}
