//! The metrics registry and its handle types.
//!
//! A [`Registry`] is either **enabled** (shared storage behind an `Arc`)
//! or a **no-op** (no storage at all). Handles ([`Counter`], [`Gauge`],
//! [`Histogram`], [`Series`]) are obtained once per instrumented session
//! and are cheap to clone; on a no-op registry every handle operation is
//! a single branch and scoped timers never touch the clock.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Opaque `Debug` for registry handles: the shared cells are
/// implementation detail, but instrumented types (e.g. the simulated
/// device) want to keep deriving `Debug`.
macro_rules! opaque_debug {
    ($ty:ident, $field:ident) => {
        impl fmt::Debug for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_struct(stringify!($ty))
                    .field("enabled", &self.$field.is_some())
                    .finish()
            }
        }
    };
}

/// Number of fixed histogram buckets. Bucket `0` counts the value `0`;
/// bucket `b ≥ 1` counts values `v` with `2^(b-1) <= v < 2^b`. The last
/// bucket absorbs everything at or above `2^62` (~146 years in ns).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// The fixed bucket index for a value: `0` for `0`, else
/// `1 + floor(log2(v))`, clamped to the last bucket.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>, // f64 bits
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    series: Mutex<BTreeMap<String, Arc<Mutex<Vec<f64>>>>>,
}

/// A metrics registry: either enabled (records) or a no-op (discards).
///
/// Cloning shares the underlying storage, so one registry can be threaded
/// through several instrumented layers (predictor, trainer, autotuner,
/// device) and snapshotted once at the end of a run.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// Panics unless `name` follows `<crate>.<subsystem>.<name>`: three or
/// more non-empty dot-separated segments of `[a-z0-9_]`.
fn validate_name(name: &str) {
    let segments: Vec<&str> = name.split('.').collect();
    let ok = segments.len() >= 3
        && segments.iter().all(|s| {
            !s.is_empty()
                && s.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        });
    assert!(
        ok,
        "metric name {name:?} violates the `<crate>.<subsystem>.<name>` convention \
         (>=3 dot-separated segments of [a-z0-9_])"
    );
}

impl Registry {
    /// A registry that records. (The no-op registry is the
    /// [`Default`].)
    pub fn enabled() -> Registry {
        Registry {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// A registry that discards everything at (near) zero cost.
    pub fn noop() -> Registry {
        Registry { inner: None }
    }

    /// Whether this registry records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The monotonic counter `name`, registering it on first use.
    /// Re-requesting a name returns a handle to the same counter.
    pub fn counter(&self, name: &str) -> Counter {
        validate_name(name);
        Counter {
            cell: self.inner.as_ref().map(|inner| {
                Arc::clone(
                    inner
                        .counters
                        .lock()
                        .unwrap()
                        .entry(name.to_string())
                        .or_default(),
                )
            }),
        }
    }

    /// The gauge `name` (last value wins), registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        validate_name(name);
        Gauge {
            cell: self.inner.as_ref().map(|inner| {
                Arc::clone(
                    inner
                        .gauges
                        .lock()
                        .unwrap()
                        .entry(name.to_string())
                        .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits()))),
                )
            }),
        }
    }

    /// The fixed-bucket histogram `name`, registering it on first use.
    /// Built for latencies: observe nanoseconds (directly or through
    /// [`Histogram::start_timer`]), though any `u64` distribution (batch
    /// sizes, …) fits the log₂ buckets.
    pub fn histogram(&self, name: &str) -> Histogram {
        validate_name(name);
        Histogram {
            core: self.inner.as_ref().map(|inner| {
                Arc::clone(
                    inner
                        .histograms
                        .lock()
                        .unwrap()
                        .entry(name.to_string())
                        .or_insert_with(|| Arc::new(HistogramCore::new())),
                )
            }),
        }
    }

    /// The append-only series `name` (e.g. a per-epoch loss trajectory),
    /// registering it on first use.
    pub fn series(&self, name: &str) -> Series {
        validate_name(name);
        Series {
            values: self.inner.as_ref().map(|inner| {
                Arc::clone(
                    inner
                        .series
                        .lock()
                        .unwrap()
                        .entry(name.to_string())
                        .or_default(),
                )
            }),
        }
    }

    /// A point-in-time snapshot of every registered metric, sorted by
    /// name within each kind. Empty (all kinds empty) for a no-op
    /// registry.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = self.inner.as_ref() else {
            return Snapshot::default();
        };
        Snapshot {
            counters: inner
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
                .collect(),
            histograms: inner
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, h)| {
                    let count = h.count.load(Ordering::Relaxed);
                    (
                        k.clone(),
                        HistogramSnapshot {
                            count,
                            sum: h.sum.load(Ordering::Relaxed),
                            min: if count == 0 {
                                0
                            } else {
                                h.min.load(Ordering::Relaxed)
                            },
                            max: h.max.load(Ordering::Relaxed),
                            buckets: h
                                .buckets
                                .iter()
                                .enumerate()
                                .filter_map(|(i, b)| {
                                    let n = b.load(Ordering::Relaxed);
                                    (n > 0).then_some((i, n))
                                })
                                .collect(),
                        },
                    )
                })
                .collect(),
            series: inner
                .series
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.lock().unwrap().clone()))
                .collect(),
        }
    }
}

/// A monotonic counter handle.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A handle that discards (what a no-op registry hands out, and the
    /// `Default`).
    pub fn noop() -> Counter {
        Counter { cell: None }
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.cell {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 on a no-op handle).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

opaque_debug!(Counter, cell);

/// A last-value-wins gauge handle.
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// A handle that discards (the `Default`).
    pub fn noop() -> Gauge {
        Gauge { cell: None }
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        if let Some(c) = &self.cell {
            c.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 on a no-op handle).
    pub fn get(&self) -> f64 {
        self.cell
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

opaque_debug!(Gauge, cell);

/// A fixed-bucket histogram handle (log₂ buckets; see [`bucket_index`]).
#[derive(Clone, Default)]
pub struct Histogram {
    core: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// A handle that discards (the `Default`).
    pub fn noop() -> Histogram {
        Histogram { core: None }
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        if let Some(core) = &self.core {
            core.observe(value);
        }
    }

    /// Start an RAII timer that observes the elapsed nanoseconds into
    /// this histogram when dropped. On a no-op handle the clock is never
    /// read.
    #[inline]
    pub fn start_timer(&self) -> ScopedTimer {
        ScopedTimer {
            start: self.core.as_ref().map(|_| Instant::now()),
            hist: self.clone(),
        }
    }

    /// Observations recorded so far (0 on a no-op handle).
    pub fn count(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }
}

opaque_debug!(Histogram, core);

/// An append-only `f64` series handle (loss trajectories and similar
/// short per-epoch traces — entries are never dropped, so keep it to
/// per-epoch/per-phase cadence, not per-kernel).
#[derive(Clone, Default)]
pub struct Series {
    values: Option<Arc<Mutex<Vec<f64>>>>,
}

impl Series {
    /// A handle that discards (the `Default`).
    pub fn noop() -> Series {
        Series { values: None }
    }

    /// Append one value.
    #[inline]
    pub fn push(&self, value: f64) {
        if let Some(v) = &self.values {
            v.lock().unwrap().push(value);
        }
    }

    /// Number of values recorded (0 on a no-op handle).
    pub fn len(&self) -> usize {
        self.values.as_ref().map_or(0, |v| v.lock().unwrap().len())
    }

    /// Whether no values were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

opaque_debug!(Series, values);

/// RAII timer: observes elapsed ns into its histogram on drop (or
/// explicitly via [`ScopedTimer::stop`]).
pub struct ScopedTimer {
    hist: Histogram,
    start: Option<Instant>,
}

impl ScopedTimer {
    /// Stop now and return the elapsed nanoseconds that were recorded
    /// (`0` on a no-op handle, with nothing recorded).
    pub fn stop(mut self) -> u64 {
        self.record()
    }

    fn record(&mut self) -> u64 {
        let Some(start) = self.start.take() else {
            return 0;
        };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.hist.observe(ns);
        ns
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        self.record();
    }
}

/// A point-in-time snapshot of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values (wrapping beyond `u64::MAX`).
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Non-empty buckets as `(bucket_index, count)` pairs, ascending;
    /// see [`bucket_index`] for the value range of an index.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time snapshot of a whole registry, each kind sorted by
/// metric name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Series traces.
    pub series: Vec<(String, Vec<f64>)>,
}

impl Snapshot {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Look up a series by name.
    pub fn series(&self, name: &str) -> Option<&[f64]> {
        self.series
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Every bucket boundary: 2^(b-1) maps to bucket b.
        for b in 1..63 {
            assert_eq!(bucket_index(1u64 << (b - 1)), b);
            assert_eq!(bucket_index((1u64 << b) - 1), b);
        }
    }

    #[test]
    fn counters_gauges_histograms_record() {
        let r = Registry::enabled();
        let c = r.counter("test.unit.hits");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name, same storage.
        assert_eq!(r.counter("test.unit.hits").get(), 5);

        let g = r.gauge("test.unit.level");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);

        let h = r.histogram("test.unit.lat_ns");
        h.observe(0);
        h.observe(100);
        h.observe(100_000);
        let snap = r.snapshot();
        let hs = snap.histogram("test.unit.lat_ns").unwrap();
        assert_eq!(hs.count, 3);
        assert_eq!(hs.sum, 100_100);
        assert_eq!((hs.min, hs.max), (0, 100_000));
        assert_eq!(
            hs.buckets,
            vec![(0, 1), (bucket_index(100), 1), (bucket_index(100_000), 1)]
        );
        assert!((hs.mean() - 100_100.0 / 3.0).abs() < 1e-9);

        let s = r.series("test.unit.loss");
        s.push(1.0);
        s.push(0.5);
        assert_eq!(r.snapshot().series("test.unit.loss").unwrap(), &[1.0, 0.5]);
    }

    #[test]
    fn noop_registry_discards_everything() {
        let r = Registry::noop();
        assert!(!r.is_enabled());
        let c = r.counter("test.unit.hits");
        c.add(10);
        assert_eq!(c.get(), 0);
        let g = r.gauge("test.unit.level");
        g.set(3.0);
        assert_eq!(g.get(), 0.0);
        let h = r.histogram("test.unit.lat_ns");
        let t = h.start_timer();
        assert_eq!(t.stop(), 0, "no-op timer never reads the clock");
        h.observe(5);
        assert_eq!(h.count(), 0);
        let s = r.series("test.unit.loss");
        s.push(1.0);
        assert!(s.is_empty());
        assert_eq!(r.snapshot(), Snapshot::default());
    }

    #[test]
    fn default_is_noop() {
        assert!(!Registry::default().is_enabled());
    }

    #[test]
    fn scoped_timer_records_on_drop() {
        let r = Registry::enabled();
        let h = r.histogram("test.unit.lat_ns");
        {
            let _t = h.start_timer();
        }
        let explicit = h.start_timer().stop();
        assert_eq!(h.count(), 2);
        let hs = r.snapshot();
        let hs = hs.histogram("test.unit.lat_ns").unwrap();
        assert!(hs.sum >= explicit, "sum includes both timings");
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = Registry::enabled();
        r.counter("test.z.last").inc();
        r.counter("test.a.first").inc();
        r.counter("test.m.middle").inc();
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["test.a.first", "test.m.middle", "test.z.last"]);
    }

    #[test]
    fn clones_share_storage() {
        let r = Registry::enabled();
        let r2 = r.clone();
        r2.counter("test.unit.hits").add(7);
        assert_eq!(r.snapshot().counter("test.unit.hits"), Some(7));
    }

    #[test]
    #[should_panic(expected = "convention")]
    fn short_names_are_rejected() {
        Registry::noop().counter("hits");
    }

    #[test]
    #[should_panic(expected = "convention")]
    fn uppercase_names_are_rejected() {
        Registry::noop().counter("core.engine.CacheHits");
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let r = Registry::enabled();
        let c = r.counter("test.unit.hits");
        let h = r.histogram("test.unit.val_ns");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1_000 {
                        c.inc();
                        h.observe(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4_000);
        assert_eq!(h.count(), 4_000);
    }
}
