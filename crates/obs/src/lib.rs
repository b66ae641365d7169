//! Observability for the TPU cost-model reproduction: a lightweight,
//! dependency-free metrics registry, RAII scoped timers, and structured
//! per-run reports.
//!
//! The paper's evaluation is quantitative end to end — §5's min-of-3
//! measurement convention, §6.3's device-time budgets, the per-phase
//! costs behind Table 2 and Figure 4 — so the reproduction needs one
//! uniform way to see where time and cache/model evaluations go. This
//! crate provides it:
//!
//! - [`Registry`] — named [`Counter`]s (monotonic), [`Gauge`]s (last
//!   value), fixed-bucket [`Histogram`]s (log₂ buckets, built for
//!   latencies in ns), and [`Series`] (append-only traces such as a loss
//!   trajectory),
//! - [`ScopedTimer`] — an RAII timer that records an elapsed-ns
//!   observation into a histogram when dropped,
//! - [`RunReport`] — a snapshot of a registry plus run context,
//!   serialized to stable, machine-readable JSON (sorted keys, versioned
//!   schema).
//!
//! # Zero cost when disabled
//!
//! The default registry is a **no-op**: handles carry no storage, every
//! operation is a branch on `None`, and scoped timers never read the
//! clock. Instrumented code paths therefore keep one code path for both
//! modes, and instrumentation is *read-only* — nothing observed ever
//! feeds back into a computation, so results are bit-identical with
//! observability on or off (pinned by `tests/obs_determinism.rs` at the
//! workspace root).
//!
//! # Metric naming
//!
//! Names follow `<crate>.<subsystem>.<name>`: at least three
//! dot-separated segments of `[a-z0-9_]`, e.g.
//! `core.engine.cache_hits` or `autotuner.sa.batch_eval_ns`. Latency
//! histograms end in `_ns`. Registration panics on a malformed name so
//! convention drift is caught even in no-op mode.
//!
//! # Example
//!
//! ```
//! use tpu_obs::{Registry, RunReport};
//!
//! let registry = Registry::enabled();
//! let hits = registry.counter("core.engine.cache_hits");
//! let latency = registry.histogram("core.engine.predict_ns");
//! hits.add(3);
//! {
//!     let _t = latency.start_timer(); // records on drop
//! }
//! latency.observe(1_500); // or record an explicit value
//!
//! let report = RunReport::new("example", &registry).with_context("bin", "doc");
//! let json = report.to_json();
//! assert!(json.contains("\"core.engine.cache_hits\": 3"));
//! ```

mod registry;
mod report;

pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, ScopedTimer, Series, Snapshot,
    HISTOGRAM_BUCKETS,
};
pub use report::{RunReport, SCHEMA};
