//! What a workload hands back, and how it is printed: every metric by name
//! with its unit, per-round values beside each median, and as the last line
//! of standard output the one JSON object the acceptance driver reads.

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::setup::Accuracy;
use crate::stats;
use std::collections::BTreeMap;

/// Counts operations and failed checks. An operation is a request, a tuning
/// run or a training round; a failed whole-workload check (hit rate,
/// determinism across rounds, accuracy floor) counts as one failed operation.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checker {
    /// One operation with its verdict.
    pub fn op(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = verdict {
            self.fail(msg);
        }
    }

    /// A check on the workload as a whole.
    pub fn that(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 10 {
            self.messages.push(msg);
        }
    }
}

pub struct Outcome {
    pub check: Checker,
    /// Timed phase of each round, seconds (fixed work per round).
    pub wall_s: Vec<f64>,
    /// Operations per second of each round, in the workload's own unit.
    pub ops_per_s: Vec<f64>,
    /// Per-round median latency of the workload's operation, µs.
    pub latency_p50_us: Vec<f64>,
    /// Per-round nearest-rank p99 latency of the workload's operation, µs.
    pub latency_p99_us: Vec<f64>,
    pub accuracy: Accuracy,
    /// Per-layer metrics the workload's own phase produced.
    pub layer: BTreeMap<&'static str, f64>,
    /// Free-form lines for the human reader.
    pub notes: Vec<String>,
    /// Serve only: mean request latency, for `serve.explained_share`.
    pub mean_request_us: f64,
    /// Traced runs only: wall of the rounds run before tracing started.
    pub baseline_wall_s: Vec<f64>,
    /// Traced search only: host seconds per model-scored configuration.
    pub model_config_s: f64,
    /// The timings to report. A round is many separately timed operations
    /// (requests, tuning runs, training steps), each doing the same work in
    /// every round: each is taken at its fastest over rounds (`stats::low`),
    /// and these are composed from them. `None` until a round was measured.
    pub composed: Option<Composed>,
}

/// See [`Outcome::composed`].
#[derive(Debug, Clone, Copy)]
pub struct Composed {
    pub wall_s: f64,
    pub ops_per_s: f64,
    pub latency_p50_us: f64,
}

impl Outcome {
    pub fn new(accuracy: Accuracy) -> Outcome {
        Outcome {
            check: Checker::default(),
            wall_s: Vec::new(),
            ops_per_s: Vec::new(),
            latency_p50_us: Vec::new(),
            latency_p99_us: Vec::new(),
            accuracy,
            layer: BTreeMap::new(),
            notes: Vec::new(),
            mean_request_us: 0.0,
            baseline_wall_s: Vec::new(),
            model_config_s: 0.0,
            composed: None,
        }
    }

    /// One measured round: its wall time, its operations per second and the
    /// latencies of its operations, µs.
    pub fn push_round(&mut self, wall_s: f64, ops_per_s: f64, latency_us: &[f64]) {
        self.wall_s.push(wall_s);
        self.ops_per_s.push(ops_per_s);
        self.latency_p50_us
            .push(stats::percentile(latency_us, 50.0));
        self.latency_p99_us
            .push(stats::percentile(latency_us, 99.0));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Name → value, in catalogue order, every catalogue name present.
pub type Values = Vec<(&'static Metric, f64)>;

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(out: &Outcome, setup_s: f64, peak_rss_mib: f64) -> Values {
    let timing = out
        .composed
        .expect("a workload that measured a round reports its timings");
    let value = |name: &str| match name {
        "setup_s" => setup_s,
        "wall_s" => timing.wall_s,
        "ops_per_s" => timing.ops_per_s,
        "latency_p50_us" => timing.latency_p50_us,
        "peak_rss_mib" => peak_rss_mib,
        "tau_vs_oracle" => out.accuracy.tau,
        "mape_vs_oracle" => out.accuracy.mape,
        other => unreachable!("end-to-end metric {other} has no source"),
    };
    END_TO_END.iter().map(|m| (m, value(m.name))).collect()
}

/// The per-layer metrics of a traced run: every catalogue name, 0 for a
/// layer the workload did not enter.
pub fn per_layer(layer: &BTreeMap<&'static str, f64>) -> Values {
    for name in layer.keys() {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "per-layer metric {name} is not in the catalogue"
        );
    }
    PER_LAYER
        .iter()
        .map(|m| (m, layer.get(m.name).copied().unwrap_or(0.0)))
        .collect()
}

pub fn print_values(values: &Values) {
    for (m, v) in values {
        println!("  {:<40} {:>16.6} {}", m.name, v, m.unit);
    }
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn driver_line(out: &Outcome, values: &Values) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(*v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.check.failed == 0,
        out.check.attempted,
        out.check.failed,
        metrics.join(", ")
    )
}

/// A float as JSON, with all its digits.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a JSON number");
    format!("{v:?}")
}
