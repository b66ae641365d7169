//! Structured per-run reports with a stable JSON serialization.
//!
//! A [`RunReport`] couples a registry [`Snapshot`] with free-form run
//! context (binary name, scale, seed, …). Its JSON form is **stable**:
//! a versioned schema tag, sorted keys everywhere, hand-rendered with no
//! dependency on a serializer — so reports can be golden-tested
//! (`tests/report_golden.rs`) and diffed across runs and machines.

use crate::registry::{Registry, Snapshot};

/// Schema tag embedded in every report. Bump the suffix when the JSON
/// layout changes shape (adding *metrics* is not a schema change; adding
/// or renaming *fields* is).
pub const SCHEMA: &str = "tpu-obs.run-report.v1";

/// A run's metrics snapshot plus identifying context, serializable to
/// stable JSON.
///
/// ```text
/// {
///   "schema": "tpu-obs.run-report.v1",
///   "name": "<run name>",
///   "context": { "<key>": "<value>", ... },          // sorted by key
///   "counters": { "<metric>": <u64>, ... },          // sorted by name
///   "gauges": { "<metric>": <f64|null>, ... },
///   "histograms": { "<metric>": { "count": <u64>, "sum": <u64>,
///                                 "min": <u64>, "max": <u64>,
///                                 "buckets": [[<idx>, <count>], ...] }, ... },
///   "series": { "<metric>": [<f64|null>, ...], ... }
/// }
/// ```
///
/// Histogram bucket indices follow [`bucket_index`](crate::bucket_index):
/// index 0 is the value 0, index `b >= 1` covers `[2^(b-1), 2^b)`.
/// Non-finite floats render as `null` to keep the document valid JSON.
#[derive(Debug, Clone)]
pub struct RunReport {
    name: String,
    context: Vec<(String, String)>,
    snapshot: Snapshot,
}

impl RunReport {
    /// Snapshot `registry` under a run name.
    pub fn new(name: impl Into<String>, registry: &Registry) -> RunReport {
        RunReport {
            name: name.into(),
            context: Vec::new(),
            snapshot: registry.snapshot(),
        }
    }

    /// Attach one context key/value pair (builder-style). Re-using a key
    /// overwrites its previous value.
    pub fn with_context(mut self, key: impl Into<String>, value: impl ToString) -> RunReport {
        let key = key.into();
        let value = value.to_string();
        if let Some(slot) = self.context.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.context.push((key, value));
        }
        self
    }

    /// The underlying metrics snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Render the stable JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json_string(SCHEMA)));
        out.push_str(&format!("  \"name\": {},\n", json_string(&self.name)));

        let mut context = self.context.clone();
        context.sort();
        render_map(&mut out, "context", &context, |v| json_string(v));
        out.push_str(",\n");
        render_map(&mut out, "counters", &self.snapshot.counters, |v| {
            v.to_string()
        });
        out.push_str(",\n");
        render_map(&mut out, "gauges", &self.snapshot.gauges, |v| json_f64(*v));
        out.push_str(",\n");
        render_map(&mut out, "histograms", &self.snapshot.histograms, |h| {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(i, n)| format!("[{i}, {n}]"))
                .collect();
            format!(
                "{{ \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [{}] }}",
                h.count,
                h.sum,
                h.min,
                h.max,
                buckets.join(", ")
            )
        });
        out.push_str(",\n");
        render_map(&mut out, "series", &self.snapshot.series, |vals| {
            let rendered: Vec<String> = vals.iter().map(|v| json_f64(*v)).collect();
            format!("[{}]", rendered.join(", "))
        });
        out.push_str("\n}\n");
        out
    }

    /// Write the JSON document to `path`.
    pub fn write(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

fn render_map<V>(
    out: &mut String,
    key: &str,
    entries: &[(String, V)],
    render: impl Fn(&V) -> String,
) {
    out.push_str(&format!("  \"{key}\": {{"));
    for (i, (name, value)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!(
            "\n    {}: {}{comma}",
            json_string(name),
            render(value)
        ));
    }
    if entries.is_empty() {
        out.push('}');
    } else {
        out.push_str("\n  }");
    }
}

/// A JSON string literal with the minimal required escaping.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An `f64` as JSON: `{}` formatting round-trips exactly; non-finite
/// values become `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_all_sections() {
        let r = Registry::enabled();
        r.counter("test.report.hits").add(3);
        r.gauge("test.report.level").set(1.5);
        r.histogram("test.report.lat_ns").observe(1024);
        r.series("test.report.loss").push(0.25);
        let json = RunReport::new("unit", &r)
            .with_context("bin", "test")
            .to_json();
        assert!(json.contains("\"schema\": \"tpu-obs.run-report.v1\""));
        assert!(json.contains("\"name\": \"unit\""));
        assert!(json.contains("\"bin\": \"test\""));
        assert!(json.contains("\"test.report.hits\": 3"));
        assert!(json.contains("\"test.report.level\": 1.5"));
        assert!(json.contains("\"buckets\": [[11, 1]]"));
        assert!(json.contains("\"test.report.loss\": [0.25]"));
    }

    #[test]
    fn rendering_is_deterministic_regardless_of_insert_order() {
        let build = |flip: bool| {
            let r = Registry::enabled();
            let names = if flip {
                ["test.b.second", "test.a.first"]
            } else {
                ["test.a.first", "test.b.second"]
            };
            for n in names {
                r.counter(n).inc();
            }
            RunReport::new("order", &r)
                .with_context("z", "1")
                .with_context("a", "2")
                .to_json()
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn context_overwrites_and_sorts() {
        let r = Registry::noop();
        let json = RunReport::new("ctx", &r)
            .with_context("k", "old")
            .with_context("k", "new")
            .to_json();
        assert!(json.contains("\"k\": \"new\""));
        assert!(!json.contains("old"));
    }

    #[test]
    fn non_finite_gauges_render_as_null() {
        let r = Registry::enabled();
        r.gauge("test.report.bad").set(f64::NAN);
        r.series("test.report.trace").push(f64::INFINITY);
        let json = RunReport::new("nan", &r).to_json();
        assert!(json.contains("\"test.report.bad\": null"));
        assert!(json.contains("\"test.report.trace\": [null]"));
    }

    #[test]
    fn strings_are_escaped() {
        let r = Registry::noop();
        let json = RunReport::new("quo\"te", &r)
            .with_context("path", "a\\b\nc")
            .to_json();
        assert!(json.contains("\"name\": \"quo\\\"te\""));
        assert!(json.contains("\"path\": \"a\\\\b\\nc\""));
    }

    #[test]
    fn noop_registry_yields_empty_sections() {
        let json = RunReport::new("empty", &Registry::noop()).to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"series\": {}"));
    }
}
