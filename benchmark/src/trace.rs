//! Spans recorded by the benchmark's own code around calls into each layer.
//!
//! Spans stay in memory and are written out once, when the traced run ends.
//! A root span is one request / tuning run / training run; the wrappers in
//! `seams.rs` record children under whichever root is current.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// No parent: the span is a root.
pub const NO_PARENT: usize = usize::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span, or [`NO_PARENT`].
    pub parent: usize,
    /// Spans of one request share this identifier.
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span sink shared by the client thread and the serve worker.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Index of the current root span + 1; 0 when none is open. `SeqCst`
    /// because the worker thread reads it to attribute its children.
    current: AtomicUsize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            current: AtomicUsize::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Open a root span and make it current; returns its index.
    pub fn begin_root(&self, name: &'static str, request_id: u64) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        let idx = spans.len();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: NO_PARENT,
            request_id,
        });
        self.current.store(idx + 1, Ordering::SeqCst);
        idx
    }

    /// Close the current root span; no root is current afterwards.
    pub fn end_root(&self) {
        let end_ns = self.now_ns();
        let current = self.current.swap(0, Ordering::SeqCst);
        assert!(current > 0, "end_root without an open root span");
        self.lock()[current - 1].end_ns = end_ns;
    }

    /// Run `f` inside a child span of the current root. Outside any root the
    /// call is not recorded (warm-up and reference passes).
    pub fn child<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let current = self.current.load(Ordering::SeqCst);
        if current == 0 {
            return f();
        }
        let parent = current - 1;
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let mut spans = self.lock();
        let request_id = spans[parent].request_id;
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        out
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its children cover. Overlapping children are counted once, and a child
/// reaching outside its parent is clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent];
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns);
            if hi > lo {
                children[s.parent].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per span name: how many, their total duration and their total self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Write the trace file: a summary per span name, then every span as
/// `[name_index, start_ns, end_ns, parent, request_id]` (parent -1 = root).
pub fn write_trace(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let totals = totals_by_name(spans);
    let names: Vec<&'static str> = totals.keys().copied().collect();
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    writeln!(w, "{{")?;
    writeln!(w, "  \"workload\": \"{workload}\",")?;
    writeln!(
        w,
        "  \"span_fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"request_id\"],"
    )?;
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    writeln!(w, "  \"names\": [{}],", quoted.join(", "))?;
    writeln!(w, "  \"summary\": {{")?;
    for (i, (name, t)) in totals.iter().enumerate() {
        let comma = if i + 1 < totals.len() { "," } else { "" };
        writeln!(
            w,
            "    \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{comma}",
            t.count, t.total_ns, t.self_ns
        )?;
    }
    writeln!(w, "  }},")?;
    writeln!(w, "  \"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let name = names
            .binary_search(&s.name)
            .expect("every span name is in the summary");
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            s.parent as i64
        };
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            w,
            "    [{name}, {}, {}, {parent}, {}]{comma}",
            s.start_ns, s.end_ns, s.request_id
        )?;
    }
    writeln!(w, "  ]")?;
    writeln!(w, "}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: usize) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: 1,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 30, 60, 0), // overlaps a on [30, 40)
            span("c", 80, 90, 0),
            span("d", 35, 38, 1), // grandchild: only reduces a
        ];
        let selfs = self_times(&spans);
        // children cover [10, 60) and [80, 90): 60 of 100.
        assert_eq!(selfs[0], 40);
        assert_eq!(selfs[1], 27);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[4], 3);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![
            span("root", 50, 100, NO_PARENT),
            span("early", 40, 60, 0),
            span("late", 90, 120, 0),
            span("inside", 95, 99, 0), // already covered by `late`
            span("outside", 0, 10, 0),
        ];
        assert_eq!(self_times(&spans)[0], 50 - 10 - 10);
    }

    #[test]
    fn children_attach_to_the_current_root_only() {
        let t = Tracer::new();
        t.child("ignored", || ());
        assert!(t.snapshot().is_empty());
        let root = t.begin_root("request", 7);
        t.child("work", || ());
        t.end_root();
        t.child("ignored", || ());
        let spans = t.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[1].request_id, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["request"].count, 1);
        assert_eq!(
            totals["request"].self_ns,
            spans[0].duration_ns() - spans[1].duration_ns()
        );
    }
}
