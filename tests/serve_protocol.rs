//! Golden regression test for the `tpu-serve` wire protocol.
//!
//! The daemon's NDJSON request/response format is a public surface:
//! autotuner clients, CI smoke drivers, and any external tooling parse
//! these exact bytes. This snapshot drives a deterministic engine through
//! one serial transcript covering every reply shape — predictions (float
//! and `null`), cache hits, `stats`, `ping`, `shutdown`, and the error
//! replies for budget exhaustion, unparseable JSON, structurally invalid
//! requests, bad HLO text, and unknown ops — and pins the byte-exact
//! request and reply lines.
//!
//! If a format change is *intentional*, regenerate with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test serve_protocol
//! ```
//!
//! and commit the updated `serve_golden.json` together with the change.

use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tpu_repro::hlo::{DType, GraphBuilder, Kernel, Shape, TileSize};
use tpu_repro::learned::{AtomicCache, CacheStats, CostModel, FnCostModel, KernelCache};
use tpu_repro::obs::Registry;
use tpu_repro::serve::{protocol, serve_ndjson, ServeConfig, ServeEngine};

/// A kernel with `n` unary ops after the parameter: node count encodes
/// identity, so the deterministic model below gives distinct predictions.
fn chain_kernel(ops: usize, rows: usize) -> Kernel {
    let mut b = GraphBuilder::new("golden");
    let x = b.parameter("x", Shape::matrix(rows, 64), DType::F32);
    let mut cur = x;
    for _ in 0..ops {
        cur = b.tanh(cur);
    }
    Kernel::new(b.finish(cur)).with_tile(TileSize(vec![8, 64]))
}

/// The full transcript: `(request line, expected reply is golden)` pairs.
fn transcript() -> Vec<String> {
    let a = chain_kernel(1, 32); // 2 nodes -> 200.5
    let b = chain_kernel(2, 48); // 3 nodes -> 300.5
    let c = chain_kernel(3, 56); // 4 nodes -> unscored by the model
    vec![
        protocol::simple_request_line("ping", 1),
        protocol::predict_request_line(2, &a),
        // Same kernel again: a cache hit, identical prediction bytes.
        protocol::predict_request_line(3, &a),
        protocol::predict_request_line(4, &b),
        // Third distinct kernel: the 2-eval budget is spent and this one
        // is not cached, so the reply is the `budget` error.
        protocol::predict_request_line(5, &c),
        protocol::simple_request_line("stats", 6),
        // Error surface: unparseable, missing kernel, bad HLO, unknown op.
        "this is not json".to_string(),
        "{\"op\":\"predict\",\"id\":8}".to_string(),
        "{\"op\":\"predict\",\"id\":9,\"kernel\":{\"text\":\"not hlo at all\"}}".to_string(),
        "{\"op\":\"teleport\",\"id\":10}".to_string(),
        // Resilience surface: an already-expired deadline (0 ms always
        // expires), a reload against an engine with no reload policy,
        // and a tile whose rank exceeds the protocol cap.
        protocol::predict_request_line_with_deadline(11, &a, Some(0)),
        protocol::reload_request_line(12, "/tmp/does-not-exist.blob"),
        format!(
            "{{\"op\":\"predict\",\"id\":13,\"kernel\":{{\"text\":\"x\",\"tile\":[{}]}}}}",
            vec!["8"; protocol::MAX_TILE_DIMS + 1].join(",")
        ),
        protocol::simple_request_line("shutdown", 14),
    ]
}

/// Serve the transcript serially over a fully deterministic engine.
fn run_transcript(lines: &[String]) -> Vec<String> {
    let model: Box<dyn CostModel + Send> = Box::new(FnCostModel::new("golden", |k: &Kernel| {
        let nodes = k.computation.num_nodes();
        // Node counts >= 4 are "unsupported": exercises the null reply
        // path (and, behind the budget, the budget-denied path).
        (nodes < 4).then_some(nodes as f64 * 100.0 + 0.5)
    }));
    let cache: Arc<dyn KernelCache> = Arc::new(AtomicCache::serving_default());
    let engine = ServeEngine::start(
        model,
        cache,
        ServeConfig {
            eval_budget: Some(2),
            ..ServeConfig::default()
        },
        &Registry::noop(),
    );
    let input = lines.join("\n") + "\n";
    let mut output = Vec::new();
    let stopped = serve_ndjson(&engine, Cursor::new(input), &mut output).expect("serve io");
    assert!(stopped, "transcript ends in shutdown");
    engine.shutdown();
    String::from_utf8(output)
        .expect("replies are utf-8")
        .lines()
        .map(str::to_string)
        .collect()
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("serve_golden.json")
}

/// Render the transcript as one JSON document: an array of
/// `{"request": ..., "reply": ...}` pairs (requests that are not valid
/// JSON — the error-path probes — are embedded as strings either way).
fn render_transcript(requests: &[String], replies: &[String]) -> String {
    let pairs: Vec<String> = requests
        .iter()
        .zip(replies)
        .map(|(req, rep)| {
            let req = escape_json_string(req);
            format!("    {{\"request\": \"{req}\", \"reply\": {rep}}}")
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"tpu-serve-protocol/1\",\n  \"transcript\": [\n{}\n  ]\n}}\n",
        pairs.join(",\n")
    )
}

/// Minimal JSON string escaping for embedding request lines.
fn escape_json_string(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

#[test]
fn serve_protocol_matches_golden_snapshot() {
    let requests = transcript();
    let replies = run_transcript(&requests);
    assert_eq!(replies.len(), requests.len(), "one reply per request line");
    let rendered = render_transcript(&requests, &replies);
    let path = golden_path();

    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, &rendered).expect("write serve golden");
        println!("regenerated {}", path.display());
        return;
    }

    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run REGEN_GOLDEN=1 cargo test --test serve_protocol",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        golden,
        "serve protocol bytes drifted from tests/serve_golden.json; if intentional, \
         regenerate with REGEN_GOLDEN=1 and commit the diff"
    );
}

#[test]
fn transcript_replies_have_expected_shapes() {
    // Independent of the snapshot bytes: pin the semantic shape of each
    // reply so a regenerated golden cannot silently bless a regression.
    let replies = run_transcript(&transcript());
    assert!(replies[0].contains("\"pong\":true"));
    assert!(replies[1].contains("\"ns\":200.5"));
    assert_eq!(replies[2].replace("\"id\":3", "\"id\":2"), replies[1], "cache hit must reproduce the prediction bytes");
    assert!(replies[3].contains("\"ns\":300.5"));
    assert!(replies[4].contains("\"code\":\"budget\""));
    assert!(replies[5].contains("\"backend\":\"golden\""), "stats must name the serving backend");
    assert!(replies[5].contains("\"cache_hits\":1") && replies[5].contains("\"model_evals\":2"));
    assert!(replies[6].contains("\"code\":\"parse\"") && replies[6].contains("\"id\":null"));
    assert!(replies[7].contains("\"code\":\"bad_request\"") && replies[7].contains("\"id\":8"));
    assert!(replies[8].contains("\"code\":\"hlo\""));
    assert!(replies[9].contains("\"code\":\"bad_request\""));
    assert!(
        replies[10].contains("\"code\":\"deadline\""),
        "a 0 ms deadline must expire before prediction: {}",
        replies[10]
    );
    assert!(
        replies[11].contains("\"code\":\"reload_rejected\"")
            && replies[11].contains("\"reason\":\"disabled\""),
        "reload without a policy must be rejected typed: {}",
        replies[11]
    );
    assert!(replies[12].contains("\"code\":\"bad_request\""), "over-rank tile: {}", replies[12]);
    assert!(replies[13].contains("\"shutdown\":true"));
}

#[test]
fn oversized_lines_are_rejected_without_breaking_the_stream() {
    // Not part of the golden transcript (a megabyte request line does
    // not belong in a reviewed snapshot): a line past MAX_LINE_BYTES
    // must come back `bad_request` and the connection must keep serving
    // subsequent well-formed lines.
    let a = chain_kernel(1, 32);
    let huge = format!("{{\"op\":\"predict\",\"id\":1,\"pad\":\"{}\"}}", "x".repeat(protocol::MAX_LINE_BYTES));
    let lines = vec![
        huge,
        protocol::predict_request_line(2, &a),
        protocol::simple_request_line("shutdown", 3),
    ];
    let replies = run_transcript(&lines);
    assert_eq!(replies.len(), 3);
    assert!(
        replies[0].contains("\"code\":\"bad_request\"") && replies[0].contains("\"id\":null"),
        "oversized line: {}",
        replies[0]
    );
    assert!(replies[1].contains("\"ns\":200.5"), "stream must survive the oversized line");
    assert!(replies[2].contains("\"shutdown\":true"));
}

/// A [`KernelCache`] that counts the calls a served request may and may
/// not make: `lookup_hash` once on the caller's thread per request and
/// once more on the worker per miss, `len` and `stats` (which may scan
/// every slot) for a `stats` request only.
struct CountingCache {
    inner: AtomicCache,
    lookups: AtomicU64,
    lens: AtomicU64,
    stats: AtomicU64,
}

impl KernelCache for CountingCache {
    fn lookup_hash(&self, hash: u64) -> Option<Option<f64>> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.inner.lookup_hash(hash)
    }
    fn insert_hash(&self, hash: u64, prediction: Option<f64>) {
        self.inner.insert_hash(hash, prediction);
    }
    fn len(&self) -> usize {
        self.lens.fetch_add(1, Ordering::Relaxed);
        self.inner.len()
    }
    fn clear(&self) {
        self.inner.clear();
    }
    fn stats(&self) -> CacheStats {
        self.stats.fetch_add(1, Ordering::Relaxed);
        self.inner.stats()
    }
    fn eviction_count(&self) -> u64 {
        self.inner.eviction_count()
    }
}

#[test]
fn a_served_batch_never_scans_the_cache() {
    // 8 distinct kernels through 4 slots, each submitted twice: hits,
    // misses and evictions all occur, one request per batch.
    let counting = Arc::new(CountingCache {
        inner: AtomicCache::with_capacity(4),
        lookups: AtomicU64::new(0),
        lens: AtomicU64::new(0),
        stats: AtomicU64::new(0),
    });
    let model: Box<dyn CostModel + Send> = Box::new(FnCostModel::new("nodes", |k: &Kernel| {
        Some(k.computation.num_nodes() as f64)
    }));
    let cache: Arc<dyn KernelCache> = counting.clone();
    let serve = ServeEngine::start(model, cache, ServeConfig::default(), &Registry::noop());
    let n = 16u64;
    for i in 0..n {
        let kernel = chain_kernel(1 + (i % 8) as usize, 32);
        let nodes = kernel.computation.num_nodes() as f64;
        assert_eq!(serve.submit(kernel), Ok(Some(nodes)));
    }
    assert_eq!(counting.lens.load(Ordering::Relaxed), 0, "a batch called len()");
    assert_eq!(counting.stats.load(Ordering::Relaxed), 0, "a batch called stats()");

    let stats = serve.stats();
    // A hit is probed once, on the caller's thread; a miss once there and
    // once more by the worker, which then evaluates it (serial submits:
    // no other request can fill it in between).
    assert!(stats.predict.cache_hits > 0 && stats.predict.model_evals > 0);
    assert_eq!(
        counting.lookups.load(Ordering::Relaxed),
        n + stats.predict.model_evals
    );
    assert_eq!(stats.cache_entries, counting.inner.len());
    assert_eq!(stats.cache_evictions, counting.inner.eviction_count());
    assert_eq!(stats.predict.kernels, n);
    assert_eq!(stats.predict.cache_hits + stats.predict.model_evals, n);
    serve.shutdown();
}
