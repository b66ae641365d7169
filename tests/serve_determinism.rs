//! Served results must repeat byte for byte.
//!
//! The serve worker answers batches through `Predictor::predict_ns` on a
//! thread of its own; nothing about that hand-off may leak into served
//! bytes: the same request stream produces the same reply stream every
//! time it is served.

use std::io::Cursor;
use std::sync::Arc;
use tpu_repro::learned::{AtomicCache, CostModel, GnnConfig, GnnModel, KernelCache};
use tpu_repro::obs::Registry;
use tpu_repro::serve::{demo_kernels, protocol, serve_ndjson, ServeConfig, ServeEngine};

/// The request stream: distinct kernels (cold evals), then revisits
/// (cache hits), then a stats probe, then shutdown.
fn request_stream() -> String {
    let kernels = demo_kernels(12);
    let mut lines = Vec::new();
    let mut id = 0u64;
    for k in &kernels {
        lines.push(protocol::predict_request_line(id, k));
        id += 1;
    }
    for k in kernels.iter().rev() {
        lines.push(protocol::predict_request_line(id, k));
        id += 1;
    }
    lines.push(protocol::simple_request_line("stats", id));
    lines.push(protocol::simple_request_line("shutdown", id + 1));
    lines.join("\n") + "\n"
}

/// One full serve run over a fresh engine with a freshly initialized
/// (deterministically seeded) small GNN.
fn run_once(input: &str) -> String {
    let gnn = GnnModel::new(GnnConfig {
        hidden: 8,
        opcode_embed_dim: 4,
        hops: 1,
        ..Default::default()
    });
    let model: Box<dyn CostModel + Send> = Box::new(gnn);
    let cache: Arc<dyn KernelCache> = Arc::new(AtomicCache::serving_default());
    let engine = ServeEngine::start(model, cache, ServeConfig::default(), &Registry::noop());
    let mut output = Vec::new();
    serve_ndjson(&engine, Cursor::new(input.to_string()), &mut output).expect("serve io");
    engine.shutdown();
    String::from_utf8(output).expect("utf-8 replies")
}

#[test]
fn served_bytes_are_identical_across_thread_counts() {
    let input = request_stream();
    let reference = run_once(&input);
    assert!(
        reference.contains("\"ns\":"),
        "stream must contain predictions"
    );
    assert_eq!(
        reference,
        run_once(&input),
        "served reply bytes differ between runs"
    );
}
