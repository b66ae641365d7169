//! The frozen backend behind the serve stack: determinism and backend
//! visibility.
//!
//! The serve path asks the frozen model through
//! `FrozenModel::predict_refs_ns`. Each kernel's f32 summation order is
//! fixed and kernels are independent, so the same request stream must
//! produce byte-identical replies every time it is served, and the stats
//! reply must name `frozen-gnn` as the active backend.

use std::io::Cursor;
use std::sync::Arc;
use tpu_repro::infer::{freeze_gnn, FrozenModel};
use tpu_repro::learned::{AtomicCache, CostModel, GnnConfig, GnnModel, KernelCache};
use tpu_repro::obs::Registry;
use tpu_repro::serve::{demo_kernels, protocol, serve_ndjson, ServeConfig, ServeEngine};

/// Distinct kernels (cold evals), revisits (cache hits), a stats probe,
/// then shutdown.
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

/// One full serve run over a freshly loaded frozen model. The blob is
/// frozen once and re-parsed per run, so the load path is exercised too.
fn run_once(blob: &[u8], input: &str) -> String {
    let frozen = FrozenModel::from_bytes(blob).expect("blob loads");
    let model: Box<dyn CostModel + Send> = Box::new(frozen);
    let cache: Arc<dyn KernelCache> = Arc::new(AtomicCache::serving_default());
    let engine = ServeEngine::start(model, cache, ServeConfig::default(), &Registry::noop());
    assert_eq!(engine.backend(), "frozen-gnn");
    let mut output = Vec::new();
    serve_ndjson(&engine, Cursor::new(input.to_string()), &mut output).expect("serve io");
    engine.shutdown();
    String::from_utf8(output).expect("utf-8 replies")
}

#[test]
fn frozen_backend_is_deterministic_and_named() {
    let gnn = GnnModel::new(GnnConfig {
        hidden: 16,
        opcode_embed_dim: 8,
        hops: 1,
        ..Default::default()
    });
    let blob = FrozenModel::Gnn(freeze_gnn(&gnn, &[]).expect("freeze")).to_bytes();
    let input = request_stream();
    let reference = run_once(&blob, &input);
    assert!(
        reference.contains("\"ns\":"),
        "stream must contain predictions"
    );
    assert!(
        reference.contains("\"backend\":\"frozen-gnn\""),
        "stats reply must name the frozen backend"
    );
    assert_eq!(
        reference,
        run_once(&blob, &input),
        "frozen served bytes differ between runs"
    );
}
