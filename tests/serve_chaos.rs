//! Fallback serving: a primary that cannot score some kernels must still
//! leave the daemon total, exact and replayable.
//!
//! The engine serves a primary that answers `None` or `NaN` for a subset
//! of kernels picked by canonical hash, with the simulator oracle as its
//! fallback and no breaker. Three claims are pinned here:
//!
//! 1. **Rescue**: each reply for a kernel the primary could not score
//!    carries the oracle's prediction, bit for bit.
//! 2. **Pass-through**: every other reply carries the primary's
//!    prediction, bit for bit — the fallback never answers for it.
//! 3. **Replay**: the serial stdin frontend fixes the request order, so a
//!    fresh engine serves a byte-identical transcript.

use std::io::Cursor;
use std::sync::Arc;
use tpu_repro::hlo::{canonical_kernel_hash, Kernel};
use tpu_repro::learned::{AtomicCache, FnCostModel, SimOracle};
use tpu_repro::obs::Registry;
use tpu_repro::serve::{
    demo_kernels, protocol, serve_ndjson, Fallback, ServeConfig, ServeEngine, ServeOptions,
};
use tpu_repro::sim::{kernel_time_ns, TpuConfig};

/// What the primary answers for `kernel`: nothing for one hash class,
/// `NaN` for another, and twice the oracle otherwise (so its answers are
/// never the oracle's bits).
fn primary_ns(kernel: &Kernel) -> Option<f64> {
    match canonical_kernel_hash(kernel) % 4 {
        0 => None,
        1 => Some(f64::NAN),
        _ => Some(2.0 * kernel_time_ns(kernel, &TpuConfig::default())),
    }
}

/// The request stream and the reply each predict line must get.
fn requests() -> (String, Vec<String>) {
    let kernels = demo_kernels(16);
    let mut lines = Vec::new();
    let mut expected = Vec::new();
    // The second pass revisits every kernel: its replies come from the
    // cache and must not change.
    for pass in [0, 100] {
        for (i, k) in kernels.iter().enumerate() {
            let id = (pass + i) as u64;
            lines.push(protocol::predict_request_line(id, k));
            let ns = primary_ns(k)
                .filter(|ns| ns.is_finite())
                .unwrap_or_else(|| kernel_time_ns(k, &TpuConfig::default()));
            expected.push(protocol::predict_reply(id, Some(ns), false));
        }
    }
    lines.push(protocol::simple_request_line("shutdown", 999));
    (lines.join("\n") + "\n", expected)
}

/// One serve run over a fresh engine: the partial primary, the oracle
/// fallback, no breaker.
fn run_once(input: &str) -> String {
    let fallback = Fallback {
        model: Box::new(SimOracle::new(TpuConfig::default())),
        breaker: None,
    };
    let engine = ServeEngine::start_with(
        Box::new(FnCostModel::new("partial", primary_ns)),
        Arc::new(AtomicCache::serving_default()),
        ServeConfig::default(),
        ServeOptions {
            fallback: Some(fallback),
            ..ServeOptions::default()
        },
        &Registry::noop(),
    );
    let mut output = Vec::new();
    serve_ndjson(&engine, Cursor::new(input.to_string()), &mut output).expect("serve io");
    engine.shutdown();
    String::from_utf8(output).expect("utf-8 replies")
}

#[test]
fn chaos_served_predictions_stay_finite_and_replay_bit_identically() {
    // The hash classes are all present among the demo kernels, so the
    // rescue and the pass-through are both exercised.
    let classes: Vec<u64> = demo_kernels(16)
        .iter()
        .map(|k| canonical_kernel_hash(k) % 4)
        .collect();
    for class in [0, 1] {
        assert!(classes.contains(&class), "no kernel of class {class}");
    }
    assert!(
        classes.iter().any(|&c| c > 1),
        "no kernel the primary scores"
    );

    let (input, expected) = requests();
    let first = run_once(&input);
    let replies: Vec<&str> = first.lines().collect();
    assert_eq!(replies.len(), expected.len() + 1, "{first}");
    for (reply, want) in replies.iter().zip(&expected) {
        assert_eq!(reply, want);
    }
    assert!(
        replies[expected.len()].contains("\"shutdown\":true"),
        "{first}"
    );

    // Replay: a fresh engine, a byte-identical transcript.
    assert_eq!(
        first,
        run_once(&input),
        "the run must replay bit-identically"
    );
}
