//! Fault-injected serving: the daemon over a chaos device must stay
//! total and replayable.
//!
//! The engine serves the chaos device with the fault-free simulator oracle
//! as its fallback. Two claims are pinned here, mirroring how
//! `tpu-serve --faults SEED --no-breaker` wires the daemon:
//!
//! 1. **Totality**: with every fault class enabled on the primary
//!    device, every predict reply still carries a finite, positive `ns`
//!    — a fault becomes a fallback, never an error or a `null`.
//! 2. **Replay**: the chaos run is bit-identical under the same seed.
//!    The device's fault stream is seeded RNG state mutated per
//!    measurement, and the serial stdin frontend fixes the request
//!    order, so a fresh engine over the same seed serves byte-identical
//!    replies — which is what makes fault reports debuggable.

use std::io::Cursor;
use std::sync::Arc;
use tpu_repro::learned::{AtomicCache, SimOracle};
use tpu_repro::obs::Registry;
use tpu_repro::serve::{
    demo_kernels, protocol, serve_ndjson, DeviceModel, Fallback, ServeConfig, ServeEngine,
    ServeOptions,
};
use tpu_repro::sim::TpuConfig;

fn request_stream() -> String {
    let kernels = demo_kernels(16);
    let mut lines = Vec::new();
    for (id, k) in kernels.iter().enumerate() {
        lines.push(protocol::predict_request_line(id as u64, k));
    }
    // Revisits: replies must come from the cache, fault-free by construction.
    for (id, k) in kernels.iter().enumerate() {
        lines.push(protocol::predict_request_line((100 + id) as u64, k));
    }
    lines.push(protocol::simple_request_line("shutdown", 999));
    lines.join("\n") + "\n"
}

/// One serve run over a fresh chaos-device + oracle fallback engine.
fn run_once(seed: u64, input: &str) -> String {
    let fallback = Fallback {
        model: Box::new(SimOracle::new(TpuConfig::default())),
        breaker: None,
    };
    let engine = ServeEngine::start_with(
        Box::new(DeviceModel::chaos(seed)),
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
    let input = request_stream();
    let first = run_once(23, &input);

    // Totality: every predict reply is ok with a finite positive ns.
    let mut predictions = 0;
    for line in first.lines() {
        if line.contains("\"shutdown\":true") {
            continue;
        }
        assert!(
            line.contains("\"ok\":true"),
            "chaos serving produced a non-ok reply: {line}"
        );
        let ns_field = line
            .split("\"ns\":")
            .nth(1)
            .unwrap_or_else(|| panic!("predict reply without ns: {line}"));
        let ns: f64 = ns_field
            .trim_end_matches('}')
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric ns (fallback must fill nulls): {line}"));
        assert!(ns.is_finite() && ns > 0.0, "non-finite served ns: {line}");
        predictions += 1;
    }
    assert_eq!(predictions, 32, "every predict request must be answered");

    // Replay: same seed, fresh engine, byte-identical transcript.
    let second = run_once(23, &input);
    assert_eq!(first, second, "chaos run must replay bit-identically");

    // Sanity that the seed actually matters (the faults are real): a
    // different seed is allowed to differ — and with every fault class
    // enabled at chaos rates, it does.
    let other = run_once(24, &input);
    assert_ne!(
        first, other,
        "different chaos seeds should perturb served values"
    );
}
