//! Resilience suite for the hardened serving stack: deadlines, the
//! backend circuit breaker, panic isolation, and validated hot reload.
//!
//! The tentpole claim is *graceful degradation with a deterministic
//! story*: a scripted kill-the-backend run (NaN storm, a panicking
//! backend, a corrupt reload, a deadline storm) must answer 100% of its
//! requests — some degraded, some with typed denials, none dropped —
//! and every resilience decision (breaker trips, probe points, degraded
//! markers, deadline expiries) must be a pure function of the request
//! sequence, pinned here request by request and replayed bit-identically.

use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tpu_repro::infer::{freeze_gnn, freeze_lstm, FrozenModel};
use tpu_repro::learned::{
    AtomicCache, CostModel, FnCostModel, GnnConfig, GnnModel, KernelCache, LstmConfig, LstmModel,
    SimOracle,
};
use tpu_repro::obs::Registry;
use tpu_repro::serve::{
    demo_kernels, probe_panel, protocol, serve_ndjson, BreakerConfig, Fallback, ReloadPolicy,
    ServeConfig, ServeEngine, ServeError, ServeOptions, TickClock,
};
use tpu_repro::sim::TpuConfig;

fn fresh_cache() -> Arc<dyn KernelCache> {
    Arc::new(AtomicCache::serving_default())
}

fn reload_policy() -> ReloadPolicy {
    ReloadPolicy {
        min_tau: 0.99,
        panel: probe_panel(),
    }
}

/// The simulator oracle behind the primary, routed by a breaker.
fn oracle_fallback(trip_after: u32, cooldown: u64) -> Option<Fallback> {
    Some(Fallback {
        model: Box::new(SimOracle::new(TpuConfig::default())),
        breaker: Some(BreakerConfig {
            trip_after,
            cooldown,
        }),
    })
}

/// A small frozen GNN blob (the reload fixture).
fn frozen_gnn_blob(seed: u64) -> Vec<u8> {
    let model = GnnModel::new(GnnConfig {
        opcode_embed_dim: 8,
        hidden: 16,
        hops: 1,
        seed,
        ..GnnConfig::default()
    });
    FrozenModel::Gnn(freeze_gnn(&model, &probe_panel()).unwrap()).to_bytes()
}

// ---------------------------------------------------------------------------
// Circuit breaker: deterministic trip / cool-down / probe / re-close.
// ---------------------------------------------------------------------------

/// Scripted primary: healthy for the first `good` calls, unscorable for
/// the next `bad`, healthy again after. Call order is the only input,
/// so the breaker's whole trajectory is fixed by the request sequence.
fn scripted_primary(good: usize, bad: usize) -> (Box<dyn CostModel + Send>, Arc<AtomicUsize>) {
    let calls = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&calls);
    let model = FnCostModel::new("scripted", move |k: &tpu_repro::hlo::Kernel| {
        let i = seen.fetch_add(1, Ordering::SeqCst);
        (i < good || i >= good + bad).then(|| k.computation.num_nodes() as f64 * 100.0)
    });
    (Box::new(model), calls)
}

#[test]
fn breaker_trip_cooldown_and_probe_are_request_count_deterministic() {
    let (primary, _calls) = scripted_primary(2, 2);
    let engine = ServeEngine::start_with(
        primary,
        fresh_cache(),
        ServeConfig::default(),
        ServeOptions {
            fallback: oracle_fallback(2, 3),
            ..ServeOptions::default()
        },
        &Registry::noop(),
    );

    // Nine distinct kernels; serial submits keep every batch at size 1.
    // Expected degraded markers: closed(2 good), closed(2 bad -> trip at
    // the 4th), open(3 cool-down), probe (state read pre-batch is still
    // open), closed again.
    let expected_degraded = [false, false, false, false, true, true, true, true, false];
    for (i, kernel) in demo_kernels(9).into_iter().enumerate() {
        let p = engine
            .submit_with_deadline(kernel, None)
            .unwrap_or_else(|e| panic!("request {i} denied: {e:?}"));
        let ns = p.ns.unwrap_or_else(|| panic!("request {i} unscored"));
        assert!(ns.is_finite() && ns > 0.0, "request {i}: ns {ns}");
        assert_eq!(
            p.degraded, expected_degraded[i],
            "request {i}: degraded marker"
        );
    }

    let stats = engine.stats();
    assert_eq!(stats.breaker_trips, 1, "exactly one trip");
    assert_eq!(stats.breaker_open_served, 3, "cool-down burns 3 requests");
    assert_eq!(stats.breaker_state_name(), "closed", "probe re-closed it");
    assert_eq!(stats.backend_panics, 0);
    engine.shutdown();
}

#[test]
fn failed_probe_reopens_and_fallback_keeps_answering() {
    // Bad streak long enough that the first probe still hits it.
    let (primary, _calls) = scripted_primary(0, 3);
    let engine = ServeEngine::start_with(
        primary,
        fresh_cache(),
        ServeConfig::default(),
        ServeOptions {
            fallback: oracle_fallback(2, 1),
            ..ServeOptions::default()
        },
        &Registry::noop(),
    );

    // bad,bad -> trip; open(1); probe hits the 3rd bad call -> re-trip;
    // open(1); probe hits a good call -> closed.
    for (i, kernel) in demo_kernels(6).into_iter().enumerate() {
        let p = engine.submit_with_deadline(kernel, None).unwrap();
        assert!(p.ns.is_some(), "request {i} must still be answered");
    }
    let stats = engine.stats();
    assert_eq!(stats.breaker_trips, 2, "failed probe must re-trip");
    assert_eq!(stats.breaker_state_name(), "closed");
    engine.shutdown();
}

// ---------------------------------------------------------------------------
// Panic isolation.
// ---------------------------------------------------------------------------

#[test]
fn backend_panic_fails_one_batch_trips_the_breaker_and_serving_continues() {
    let calls = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&calls);
    let primary: Box<dyn CostModel + Send> = Box::new(FnCostModel::new(
        "panicky",
        move |k: &tpu_repro::hlo::Kernel| {
            if seen.fetch_add(1, Ordering::SeqCst) == 2 {
                panic!("injected backend failure");
            }
            Some(k.computation.num_nodes() as f64 * 100.0)
        },
    ));
    let engine = ServeEngine::start_with(
        primary,
        fresh_cache(),
        ServeConfig::default(),
        ServeOptions {
            fallback: oracle_fallback(10, 2),
            ..ServeOptions::default()
        },
        &Registry::noop(),
    );

    let kernels = demo_kernels(7);
    // Two healthy requests, then the panicking one.
    for kernel in &kernels[..2] {
        assert!(engine.submit(kernel.clone()).unwrap().is_some());
    }
    assert_eq!(
        engine.submit(kernels[2].clone()),
        Err(ServeError::BackendPanic),
        "the batch holding the panic fails typed, not the daemon"
    );

    // force_trip opened the breaker: two degraded requests burn the
    // cool-down, the probe succeeds, service re-closes.
    for (i, kernel) in kernels[3..5].iter().enumerate() {
        let p = engine.submit_with_deadline(kernel.clone(), None).unwrap();
        assert!(p.degraded, "cool-down request {i} must be marked degraded");
        assert!(p.ns.is_some(), "fallback must still answer");
    }
    let probe = engine
        .submit_with_deadline(kernels[5].clone(), None)
        .unwrap();
    assert!(probe.ns.is_some());
    let after = engine
        .submit_with_deadline(kernels[6].clone(), None)
        .unwrap();
    assert!(!after.degraded, "service must be healthy after the probe");

    let stats = engine.stats();
    assert_eq!(stats.backend_panics, 1);
    assert_eq!(stats.breaker_trips, 1, "panic must trip via force_trip");
    assert_eq!(stats.breaker_state_name(), "closed");
    engine.shutdown();
}

// ---------------------------------------------------------------------------
// Deadlines under a deterministic clock.
// ---------------------------------------------------------------------------

#[test]
fn deadlines_shed_expired_work_and_report_slow_batches_typed() {
    // Every clock read advances 3 ms: a miss arrives at T, the check once
    // it holds the model lock sees T+3, the check after the model T+6.
    let clock = Arc::new(TickClock::advancing(3));
    let model: Box<dyn CostModel + Send> =
        Box::new(FnCostModel::new("flat", |k: &tpu_repro::hlo::Kernel| {
            Some(k.computation.num_nodes() as f64 * 10.0)
        }));
    let engine = ServeEngine::start_with(
        model,
        fresh_cache(),
        ServeConfig::default(),
        ServeOptions {
            clock,
            ..ServeOptions::default()
        },
        &Registry::noop(),
    );

    let kernels = demo_kernels(12);
    // Deadline 2 ms < 3 ms queue age: shed before the model runs.
    for kernel in &kernels[..4] {
        assert_eq!(
            engine.submit_with_deadline(kernel.clone(), Some(2)),
            Err(ServeError::DeadlineExpired)
        );
    }
    // Deadline 4 ms: survives the pre-check (age 3) but the post-batch
    // check (age 6) reports it expired — never silently served late.
    assert_eq!(
        engine.submit_with_deadline(kernels[4].clone(), Some(4)),
        Err(ServeError::DeadlineExpired)
    );
    // No deadline and a generous one: answered.
    assert!(engine.submit(kernels[5].clone()).unwrap().is_some());
    assert!(engine
        .submit_with_deadline(kernels[6].clone(), Some(1_000_000))
        .unwrap()
        .ns
        .is_some());

    let stats = engine.stats();
    assert_eq!(stats.deadline_expired, 5);
    assert_eq!(stats.deadline_shed, 4, "only pre-batch expiries are sheds");
    engine.shutdown();

    // A server-side default deadline applies to requests that carry none,
    // and an explicit per-request deadline overrides it.
    let clock = Arc::new(TickClock::advancing(3));
    let model: Box<dyn CostModel + Send> =
        Box::new(FnCostModel::new("flat", |k: &tpu_repro::hlo::Kernel| {
            Some(k.computation.num_nodes() as f64 * 10.0)
        }));
    let engine = ServeEngine::start_with(
        model,
        fresh_cache(),
        ServeConfig {
            deadline_ms: Some(2),
            ..ServeConfig::default()
        },
        ServeOptions {
            clock,
            ..ServeOptions::default()
        },
        &Registry::noop(),
    );
    assert_eq!(
        engine.submit(kernels[7].clone()),
        Err(ServeError::DeadlineExpired),
        "the server default must apply"
    );
    assert!(
        engine
            .submit_with_deadline(kernels[8].clone(), Some(1_000_000))
            .unwrap()
            .ns
            .is_some(),
        "an explicit deadline must override the default"
    );
    engine.shutdown();
}

// ---------------------------------------------------------------------------
// Validated hot reload.
// ---------------------------------------------------------------------------

#[test]
fn reload_admission_accepts_equivalent_rejects_corrupt_and_low_tau() {
    let blob = frozen_gnn_blob(71);
    let incumbent = FrozenModel::from_bytes(&blob).unwrap();
    let model: Box<dyn CostModel + Send> = Box::new(incumbent.clone());
    let engine = ServeEngine::start_with(
        model,
        fresh_cache(),
        ServeConfig::default(),
        ServeOptions {
            reload: Some(reload_policy()),
            ..ServeOptions::default()
        },
        &Registry::noop(),
    );

    let kernel = demo_kernels(1).remove(0);
    let before = engine.submit(kernel.clone()).unwrap().unwrap();

    // A low-tau candidate (a frozen LSTM with a different seed ranks the
    // probe panel differently) is rejected and the incumbent keeps serving.
    let lstm = LstmModel::new(LstmConfig {
        seed: 7,
        ..LstmConfig::default()
    });
    let alien = FrozenModel::Lstm(freeze_lstm(&lstm, &probe_panel()).unwrap()).to_bytes();
    let err = engine.reload_from_bytes(&alien).unwrap_err();
    assert_eq!(err.reason(), "tau", "wrong rejection: {}", err.message());

    // Corrupt bytes are rejected at parse.
    let err = engine.reload_from_bytes(&blob[..40]).unwrap_err();
    assert_eq!(err.reason(), "parse");

    // A missing path is an io rejection (with a policy installed).
    let err = engine
        .reload_from_path("/tmp/definitely-missing.blob")
        .unwrap_err();
    assert_eq!(err.reason(), "io");

    // The very same bytes are tau = 1.0 against the incumbent: admitted,
    // epoch bumped, and served values unchanged.
    let epoch = engine.reload_from_bytes(&blob).unwrap();
    assert_eq!(epoch, 1);
    let after = engine.submit(kernel).unwrap().unwrap();
    assert_eq!(
        before.to_bits(),
        after.to_bits(),
        "reloading identical bytes must not change served values"
    );

    let stats = engine.stats();
    assert_eq!(stats.reloads, 1);
    assert_eq!(stats.reloads_rejected, 3);
    assert_eq!(stats.epoch, 1);
    // One request before the swap, one after: counters carry across the
    // swap, the swap cleared the cache (so the repeat is an eval, not a
    // hit), and admission's panel scoring is not counted.
    assert_eq!(stats.predict.kernels, 2);
    assert_eq!(stats.predict.model_evals, 2);
    assert_eq!(stats.predict.cache_hits, 0);
    engine.shutdown();
}

/// The int16 `tpu-frozen.v1` format has no reader any more: a blob an
/// operator froze before the format change must be refused at the door,
/// loudly and typed, with the incumbent untouched.
#[test]
fn reloading_a_v1_blob_is_rejected_at_parse_and_the_incumbent_keeps_serving() {
    let v1_blob = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/infer/tests/golden_frozen_v1.blob"
    );
    let incumbent = FrozenModel::from_bytes(&frozen_gnn_blob(71)).unwrap();
    let engine = ServeEngine::start_with(
        Box::new(incumbent.clone()),
        fresh_cache(),
        ServeConfig::default(),
        ServeOptions {
            reload: Some(reload_policy()),
            ..ServeOptions::default()
        },
        &Registry::noop(),
    );
    let kernels = demo_kernels(2);
    let input = [
        protocol::predict_request_line(1, &kernels[0]),
        protocol::reload_request_line(2, v1_blob),
        protocol::simple_request_line("stats", 3),
    ]
    .join("\n");
    let mut output = Vec::new();
    serve_ndjson(&engine, Cursor::new(input), &mut output).expect("serve io");
    let output = String::from_utf8(output).expect("utf-8 replies");
    let replies: Vec<&str> = output.lines().collect();
    assert_eq!(replies.len(), 3, "{output}");
    assert!(replies[0].contains("\"ok\":true"), "{}", replies[0]);
    for field in [
        "\"code\":\"reload_rejected\"",
        "\"reason\":\"parse\"",
        "unsupported tpu-frozen version 1",
    ] {
        assert!(
            replies[1].contains(field),
            "reload reply missing {field}: {}",
            replies[1]
        );
    }
    for field in ["\"reloads\":0", "\"reloads_rejected\":1", "\"epoch\":0"] {
        assert!(
            replies[2].contains(field),
            "stats missing {field}: {}",
            replies[2]
        );
    }
    // A kernel the cache has never seen: the model itself answers, and it
    // is still the incumbent, bit for bit.
    let after = engine.submit(kernels[1].clone()).unwrap().unwrap();
    let direct = incumbent.predict_kernel_ns(&kernels[1]).unwrap();
    assert_eq!(after.to_bits(), direct.to_bits());
    engine.shutdown();
}

#[test]
fn mid_load_reload_drops_no_requests() {
    let blob = Arc::new(frozen_gnn_blob(71));
    let model: Box<dyn CostModel + Send> = Box::new(FrozenModel::from_bytes(&blob).unwrap());
    let engine = Arc::new(ServeEngine::start_with(
        model,
        fresh_cache(),
        ServeConfig::default(),
        ServeOptions {
            reload: Some(reload_policy()),
            ..ServeOptions::default()
        },
        &Registry::noop(),
    ));

    // Four clients hammer predictions while the main thread swaps the
    // model (same bytes, so values cannot change) and also attempts a
    // corrupt reload. Every request must be answered with a finite ns.
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let kernels = demo_kernels(12);
                let mut answered = 0usize;
                for round in 0..40 {
                    let kernel = kernels[(c + round) % kernels.len()].clone();
                    match engine.submit(kernel) {
                        Ok(Some(ns)) if ns.is_finite() => answered += 1,
                        other => panic!("client {c} round {round}: {other:?}"),
                    }
                }
                answered
            })
        })
        .collect();

    let mut epochs = Vec::new();
    for _ in 0..3 {
        epochs.push(
            engine
                .reload_from_bytes(&blob)
                .expect("same-bytes reload admits"),
        );
    }
    assert_eq!(
        engine.reload_from_bytes(&blob[..32]).unwrap_err().reason(),
        "parse"
    );

    let answered: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert_eq!(answered, 160, "every in-flight request must be answered");
    assert_eq!(epochs, vec![1, 2, 3]);
    let stats = engine.stats();
    assert_eq!(stats.reloads, 3);
    assert_eq!(stats.reloads_rejected, 1);
    assert_eq!(stats.epoch, 3);
    engine.shutdown();
}

// ---------------------------------------------------------------------------
// The scripted kill-the-backend run, replayed.
// ---------------------------------------------------------------------------

/// The full outage transcript: healthy traffic, a NaN storm that trips
/// the breaker, cool-down + probe recovery, a backend panic (second
/// trip), a deadline storm, a corrupt reload, healthy tail, stats.
fn outage_transcript(corrupt_blob_path: &str) -> String {
    let kernels = demo_kernels(15);
    let mut lines: Vec<String> = kernels[..13]
        .iter()
        .enumerate()
        .map(|(i, k)| protocol::predict_request_line(i as u64 + 1, k))
        .collect();
    lines.push(protocol::predict_request_line_with_deadline(
        14,
        &kernels[13],
        Some(0),
    ));
    lines.push(protocol::reload_request_line(15, corrupt_blob_path));
    lines.push(protocol::predict_request_line(16, &kernels[14]));
    lines.push(protocol::simple_request_line("stats", 17));
    lines.push(protocol::simple_request_line("shutdown", 18));
    lines.join("\n") + "\n"
}

/// One serve run over a fresh scripted engine; returns the reply bytes.
///
/// Primary script by call index: 4 good, 2 unscorable (the NaN storm),
/// 1 good (the probe), 1 panic, good after. Breaker: trip after 2
/// consecutive bad, cool down for 2 requests.
fn run_outage(input: &str) -> String {
    let calls = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&calls);
    let primary: Box<dyn CostModel + Send> = Box::new(FnCostModel::new(
        "scripted",
        move |k: &tpu_repro::hlo::Kernel| {
            let i = seen.fetch_add(1, Ordering::SeqCst);
            if i == 7 {
                panic!("injected backend failure");
            }
            (!(4..6).contains(&i)).then(|| k.computation.num_nodes() as f64 * 100.0)
        },
    ));
    let engine = ServeEngine::start_with(
        primary,
        fresh_cache(),
        ServeConfig::default(),
        ServeOptions {
            fallback: oracle_fallback(2, 2),
            reload: Some(reload_policy()),
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
fn scripted_outage_answers_every_request_and_replays_across_runs() {
    let corrupt_path = std::env::temp_dir().join(format!(
        "tpu_resilience_corrupt_{}.blob",
        std::process::id()
    ));
    std::fs::write(&corrupt_path, &frozen_gnn_blob(71)[..40]).unwrap();
    let input = outage_transcript(corrupt_path.to_str().unwrap());

    let reference = run_outage(&input);

    // 100% answered: one reply line per request line.
    let replies: Vec<&str> = reference.lines().collect();
    assert_eq!(replies.len(), 18, "every request line must be replied to");

    // Request-by-request resilience trajectory (serial stream, so each
    // request is its own batch and the breaker walk is exact):
    // 1-4   healthy primary        -> ok, not degraded
    // 5-6   NaN storm, fallback    -> ok, not degraded (trip lands at 6)
    // 7-8   open: cool-down        -> ok, degraded
    // 9     probe (healthy again)  -> ok, degraded marker still set
    // 10    backend panic          -> backend_panic error, second trip
    // 11-12 open: cool-down        -> ok, degraded
    // 13    probe                  -> ok, degraded marker still set
    // 14    deadline 0             -> deadline error
    // 15    corrupt reload         -> reload_rejected (parse)
    // 16    healthy tail           -> ok, not degraded
    for (idx, line) in replies[..9].iter().enumerate() {
        assert!(line.contains("\"ok\":true"), "reply {}: {line}", idx + 1);
    }
    for idx in [0, 1, 2, 3, 4, 5] {
        assert!(
            !replies[idx].contains("degraded"),
            "reply {}: {}",
            idx + 1,
            replies[idx]
        );
    }
    for idx in [6, 7, 8] {
        assert!(
            replies[idx].contains("\"degraded\":true"),
            "reply {}: {}",
            idx + 1,
            replies[idx]
        );
    }
    assert!(
        replies[9].contains("\"code\":\"backend_panic\""),
        "reply 10: {}",
        replies[9]
    );
    for idx in [10, 11, 12] {
        assert!(
            replies[idx].contains("\"ok\":true") && replies[idx].contains("\"degraded\":true"),
            "reply {}: {}",
            idx + 1,
            replies[idx]
        );
    }
    assert!(
        replies[13].contains("\"code\":\"deadline\""),
        "reply 14: {}",
        replies[13]
    );
    assert!(
        replies[14].contains("\"code\":\"reload_rejected\"")
            && replies[14].contains("\"reason\":\"parse\""),
        "reply 15: {}",
        replies[14]
    );
    assert!(
        replies[15].contains("\"ok\":true") && !replies[15].contains("degraded"),
        "reply 16: {}",
        replies[15]
    );
    let stats = replies[16];
    for field in [
        "\"deadline_expired\":1",
        "\"backend_panics\":1",
        "\"reloads_rejected\":1",
        "\"breaker_trips\":2",
        "\"breaker_open_served\":4",
        "\"breaker\":\"closed\"",
        "\"epoch\":0",
    ] {
        assert!(stats.contains(field), "stats missing {field}: {stats}");
    }
    assert!(replies[17].contains("\"shutdown\":true"));

    // Bit-identical replay: the breaker is request-count based and the
    // degraded marker is read before the model runs, so no thread's timing
    // can leak into a single byte of the reply stream.
    assert_eq!(
        reference,
        run_outage(&input),
        "outage replies differ between runs"
    );
    let _ = std::fs::remove_file(corrupt_path);
}
