//! Every request is answered on the caller's thread: a hit without the
//! model lock, a miss while holding it. Pinned here: a hit is served while
//! another client's miss is blocked inside the model; the deadline,
//! breaker, budget, shutdown and reload rules hold for a hit as for a batch
//! of one; the registry counts the hits too. For misses under the lock:
//! two clients' misses of one kernel cost one forward, concurrent misses
//! never overshoot the eval budget, and `shutdown` waits for the miss
//! inside the model and then refuses requests and reloads. For a line
//! answered from its text key: a reload reaches it, an open breaker marks
//! it as it marks a canonical hit, and a budget-denied miss stores none.

use std::io::Cursor;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tpu_hlo::Kernel;
use tpu_infer::{freeze_gnn, FrozenModel};
use tpu_learned_cost::{AtomicCache, CostModel, FnCostModel, GnnConfig, GnnModel, KernelCache};
use tpu_obs::Registry;
use tpu_serve::{
    demo_kernels, probe_panel, protocol, serve_ndjson, BreakerConfig, Fallback, ReloadError,
    ReloadPolicy, ServeConfig, ServeEngine, ServeError, ServeOptions,
};

fn nodes(k: &Kernel) -> Option<f64> {
    Some(k.computation.num_nodes() as f64 * 100.0)
}

fn cache() -> Arc<dyn KernelCache> {
    Arc::new(AtomicCache::serving_default())
}

fn start(model: Box<dyn CostModel + Send>, cfg: ServeConfig) -> ServeEngine {
    ServeEngine::start(model, cache(), cfg, &Registry::noop())
}

fn nodes_engine(cfg: ServeConfig) -> ServeEngine {
    start(Box::new(FnCostModel::new("nodes", nodes)), cfg)
}

/// A `nodes` model that blocks on the kernel named like `gate`: each time
/// it is asked for it, it signals `entered`, then waits until `release`
/// is sent to or dropped.
fn gated(gate: &Kernel) -> (Box<dyn CostModel + Send>, Receiver<()>, Sender<()>) {
    let (entered_tx, entered) = mpsc::channel::<()>();
    let (release, released) = mpsc::channel::<()>();
    let gate = gate.computation.name().to_string();
    let model = FnCostModel::new("gated", move |k: &Kernel| {
        if k.computation.name() == gate {
            entered_tx.send(()).unwrap();
            let _ = released.recv();
        }
        nodes(k)
    });
    (Box::new(model), entered, release)
}

/// Submit `kernel` on a thread of its own.
fn submit_on_a_thread(
    engine: &Arc<ServeEngine>,
    kernel: &Kernel,
) -> JoinHandle<Result<Option<f64>, ServeError>> {
    let (engine, kernel) = (Arc::clone(engine), kernel.clone());
    std::thread::spawn(move || engine.submit(kernel))
}

/// Wait until `n` requests have been submitted.
fn wait_for_submitted(engine: &ServeEngine, n: u64) {
    while engine.stats().submitted < n {
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_hit_is_answered_while_another_clients_miss_is_inside_the_model() {
    let kernels = demo_kernels(2);
    let (hot, cold) = (kernels[0].clone(), kernels[1].clone());
    let (model, entered, release) = gated(&cold);
    let engine = Arc::new(start(model, ServeConfig::default()));
    let want = engine.submit(hot.clone()).unwrap();

    let miss = submit_on_a_thread(&engine, &cold);
    entered.recv().unwrap();
    // The miss holds the model lock: a hit that took it too would wait
    // for the release below.
    let (hit_tx, hit) = mpsc::channel();
    {
        let (engine, hot) = (Arc::clone(&engine), hot.clone());
        std::thread::spawn(move || hit_tx.send(engine.submit(hot)).unwrap());
    }
    let answered = hit.recv_timeout(Duration::from_secs(30));
    release.send(()).unwrap();
    assert_eq!(
        answered.expect("the hit waited for the other client's miss"),
        Ok(want)
    );
    assert_eq!(miss.join().unwrap(), Ok(nodes(&cold)));

    let stats = engine.stats();
    assert_eq!(stats.predict.kernels, 3);
    assert_eq!(stats.predict.cache_hits, 1);
    assert_eq!(stats.predict.model_evals, 2);
    assert_eq!(stats.batches, 3, "a hit still counts as one batch");
    engine.shutdown();
}

#[test]
fn a_zero_deadline_hit_is_shed() {
    let engine = nodes_engine(ServeConfig::default());
    let kernel = demo_kernels(1).remove(0);
    engine.submit(kernel.clone()).unwrap();
    assert_eq!(
        engine.submit_with_deadline(kernel.clone(), Some(0)),
        Err(ServeError::DeadlineExpired)
    );
    // Queue age 0: any deadline above 0 is met.
    assert!(engine.submit_with_deadline(kernel, Some(1)).is_ok());
    let stats = engine.stats();
    assert_eq!((stats.deadline_expired, stats.deadline_shed), (1, 1));
    assert_eq!((stats.answered, stats.batches), (2, 3));
    assert_eq!(stats.predict.cache_hits, 1, "a shed hit is not answered");
    engine.shutdown();
}

#[test]
fn a_hit_while_the_breaker_is_open_replies_degraded() {
    let kernels = demo_kernels(2);
    // The primary cannot score the second kernel: asking it trips the
    // breaker.
    let unscorable = kernels[1].computation.name().to_string();
    let primary = FnCostModel::new("primary", move |k: &Kernel| {
        nodes(k).filter(|_| k.computation.name() != unscorable)
    });
    let engine = ServeEngine::start_with(
        Box::new(primary),
        cache(),
        ServeConfig::default(),
        ServeOptions {
            fallback: Some(Fallback {
                model: Box::new(FnCostModel::new("fallback", nodes)),
                breaker: Some(BreakerConfig {
                    trip_after: 1,
                    ..BreakerConfig::default()
                }),
            }),
            ..ServeOptions::default()
        },
        &Registry::noop(),
    );
    let line = protocol::predict_request_line(1, &kernels[0]) + "\n";
    let serve = |input: &str| {
        let mut out = Vec::new();
        serve_ndjson(&engine, Cursor::new(input.to_string()), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    };
    let healthy = serve(&line);
    assert!(!healthy.contains("degraded"), "{healthy}");
    engine.submit(kernels[1].clone()).unwrap();
    let degraded = serve(&line);
    assert_eq!(
        degraded,
        healthy.replace("}\n", ",\"degraded\":true}\n"),
        "a hit reads the breaker as the next batch would"
    );
    let stats = engine.stats();
    assert_eq!(stats.predict.cache_hits, 1);
    // The hit never reached the models: the cool-down is untouched.
    assert_eq!((stats.breaker_trips, stats.breaker_open_served), (1, 0));
    engine.shutdown();
}

#[test]
fn a_hit_is_served_once_the_budget_is_spent() {
    let engine = nodes_engine(ServeConfig {
        eval_budget: Some(1),
        ..ServeConfig::default()
    });
    let kernels = demo_kernels(2);
    let first = engine.submit(kernels[0].clone()).unwrap();
    assert_eq!(
        engine.submit(kernels[1].clone()),
        Err(ServeError::BudgetExhausted)
    );
    assert_eq!(engine.submit(kernels[0].clone()), Ok(first));
    let stats = engine.stats();
    assert_eq!((stats.answered, stats.budget_denied), (2, 1));
    assert_eq!(stats.predict.model_evals, 1);
    assert_eq!(stats.predict.cache_hits, 1);
    engine.shutdown();
}

#[test]
fn a_hit_after_shutdown_is_refused() {
    let engine = nodes_engine(ServeConfig::default());
    let kernel = demo_kernels(1).remove(0);
    engine.submit(kernel.clone()).unwrap();
    engine.shutdown();
    assert_eq!(engine.submit(kernel), Err(ServeError::ShuttingDown));
    let stats = engine.stats();
    assert_eq!(stats.cache_entries, 1, "the kernel was resident");
    assert_eq!((stats.submitted, stats.answered), (2, 1));
}

fn frozen_gnn(seed: u64) -> FrozenModel {
    let model = GnnModel::new(GnnConfig {
        opcode_embed_dim: 8,
        hidden: 16,
        hops: 1,
        seed,
        ..GnnConfig::default()
    });
    FrozenModel::Gnn(freeze_gnn(&model, &probe_panel()).unwrap())
}

#[test]
fn after_a_reload_a_formerly_cached_kernel_gets_the_new_models_value() {
    let (incumbent, candidate) = (frozen_gnn(71), frozen_gnn(72));
    let engine = ServeEngine::start_with(
        Box::new(incumbent.clone()),
        cache(),
        ServeConfig::default(),
        ServeOptions {
            // Admit any ranking: the point is a model with other values.
            reload: Some(ReloadPolicy {
                min_tau: -1.0,
                panel: probe_panel(),
            }),
            ..ServeOptions::default()
        },
        &Registry::noop(),
    );
    let kernel = demo_kernels(1).remove(0);
    let before = engine.submit(kernel.clone()).unwrap();
    assert_eq!(before, incumbent.predict_kernel_ns(&kernel));
    assert_eq!(engine.submit(kernel.clone()).unwrap(), before, "a hit");

    assert_eq!(engine.reload_from_bytes(&candidate.to_bytes()), Ok(1));
    let after = engine.submit(kernel.clone()).unwrap();
    assert_eq!(after, candidate.predict_kernel_ns(&kernel));
    assert_ne!(after, before);
    let stats = engine.stats();
    assert_eq!(
        (stats.predict.cache_hits, stats.predict.model_evals),
        (1, 2)
    );
    engine.shutdown();
}

#[test]
fn the_registry_counts_the_hits_answered_on_the_callers_thread() {
    let registry = Registry::enabled();
    let engine = ServeEngine::start(
        Box::new(FnCostModel::new("nodes", nodes)),
        cache(),
        ServeConfig::default(),
        &registry,
    );
    let kernels = demo_kernels(6);
    for _ in 0..3 {
        for kernel in &kernels {
            engine.submit(kernel.clone()).unwrap();
        }
    }
    let predict = engine.stats().predict;
    assert_eq!((predict.kernels, predict.cache_hits), (18, 12));
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.counter("core.engine.kernels"),
        Some(predict.kernels)
    );
    assert_eq!(
        snapshot.counter("core.engine.cache_hits"),
        Some(predict.cache_hits)
    );
    assert_eq!(
        snapshot.counter("core.engine.model_evals"),
        Some(predict.model_evals)
    );
    engine.shutdown();
}

#[test]
fn two_clients_missing_one_kernel_cost_one_forward() {
    let kernel = demo_kernels(1).remove(0);
    let (model, entered, release) = gated(&kernel);
    let engine = Arc::new(start(model, ServeConfig::default()));
    let first = submit_on_a_thread(&engine, &kernel);
    entered.recv().unwrap();
    let second = submit_on_a_thread(&engine, &kernel);
    wait_for_submitted(&engine, 2);
    drop(release);
    let (a, b) = (first.join().unwrap(), second.join().unwrap());
    assert_eq!(a, Ok(nodes(&kernel)));
    assert_eq!(a, b);
    let stats = engine.stats();
    assert_eq!(
        stats.predict.model_evals, 1,
        "the second miss re-probes under the lock"
    );
    assert_eq!((stats.predict.kernels, stats.predict.cache_hits), (2, 1));
}

#[test]
fn concurrent_misses_never_overshoot_the_eval_budget() {
    let kernels = demo_kernels(4);
    let (model, entered, release) = gated(&kernels[0]);
    let engine = Arc::new(start(
        model,
        ServeConfig {
            eval_budget: Some(3),
            ..ServeConfig::default()
        },
    ));
    // The first miss holds the model while the other three arrive: a
    // batch of them would have spent 3 evaluations at once.
    let mut clients = vec![submit_on_a_thread(&engine, &kernels[0])];
    entered.recv().unwrap();
    clients.extend(kernels[1..].iter().map(|k| submit_on_a_thread(&engine, k)));
    wait_for_submitted(&engine, 4);
    drop(release);
    let replies: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    assert_eq!(replies[0], Ok(nodes(&kernels[0])));
    let denied = replies
        .iter()
        .filter(|r| **r == Err(ServeError::BudgetExhausted))
        .count();
    assert_eq!(denied, 1, "{replies:?}");
    let stats = engine.stats();
    assert_eq!(stats.predict.model_evals, 3);
    assert_eq!(stats.answered + stats.budget_denied, stats.submitted);
}

#[test]
fn shutdown_waits_for_the_miss_inside_the_model_then_refuses_work() {
    let kernels = demo_kernels(2);
    let (hot, cold) = (kernels[0].clone(), kernels[1].clone());
    let (model, entered, release) = gated(&cold);
    let engine = Arc::new(ServeEngine::start_with(
        model,
        cache(),
        ServeConfig::default(),
        ServeOptions {
            reload: Some(ReloadPolicy {
                min_tau: -1.0,
                panel: probe_panel(),
            }),
            ..ServeOptions::default()
        },
        &Registry::noop(),
    ));
    engine.submit(hot.clone()).unwrap();
    let miss = submit_on_a_thread(&engine, &cold);
    entered.recv().unwrap();
    let shutdown = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || engine.shutdown())
    };
    // A hit checks the flag without the model lock: once it is refused,
    // shutdown has begun while the miss is still inside the model.
    while engine.submit(hot.clone()) != Err(ServeError::ShuttingDown) {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        !shutdown.is_finished(),
        "shutdown did not wait for the miss"
    );
    drop(release);
    shutdown.join().unwrap();
    assert_eq!(miss.join().unwrap(), Ok(nodes(&cold)));
    assert_eq!(engine.submit(cold), Err(ServeError::ShuttingDown));
    assert_eq!(
        engine.reload_from_bytes(&frozen_gnn(72).to_bytes()),
        Err(ReloadError::ShuttingDown)
    );
}

/// Serve `input` through `serve_ndjson` and return the replies.
fn serve_lines(engine: &ServeEngine, input: &str) -> String {
    let mut out = Vec::new();
    serve_ndjson(engine, Cursor::new(input.to_string()), &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

#[test]
fn after_a_reload_a_text_served_before_is_scored_by_the_new_model() {
    let (incumbent, candidate) = (frozen_gnn(71), frozen_gnn(72));
    let engine = ServeEngine::start_with(
        Box::new(incumbent.clone()),
        cache(),
        ServeConfig::default(),
        ServeOptions {
            reload: Some(ReloadPolicy {
                min_tau: -1.0,
                panel: probe_panel(),
            }),
            ..ServeOptions::default()
        },
        &Registry::noop(),
    );
    let kernel = demo_kernels(1).remove(0);
    let line = protocol::predict_request_line(1, &kernel) + "\n";
    let reply = |ns| protocol::predict_reply(1, ns, false) + "\n";
    let before = incumbent.predict_kernel_ns(&kernel);
    // A miss, then a text hit.
    assert_eq!(
        serve_lines(&engine, &line.repeat(2)),
        reply(before).repeat(2)
    );
    assert_eq!(
        engine.stats().cache_entries,
        2,
        "a canonical and a text slot"
    );

    assert_eq!(engine.reload_from_bytes(&candidate.to_bytes()), Ok(1));
    let after = candidate.predict_kernel_ns(&kernel);
    assert_ne!(after, before);
    // The old text entry is gone and would be unreachable if it were not:
    // the model runs once more, and its answer is the new text hit's.
    assert_eq!(
        serve_lines(&engine, &line.repeat(2)),
        reply(after).repeat(2)
    );
    let stats = engine.stats();
    assert_eq!(
        (stats.predict.cache_hits, stats.predict.model_evals),
        (2, 2)
    );
    assert_eq!(stats.cache_entries, 2);
    engine.shutdown();
}

#[test]
fn with_the_breaker_open_a_text_hit_answers_as_the_canonical_path() {
    let kernels = demo_kernels(2);
    let unscorable = kernels[1].computation.name().to_string();
    let primary = FnCostModel::new("primary", move |k: &Kernel| {
        nodes(k)
            .map(|ns| ns + 0.25)
            .filter(|_| k.computation.name() != unscorable)
    });
    let engine = ServeEngine::start_with(
        Box::new(primary),
        cache(),
        ServeConfig::default(),
        ServeOptions {
            fallback: Some(Fallback {
                model: Box::new(FnCostModel::new("fallback", nodes)),
                breaker: Some(BreakerConfig {
                    trip_after: 1,
                    ..BreakerConfig::default()
                }),
            }),
            ..ServeOptions::default()
        },
        &Registry::noop(),
    );
    let line = protocol::predict_request_line(1, &kernels[0]) + "\n";
    serve_lines(&engine, &line);
    // Asking the primary for the second kernel trips the breaker open.
    engine.submit(kernels[1].clone()).unwrap();
    let canonical = engine
        .submit_with_deadline(kernels[0].clone(), None)
        .unwrap();
    assert!(canonical.degraded);
    assert_eq!(canonical.ns, nodes(&kernels[0]).map(|ns| ns + 0.25));
    let text_hit = serve_lines(&engine, &line);
    assert_eq!(
        text_hit,
        protocol::predict_reply(1, canonical.ns, canonical.degraded) + "\n"
    );
    let stats = engine.stats();
    assert_eq!(stats.predict.cache_hits, 2);
    assert_eq!((stats.breaker_trips, stats.breaker_open_served), (1, 0));
    engine.shutdown();
}

#[test]
fn a_budget_denied_miss_stores_no_text_key() {
    let engine = nodes_engine(ServeConfig {
        eval_budget: Some(1),
        ..ServeConfig::default()
    });
    let kernels = demo_kernels(2);
    let line = |i: usize| protocol::predict_request_line(i as u64, &kernels[i]) + "\n";
    serve_lines(&engine, &line(0));
    assert_eq!(engine.stats().cache_entries, 2);
    let denied = serve_lines(&engine, &line(1).repeat(2));
    assert_eq!(denied.matches("\"code\":\"budget\"").count(), 2, "{denied}");
    let stats = engine.stats();
    assert_eq!(stats.cache_entries, 2, "nothing stored for the denied text");
    assert_eq!((stats.budget_denied, stats.predict.cache_hits), (2, 0));
    // The budget-spent path still answers a resident kernel, from its text.
    assert!(serve_lines(&engine, &line(0)).contains("\"ok\":true"));
    assert_eq!(engine.stats().predict.cache_hits, 1);
    engine.shutdown();
}
