//! A cache hit is answered on the caller's thread; only a miss goes to the
//! worker. Pinned here: a hit is served while another client's miss is
//! blocked inside the model, and the deadline, breaker, budget, shutdown
//! and reload rules hold for a hit as they held for a one-request batch of
//! hits on the worker. The registry counts the caller's hits too.

use std::io::Cursor;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;
use tpu_hlo::Kernel;
use tpu_infer::{freeze_gnn, FrozenModel};
use tpu_learned_cost::{
    AtomicCache, BreakerConfig, CircuitBreaker, CostModel, FallbackChain, FnCostModel, GnnConfig,
    GnnModel, KernelCache,
};
use tpu_obs::Registry;
use tpu_serve::{
    demo_kernels, probe_panel, protocol, serve_ndjson, ReloadPolicy, ServeConfig, ServeEngine,
    ServeError, ServeOptions,
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

#[test]
fn a_hit_is_answered_while_another_clients_miss_is_inside_the_model() {
    let kernels = demo_kernels(2);
    let (hot, cold) = (kernels[0].clone(), kernels[1].clone());
    // The model blocks on the cold kernel until released.
    let (entered_tx, entered) = mpsc::channel::<()>();
    let (release, released) = mpsc::channel::<()>();
    let gate = cold.computation.name().to_string();
    let model = FnCostModel::new("gated", move |k: &Kernel| {
        if k.computation.name() == gate {
            entered_tx.send(()).unwrap();
            released.recv().unwrap();
        }
        nodes(k)
    });
    let engine = Arc::new(start(Box::new(model), ServeConfig::default()));
    let want = engine.submit(hot.clone()).unwrap();

    let miss = {
        let (engine, cold) = (Arc::clone(&engine), cold.clone());
        std::thread::spawn(move || engine.submit(cold))
    };
    entered.recv().unwrap();
    // The worker is inside the model with the miss: a hit that queued
    // behind it would wait for the release below.
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
    let breaker = Arc::new(CircuitBreaker::new(BreakerConfig::default()));
    let chain = FallbackChain::new(
        FnCostModel::new("primary", nodes),
        FnCostModel::new("fallback", nodes),
    )
    .with_breaker(Arc::clone(&breaker));
    let engine = ServeEngine::start_with(
        Box::new(chain),
        cache(),
        ServeConfig::default(),
        ServeOptions {
            breaker: Some(Arc::clone(&breaker)),
            ..ServeOptions::default()
        },
        &Registry::noop(),
    );
    let line = protocol::predict_request_line(1, &demo_kernels(1)[0]) + "\n";
    let serve = |input: &str| {
        let mut out = Vec::new();
        serve_ndjson(&engine, Cursor::new(input.to_string()), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    };
    let healthy = serve(&line);
    assert!(!healthy.contains("degraded"), "{healthy}");
    breaker.force_trip();
    let degraded = serve(&line);
    assert_eq!(
        degraded,
        healthy.replace("}\n", ",\"degraded\":true}\n"),
        "a hit reads the breaker as the next batch would"
    );
    let stats = engine.stats();
    assert_eq!(stats.predict.cache_hits, 1);
    // The hit never reached the chain: the cool-down is untouched.
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
                wrap: Box::new(|frozen| Box::new(frozen)),
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
