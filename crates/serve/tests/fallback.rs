//! The engine's fallback and circuit breaker, through the public engine.
//!
//! A miss is scored by the primary; every position it answers `None` or
//! non-finite is lent to the fallback, once per call and only those
//! positions; while the breaker is open the primary is not asked at all;
//! a half-open probe re-closes the breaker or re-trips it; misses and the
//! reload panel are one stream of breaker positions. A reload replaces the
//! primary only: the fallback, the breaker and its cool-down carry on. A
//! miss runs a `Predictor`'s body, so it records the same metrics.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tpu_hlo::{HashedKernel, Kernel};
use tpu_infer::{freeze_gnn, FrozenModel};
use tpu_learned_cost::{
    AtomicCache, CostModel, FnCostModel, GnnConfig, GnnModel, Predictor, SimOracle,
};
use tpu_obs::Registry;
use tpu_serve::{
    demo_kernels, probe_panel, BreakerConfig, Fallback, ReloadPolicy, ServeConfig, ServeEngine,
    ServeOptions,
};
use tpu_sim::TpuConfig;

fn nodes(k: &Kernel) -> f64 {
    k.computation.num_nodes() as f64 * 100.0
}

/// The demo kernel's index, from its name.
fn index(k: &Kernel) -> usize {
    let name = k.computation.name();
    name.rsplit('_').next().unwrap().parse().unwrap()
}

fn engine(
    primary: impl CostModel + Send + 'static,
    fallback: impl CostModel + Send + 'static,
    breaker: Option<BreakerConfig>,
    registry: &Registry,
) -> ServeEngine {
    ServeEngine::start_with(
        Box::new(primary),
        Arc::new(AtomicCache::serving_default()),
        ServeConfig::default(),
        ServeOptions {
            fallback: Some(Fallback {
                model: Box::new(fallback),
                breaker,
            }),
            reload: Some(ReloadPolicy {
                // Admit any ranking: these tests are about what serves.
                min_tau: -1.0,
                panel: probe_panel(),
            }),
            ..ServeOptions::default()
        },
        registry,
    )
}

fn breaker(trip_after: u32, cooldown: u64) -> Option<BreakerConfig> {
    Some(BreakerConfig {
        trip_after,
        cooldown,
    })
}

fn fallbacks(registry: &Registry) -> Option<u64> {
    registry.snapshot().counter("core.engine.fallbacks")
}

fn frozen_blob() -> Vec<u8> {
    let model = GnnModel::new(GnnConfig {
        opcode_embed_dim: 8,
        hidden: 16,
        hops: 1,
        seed: 71,
        ..GnnConfig::default()
    });
    FrozenModel::Gnn(freeze_gnn(&model, &probe_panel()).unwrap()).to_bytes()
}

/// A fallback that answers `1000 + nodes` and records the demo-kernel
/// indices of every batch it is asked for.
struct Recorder(Arc<Mutex<Vec<Vec<usize>>>>);

impl CostModel for Recorder {
    fn predict_kernel_ns(&self, k: &Kernel) -> Option<f64> {
        Some(1000.0 + nodes(k))
    }
    fn predict_batch_ns(&self, kernels: &[Kernel]) -> Vec<Option<f64>> {
        self.0
            .lock()
            .unwrap()
            .push(kernels.iter().map(index).collect());
        kernels.iter().map(|k| self.predict_kernel_ns(k)).collect()
    }
    fn name(&self) -> &str {
        "safe"
    }
}

#[test]
fn the_fallback_answers_none_and_non_finite_positions() {
    let flaky = FnCostModel::new("flaky", |k: &Kernel| match index(k) {
        0 => None,
        1 => Some(f64::NAN),
        2 => Some(f64::NEG_INFINITY),
        _ => Some(nodes(k)),
    });
    let safe = FnCostModel::new("safe", |k: &Kernel| Some(1000.0 + nodes(k)));
    let registry = Registry::enabled();
    let engine = engine(flaky, safe, None, &registry);
    assert_eq!(engine.backend(), "flaky+fallback-safe");
    for (i, k) in demo_kernels(5).into_iter().enumerate() {
        let want = if i < 3 { 1000.0 + nodes(&k) } else { nodes(&k) };
        let p = engine.submit_with_deadline(k, None).unwrap();
        assert_eq!(p.ns, Some(want), "kernel {i}");
        assert!(!p.degraded, "no breaker: nothing is degraded");
    }
    assert_eq!(fallbacks(&registry), Some(3));
    engine.shutdown();
}

#[test]
fn a_healthy_primary_never_asks_the_fallback() {
    let asked = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&asked);
    let never = FnCostModel::new("never", move |_k: &Kernel| {
        seen.fetch_add(1, Ordering::SeqCst);
        Some(1.0)
    });
    let registry = Registry::enabled();
    let engine = engine(
        FnCostModel::new("ok", |k: &Kernel| Some(nodes(k))),
        never,
        breaker(1, 4),
        &registry,
    );
    for k in demo_kernels(6) {
        let want = nodes(&k);
        assert_eq!(engine.submit(k), Ok(Some(want)));
    }
    assert_eq!(engine.reload_from_bytes(&frozen_blob()), Ok(1));
    assert_eq!(asked.load(Ordering::SeqCst), 0);
    assert_eq!(fallbacks(&registry), Some(0));
    assert_eq!(engine.stats().breaker_state_name(), "closed");
    engine.shutdown();
}

#[test]
fn the_fallback_is_asked_once_per_call_with_only_the_fallen_positions() {
    let batches = Arc::new(Mutex::new(Vec::new()));
    let primary = FnCostModel::new("flaky", |k: &Kernel| {
        (!index(k).is_multiple_of(3)).then(|| nodes(k))
    });
    let registry = Registry::enabled();
    let engine = engine(primary, Recorder(Arc::clone(&batches)), None, &registry);
    let kernels = demo_kernels(16);
    // A miss is a call of one kernel: the fallback sees it only if it fell.
    assert_eq!(
        engine.submit(kernels[3].clone()),
        Ok(Some(1000.0 + nodes(&kernels[3])))
    );
    assert_eq!(
        engine.submit(kernels[4].clone()),
        Ok(Some(nodes(&kernels[4])))
    );
    // The reload panel is one call of 16: the incumbent's fallen positions
    // go to the fallback as one batch, in panel order; the healthy
    // candidate's none.
    assert_eq!(engine.reload_from_bytes(&frozen_blob()), Ok(1));
    assert_eq!(
        *batches.lock().unwrap(),
        vec![vec![3], vec![0, 3, 6, 9, 12, 15]]
    );
    // Only the served miss counts as a fallback, not admission's panel.
    assert_eq!(fallbacks(&registry), Some(1));
    engine.shutdown();
}

#[test]
fn an_open_breaker_sends_everything_to_the_fallback_and_a_failed_probe_reopens_it() {
    let calls = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&calls);
    let nan = FnCostModel::new("nan", move |_k: &Kernel| {
        seen.fetch_add(1, Ordering::SeqCst);
        Some(f64::NAN)
    });
    let safe = FnCostModel::new("safe", |_k: &Kernel| Some(7.0));
    let registry = Registry::enabled();
    let engine = engine(nan, safe, breaker(2, 4), &registry);
    let kernels = demo_kernels(7);
    // Two NaNs trip the breaker; both are still answered by the fallback.
    for k in &kernels[..2] {
        let p = engine.submit_with_deadline(k.clone(), None).unwrap();
        assert_eq!((p.ns, p.degraded), (Some(7.0), false));
    }
    assert_eq!(engine.stats().breaker_state_name(), "open");
    assert_eq!(calls.load(Ordering::SeqCst), 2);
    // Cool-down traffic never touches the primary.
    for k in &kernels[2..6] {
        let p = engine.submit_with_deadline(k.clone(), None).unwrap();
        assert_eq!((p.ns, p.degraded), (Some(7.0), true));
    }
    assert_eq!(calls.load(Ordering::SeqCst), 2);
    // Cool-down of 4 positions burned: the next miss probes the (still
    // broken) primary and re-opens the breaker.
    let p = engine
        .submit_with_deadline(kernels[6].clone(), None)
        .unwrap();
    assert_eq!((p.ns, p.degraded), (Some(7.0), true));
    assert_eq!(calls.load(Ordering::SeqCst), 3);
    let stats = engine.stats();
    assert_eq!(stats.breaker_state_name(), "open");
    assert_eq!((stats.breaker_trips, stats.breaker_open_served), (2, 4));
    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.breaker.trips"), Some(2));
    assert_eq!(snap.counter("serve.breaker.open_served"), Some(4));
    assert_eq!(snap.counter("serve.breaker.probes"), Some(1));
    assert_eq!(snap.gauge("serve.breaker.state"), Some(1.0));
    assert_eq!(snap.counter("core.engine.fallbacks"), Some(7));
    engine.shutdown();
}

#[test]
fn a_clean_probe_recloses_the_breaker() {
    let primary = FnCostModel::new("recovers", |k: &Kernel| (index(k) >= 2).then(|| nodes(k)));
    let oracle = SimOracle::new(TpuConfig::default());
    let engine = engine(primary, oracle, breaker(2, 2), &Registry::noop());
    let kernels = demo_kernels(6);
    let degraded: Vec<bool> = kernels
        .iter()
        .map(|k| {
            engine
                .submit_with_deadline(k.clone(), None)
                .unwrap()
                .degraded
        })
        .collect();
    // bad, bad (trip) | open, open | probe (marker read before it) | closed
    assert_eq!(degraded, [false, false, true, true, true, false]);
    let stats = engine.stats();
    assert_eq!(stats.breaker_state_name(), "closed");
    assert_eq!((stats.breaker_trips, stats.breaker_open_served), (1, 2));
    engine.shutdown();
}

#[test]
fn every_miss_is_one_breaker_position() {
    let dead = FnCostModel::new("dead", |_k: &Kernel| None);
    let safe = FnCostModel::new("safe", |_k: &Kernel| Some(1.0));
    let registry = Registry::enabled();
    let engine = engine(dead, safe, breaker(1, 2), &registry);
    // trip | cool-down 1/2 | cool-down 2/2 | probe fails, re-trips.
    for k in demo_kernels(4) {
        assert_eq!(engine.submit(k), Ok(Some(1.0)));
    }
    let stats = engine.stats();
    assert_eq!((stats.breaker_trips, stats.breaker_open_served), (2, 2));
    assert_eq!(fallbacks(&registry), Some(4), "every position was rescued");
    engine.shutdown();
}

#[test]
fn a_rescued_answer_is_cached_like_any_other() {
    let nan = FnCostModel::new("nan", |_k: &Kernel| Some(f64::NAN));
    let safe = FnCostModel::new("safe", |_k: &Kernel| Some(9.0));
    let registry = Registry::enabled();
    let engine = engine(nan, safe, None, &registry);
    let k = demo_kernels(1).remove(0);
    assert_eq!(engine.submit(k.clone()), Ok(Some(9.0)));
    assert_eq!(engine.submit(k), Ok(Some(9.0)));
    let predict = engine.stats().predict;
    assert_eq!((predict.cache_hits, predict.model_evals), (1, 1));
    assert_eq!(
        fallbacks(&registry),
        Some(1),
        "the cache absorbed the repeat"
    );
    engine.shutdown();
}

#[test]
fn a_miss_records_what_a_predictor_records_over_the_same_kernels() {
    // Kernel 0 falls back; the sequence is miss, miss, hit, hit, miss.
    let flaky = FnCostModel::new("flaky", |k: &Kernel| (index(k) != 0).then(|| nodes(k)));
    let safe = FnCostModel::new("safe", |k: &Kernel| Some(1000.0 + nodes(k)));
    let registry = Registry::enabled();
    let engine = engine(flaky, safe, None, &registry);
    let kernels = demo_kernels(3);
    let sequence = [0, 1, 0, 1, 2].map(|i| &kernels[i]);
    for k in sequence {
        engine.submit(k.clone()).unwrap();
    }
    let predictor_registry = Registry::enabled();
    let predictor = Predictor::new(FnCostModel::new("nodes", |k: &Kernel| Some(nodes(k))))
        .observed(&predictor_registry);
    for k in sequence {
        predictor.predict_keyed(&[HashedKernel::new(k.clone()).hash()], |_| k);
    }

    let snap = registry.snapshot();
    let stats = engine.stats();
    assert_eq!(
        snap.counter("core.engine.cache_evictions"),
        Some(stats.cache_evictions)
    );
    for name in ["predict_ns", "forward_ns", "miss_batch_size"] {
        let h = snap.histogram(&format!("core.engine.{name}"));
        assert_eq!(h.map(|h| h.count), Some(3), "{name}: one per miss");
    }
    let counters = |registry: &Registry| {
        let snap = registry.snapshot();
        ["kernels", "cache_hits", "model_evals", "model_batches"]
            .map(|name| snap.counter(&format!("core.engine.{name}")))
    };
    let p = stats.predict;
    assert_eq!((p.kernels, p.cache_hits, p.model_evals), (5, 2, 3));
    assert_eq!(p, predictor.stats());
    assert_eq!(
        counters(&registry),
        [p.kernels, p.cache_hits, p.model_evals, p.model_batches].map(Some)
    );
    assert_eq!(counters(&registry), counters(&predictor_registry));
    assert_eq!(fallbacks(&registry), Some(1));
    engine.shutdown();
}

#[test]
fn a_position_neither_model_can_answer_stays_none() {
    let none = FnCostModel::new("none", |_k: &Kernel| None);
    let also_none = FnCostModel::new("also-none", |_k: &Kernel| None);
    let registry = Registry::enabled();
    let engine = engine(none, also_none, None, &registry);
    assert_eq!(engine.submit(demo_kernels(1).remove(0)), Ok(None));
    assert_eq!(fallbacks(&registry), Some(1));
    engine.shutdown();
}

#[test]
fn a_reload_while_the_breaker_is_open_keeps_the_fallback_and_the_cool_down() {
    let dead = FnCostModel::new("dead", |_k: &Kernel| None);
    let engine = engine(
        dead,
        SimOracle::new(TpuConfig::default()),
        breaker(2, 40),
        &Registry::noop(),
    );
    assert_eq!(engine.backend(), "dead+fallback-simulator-oracle");
    let kernels = demo_kernels(12);
    let degraded = |k: &Kernel| {
        engine
            .submit_with_deadline(k.clone(), None)
            .unwrap()
            .degraded
    };
    // Two unscorable answers trip the breaker; one miss burns a position.
    assert_eq!(
        kernels[..3].iter().map(degraded).collect::<Vec<_>>(),
        [false, false, true]
    );
    assert_eq!(engine.reload_from_bytes(&frozen_blob()), Ok(1));
    assert_eq!(engine.backend(), "frozen-gnn+fallback-simulator-oracle");
    // The swap kept the breaker: still open, and admission's two panel
    // scorings (incumbent, then the new primary) burned 16 positions each.
    let stats = engine.stats();
    assert_eq!(stats.breaker_state_name(), "open");
    assert_eq!((stats.breaker_trips, stats.breaker_open_served), (1, 33));
    // Seven more positions finish the cool-down; the next miss probes the
    // new primary, which is healthy, and re-closes the breaker.
    assert!(kernels[3..11].iter().all(degraded));
    assert!(!degraded(&kernels[11]));
    let stats = engine.stats();
    assert_eq!(stats.breaker_state_name(), "closed");
    assert_eq!((stats.breaker_trips, stats.breaker_open_served), (1, 40));
    engine.shutdown();
}

#[test]
fn without_a_fallback_the_primary_answers_alone() {
    let engine = ServeEngine::start(
        Box::new(FnCostModel::new("nan", |_k: &Kernel| Some(f64::NAN))),
        Arc::new(AtomicCache::serving_default()),
        ServeConfig::default(),
        &Registry::noop(),
    );
    assert_eq!(engine.backend(), "nan");
    let ns = engine.submit(demo_kernels(1).remove(0)).unwrap();
    assert!(ns.is_some_and(f64::is_nan));
    engine.shutdown();
}

/// Admission scores the probe panel through the routing a miss takes, but
/// serves nothing: no panel answer is cached and no serving counter moves.
#[test]
fn admission_scores_its_panel_without_caching_or_counting_it() {
    let registry = Registry::enabled();
    let engine = engine(
        FnCostModel::new("ok", |k: &Kernel| Some(nodes(k))),
        FnCostModel::new("safe", |k: &Kernel| Some(1000.0 + nodes(k))),
        breaker(2, 4),
        &registry,
    );
    for k in demo_kernels(3) {
        engine.submit(k).unwrap();
    }
    let before = engine.stats();
    let kernels = |r: &Registry| r.snapshot().counter("core.engine.kernels");
    let recorded = kernels(&registry);
    assert_eq!(engine.reload_from_bytes(&frozen_blob()), Ok(1));
    let after = engine.stats();
    assert_eq!(after.predict, before.predict);
    assert_eq!(
        (after.submitted, after.answered, after.batches),
        (before.submitted, before.answered, before.batches)
    );
    assert_eq!(after.cache_entries, 0, "the swap cleared the cache");
    assert_eq!(kernels(&registry), recorded);
    // A panel kernel is a miss for the new primary.
    engine.submit(probe_panel()[0].clone()).unwrap();
    assert_eq!(
        engine.stats().predict.model_evals,
        before.predict.model_evals + 1
    );
    engine.shutdown();
}
