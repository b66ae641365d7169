//! The observability contract, pinned end to end: instrumentation is
//! strictly read-only. Running the full stack — training and the
//! model-guided autotuner — with an enabled [`Registry`] must produce
//! results **byte-identical** to running with the no-op registry, while
//! actually recording the run (non-trivial counters, histograms, and
//! series). A regression in either direction is a bug: divergent results
//! mean a metric read perturbed the computation; an empty registry means
//! the instrumentation silently fell off the code path.
//!
//! There is one way into each run. An autotuning run records into the
//! registry its device was `.observed(..)` with — the predictor session,
//! objectives and searcher the harness builds all derive theirs from it —
//! and nowhere otherwise; training takes its registry as an argument of
//! `train_resumable`.

use std::sync::Arc;
use tpu_repro::autotuner::{
    autotune_beam_with_cost_model, autotune_hardware_only, autotune_with_cost_model, Budgets,
    SearchParams, StartMode, TunedConfig,
};
use tpu_repro::hlo::{DType, GraphBuilder, Kernel, Program, Shape};
use tpu_repro::learned::{
    prepare, train, train_resumable, AtomicCache, GnnConfig, GnnModel, KernelModel, Sample,
    TrainConfig, TrainReport,
};
use tpu_repro::obs::{Registry, Snapshot};
use tpu_repro::sim::{kernel_time_ns, TpuConfig, TpuDevice};

fn ew_kernel(rows: usize, cols: usize) -> Kernel {
    let mut b = GraphBuilder::new("k");
    let x = b.parameter("x", Shape::matrix(rows, cols), DType::F32);
    let t = b.tanh(x);
    let e = b.exp(t);
    Kernel::new(b.finish(e))
}

fn tunable_program() -> Program {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("x", Shape::matrix(256, 256), DType::F32);
    let w = b.parameter("w", Shape::matrix(256, 256), DType::F32);
    let t = b.tanh(x);
    let e = b.exp(t);
    let s = b.add(t, e);
    let d = b.dot(s, w);
    let r = b.reduce(d, vec![1]);
    let out = b.tanh(r);
    Program::new("obs-determinism", b.finish(out))
}

fn training_data() -> (Vec<tpu_repro::learned::Prepared>, Vec<tpu_repro::learned::Prepared>) {
    let hw = TpuConfig::default();
    let sizes = [
        (64, 128),
        (128, 256),
        (256, 256),
        (512, 512),
        (1024, 512),
        (1024, 1024),
        (2048, 1024),
        (32, 2048),
    ];
    let samples: Vec<Sample> = sizes
        .iter()
        .map(|&(r, c)| {
            let k = ew_kernel(r, c);
            let t = kernel_time_ns(&k, &hw);
            Sample::new(k, t)
        })
        .collect();
    let prepared = prepare(&samples);
    let (train_set, val_set) = prepared.split_at(6);
    (train_set.to_vec(), val_set.to_vec())
}

fn small_gnn() -> GnnModel {
    GnnModel::new(GnnConfig {
        hidden: 16,
        opcode_embed_dim: 8,
        hops: 1,
        ..Default::default()
    })
}

fn train_once(registry: Option<&Registry>) -> (TrainReport, String) {
    let (train_set, val_set) = training_data();
    let mut model = small_gnn();
    let cfg = TrainConfig {
        epochs: 4,
        batch_size: 4,
        lr: 5e-3,
        shards: 2,
        ..Default::default()
    };
    let report = match registry {
        Some(r) => train_resumable(&mut model, &train_set, &val_set, &cfg, r, None, None).unwrap(),
        None => train(&mut model, &train_set, &val_set, &cfg),
    };
    (report, model.params().to_json())
}

/// The device of one run: observed into `registry` when there is one.
fn device(seed: u64, registry: Option<&Registry>) -> TpuDevice {
    match registry {
        Some(r) => TpuDevice::new(seed).observed(r),
        None => TpuDevice::new(seed),
    }
}

fn budgets() -> Budgets {
    Budgets {
        hardware_ns: 25e9,
        model_steps: 100,
        top_k: 5,
        chains: 2,
    }
}

fn fresh_cache() -> Arc<AtomicCache> {
    Arc::new(AtomicCache::serving_default())
}

fn autotune_once(registry: Option<&Registry>) -> TunedConfig {
    autotune_with_cost_model(
        &tunable_program(),
        &device(13, registry),
        &small_gnn(),
        &fresh_cache(),
        StartMode::Random,
        &budgets(),
        11,
    )
}

fn beam_once(program: &Program, device: &TpuDevice) -> TunedConfig {
    let params = SearchParams {
        seed: 11,
        ..Default::default()
    };
    autotune_beam_with_cost_model(
        program,
        device,
        &small_gnn(),
        &fresh_cache(),
        StartMode::Random,
        &budgets(),
        &params,
    )
}

/// Every field of the outcome, floats by bit pattern.
fn assert_bit_identical(a: &TunedConfig, b: &TunedConfig) {
    assert_eq!(a.config, b.config);
    assert_eq!(a.true_ns.to_bits(), b.true_ns.to_bits());
    assert_eq!(
        (a.hw_evals, a.model_evals, a.model_batches, a.cache_hits),
        (b.hw_evals, b.model_evals, b.model_batches, b.cache_hits)
    );
    assert_eq!(a.retry_stats, b.retry_stats);
    assert_eq!(a.faults, b.faults);
}

#[test]
fn observed_training_is_byte_identical_and_recorded() {
    let (plain_report, plain_params) = train_once(None);
    let registry = Registry::enabled();
    let (obs_report, obs_params) = train_once(Some(&registry));

    // Byte-identical trajectory and final weights.
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&plain_report.train_loss), bits(&obs_report.train_loss));
    assert_eq!(bits(&plain_report.val_metric), bits(&obs_report.val_metric));
    assert_eq!(plain_report.best_val.to_bits(), obs_report.best_val.to_bits());
    assert_eq!(plain_report.best_epoch, obs_report.best_epoch);
    assert_eq!(plain_params, obs_params);

    // ... while the registry actually observed the run.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("core.train.epochs"), Some(4));
    let steps = snap.counter("core.train.steps").expect("steps counted");
    assert!(steps > 0, "no training steps recorded");
    assert_eq!(
        snap.histogram("core.train.grad_reduce_ns").map(|h| h.count),
        Some(steps)
    );
    assert_eq!(
        snap.series("core.train.epoch_loss").map(bits),
        Some(bits(&obs_report.train_loss))
    );
}

#[test]
fn observed_autotuning_is_byte_identical_and_recorded() {
    let plain = autotune_once(None);
    let registry = Registry::enabled();
    let observed = autotune_once(Some(&registry));

    // Byte-identical tuning outcome and accounting.
    assert_bit_identical(&plain, &observed);

    // ... while every layer below left its trace: SA, the serving engine,
    // the hardware phase, and the simulated device.
    let snap = registry.snapshot();
    let candidates = snap.counter("autotuner.sa.candidates").unwrap_or(0);
    assert!(candidates > 0, "SA recorded no candidates");
    assert_eq!(snap.counter("core.engine.model_evals"), Some(observed.model_evals));
    assert_eq!(snap.counter("core.engine.cache_hits"), Some(observed.cache_hits));
    assert_eq!(snap.counter("autotuner.hw.evals"), Some(observed.hw_evals as u64));
    let execs = snap.counter("sim.device.kernel_execs").unwrap_or(0);
    assert!(execs > 0, "device metered no kernel executions");
    assert!(
        snap.gauge("autotuner.sa.best_cost").is_some(),
        "best cost gauge missing"
    );
}

#[test]
fn the_device_registry_reaches_every_layer_of_a_plain_run() {
    let program = tunable_program();

    // Unobserved devices: nothing is global, so a registry that merely
    // exists hears nothing of the runs beside it.
    let bystander = Registry::enabled();
    let plain_beam = beam_once(&program, &device(13, None));
    let plain_hw =
        autotune_hardware_only(&program, &device(17, None), StartMode::Default, 20e9, 1);
    assert_eq!(bystander.snapshot(), Snapshot::default());

    // The same calls on observed devices record every layer they pass
    // through...
    let registry = Registry::enabled();
    let beam = beam_once(&program, &device(13, Some(&registry)));
    let snap = registry.snapshot();
    assert!(snap.counter("autotuner.sa.candidates").is_none(), "beam ran no annealer");
    assert_eq!(snap.counter("core.engine.model_evals"), Some(beam.model_evals));
    assert_eq!(snap.counter("core.engine.cache_hits"), Some(beam.cache_hits));
    assert!(snap.gauge("core.cache.entries").is_some_and(|n| n > 0.0));
    assert!(snap.counter("autotuner.beam.scored").is_some_and(|n| n > 0));
    assert_eq!(
        snap.counter("autotuner.model.configs"),
        snap.counter("autotuner.beam.scored"),
        "every configuration the beam scored went through the model objective"
    );
    assert_eq!(snap.counter("autotuner.hw.evals"), Some(beam.hw_evals as u64));
    assert_eq!(snap.counter("sim.device.eval_overheads"), Some(beam.hw_evals as u64));

    let registry = Registry::enabled();
    let hw = autotune_hardware_only(
        &program,
        &device(17, Some(&registry)),
        StartMode::Default,
        20e9,
        1,
    );
    let snap = registry.snapshot();
    assert_eq!(snap.counter("autotuner.hw.evals"), Some(hw.hw_evals as u64));
    assert_eq!(snap.counter("autotuner.hw.budget_exhausted"), Some(1));
    assert_eq!(
        snap.counter("autotuner.sa.candidates"),
        Some(hw.hw_evals as u64),
        "the baseline's annealer saw exactly the measured candidates"
    );
    assert!(snap.counter("core.engine.kernels").is_none(), "the baseline asks no model");

    // ... and change nothing.
    assert_bit_identical(&plain_beam, &beam);
    assert_bit_identical(&plain_hw, &hw);
}

#[test]
fn concurrent_runs_record_into_one_registry_through_their_devices() {
    // Why the registry travels with the device and not in a thread-local:
    // the daemon's worker, connection and drive-client threads each hold
    // a device or a predictor, and a scope set on the thread that built
    // them would not reach those.
    let program = tunable_program();
    let registry = Registry::enabled();
    let start = std::sync::Barrier::new(2);
    let tuned: Vec<TunedConfig> = std::thread::scope(|scope| {
        let runs = [13u64, 29].map(|seed| {
            let (program, registry, start) = (&program, &registry, &start);
            scope.spawn(move || {
                start.wait();
                beam_once(program, &device(seed, Some(registry)))
            })
        });
        runs.map(|run| run.join().expect("a tuning run panicked"))
            .into()
    });

    let snap = registry.snapshot();
    let sum = |f: fn(&TunedConfig) -> u64| tuned.iter().map(f).sum::<u64>();
    assert!(tuned.iter().all(|t| t.hw_evals > 0 && t.model_evals > 0));
    assert_eq!(snap.counter("autotuner.hw.evals"), Some(sum(|t| t.hw_evals as u64)));
    assert_eq!(snap.counter("sim.device.eval_overheads"), Some(sum(|t| t.hw_evals as u64)));
    assert_eq!(snap.counter("core.engine.model_evals"), Some(sum(|t| t.model_evals)));
    assert_eq!(snap.counter("core.engine.cache_hits"), Some(sum(|t| t.cache_hits)));
}
