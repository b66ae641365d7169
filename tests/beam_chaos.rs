//! Determinism and convergence of the beam-guided autotuner across device
//! seeds: the model-search phase never touches the device, and the shared
//! hardware re-rank measures each candidate with one program run in a
//! fixed serial order — so a beam-guided autotune repeats bit for bit
//! under a device seed, every cost the beam returns is finite, and the
//! tuned result lands within 5% of another seed's run (the §5 noise moves
//! which near-equal candidate wins, not how good it is).

use std::sync::Arc;
use tpu_repro::autotuner::{
    autotune_beam_with_cost_model, beam_search, Budgets, ModelObjective, SearchParams, StartMode,
    TunedConfig,
};
use tpu_repro::fusion::default_space_and_config;
use tpu_repro::hlo::{DType, GraphBuilder, Kernel, Program, Shape};
use tpu_repro::learned::{AtomicCache, FnCostModel, Predictor};
use tpu_repro::sim::{kernel_time_ns, TpuConfig, TpuDevice};

fn tunable_program() -> Program {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("x", Shape::matrix(256, 256), DType::F32);
    let w = b.parameter("w", Shape::matrix(256, 256), DType::F32);
    let mut v = x;
    for i in 0..3 {
        let t = b.tanh(v);
        let e = b.exp(t);
        let s = b.add(t, e);
        v = if i == 1 { b.dot(s, w) } else { s };
    }
    let r = b.reduce(v, vec![1]);
    let t = b.tanh(r);
    Program::new("beam-seeds", b.finish(t))
}

fn oracle() -> FnCostModel<impl Fn(&Kernel) -> Option<f64>> {
    let cfg = TpuConfig::default();
    FnCostModel::new("oracle", move |k: &Kernel| Some(kernel_time_ns(k, &cfg)))
}

/// One full beam-guided autotune on a fresh device, with the device's
/// meter at the end.
fn run_once(program: &Program, device_seed: u64) -> (TunedConfig, f64) {
    let device = TpuDevice::new(device_seed);
    let model = oracle();
    let cache = Arc::new(AtomicCache::serving_default());
    let budgets = Budgets {
        hardware_ns: 20e9,
        model_steps: 120,
        top_k: 5,
        chains: 1,
    };
    let tuned = autotune_beam_with_cost_model(
        program,
        &device,
        &model,
        &cache,
        StartMode::Random,
        &budgets,
        &SearchParams {
            seed: 7,
            ..Default::default()
        },
    );
    (tuned, device.device_time_used())
}

fn assert_identical(a: &(TunedConfig, f64), b: &(TunedConfig, f64), context: &str) {
    let ((a, a_meter), (b, b_meter)) = (a, b);
    assert_eq!(a.config, b.config, "{context}: tuned config differs");
    assert_eq!(
        a.true_ns.to_bits(),
        b.true_ns.to_bits(),
        "{context}: true_ns differs"
    );
    assert_eq!(
        (a.hw_evals, a.model_evals, a.model_batches, a.cache_hits),
        (b.hw_evals, b.model_evals, b.model_batches, b.cache_hits),
        "{context}: counters differ"
    );
    assert_eq!(
        a_meter.to_bits(),
        b_meter.to_bits(),
        "{context}: device meter differs"
    );
}

#[test]
fn beam_chaos_autotune_is_bit_identical_and_converges() {
    let program = tunable_program();
    let (control, _) = run_once(&program, 13);
    assert!(
        control.true_ns.is_finite() && control.true_ns > 0.0,
        "seed-13 tuned time is not a positive finite number"
    );

    // The model phase never consults the device, so every cost the beam
    // returns is finite.
    let (space, start) = default_space_and_config(&program.computation);
    let model = oracle();
    let predictor = Predictor::with_cache(&model, Arc::new(AtomicCache::serving_default()));
    let raw = beam_search(
        &program,
        &space,
        start,
        ModelObjective::new(&program, &space, &predictor),
        &SearchParams {
            max_evals: 120,
            seed: 7,
            ..Default::default()
        },
    );
    assert!(raw.best_cost.is_finite(), "beam best cost is not finite");
    for (i, (_, cost)) in raw.top.iter().enumerate() {
        assert!(cost.is_finite(), "beam top[{i}] cost is not finite");
    }

    for device_seed in [5u64, 11, 42] {
        let reference = run_once(&program, device_seed);
        let tuned = &reference.0;
        assert!(
            tuned.true_ns.is_finite() && tuned.true_ns > 0.0,
            "device seed {device_seed}: tuned time is not a positive finite number"
        );
        assert!(
            (tuned.true_ns - control.true_ns).abs() <= 0.05 * control.true_ns,
            "device seed {device_seed}: tuned time {} ns is more than 5% off \
             the seed-13 run's {} ns",
            tuned.true_ns,
            control.true_ns
        );
        // Same seed: runs are reproducible.
        assert_identical(
            &reference,
            &run_once(&program, device_seed),
            &format!("device seed {device_seed}, repeat"),
        );
    }
}
