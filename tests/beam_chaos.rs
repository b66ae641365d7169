//! The chaos contract for the beam-guided autotuner: the model-search
//! phase never touches the device, and the shared hardware re-rank
//! consumes injected faults in a fixed serial order — so a beam-guided
//! autotune under a chaos plan returns a bit-identical [`TunedConfig`],
//! fault tally, and retry accounting for repeated runs, every returned
//! cost stays finite, and the tuned result converges to within 5% of the
//! fault-free run.

use std::sync::Arc;
use tpu_repro::autotuner::{
    autotune_beam_with_cost_model, beam_search, Budgets, ModelObjective, SearchParams, StartMode,
    TunedConfig,
};
use tpu_repro::fusion::default_space_and_config;
use tpu_repro::hlo::{DType, GraphBuilder, Kernel, Program, Shape};
use tpu_repro::learned::{AtomicCache, FnCostModel, Predictor};
use tpu_repro::sim::{kernel_time_ns, FaultPlan, TpuConfig, TpuDevice};

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
    Program::new("beam-chaos", b.finish(t))
}

fn oracle() -> FnCostModel<impl Fn(&Kernel) -> Option<f64>> {
    let cfg = TpuConfig::default();
    FnCostModel::new("oracle", move |k: &Kernel| Some(kernel_time_ns(k, &cfg)))
}

/// One full beam-guided autotune. `fault_seed: None` is the fault-free
/// control. Fresh device per run so the noise stream, fault event
/// counter, and budget meter all start from the same state.
fn run_once(program: &Program, fault_seed: Option<u64>) -> TunedConfig {
    let device = match fault_seed {
        Some(seed) => TpuDevice::new(13).with_faults(FaultPlan::chaos(seed)),
        None => TpuDevice::new(13),
    };
    let model = oracle();
    let cache = Arc::new(AtomicCache::serving_default());
    let budgets = Budgets {
        hardware_ns: 20e9,
        model_steps: 120,
        top_k: 5,
        chains: 1,
    };
    autotune_beam_with_cost_model(
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
    )
}

fn assert_identical(a: &TunedConfig, b: &TunedConfig, context: &str) {
    assert_eq!(a.config, b.config, "{context}: tuned config differs");
    assert_eq!(
        a.true_ns.to_bits(),
        b.true_ns.to_bits(),
        "{context}: true_ns differs"
    );
    assert_eq!(a.hw_evals, b.hw_evals, "{context}: hw_evals differs");
    assert_eq!(a.faults, b.faults, "{context}: fault tally differs");
    assert_eq!(
        (a.retry_stats.attempts, a.retry_stats.retries),
        (b.retry_stats.attempts, b.retry_stats.retries),
        "{context}: retry accounting differs"
    );
    assert_eq!(
        a.retry_stats.outliers_rejected, b.retry_stats.outliers_rejected,
        "{context}: outlier accounting differs"
    );
    assert_eq!(
        a.retry_stats.exhausted_candidates, b.retry_stats.exhausted_candidates,
        "{context}: exhaustion accounting differs"
    );
    assert_eq!(
        a.retry_stats.budget_overshoot_ns.to_bits(),
        b.retry_stats.budget_overshoot_ns.to_bits(),
        "{context}: budget overshoot differs"
    );
}

#[test]
fn beam_chaos_autotune_is_bit_identical_and_converges() {
    let program = tunable_program();
    let fault_free = run_once(&program, None);
    assert!(
        fault_free.true_ns.is_finite() && fault_free.true_ns > 0.0,
        "fault-free tuned time is not a positive finite number"
    );

    // The model phase never consults the device, so every cost the beam
    // returns is finite even when the hardware is faulty.
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

    for fault_seed in [5u64, 11, 42] {
        let reference = run_once(&program, Some(fault_seed));
        assert!(
            reference.faults.total() > 0,
            "fault seed {fault_seed}: chaos plan injected nothing — the sweep is vacuous"
        );
        assert!(
            reference.true_ns.is_finite() && reference.true_ns > 0.0,
            "fault seed {fault_seed}: tuned time is not a positive finite number"
        );
        // The retrying re-rank absorbs the injected faults: the tuned
        // result stays within 5% of the fault-free control.
        assert!(
            reference.true_ns <= 1.05 * fault_free.true_ns,
            "fault seed {fault_seed}: chaos tuned time {} ns is more than 5% worse \
             than fault-free {} ns",
            reference.true_ns,
            fault_free.true_ns
        );

        // Same seed: runs are reproducible.
        assert_identical(
            &reference,
            &run_once(&program, Some(fault_seed)),
            &format!("fault seed {fault_seed}, repeat"),
        );
    }
}
