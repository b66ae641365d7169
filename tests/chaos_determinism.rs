//! The chaos contract (determinism under fault injection): every injected
//! fault is a pure function of the fault seed and the device's event
//! index, and the retrying autotuner harness consumes faults in a fixed
//! serial order — so a full hardware-only autotune under a chaos plan
//! returns a bit-identical [`TunedConfig`], fault tally, and retry
//! accounting for repeated runs.

use tpu_repro::autotuner::{autotune_hardware_only, StartMode, TunedConfig};
use tpu_repro::hlo::{DType, GraphBuilder, Program, Shape};
use tpu_repro::sim::{FaultPlan, TpuDevice};

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
    Program::new("chaos-determinism", b.finish(t))
}

/// One full hardware-only autotune on a chaos-faulted device. Fresh device
/// per run so the noise stream, fault event counter, and budget meter all
/// start from the same state.
fn run_once(program: &Program, fault_seed: u64) -> TunedConfig {
    let device = TpuDevice::new(13).with_faults(FaultPlan::chaos(fault_seed));
    autotune_hardware_only(program, &device, StartMode::Random, 20e9, 7)
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
fn chaos_autotune_is_bit_identical_across_runs() {
    let program = tunable_program();
    for fault_seed in [5u64, 11, 42] {
        let reference = run_once(&program, fault_seed);
        assert!(
            reference.faults.total() > 0,
            "fault seed {fault_seed}: chaos plan injected nothing — the sweep is vacuous"
        );
        assert_identical(
            &reference,
            &run_once(&program, fault_seed),
            &format!("fault seed {fault_seed}, repeat"),
        );
    }
}
