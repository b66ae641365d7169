//! The single-run measurement protocol of the hardware-only autotuner:
//! every hardware measurement charges one eval overhead and executes the
//! configuration's program exactly once (one noise draw a kernel). So a
//! full hardware-only autotune repeats bit for bit under a device seed,
//! and its device-time meter is `hw_evals × eval_overhead_ns` plus those
//! executions, to the bit.

use tpu_repro::autotuner::{
    autotune_hardware_only, simulated_annealing, HardwareObjective, SaConfig, StartMode,
    TunedConfig,
};
use tpu_repro::fusion::{apply_fusion, default_space_and_config, FusionConfig};
use tpu_repro::hlo::{DType, GraphBuilder, Program, Shape};
use tpu_repro::sim::TpuDevice;

const BUDGET_NS: f64 = 20e9;
const SA_SEED: u64 = 7;

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
    Program::new("hw-protocol", b.finish(t))
}

/// One full hardware-only autotune on a fresh device, with the device's
/// meter at the end.
fn run_once(program: &Program, device_seed: u64) -> (TunedConfig, f64) {
    let device = TpuDevice::new(device_seed);
    let tuned = autotune_hardware_only(program, &device, StartMode::Default, BUDGET_NS, SA_SEED);
    (tuned, device.device_time_used())
}

/// The same search written out — single-chain SA over a
/// [`HardwareObjective`] until the budget is spent — recording every
/// configuration the objective measured and what it measured.
fn recorded_run(program: &Program, device_seed: u64) -> (FusionConfig, Vec<(FusionConfig, f64)>) {
    let (space, start) = default_space_and_config(&program.computation);
    let device = TpuDevice::new(device_seed);
    let mut hw = HardwareObjective::new(program, &space, &device, BUDGET_NS);
    let mut measured = Vec::new();
    let result = simulated_annealing(
        &space,
        start,
        |config: &FusionConfig| match hw.measure(config) {
            Some(t) => {
                measured.push((config.clone(), t));
                t
            }
            None => f64::NAN,
        },
        &SaConfig {
            steps: usize::MAX >> 1,
            seed: SA_SEED,
            chains: 1,
            ..Default::default()
        },
    );
    (result.best_config, measured)
}

#[test]
fn chaos_autotune_is_bit_identical_across_runs() {
    let program = tunable_program();
    let (space, _) = default_space_and_config(&program.computation);
    for device_seed in [5u64, 11, 42] {
        let context = format!("device seed {device_seed}");
        let (tuned, meter) = run_once(&program, device_seed);
        let (again, again_meter) = run_once(&program, device_seed);
        assert_eq!(tuned.config, again.config, "{context}: config differs");
        assert_eq!(
            tuned.true_ns.to_bits(),
            again.true_ns.to_bits(),
            "{context}"
        );
        assert_eq!(tuned.hw_evals, again.hw_evals, "{context}");
        assert_eq!(meter.to_bits(), again_meter.to_bits(), "{context}");

        // The written-out search is the harness's search.
        let (best, measured) = recorded_run(&program, device_seed);
        assert_eq!(best, tuned.config, "{context}");
        assert_eq!(measured.len(), tuned.hw_evals, "{context}");
        assert!(tuned.hw_evals > 1, "{context}: the budget admitted one run");

        // Replaying each measurement as one overhead and one program run
        // on a fresh same-seed device reproduces every measured value and
        // the meter, bit for bit: no measurement ran the program twice.
        let replay = TpuDevice::new(device_seed);
        let overhead = replay.config().eval_overhead_ns;
        let mut executions = 0.0;
        for (config, t) in &measured {
            replay.charge_eval_overhead();
            let fused = apply_fusion(&program, &space, config);
            let run = replay.execute_kernels(&fused.kernels);
            assert_eq!(run.to_bits(), t.to_bits(), "{context}");
            executions += run;
        }
        assert_eq!(
            replay.device_time_used().to_bits(),
            meter.to_bits(),
            "{context}"
        );
        let accounted = tuned.hw_evals as f64 * overhead + executions;
        assert!(
            (meter - accounted).abs() <= 1e-9 * meter,
            "{context}: meter {meter} ns vs overheads + one run each {accounted} ns"
        );
    }
}
