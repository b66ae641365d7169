//! Property tests for the fault-injection contract: a `FaultPlan::none()`
//! device is bit-identical to the fault-free device, fault schedules are
//! pure functions of `(seed, event index)`, and the fallible API under
//! chaos is reproducible.

use proptest::prelude::*;
use tpu_hlo::{DType, FusedProgram, GraphBuilder, Kernel, Shape};
use tpu_sim::{DeviceError, FaultPlan, TpuDevice};

fn ew_kernel(rows: usize, cols: usize) -> Kernel {
    let mut b = GraphBuilder::new("k");
    let x = b.parameter("x", Shape::matrix(rows, cols), DType::F32);
    let t = b.tanh(x);
    Kernel::new(b.finish(t))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The acceptance contract: under `FaultPlan::none()` the fallible API
    /// and the infallible §5 entries return bitwise-equal measurements,
    /// charge bitwise-equal device time, and inject zero faults — for any
    /// seed, kernel shape, and interleaving of kernel/program calls.
    #[test]
    fn none_plan_is_bit_identical_to_faultfree_device(
        seed in 0u64..500,
        r in 4u32..9,
        c in 4u32..9,
        runs in 1usize..4,
    ) {
        let k = ew_kernel(1 << r, 1 << c);
        let p = FusedProgram::new("p", vec![k.clone(), k.clone()]);

        let plain = TpuDevice::new(seed);
        let faulty = TpuDevice::new(seed).with_faults(FaultPlan::none());

        let a1 = plain.measure_kernel(&k, 1);
        let b1 = faulty.try_execute_kernel(&k).unwrap();
        prop_assert_eq!(a1.to_bits(), b1.to_bits());

        let a2 = plain.measure_kernel(&k, runs);
        let b2 = faulty.try_measure_kernel(&k, runs).unwrap();
        prop_assert_eq!(a2.to_bits(), b2.to_bits());

        let a3 = plain.measure_program(&p, runs);
        let b3 = (0..runs)
            .map(|_| faulty.try_execute_kernels(&p.kernels).unwrap())
            .fold(f64::INFINITY, f64::min);
        prop_assert_eq!(a3.to_bits(), b3.to_bits());

        prop_assert_eq!(
            plain.device_time_used().to_bits(),
            faulty.device_time_used().to_bits()
        );
        prop_assert_eq!(faulty.fault_counts().total(), 0);
    }

    /// Fault schedules are pure in (fault seed, event index): two devices
    /// with the same (noise seed, fault seed) produce identical outcome
    /// sequences, fault tallies, and device-time meters.
    #[test]
    fn chaos_runs_are_reproducible(
        noise_seed in 0u64..200,
        fault_seed in 0u64..200,
    ) {
        let k = ew_kernel(128, 128);
        let run = || {
            let d = TpuDevice::new(noise_seed).with_faults(FaultPlan::chaos(fault_seed));
            let outcomes: Vec<Result<u64, DeviceError>> =
                (0..64).map(|_| d.try_execute_kernel(&k).map(f64::to_bits)).collect();
            (outcomes, d.fault_counts(), d.device_time_used().to_bits())
        };
        prop_assert_eq!(run(), run());
    }

    /// Under chaos, successful measurements stay within the §5 noise band
    /// unless spiked, and spiked ones exceed it by the configured scale.
    #[test]
    fn successful_runs_are_noise_or_spike(fault_seed in 0u64..100) {
        let k = ew_kernel(256, 256);
        let d = TpuDevice::new(9).with_faults(FaultPlan::chaos(fault_seed));
        let truth = d.true_kernel_time(&k);
        for _ in 0..64 {
            if let Ok(t) = d.try_execute_kernel(&k) {
                let ratio = t / truth;
                let in_band = (ratio - 1.0).abs() <= 0.0401;
                let spiked = ratio > 1.04 && ratio <= 3.0 * 1.0401;
                prop_assert!(in_band || spiked, "ratio {ratio} neither noise nor spike");
            }
        }
    }
}
