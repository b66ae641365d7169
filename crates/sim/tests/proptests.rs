//! Property-based tests for the simulator's physical plausibility.

use proptest::prelude::*;
use tpu_hlo::{DType, GraphBuilder, Kernel, Shape, TileSize};
use tpu_sim::{analyze_kernel, kernel_time_ns, TpuConfig, TpuDevice};

fn ew_kernel(rows: usize, cols: usize) -> Kernel {
    let mut b = GraphBuilder::new("k");
    let x = b.parameter("x", Shape::matrix(rows, cols), DType::F32);
    let t = b.tanh(x);
    Kernel::new(b.finish(t))
}

fn dot_kernel(m: usize, k: usize, n: usize) -> Kernel {
    let mut b = GraphBuilder::new("k");
    let x = b.parameter("x", Shape::matrix(m, k), DType::F32);
    let w = b.parameter("w", Shape::matrix(k, n), DType::F32);
    let d = b.dot(x, w);
    Kernel::new(b.finish(d))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn elementwise_time_monotone_in_size(r in 3u32..11, c in 3u32..11) {
        let cfg = TpuConfig::default();
        let small = kernel_time_ns(&ew_kernel(1 << r, 1 << c), &cfg);
        let bigger = kernel_time_ns(&ew_kernel(1 << (r + 1), 1 << c), &cfg);
        prop_assert!(bigger >= small * 0.999,
            "doubling rows must not speed things up: {small} -> {bigger}");
    }

    #[test]
    fn dot_time_grows_with_k(m in 5u32..9, k in 5u32..9, n in 5u32..9) {
        let cfg = TpuConfig::default();
        let a = kernel_time_ns(&dot_kernel(1 << m, 1 << k, 1 << n), &cfg);
        let b = kernel_time_ns(&dot_kernel(1 << m, 1 << (k + 1), 1 << n), &cfg);
        prop_assert!(b > a * 0.999);
    }

    #[test]
    fn timing_breakdown_consistent(r in 4u32..12, c in 4u32..12) {
        let cfg = TpuConfig::default();
        let t = analyze_kernel(&ew_kernel(1 << r, 1 << c), &cfg);
        prop_assert!(t.compute_ns >= 0.0);
        prop_assert!(t.memory_ns > 0.0);
        prop_assert!(t.total_ns >= t.compute_ns.max(t.memory_ns));
        prop_assert!(t.total_ns.is_finite());
        prop_assert!(t.n_tiles >= 1);
    }

    #[test]
    fn noise_bounded_and_min_of_k_decreasing(seed in 0u64..1000) {
        let device = TpuDevice::new(seed);
        let k = ew_kernel(256, 256);
        let truth = device.true_kernel_time(&k);
        let one = device.measure_kernel(&k, 1);
        let five = device.measure_kernel(&k, 5);
        prop_assert!((one / truth - 1.0).abs() <= 0.0401);
        prop_assert!((five / truth - 1.0).abs() <= 0.0401);
        // min over more runs cannot exceed a fresh single run by more than
        // the noise band.
        prop_assert!(five <= truth * 1.0401);
    }

    #[test]
    fn tile_never_free(minor_exp in 3u32..9, sub_exp in 1u32..7) {
        // Any explicit tile must produce positive, finite time.
        let cfg = TpuConfig::default();
        let k = ew_kernel(512, 512);
        let tile = TileSize(vec![1 << minor_exp, 1 << sub_exp]);
        let t = kernel_time_ns(&k.with_tile(tile), &cfg);
        prop_assert!(t.is_finite() && t > 0.0);
    }

    #[test]
    fn device_time_meter_monotone(n_execs in 1usize..10) {
        let device = TpuDevice::new(3);
        let k = ew_kernel(128, 128);
        let mut last = 0.0;
        for _ in 0..n_execs {
            device.measure_kernel(&k, 1);
            let used = device.device_time_used();
            prop_assert!(used > last);
            last = used;
        }
    }
}
