//! Per-kernel-kind coefficient calibration (§6.1).
//!
//! The analytical model's outputs are in different abstract scales per
//! kernel type. The paper maps them to nanoseconds by "executing each
//! program in the test set on the real hardware target with a default
//! fusion configuration, and dividing the actual total runtime for all
//! kernels of each type by the estimate in its original scale". This module
//! implements exactly that procedure.

use crate::model::AnalyticalModel;
use tpu_hlo::{FusedProgram, KernelKind};
use tpu_sim::TpuDevice;

/// Calibrated per-kind scaling coefficients mapping abstract units to ns.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Calibration {
    coeffs: [f64; 5],
}

impl Calibration {
    /// Fit coefficients from default-config programs measured on the
    /// device. Kernels the model cannot score are skipped (1% of kernels
    /// in the paper's data; similar here).
    pub(crate) fn fit(
        model: &AnalyticalModel,
        programs: &[FusedProgram],
        device: &TpuDevice,
    ) -> Calibration {
        let mut actual = [0.0f64; 5];
        let mut predicted = [0.0f64; 5];
        for p in programs {
            for k in &p.kernels {
                if let Some(raw) = model.raw_cost(k) {
                    let ns = device.measure_kernel(k, 3);
                    let idx = k.kind.index();
                    actual[idx] += ns;
                    predicted[idx] += raw;
                }
            }
        }
        let mut coeffs = [1.0f64; 5];
        for i in 0..5 {
            if predicted[i] > 0.0 {
                coeffs[i] = actual[i] / predicted[i];
            }
        }
        Calibration { coeffs }
    }

    /// A unit calibration (raw costs used as-is) — only sensible for
    /// within-kind ranking tasks like tile-size selection, where "the
    /// scaling coefficients used in the fusion task are no longer needed"
    /// (§6.2).
    pub(crate) fn identity() -> Calibration {
        Calibration { coeffs: [1.0; 5] }
    }

    /// The coefficient for a kernel kind.
    pub(crate) fn coeff(&self, kind: KernelKind) -> f64 {
        self.coeffs[kind.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalyticalCost;
    use tpu_hlo::{DType, GraphBuilder, Kernel, Shape};
    use tpu_learned_cost::CostModel;
    use tpu_sim::TpuConfig;

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

    #[test]
    fn calibration_brings_predictions_near_truth() {
        let device = TpuDevice::new(3);
        let kernels: Vec<Kernel> = vec![
            ew_kernel(1024, 1024),
            ew_kernel(512, 2048),
            dot_kernel(512, 512, 512),
            dot_kernel(1024, 256, 1024),
        ];
        let programs = vec![FusedProgram::new("cal", kernels.clone())];
        let cost = AnalyticalCost::fit(TpuConfig::default(), &programs, &device);

        for k in &kernels {
            let pred = cost.predict_kernel_ns(k).unwrap();
            let truth = device.true_kernel_time(k);
            let ape = (pred - truth).abs() / truth;
            assert!(
                ape < 0.6,
                "calibrated APE too large: {ape} for {:?}",
                k.kind
            );
        }
    }

    #[test]
    fn identity_calibration_passes_raw_through() {
        let model = AnalyticalModel::new(TpuConfig::default());
        let k = ew_kernel(1024, 1024);
        let raw = model.raw_cost(&k).unwrap();
        let pred = AnalyticalCost::new(TpuConfig::default())
            .predict_kernel_ns(&k)
            .unwrap();
        assert_eq!(raw.to_bits(), pred.to_bits());
    }

    #[test]
    fn unsupported_kernels_stay_unsupported() {
        let cost = AnalyticalCost::new(TpuConfig::default());
        let tiny = ew_kernel(4, 4);
        assert_eq!(cost.predict_kernel_ns(&tiny), None);
    }

    #[test]
    fn coefficients_differ_across_kinds() {
        let model = AnalyticalModel::new(TpuConfig::default());
        let device = TpuDevice::new(3);
        let programs = vec![FusedProgram::new(
            "cal",
            vec![ew_kernel(1024, 1024), dot_kernel(512, 512, 512)],
        )];
        let cal = Calibration::fit(&model, &programs, &device);
        assert_ne!(
            cal.coeff(KernelKind::Single),
            cal.coeff(KernelKind::OutputFusion)
        );
    }
}
