//! Per-kernel-kind coefficient calibration (§6.1).
//!
//! The analytical model's outputs are in different abstract scales per
//! kernel type. The paper maps them to nanoseconds by "executing each
//! program in the test set on the real hardware target with a default
//! fusion configuration, and dividing the actual total runtime for all
//! kernels of each type by the estimate in its original scale". This module
//! implements exactly that procedure.

use crate::model::AnalyticalModel;
use tpu_hlo::{FusedProgram, Kernel, KernelKind};
use tpu_sim::TpuDevice;

/// Calibrated per-kind scaling coefficients mapping abstract units to ns.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    coeffs: [f64; 5],
}

impl Calibration {
    /// Fit coefficients from default-config programs measured on the
    /// device. Kernels the model cannot score are skipped (1% of kernels
    /// in the paper's data; similar here).
    pub fn fit(
        model: &AnalyticalModel,
        programs: &[FusedProgram],
        device: &TpuDevice,
    ) -> Calibration {
        let mut actual = [0.0f64; 5];
        let mut predicted = [0.0f64; 5];
        for p in programs {
            for k in &p.kernels {
                if let Some(raw) = model.raw_cost(k) {
                    // Resilient measurement: `try_measure_kernel` already
                    // skips individually faulted runs; a measurement whose
                    // every run faulted gets one retry, and a kernel that
                    // still cannot be measured is dropped from *both* sums
                    // so each coefficient stays a ratio over successfully
                    // measured kernels. A fault-free device never errors,
                    // so under `FaultPlan::none()` this is bit-identical
                    // to the historical `measure_kernel(k, 3)` path.
                    let measured = device
                        .try_measure_kernel(k, 3)
                        .or_else(|_| device.try_measure_kernel(k, 3));
                    let Ok(ns) = measured else { continue };
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
    pub fn identity() -> Calibration {
        Calibration { coeffs: [1.0; 5] }
    }

    /// The coefficient for a kernel kind.
    pub fn coeff(&self, kind: KernelKind) -> f64 {
        self.coeffs[kind.index()]
    }

    /// Predict a kernel runtime in ns, or `None` if the model does not
    /// support the kernel.
    pub fn predict_ns(&self, model: &AnalyticalModel, k: &Kernel) -> Option<f64> {
        model.raw_cost(k).map(|raw| raw * self.coeff(k.kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_hlo::{DType, GraphBuilder, Shape};
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
        let model = AnalyticalModel::new(TpuConfig::default());
        let device = TpuDevice::new(3);
        let kernels: Vec<Kernel> = vec![
            ew_kernel(1024, 1024),
            ew_kernel(512, 2048),
            dot_kernel(512, 512, 512),
            dot_kernel(1024, 256, 1024),
        ];
        let programs = vec![FusedProgram::new("cal", kernels.clone())];
        let cal = Calibration::fit(&model, &programs, &device);

        for k in &kernels {
            let pred = cal.predict_ns(&model, k).unwrap();
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
        let pred = Calibration::identity().predict_ns(&model, &k).unwrap();
        assert_eq!(raw, pred);
    }

    #[test]
    fn unsupported_kernels_stay_unsupported() {
        let model = AnalyticalModel::new(TpuConfig::default());
        let cal = Calibration::identity();
        let tiny = ew_kernel(4, 4);
        assert_eq!(cal.predict_ns(&model, &tiny), None);
    }

    #[test]
    fn fit_tolerates_injected_faults() {
        use tpu_sim::FaultPlan;
        let model = AnalyticalModel::new(TpuConfig::default());
        let programs = vec![FusedProgram::new(
            "cal",
            vec![
                ew_kernel(1024, 1024),
                ew_kernel(512, 2048),
                dot_kernel(512, 512, 512),
            ],
        )];
        // Under the default chaos plan calibration completes without
        // panicking and still produces usable (finite, positive)
        // coefficients for the measured kinds.
        let device = TpuDevice::new(3).with_faults(FaultPlan::chaos(7));
        let cal = Calibration::fit(&model, &programs, &device);
        for kind in [KernelKind::Single, KernelKind::OutputFusion] {
            let c = cal.coeff(kind);
            assert!(c.is_finite() && c > 0.0, "{kind:?}: coeff {c}");
        }
        // A device that faults every run leaves no measured kernels;
        // calibration degrades to identity coefficients rather than
        // dividing by zero or panicking.
        let always_fail = FaultPlan {
            transient_prob: 1.0,
            ..FaultPlan::none()
        };
        let device = TpuDevice::new(3).with_faults(always_fail);
        let cal = Calibration::fit(&model, &programs, &device);
        assert_eq!(cal, Calibration::identity());
    }

    #[test]
    fn fit_under_none_plan_matches_fault_free_device() {
        use tpu_sim::FaultPlan;
        let model = AnalyticalModel::new(TpuConfig::default());
        let programs = vec![FusedProgram::new(
            "cal",
            vec![ew_kernel(1024, 1024), dot_kernel(512, 512, 512)],
        )];
        let plain = Calibration::fit(&model, &programs, &TpuDevice::new(3));
        let none = Calibration::fit(
            &model,
            &programs,
            &TpuDevice::new(3).with_faults(FaultPlan::none()),
        );
        assert_eq!(plain, none);
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
