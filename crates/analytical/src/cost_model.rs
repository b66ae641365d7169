//! The analytical baseline behind the common [`CostModel`] interface.

use crate::calibrate::Calibration;
use crate::model::AnalyticalModel;
use tpu_hlo::{FusedProgram, Kernel};
use tpu_learned_cost::CostModel;
use tpu_sim::{TpuConfig, TpuDevice};

/// The roofline model together with its per-kernel-kind coefficients: the
/// analytical baseline as one [`CostModel`].
///
/// [`AnalyticalCost::new`] keeps the model's per-kind abstract units
/// (identity coefficients): meaningful for *within-kind* ranking, where
/// "the scaling coefficients used in the fusion task are no longer needed"
/// (§6.2). [`AnalyticalCost::fit`] maps them to nanoseconds by §6.1's
/// procedure. `None` marks the kernels the model cannot score (no
/// tile-size options; footnote 3).
#[derive(Debug, Clone)]
pub struct AnalyticalCost {
    model: AnalyticalModel,
    calibration: Calibration,
}

impl AnalyticalCost {
    /// The uncalibrated model of `cfg`: each kernel kind answers in its own
    /// abstract scale.
    pub fn new(cfg: TpuConfig) -> AnalyticalCost {
        AnalyticalCost {
            model: AnalyticalModel::new(cfg),
            calibration: Calibration::identity(),
        }
    }

    /// The model of `model_cfg` calibrated (§6.1) by "executing each
    /// program in the test set on the real hardware target with a default
    /// fusion configuration, and dividing the actual total runtime for all
    /// kernels of each type by the estimate in its original scale".
    /// `programs` are those default-fused programs and `device` the target,
    /// which may be another machine than `model_cfg` (a stale model). Each
    /// kernel is measured min-of-3 (§5); a kind with nothing measured keeps
    /// coefficient 1.
    pub fn fit(
        model_cfg: TpuConfig,
        programs: &[FusedProgram],
        device: &TpuDevice,
    ) -> AnalyticalCost {
        let model = AnalyticalModel::new(model_cfg);
        let calibration = Calibration::fit(&model, programs, device);
        AnalyticalCost { model, calibration }
    }
}

impl CostModel for AnalyticalCost {
    /// The raw cost times the kind's coefficient, or `None` for a kernel
    /// the model cannot score.
    fn predict_kernel_ns(&self, kernel: &Kernel) -> Option<f64> {
        self.model
            .raw_cost(kernel)
            .map(|raw| raw * self.calibration.coeff(kernel.kind))
    }

    fn name(&self) -> &str {
        "analytical"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_hlo::{DType, GraphBuilder, Shape};

    fn ew_kernel(rows: usize, cols: usize) -> Kernel {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(rows, cols), DType::F32);
        let t = b.tanh(x);
        Kernel::new(b.finish(t))
    }

    #[test]
    fn batch_matches_per_kernel_including_unsupported() {
        let cfg = TpuConfig::default();
        let cost = AnalyticalCost::new(cfg.clone());
        let model = AnalyticalModel::new(cfg);
        // The 4x4 kernel has no tile-size options: raw_cost is None, and
        // the batch path must carry that through positionally.
        let kernels = vec![ew_kernel(1024, 1024), ew_kernel(4, 4), ew_kernel(512, 2048)];
        let batch = cost.predict_batch_ns(&kernels);
        for (k, b) in kernels.iter().zip(&batch) {
            assert_eq!(b.map(f64::to_bits), model.raw_cost(k).map(f64::to_bits));
        }
        assert!(batch[1].is_none(), "unsupported kernel must stay None");
    }

    #[test]
    fn named_for_reports() {
        let cost = AnalyticalCost::new(TpuConfig::default());
        assert_eq!(CostModel::name(&cost), "analytical");
    }
}
