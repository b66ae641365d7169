//! The analytical model behind the common [`CostModel`] interface.
//!
//! Raw analytical costs are in per-kernel-kind abstract scales, so this
//! impl is meaningful for *within-kind ranking* (tile-size selection,
//! §6.2) and for feeding a fitted [`Calibration`](crate::Calibration) —
//! experiment harnesses that need nanoseconds wrap this model together
//! with its calibration. `None` marks the kernels the model cannot score
//! (no tile-size options; footnote 3).

use crate::model::AnalyticalModel;
use tpu_hlo::Kernel;
use tpu_learned_cost::CostModel;

impl CostModel for AnalyticalModel {
    fn predict_kernel_ns(&self, kernel: &Kernel) -> Option<f64> {
        self.raw_cost(kernel)
    }

    fn name(&self) -> &str {
        "analytical-raw"
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

    #[test]
    fn batch_matches_per_kernel_including_unsupported() {
        let model = AnalyticalModel::new(TpuConfig::default());
        // The 4x4 kernel has no tile-size options: raw_cost is None, and
        // the batch path must carry that through positionally.
        let kernels = vec![ew_kernel(1024, 1024), ew_kernel(4, 4), ew_kernel(512, 2048)];
        let batch = model.predict_batch_ns(&kernels);
        for (k, b) in kernels.iter().zip(&batch) {
            assert_eq!(*b, model.raw_cost(k));
        }
        assert!(batch[1].is_none(), "unsupported kernel must stay None");
    }

    #[test]
    fn named_for_reports() {
        let model = AnalyticalModel::new(TpuConfig::default());
        assert_eq!(CostModel::name(&model), "analytical-raw");
    }
}
