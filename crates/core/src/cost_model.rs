//! A common interface over every runtime predictor in this reproduction.

use crate::batch::Prepared;
use crate::lstm_model::LstmModel;
use crate::model::GnnModel;
use tpu_hlo::{FusedProgram, Kernel};

/// Anything that can estimate kernel runtimes in nanoseconds.
///
/// Backends: the learned GNN ([`GnnModel`]), the LSTM baseline
/// ([`LstmModel`]), the analytical model, or the simulator itself as an
/// oracle ([`SimOracle`]).
///
/// The batch method is the primary serving surface: the paper's deployment
/// story (§6.3) scores thousands of candidate configurations, and every
/// layer above this trait (the [`Predictor`](crate::Predictor) session, the
/// autotuner's objectives) hands the backend *slices* of kernels so a
/// neural backend can answer them with one packed forward pass instead of
/// one per kernel. `predict_kernel_ns` remains for one-off queries.
///
/// Returning `None` means the backend cannot score this kernel — the
/// analytical model's behaviour on kernels without tile-size options
/// (paper footnote 3, §6.3: "it cannot estimate runtimes for kernels that
/// do not have tile-size options").
pub trait CostModel {
    /// Estimated kernel runtime in ns, or `None` if unsupported.
    fn predict_kernel_ns(&self, kernel: &Kernel) -> Option<f64>;

    /// Estimated runtimes for a slice of kernels, positionally.
    ///
    /// The default loops [`CostModel::predict_kernel_ns`]; backends that
    /// can amortize work across kernels (packed GNN/LSTM forwards)
    /// override it. Implementations must match the per-kernel
    /// path positionally — bit-identical for the GNN/oracle backends,
    /// within padding arithmetic (~1e-5 log-ns) for the masked LSTM — so
    /// caching batch results stays sound.
    fn predict_batch_ns(&self, kernels: &[Kernel]) -> Vec<Option<f64>> {
        kernels.iter().map(|k| self.predict_kernel_ns(k)).collect()
    }

    /// Short name for reports.
    fn name(&self) -> &str;

    /// Estimated whole-program runtime: the sum over kernels (§3.3), or
    /// `None` if any kernel is unsupported. Goes through the batch path, so
    /// a program is one forward pass for neural backends.
    fn predict_program_ns(&self, program: &FusedProgram) -> Option<f64> {
        self.predict_batch_ns(&program.kernels)
            .into_iter()
            .try_fold(0.0, |total, ns| ns.map(|v| total + v))
    }
}

/// A borrowed model is a model: lets sessions like
/// [`Predictor`](crate::Predictor) wrap `&M` without taking ownership.
impl<M: CostModel + ?Sized> CostModel for &M {
    fn predict_kernel_ns(&self, kernel: &Kernel) -> Option<f64> {
        (**self).predict_kernel_ns(kernel)
    }
    fn predict_batch_ns(&self, kernels: &[Kernel]) -> Vec<Option<f64>> {
        (**self).predict_batch_ns(kernels)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn predict_program_ns(&self, program: &FusedProgram) -> Option<f64> {
        (**self).predict_program_ns(program)
    }
}

/// A boxed model is a model: lets daemons hold runtime-selected backends
/// as `Box<dyn CostModel + Send>` and still hand them to
/// [`Predictor`](crate::Predictor).
impl<M: CostModel + ?Sized> CostModel for Box<M> {
    fn predict_kernel_ns(&self, kernel: &Kernel) -> Option<f64> {
        (**self).predict_kernel_ns(kernel)
    }
    fn predict_batch_ns(&self, kernels: &[Kernel]) -> Vec<Option<f64>> {
        (**self).predict_batch_ns(kernels)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn predict_program_ns(&self, program: &FusedProgram) -> Option<f64> {
        (**self).predict_program_ns(program)
    }
}

impl CostModel for GnnModel {
    fn predict_kernel_ns(&self, kernel: &Kernel) -> Option<f64> {
        Some(self.predict_ns(kernel))
    }
    /// Featurization, then **one** packed forward for the whole
    /// slice — the disjoint-union batching of §4.2 applied to serving.
    fn predict_batch_ns(&self, kernels: &[Kernel]) -> Vec<Option<f64>> {
        let prepared = Prepared::from_kernels(kernels);
        let refs: Vec<&Prepared> = prepared.iter().collect();
        crate::engine::forward_log_ns(self, &refs)
            .into_iter()
            .map(|l| Some(l.exp()))
            .collect()
    }
    fn name(&self) -> &str {
        "learned-gnn"
    }
}

impl CostModel for LstmModel {
    fn predict_kernel_ns(&self, kernel: &Kernel) -> Option<f64> {
        Some(self.predict_ns(kernel))
    }
    /// One masked packed forward over all sequences (§6.1 baseline).
    fn predict_batch_ns(&self, kernels: &[Kernel]) -> Vec<Option<f64>> {
        let prepared = Prepared::from_kernels(kernels);
        let refs: Vec<&Prepared> = prepared.iter().collect();
        crate::engine::forward_log_ns(self, &refs)
            .into_iter()
            .map(|l| Some(l.exp()))
            .collect()
    }
    fn name(&self) -> &str {
        "lstm-baseline"
    }
}

/// The simulator as an oracle cost model (useful for upper-bound
/// comparisons and tests).
#[derive(Debug, Clone)]
pub struct SimOracle {
    cfg: tpu_sim::TpuConfig,
}

impl SimOracle {
    /// Oracle for a machine configuration.
    pub fn new(cfg: tpu_sim::TpuConfig) -> SimOracle {
        SimOracle { cfg }
    }
}

impl CostModel for SimOracle {
    fn predict_kernel_ns(&self, kernel: &Kernel) -> Option<f64> {
        Some(tpu_sim::kernel_time_ns(kernel, &self.cfg))
    }
    fn name(&self) -> &str {
        "simulator-oracle"
    }
}

/// Wrap any closure as a [`CostModel`] (adapter for callers that want a
/// one-off model without a named type).
pub struct FnCostModel<F> {
    name: String,
    f: F,
}

impl<F: Fn(&Kernel) -> Option<f64>> FnCostModel<F> {
    /// Create a named closure-backed cost model.
    pub fn new(name: impl Into<String>, f: F) -> FnCostModel<F> {
        FnCostModel {
            name: name.into(),
            f,
        }
    }
}

impl<F: Fn(&Kernel) -> Option<f64>> CostModel for FnCostModel<F> {
    fn predict_kernel_ns(&self, kernel: &Kernel) -> Option<f64> {
        (self.f)(kernel)
    }
    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_hlo::{DType, GraphBuilder, Shape};

    fn kernel() -> Kernel {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(256, 256), DType::F32);
        let t = b.tanh(x);
        Kernel::new(b.finish(t))
    }

    fn kernel_cols(cols: usize) -> Kernel {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(8, cols), DType::F32);
        let t = b.tanh(x);
        let e = b.exp(t);
        Kernel::new(b.finish(e))
    }

    #[test]
    fn oracle_predicts_exact_sim_time() {
        let cfg = tpu_sim::TpuConfig::default();
        let oracle = SimOracle::new(cfg.clone());
        let k = kernel();
        assert_eq!(
            oracle.predict_kernel_ns(&k),
            Some(tpu_sim::kernel_time_ns(&k, &cfg))
        );
    }

    #[test]
    fn program_prediction_sums_kernels() {
        let oracle = SimOracle::new(tpu_sim::TpuConfig::default());
        let p = FusedProgram::new("p", vec![kernel(), kernel()]);
        let total = oracle.predict_program_ns(&p).unwrap();
        let single = oracle.predict_kernel_ns(&kernel()).unwrap();
        assert!((total - 2.0 * single).abs() < 1e-9);
    }

    #[test]
    fn fn_cost_model_propagates_none() {
        let m = FnCostModel::new("nope", |_k: &Kernel| None);
        assert_eq!(m.predict_kernel_ns(&kernel()), None);
        let p = FusedProgram::new("p", vec![kernel()]);
        assert_eq!(m.predict_program_ns(&p), None);
        assert_eq!(m.name(), "nope");
    }

    #[test]
    fn gnn_is_a_cost_model() {
        let m = crate::model::GnnModel::new(crate::model::GnnConfig::default());
        let pred = m.predict_kernel_ns(&kernel()).unwrap();
        assert!(pred > 0.0, "exp(log-ns) must be positive");
    }

    #[test]
    fn default_batch_matches_per_kernel() {
        let oracle = SimOracle::new(tpu_sim::TpuConfig::default());
        let kernels: Vec<Kernel> = (1..=5).map(|i| kernel_cols(i * 32)).collect();
        let batch = oracle.predict_batch_ns(&kernels);
        for (k, b) in kernels.iter().zip(&batch) {
            assert_eq!(*b, oracle.predict_kernel_ns(k));
        }
        assert!(oracle.predict_batch_ns(&[]).is_empty());
    }

    #[test]
    fn gnn_batch_is_bit_identical_to_single() {
        let m = GnnModel::new(crate::model::GnnConfig::default());
        let kernels: Vec<Kernel> = (1..=6).map(|i| kernel_cols(i * 16)).collect();
        let batch = m.predict_batch_ns(&kernels);
        for (k, b) in kernels.iter().zip(&batch) {
            assert_eq!(*b, Some(m.predict_ns(k)), "packed forward must match");
        }
    }

    #[test]
    fn lstm_batch_matches_single() {
        // Masked batching is exact up to padding arithmetic (~1e-5 in the
        // log domain), same tolerance as the masking unit test.
        let m = LstmModel::new(crate::lstm_model::LstmConfig::default());
        let kernels: Vec<Kernel> = (1..=4).map(|i| kernel_cols(i * 16)).collect();
        let batch = m.predict_batch_ns(&kernels);
        for (k, b) in kernels.iter().zip(&batch) {
            let single = m.predict_ns(k);
            let rel = (b.unwrap().ln() - single.ln()).abs();
            assert!(rel < 1e-5, "masked batch drifted: {rel}");
        }
    }

    #[test]
    fn borrowed_model_is_a_cost_model() {
        let oracle = SimOracle::new(tpu_sim::TpuConfig::default());
        let by_ref: &dyn CostModel = &&oracle;
        assert_eq!(by_ref.name(), "simulator-oracle");
        assert_eq!(by_ref.predict_kernel_ns(&kernel()), oracle.predict_kernel_ns(&kernel()));
    }
}
