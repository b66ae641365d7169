//! A common interface over every runtime predictor in this reproduction.

use crate::batch::Prepared;
use crate::features::FEATURE_DIM;
use crate::lstm_model::LstmModel;
use crate::model::GnnModel;
use crate::train::KernelModel;
use std::borrow::Borrow;
use tpu_hlo::{FusedProgram, Kernel};
use tpu_nn::{ArenaLen, Graph, NoTape};

/// Anything that can estimate kernel runtimes in nanoseconds.
///
/// Backends: the learned GNN ([`GnnModel`]), the LSTM baseline
/// ([`LstmModel`]), the analytical model, or the simulator itself as an
/// oracle ([`SimOracle`]). None of them has a prediction method of its
/// own: this trait is the one way to ask.
///
/// The batch method is the primary serving surface: the paper's deployment
/// story (§6.3) scores thousands of candidate configurations, and every
/// layer above this trait (the [`Predictor`](crate::Predictor) session, the
/// autotuner's objectives) hands the backend *slices* of kernels so a
/// neural backend can answer them in one call, on one arena
/// ([`predict_each`]). `predict_kernel_ns` remains for one-off queries.
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
    /// can amortize work across kernels (one arena for every GNN/LSTM
    /// forward) override it. Implementations must match the per-kernel
    /// path positionally and bit for bit, so caching batch results stays
    /// sound.
    fn predict_batch_ns(&self, kernels: &[Kernel]) -> Vec<Option<f64>> {
        kernels.iter().map(|k| self.predict_kernel_ns(k)).collect()
    }

    /// [`CostModel::predict_batch_ns`] over borrowed kernels: what a
    /// [`Predictor`](crate::Predictor) hands its backend, so a miss is lent
    /// to the model rather than copied for it.
    ///
    /// The default copies the kernels and calls `predict_batch_ns`, so a
    /// model that overrides only that method still sees every batch.
    /// Backends that featurize from a reference override both with one
    /// body; the answers must be the same.
    fn predict_refs_ns(&self, kernels: &[&Kernel]) -> Vec<Option<f64>> {
        let owned: Vec<Kernel> = kernels.iter().map(|&k| k.clone()).collect();
        self.predict_batch_ns(&owned)
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
    fn predict_refs_ns(&self, kernels: &[&Kernel]) -> Vec<Option<f64>> {
        (**self).predict_refs_ns(kernels)
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
    fn predict_refs_ns(&self, kernels: &[&Kernel]) -> Vec<Option<f64>> {
        (**self).predict_refs_ns(kernels)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn predict_program_ns(&self, program: &FusedProgram) -> Option<f64> {
        (**self).predict_program_ns(program)
    }
}

/// `f32`s of arena one tape-free forward of `model` over a kernel of
/// `nodes` nodes needs: the shape pass of the model's forward. It grows
/// with `nodes`, so an arena sized for the largest kernel fits them all.
fn arena_len<M: KernelModel>(model: &M, nodes: usize) -> usize {
    let whole = 0..nodes;
    let mut shapes = ArenaLen::with_len(0);
    let g = Graph::shape(std::slice::from_ref(&whole), FEATURE_DIM);
    model.forward(&mut shapes, &g);
    shapes.high_water()
}

/// Log-runtime of one featurized kernel, computed on `r` from its start.
fn log_ns_on<const SKIP_ZEROS: bool, M: KernelModel>(
    model: &M,
    r: &mut NoTape<SKIP_ZEROS>,
    p: &Prepared,
) -> f64 {
    r.reset();
    let whole = 0..p.num_nodes();
    let y = model.forward(r, &p.graph(&whole));
    f64::from(r.value(y)[0])
}

/// Predicted log-runtime of one featurized kernel, without a tape: the
/// model's forward over [`NoTape`], whose arena — sized by the shape pass
/// — is the one allocation. `SKIP_ZEROS` turns the matmul kernel's zero
/// skip on, which is exact only when every weight is finite.
pub fn predict_one_log_ns<const SKIP_ZEROS: bool, M: KernelModel>(model: &M, p: &Prepared) -> f64 {
    let mut r = NoTape::<SKIP_ZEROS>::with_len(arena_len(model, p.num_nodes()));
    log_ns_on(model, &mut r, p)
}

/// Predicted log-runtime of each featurized kernel, in order, without a
/// tape: one forward per kernel, on one arena sized for the largest.
pub fn predict_log_ns<'a, M: KernelModel>(
    model: &'a M,
    prepared: &'a [Prepared],
) -> impl Iterator<Item = f64> + 'a {
    let nodes = prepared.iter().map(Prepared::num_nodes).max().unwrap_or(0);
    let mut r = NoTape::<false>::with_len(arena_len(model, nodes));
    prepared.iter().map(move |p| log_ns_on(model, &mut r, p))
}

/// The one serving body of every neural backend, over owned or borrowed
/// kernels: per kernel in order, featurize and one tape-free forward, on
/// one arena sized for the largest. Each kernel is its own forward, so a
/// prediction never depends on the rest of the batch.
pub fn predict_each<const SKIP_ZEROS: bool, M: KernelModel, K: Borrow<Kernel>>(
    model: &M,
    kernels: &[K],
) -> Vec<Option<f64>> {
    let nodes = kernels.iter().map(|k| k.borrow().computation.num_nodes());
    let mut r = NoTape::<SKIP_ZEROS>::with_len(arena_len(model, nodes.max().unwrap_or(0)));
    kernels
        .iter()
        .map(|k| {
            let p = Prepared::from_kernel(k.borrow());
            Some(log_ns_on(model, &mut r, &p).exp())
        })
        .collect()
}

/// The neural backends answer through one body: a kernel on its own is
/// [`predict_one_log_ns`], a slice is [`predict_each`] (zero skip off:
/// a trained model's weights are not checked for finiteness).
macro_rules! neural_cost_model {
    ($($model:ty => $name:literal),*) => {$(
        impl CostModel for $model {
            fn predict_kernel_ns(&self, kernel: &Kernel) -> Option<f64> {
                Some(predict_one_log_ns::<false, _>(self, &Prepared::from_kernel(kernel)).exp())
            }
            fn predict_batch_ns(&self, kernels: &[Kernel]) -> Vec<Option<f64>> {
                predict_each::<false, _, _>(self, kernels)
            }
            fn predict_refs_ns(&self, kernels: &[&Kernel]) -> Vec<Option<f64>> {
                predict_each::<false, _, _>(self, kernels)
            }
            fn name(&self) -> &str {
                $name
            }
        }
    )*};
}

neural_cost_model!(GnnModel => "learned-gnn", LstmModel => "lstm-baseline");

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
            assert_eq!(*b, m.predict_kernel_ns(k), "packed forward must match");
        }
    }

    #[test]
    fn lstm_batch_matches_single() {
        // Masked batching is exact: a kernel's row in the packed forward
        // runs the single-kernel forward's operations, and a finished
        // row's padding steps add only zeros.
        let mut m = LstmModel::new(crate::lstm_model::LstmConfig::default());
        crate::model::perturb_biases(m.store_mut());
        let kernels: Vec<Kernel> = (1..=4).map(|i| kernel_cols(i * 16)).collect();
        let batch = m.predict_batch_ns(&kernels);
        for (k, b) in kernels.iter().zip(&batch) {
            assert_eq!(
                b.unwrap().to_bits(),
                m.predict_kernel_ns(k).unwrap().to_bits()
            );
        }
    }

    /// Ragged kernels: chains of 1..=7 ops, some with a second branch
    /// joining the first (fan-in), over varied shapes.
    fn ragged(n: usize) -> Vec<Kernel> {
        (0..n)
            .map(|i| {
                let mut b = GraphBuilder::new("ragged");
                let x = b.parameter("x", Shape::matrix(8 << (i % 5), 16 + 24 * i), DType::F32);
                let mut v = x;
                for step in 0..1 + i % 7 {
                    v = if (i + step) % 2 == 0 {
                        b.tanh(v)
                    } else {
                        b.exp(v)
                    };
                }
                if i % 3 == 0 {
                    let other = b.logistic(x);
                    v = b.add(v, other);
                }
                Kernel::new(b.finish(v))
            })
            .collect()
    }

    /// The per-kernel tape-free body, zero skip off and on, against the
    /// packed tape forward, `to_bits`, over ragged batches.
    fn assert_serving_is_the_packed_tape<M: KernelModel>(label: &str, model: &M) {
        for n in [1, 2, 7] {
            let kernels = ragged(n);
            let prepared: Vec<Prepared> = kernels.iter().map(Prepared::from_kernel).collect();
            let refs: Vec<&Prepared> = prepared.iter().collect();
            let packed: Vec<u64> = crate::engine::forward_log_ns(model, &refs)
                .into_iter()
                .map(|l| l.exp().to_bits())
                .collect();
            let bits = |v: Vec<Option<f64>>| -> Vec<u64> {
                v.into_iter().map(|p| p.unwrap().to_bits()).collect()
            };
            assert_eq!(
                bits(predict_each::<false, _, _>(model, &kernels)),
                packed,
                "{label}, {n}"
            );
            assert_eq!(
                bits(predict_each::<true, _, _>(model, &kernels)),
                packed,
                "{label}, {n}"
            );
        }
    }

    #[test]
    fn every_architecture_serves_its_packed_tape_forward() {
        use crate::model::{GnnArch, GnnConfig, PoolCombo, Reduction};
        let pools = [
            PoolCombo {
                sum: true,
                mean: false,
                max: false,
            },
            PoolCombo {
                sum: false,
                mean: true,
                max: true,
            },
            PoolCombo::all(),
        ];
        for reduction in [Reduction::Sum, Reduction::Mean, Reduction::Max] {
            for pooling in pools {
                for hops in [0, 2] {
                    let mut m = GnnModel::new(GnnConfig {
                        reduction,
                        pooling,
                        hops,
                        ..GnnConfig::default()
                    });
                    crate::model::perturb_biases(m.store_mut());
                    let label = format!("{reduction:?}/{pooling:?}/{hops} hops");
                    assert_serving_is_the_packed_tape(&label, &m);
                }
            }
        }
        for hops in [0, 1, 3] {
            let mut m = GnnModel::new(GnnConfig {
                arch: GnnArch::GcnMean,
                hops,
                ..GnnConfig::default()
            });
            crate::model::perturb_biases(m.store_mut());
            assert_serving_is_the_packed_tape(&format!("GcnMean/{hops} hops"), &m);
        }
        let mut m = LstmModel::new(crate::lstm_model::LstmConfig::default());
        crate::model::perturb_biases(m.store_mut());
        assert_serving_is_the_packed_tape("lstm", &m);
    }

    #[test]
    fn borrowed_model_is_a_cost_model() {
        let oracle = SimOracle::new(tpu_sim::TpuConfig::default());
        let by_ref: &dyn CostModel = &&oracle;
        assert_eq!(by_ref.name(), "simulator-oracle");
        assert_eq!(
            by_ref.predict_kernel_ns(&kernel()),
            oracle.predict_kernel_ns(&kernel())
        );
    }
}
