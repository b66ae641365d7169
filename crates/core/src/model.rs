//! The GraphSAGE-based performance model (§4.1, Eq. 1).

use crate::features::FEATURE_DIM;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tpu_hlo::Opcode;
use tpu_nn::{Activation, Embedding, Graph, Linear, ParamSource, ParamStore, Recorder};

/// Constant added to the head output: centers untrained predictions near
/// `e^8 ≈ 3 µs`, the middle of the kernel-runtime distribution (§5).
pub const LOG_NS_OFFSET: f32 = 8.0;

/// Message-passing architecture for the node-embedding stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GnnArch {
    /// The paper's GraphSAGE (Eq. 1): concat(self, Σ f₂(neighbors)) → f₃ →
    /// L2 normalize.
    GraphSage,
    /// A GCN-style ablation: mean over {self} ∪ neighbors → one linear →
    /// ReLU, no self/neighbor separation and no L2 normalization.
    GcnMean,
}

/// Neighborhood reduction Σ of Eq. 1 ("a reduction chosen during
/// hyperparameter search"), also each kernel pool's reduction.
pub use tpu_nn::Reduction;

/// Which of sum/mean/max row-pools form the kernel embedding κ (§4.1:
/// "the exact combination of sum, mean, and max vectors is tuned via
/// hyperparameter search").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolCombo {
    /// Include the per-kernel sum pool.
    pub sum: bool,
    /// Include the per-kernel mean pool.
    pub mean: bool,
    /// Include the per-kernel max pool.
    pub max: bool,
}

impl PoolCombo {
    /// All three pools.
    pub fn all() -> PoolCombo {
        PoolCombo {
            sum: true,
            mean: true,
            max: true,
        }
    }

    /// Number of enabled pools.
    pub fn count(&self) -> usize {
        self.sum as usize + self.mean as usize + self.max as usize
    }
}

/// Hyperparameters of the GNN model.
#[derive(Debug, Clone, PartialEq)]
pub struct GnnConfig {
    /// Opcode embedding width.
    pub opcode_embed_dim: usize,
    /// Node embedding width (output of f₁ and each hop).
    pub hidden: usize,
    /// Number of GraphSAGE hops (k of Eq. 1).
    pub hops: usize,
    /// Neighborhood reduction.
    pub reduction: Reduction,
    /// Kernel-pooling combination.
    pub pooling: PoolCombo,
    /// Message-passing architecture (GraphSAGE by default).
    pub arch: GnnArch,
    /// RNG seed for initialization.
    pub seed: u64,
}

impl Default for GnnConfig {
    fn default() -> Self {
        GnnConfig {
            opcode_embed_dim: 16,
            hidden: 48,
            hops: 2,
            reduction: Reduction::Sum,
            pooling: PoolCombo::all(),
            arch: GnnArch::GraphSage,
            seed: 17,
        }
    }
}

/// The learned performance model of the paper: opcode embedding + f₁, `k`
/// GraphSAGE hops (f₂ᵏ/f₃ᵏ with L2 normalization), sum/mean/max kernel
/// pooling, and a linear head predicting log-runtime.
///
/// # Example
///
/// ```
/// use tpu_learned_cost::{CostModel, GnnConfig, GnnModel};
/// use tpu_hlo::{DType, GraphBuilder, Kernel, Shape};
///
/// let mut b = GraphBuilder::new("k");
/// let x = b.parameter("x", Shape::matrix(256, 256), DType::F32);
/// let t = b.tanh(x);
/// let kernel = Kernel::new(b.finish(t));
///
/// let model = GnnModel::new(GnnConfig::default());
/// let ns = model.predict_kernel_ns(&kernel).unwrap();
/// assert!(ns.is_finite() && ns > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct GnnModel {
    config: GnnConfig,
    store: ParamStore,
    embedding: Embedding,
    f1: Linear,
    /// Per-hop (f₂ᵏ, f₃ᵏ).
    hops: Vec<(Linear, Linear)>,
    head: Linear,
}

impl GnnModel {
    /// Initialize with fresh parameters.
    ///
    /// # Panics
    ///
    /// Panics if `config.pooling` enables no pool: the kernel embedding κ
    /// would be empty, and the head would have no input.
    pub fn new(config: GnnConfig) -> GnnModel {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        GnnModel::build(config, &mut rng)
    }

    /// The model with its parameters, in registration order, from `src`:
    /// [`GnnModel::new`]'s fresh ones, or trained ones a loader restores.
    ///
    /// # Panics
    ///
    /// Panics like [`GnnModel::new`].
    pub fn build<S: ParamSource + ?Sized>(config: GnnConfig, src: &mut S) -> GnnModel {
        assert!(
            config.pooling.count() > 0,
            "GnnConfig::pooling enables no pool, so the head has no input"
        );
        let mut store = ParamStore::new();
        let embedding = Embedding::new(
            &mut store,
            "opcode_embedding",
            Opcode::count(),
            config.opcode_embed_dim,
            &mut *src,
        );
        let f1 = Linear::new(
            &mut store,
            "f1",
            config.opcode_embed_dim + FEATURE_DIM,
            config.hidden,
            Activation::Relu,
            &mut *src,
        );
        let mut hops = Vec::new();
        for k in 0..config.hops {
            let f2 = Linear::new(
                &mut store,
                &format!("hop{k}.f2"),
                config.hidden,
                config.hidden,
                Activation::Relu,
                &mut *src,
            );
            let f3 = Linear::new(
                &mut store,
                &format!("hop{k}.f3"),
                2 * config.hidden,
                config.hidden,
                Activation::Relu,
                &mut *src,
            );
            hops.push((f2, f3));
        }
        let head = Linear::new(
            &mut store,
            "head",
            config.hidden * config.pooling.count(),
            1,
            Activation::Identity,
            &mut *src,
        );
        GnnModel {
            config,
            store,
            embedding,
            f1,
            hops,
            head,
        }
    }

    /// The model's hyperparameters.
    pub fn config(&self) -> &GnnConfig {
        &self.config
    }

    /// The parameter store (for optimizers and serialization).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable parameter store.
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Number of trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// The model's one forward: `[kernels × 1]` predictions of
    /// **log-runtime** over every kernel of `g`, recorded by `r` — the
    /// tape in training, [`tpu_nn::NoTape`] in serving.
    pub fn forward<R: Recorder>(&self, r: &mut R, g: &Graph<'_>) -> R::Value {
        let store = &self.store;
        // ε⁰ = f₁([opcode embedding ‖ features]); every hop then rewinds
        // to `start`, keeping only its εᵏ.
        let start = r.mark();
        let x = r.embed(store, &self.embedding, g);
        let e0 = r.linear(store, &self.f1, x);
        let mut eps = r.keep(start, e0);
        for (f2, f3) in &self.hops {
            let next = match self.config.arch {
                GnnArch::GraphSage => {
                    // εᵏ = l₂(f₃ᵏ(concat(ε^{k-1}, Σ_{j∈neighbors(i)} f₂ᵏ(ε_j^{k-1}))))
                    let msg = r.linear(store, f2, eps);
                    let agg = r.aggregate(msg, g, self.config.reduction);
                    let cat = r.concat(&[eps, agg]);
                    let mixed = r.linear(store, f3, cat);
                    r.l2_normalize(mixed)
                }
                GnnArch::GcnMean => {
                    // Half of (self + neighbor sum), one projection; f₃
                    // is kept unused for parameter-count parity.
                    let neigh_sum = r.aggregate(eps, g, Reduction::Sum);
                    let with_self = r.half_sum(neigh_sum, eps);
                    r.linear(store, f2, with_self)
                }
            };
            eps = r.keep(start, next);
        }

        // Kernel embedding κ: the chosen pools side by side.
        let pooling = self.config.pooling;
        let mut pools = [eps; 3];
        let mut count = 0;
        for (on, red) in [
            (pooling.sum, Reduction::Sum),
            (pooling.mean, Reduction::Mean),
            (pooling.max, Reduction::Max),
        ] {
            if on {
                pools[count] = r.pool(eps, g, red);
                count += 1;
            }
        }
        let kappa = if count == 1 {
            pools[0]
        } else {
            r.concat(&pools[..count])
        };
        // Final feedforward layer without activation (§4.1). A constant
        // log-offset centers the untrained output near the dataset's scale
        // (µs) so optimization adjusts around it rather than ramping from
        // e⁰ = 1 ns.
        let y = r.linear(store, &self.head, kappa);
        r.add_scalar(y, LOG_NS_OFFSET)
    }
}

/// Predicted log-runtime of one kernel, without a tape: what the model
/// tests compare.
#[cfg(test)]
pub(crate) fn log_ns<M: crate::KernelModel>(model: &M, kernel: &tpu_hlo::Kernel) -> f64 {
    let p = crate::Prepared::from_kernel(kernel);
    crate::cost_model::predict_one_log_ns::<false, _>(model, &p)
}

/// Every bias of `store` (a parameter named `*.b`) set to a fixed pattern
/// of non-zero values of both signs: a fresh model's are zero (the LSTM's
/// forget gate aside), which would hide an operation order that differs
/// only where a bias is added.
#[cfg(test)]
pub(crate) fn perturb_biases(store: &mut ParamStore) {
    let ids: Vec<_> = store
        .ids()
        .filter(|&id| store.name(id).ends_with(".b"))
        .collect();
    for (l, id) in ids.into_iter().enumerate() {
        for (j, b) in store.value_mut(id).data_mut().iter_mut().enumerate() {
            *b = ((7 * l + 3 * j) % 17) as f32 * 0.03 - 0.25;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{GraphBatch, Prepared, Sample};
    use tpu_hlo::{DType, GraphBuilder, Kernel, Shape};
    use tpu_nn::Tape;

    fn kernel(cols: usize) -> Kernel {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(64, cols), DType::F32);
        let t = b.tanh(x);
        let e = b.exp(t);
        Kernel::new(b.finish(e))
    }

    #[test]
    fn forward_shapes() {
        let m = GnnModel::new(GnnConfig::default());
        let p1 = Prepared::from_sample(&Sample::new(kernel(128), 1000.0));
        let p2 = Prepared::from_sample(&Sample::new(kernel(256), 2000.0));
        let batch = GraphBatch::pack(&[&p1, &p2]).unwrap();
        let mut tape = Tape::new();
        let out = m.forward(&mut tape, &batch.graph());
        assert_eq!(tape.value(out).shape(), (2, 1));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = log_ns(&GnnModel::new(GnnConfig::default()), &kernel(128));
        let b = log_ns(&GnnModel::new(GnnConfig::default()), &kernel(128));
        assert_eq!(a, b);
    }

    #[test]
    fn different_kernels_different_predictions() {
        let m = GnnModel::new(GnnConfig::default());
        let a = log_ns(&m, &kernel(128));
        let b = log_ns(&m, &kernel(4096));
        assert_ne!(a, b);
    }

    #[test]
    fn reductions_and_pools_all_run() {
        for red in [Reduction::Sum, Reduction::Mean, Reduction::Max] {
            for pool in [
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
            ] {
                let cfg = GnnConfig {
                    reduction: red,
                    pooling: pool,
                    hops: 1,
                    hidden: 16,
                    opcode_embed_dim: 8,
                    ..Default::default()
                };
                let m = GnnModel::new(cfg);
                let v = log_ns(&m, &kernel(64));
                assert!(v.is_finite(), "{red:?}/{pool:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "enables no pool")]
    fn a_pool_less_config_is_rejected() {
        GnnModel::new(GnnConfig {
            pooling: PoolCombo {
                sum: false,
                mean: false,
                max: false,
            },
            ..Default::default()
        });
    }

    #[test]
    fn zero_hops_is_deepsets() {
        let cfg = GnnConfig {
            hops: 0,
            ..Default::default()
        };
        let m = GnnModel::new(cfg);
        assert!(log_ns(&m, &kernel(64)).is_finite());
    }

    #[test]
    fn batch_prediction_matches_single() {
        use crate::cost_model::CostModel;
        let mut m = GnnModel::new(GnnConfig::default());
        perturb_biases(m.store_mut());
        let kernels = [kernel(128), kernel(512)];
        let batch_preds = m.predict_batch_ns(&kernels);
        for (k, b) in kernels.iter().zip(&batch_preds) {
            assert_eq!(
                b.unwrap().to_bits(),
                m.predict_kernel_ns(k).unwrap().to_bits()
            );
        }
    }
}

#[cfg(test)]
mod invariance_tests {
    use super::*;
    use crate::batch::{GraphBatch, Prepared, Sample};
    use tpu_hlo::{Computation, DType, GraphBuilder, Kernel, Node, NodeId, Shape};

    /// Relabel a computation's nodes with a different (still topological)
    /// order: move an independent branch earlier.
    fn isomorphic_relabel(c: &Computation) -> Computation {
        // Build a permutation that is still a valid topo order: stable
        // sort nodes by (depth, id) where depth = longest path from any
        // parameter. Different from id order whenever branches interleave.
        let mut depth = vec![0usize; c.num_nodes()];
        for n in c.nodes() {
            for &op in &n.operands {
                depth[n.id.index()] = depth[n.id.index()].max(depth[op.index()] + 1);
            }
        }
        let mut order: Vec<usize> = (0..c.num_nodes()).collect();
        order.sort_by_key(|&i| (depth[i], std::cmp::Reverse(i)));
        let mut remap = vec![0usize; c.num_nodes()];
        for (new, &old) in order.iter().enumerate() {
            remap[old] = new;
        }
        let mut nodes: Vec<Node> = order
            .iter()
            .map(|&old| {
                let mut n = c.node(NodeId(old as u32)).clone();
                n.id = NodeId(remap[old] as u32);
                n.operands = n
                    .operands
                    .iter()
                    .map(|o| NodeId(remap[o.index()] as u32))
                    .collect();
                n
            })
            .collect();
        nodes.sort_by_key(|n| n.id.index());
        Computation::from_parts("relabel", nodes, NodeId(remap[c.root().index()] as u32))
            .expect("relabel valid")
    }

    #[test]
    fn gnn_is_invariant_to_node_relabeling() {
        // Two independent branches joined at the end: the GNN must give
        // the same prediction regardless of node numbering, because it
        // sees the *graph* (sum/mean/max are permutation-invariant).
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(64, 64), DType::F32);
        let t = b.tanh(x);
        let e = b.exp(x);
        let s = b.logistic(e);
        let m = b.add(t, s);
        let c = b.finish(m);
        let relabeled = isomorphic_relabel(&c);
        assert_ne!(
            c.nodes()[1].opcode,
            relabeled.nodes()[1].opcode,
            "relabeling should actually change node order"
        );

        let model = GnnModel::new(GnnConfig::default());
        let a = log_ns(&model, &Kernel::new(c));
        let b2 = log_ns(&model, &Kernel::new(relabeled));
        assert!(
            (a - b2).abs() < 1e-4,
            "GNN must be permutation-invariant: {a} vs {b2}"
        );
    }

    #[test]
    fn lstm_is_sensitive_to_node_relabeling() {
        // The sequential baseline, by contrast, depends on the order —
        // the structural weakness the paper's GNN fixes.
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(64, 64), DType::F32);
        let t = b.tanh(x);
        let e = b.exp(x);
        let s = b.logistic(e);
        let m = b.add(t, s);
        let c = b.finish(m);
        let relabeled = isomorphic_relabel(&c);

        let model = crate::lstm_model::LstmModel::new(crate::lstm_model::LstmConfig::default());
        let a = log_ns(&model, &Kernel::new(c));
        let b2 = log_ns(&model, &Kernel::new(relabeled));
        assert!(
            (a - b2).abs() > 1e-7,
            "LSTM should depend on sequence order: {a} vs {b2}"
        );
    }

    #[test]
    fn batch_order_does_not_change_predictions() {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(64, 64), DType::F32);
        let t = b.tanh(x);
        let k1 = Kernel::new(b.finish(t));
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(128, 32), DType::F32);
        let e = b.exp(x);
        let k2 = Kernel::new(b.finish(e));

        let mut model = GnnModel::new(GnnConfig::default());
        crate::model::perturb_biases(model.store_mut());
        let p1 = Prepared::from_sample(&Sample::new(k1, 0.0));
        let p2 = Prepared::from_sample(&Sample::new(k2, 0.0));
        let fwd = |items: &[&Prepared]| -> Vec<f64> {
            let batch = GraphBatch::pack(items).unwrap();
            let mut tape = tpu_nn::Tape::new();
            let out = model.forward(&mut tape, &batch.graph());
            let t = tape.value(out);
            (0..t.rows()).map(|r| t.get(r, 0) as f64).collect()
        };
        let ab = fwd(&[&p1, &p2]);
        let ba = fwd(&[&p2, &p1]);
        assert_eq!(ab[0].to_bits(), ba[1].to_bits());
        assert_eq!(ab[1].to_bits(), ba[0].to_bits());
    }
}

#[cfg(test)]
mod arch_tests {
    use super::*;
    use tpu_hlo::{DType, GraphBuilder, Kernel, Shape};

    fn kernel() -> Kernel {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(64, 64), DType::F32);
        let t = b.tanh(x);
        let e = b.exp(t);
        Kernel::new(b.finish(e))
    }

    #[test]
    fn gcn_variant_runs_and_differs() {
        let sage = GnnModel::new(GnnConfig::default());
        let gcn = GnnModel::new(GnnConfig {
            arch: GnnArch::GcnMean,
            ..Default::default()
        });
        let a = log_ns(&sage, &kernel());
        let b = log_ns(&gcn, &kernel());
        assert!(a.is_finite() && b.is_finite());
        assert_ne!(a, b, "architectures should compute differently");
    }

    #[test]
    fn gcn_variant_supports_all_hop_counts() {
        for hops in [0usize, 1, 3] {
            let gcn = GnnModel::new(GnnConfig {
                arch: GnnArch::GcnMean,
                hops,
                ..Default::default()
            });
            assert!(log_ns(&gcn, &kernel()).is_finite(), "hops={hops}");
        }
    }
}
