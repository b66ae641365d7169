//! The GraphSAGE-based performance model (§4.1, Eq. 1).

use crate::batch::{GraphBatch, Prepared};
use crate::features::FEATURE_DIM;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use tpu_hlo::{Kernel, Opcode};
use tpu_nn::{Activation, Embedding, Linear, ParamStore, Tape, Var};

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
/// hyperparameter search").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reduction {
    /// Sum over neighbor embeddings.
    Sum,
    /// Mean over neighbor embeddings.
    Mean,
    /// Columnwise max over neighbor embeddings.
    Max,
}

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
/// use tpu_learned_cost::{GnnConfig, GnnModel};
/// use tpu_hlo::{DType, GraphBuilder, Kernel, Shape};
///
/// let mut b = GraphBuilder::new("k");
/// let x = b.parameter("x", Shape::matrix(256, 256), DType::F32);
/// let t = b.tanh(x);
/// let kernel = Kernel::new(b.finish(t));
///
/// let model = GnnModel::new(GnnConfig::default());
/// let log_ns = model.predict_log_ns(&kernel);
/// assert!(log_ns.is_finite());
/// ```
#[derive(Debug)]
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
    pub fn new(config: GnnConfig) -> GnnModel {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();
        let embedding = Embedding::new(
            &mut store,
            "opcode_embedding",
            Opcode::count(),
            config.opcode_embed_dim,
            &mut rng,
        );
        let f1 = Linear::new(
            &mut store,
            "f1",
            config.opcode_embed_dim + FEATURE_DIM,
            config.hidden,
            Activation::Relu,
            &mut rng,
        );
        let mut hops = Vec::new();
        for k in 0..config.hops {
            let f2 = Linear::new(
                &mut store,
                &format!("hop{k}.f2"),
                config.hidden,
                config.hidden,
                Activation::Relu,
                &mut rng,
            );
            let f3 = Linear::new(
                &mut store,
                &format!("hop{k}.f3"),
                2 * config.hidden,
                config.hidden,
                Activation::Relu,
                &mut rng,
            );
            hops.push((f2, f3));
        }
        let head = Linear::new(
            &mut store,
            "head",
            config.hidden * config.pooling.count().max(1),
            1,
            Activation::Identity,
            &mut rng,
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

    /// Forward pass over a batch: returns the `[B×1]` prediction of
    /// **log-runtime** per kernel.
    pub fn forward(&self, tape: &mut Tape, batch: &GraphBatch) -> Var {
        let n = batch.num_nodes();
        // ε⁰ = f₁(X) where X = [opcode embedding ‖ features].
        let emb = self
            .embedding
            .forward(tape, &self.store, &batch.opcode_ids);
        let feats = tape.input(batch.features.clone());
        let x = tape.concat_cols(&[emb, feats]);
        let mut eps = self.f1.forward(tape, &self.store, x);

        // Message lists: every undirected neighbor relation, both ways.
        let mut src = Vec::with_capacity(batch.edges.len() * 2);
        let mut dst = Vec::with_capacity(batch.edges.len() * 2);
        for &(a, b) in &batch.edges {
            src.push(a);
            dst.push(b);
            src.push(b);
            dst.push(a);
        }
        let src = Arc::new(src);
        let dst = Arc::new(dst);

        for (f2, f3) in &self.hops {
            match self.config.arch {
                GnnArch::GraphSage => {
                    // Σ_{j∈neighbors(i)} f₂ᵏ(ε_j^{k-1})
                    let msg = f2.forward(tape, &self.store, eps);
                    let gathered = tape.gather_rows(msg, src.clone());
                    let agg = match self.config.reduction {
                        Reduction::Sum => tape.segment_sum(gathered, dst.clone(), n),
                        Reduction::Mean => tape.segment_mean(gathered, dst.clone(), n),
                        Reduction::Max => tape.segment_max(gathered, dst.clone(), n),
                    };
                    // εᵏ = l₂(f₃ᵏ(concat(ε^{k-1}, agg)))
                    let cat = tape.concat_cols(&[eps, agg]);
                    let mixed = f3.forward(tape, &self.store, cat);
                    eps = tape.l2_normalize_rows(mixed);
                }
                GnnArch::GcnMean => {
                    // mean over {self} ∪ neighbors, single projection.
                    let gathered = tape.gather_rows(eps, src.clone());
                    let neigh_sum = tape.segment_sum(gathered, dst.clone(), n);
                    let with_self = tape.add(neigh_sum, eps);
                    // Divide by (degree + 1) approximately via mean of the
                    // two-term combination: use f2 to project, f3 unused
                    // dimensions kept for parameter-count parity.
                    let scaled = tape.scale(with_self, 0.5);
                    eps = f2.forward(tape, &self.store, scaled);
                }
            }
        }

        // Kernel embedding κ: chosen combination of sum/mean/max pools.
        let seg = Arc::new(batch.node_kernel.clone());
        let b = batch.num_kernels();
        let mut pools = Vec::new();
        if self.config.pooling.sum {
            pools.push(tape.segment_sum(eps, seg.clone(), b));
        }
        if self.config.pooling.mean {
            pools.push(tape.segment_mean(eps, seg.clone(), b));
        }
        if self.config.pooling.max {
            pools.push(tape.segment_max(eps, seg.clone(), b));
        }
        let kappa = if pools.len() == 1 {
            pools[0]
        } else {
            tape.concat_cols(&pools)
        };
        // Final feedforward layer without activation (§4.1). A constant
        // log-offset centers the untrained output near the dataset's scale
        // (µs) so optimization adjusts around it rather than ramping from
        // e⁰ = 1 ns.
        let y = self.head.forward(tape, &self.store, kappa);
        tape.add_scalar(y, LOG_NS_OFFSET)
    }

    /// Predict log-runtime for a single kernel (inference). Batched callers
    /// go through [`CostModel::predict_batch_ns`](crate::CostModel) or a
    /// [`Predictor`](crate::Predictor) session instead.
    pub fn predict_log_ns(&self, kernel: &Kernel) -> f64 {
        crate::engine::forward_log_ns(self, &[&Prepared::from_kernel(kernel)])[0]
    }

    /// Predict runtime in nanoseconds for a single kernel.
    pub fn predict_ns(&self, kernel: &Kernel) -> f64 {
        self.predict_log_ns(kernel).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Sample;
    use tpu_hlo::{DType, GraphBuilder, Shape};

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
        let out = m.forward(&mut tape, &batch);
        assert_eq!(tape.value(out).shape(), (2, 1));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = GnnModel::new(GnnConfig::default()).predict_log_ns(&kernel(128));
        let b = GnnModel::new(GnnConfig::default()).predict_log_ns(&kernel(128));
        assert_eq!(a, b);
    }

    #[test]
    fn different_kernels_different_predictions() {
        let m = GnnModel::new(GnnConfig::default());
        let a = m.predict_log_ns(&kernel(128));
        let b = m.predict_log_ns(&kernel(4096));
        assert_ne!(a, b);
    }

    #[test]
    fn reductions_and_pools_all_run() {
        for red in [Reduction::Sum, Reduction::Mean, Reduction::Max] {
            for pool in [
                PoolCombo { sum: true, mean: false, max: false },
                PoolCombo { sum: false, mean: true, max: true },
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
                let v = m.predict_log_ns(&kernel(64));
                assert!(v.is_finite(), "{red:?}/{pool:?}");
            }
        }
    }

    #[test]
    fn zero_hops_is_deepsets() {
        let cfg = GnnConfig {
            hops: 0,
            ..Default::default()
        };
        let m = GnnModel::new(cfg);
        assert!(m.predict_log_ns(&kernel(64)).is_finite());
    }

    #[test]
    fn batch_prediction_matches_single() {
        use crate::cost_model::CostModel;
        let m = GnnModel::new(GnnConfig::default());
        let kernels = [kernel(128), kernel(512)];
        let batch_preds = m.predict_batch_ns(&kernels);
        assert!((batch_preds[0].unwrap().ln() - m.predict_log_ns(&kernels[0])).abs() < 1e-5);
        assert!((batch_preds[1].unwrap().ln() - m.predict_log_ns(&kernels[1])).abs() < 1e-5);
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
                n.operands = n.operands.iter().map(|o| NodeId(remap[o.index()] as u32)).collect();
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
        let a = model.predict_log_ns(&Kernel::new(c));
        let b2 = model.predict_log_ns(&Kernel::new(relabeled));
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
        let a = model.predict_log_ns(&Kernel::new(c));
        let b2 = model.predict_log_ns(&Kernel::new(relabeled));
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

        let model = GnnModel::new(GnnConfig::default());
        let p1 = Prepared::from_sample(&Sample::new(k1, 0.0));
        let p2 = Prepared::from_sample(&Sample::new(k2, 0.0));
        let fwd = |items: &[&Prepared]| -> Vec<f64> {
            let batch = GraphBatch::pack(items).unwrap();
            let mut tape = tpu_nn::Tape::new();
            let out = model.forward(&mut tape, &batch);
            let t = tape.value(out);
            (0..t.rows()).map(|r| t.get(r, 0) as f64).collect()
        };
        let ab = fwd(&[&p1, &p2]);
        let ba = fwd(&[&p2, &p1]);
        assert!((ab[0] - ba[1]).abs() < 1e-5);
        assert!((ab[1] - ba[0]).abs() < 1e-5);
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
        let a = sage.predict_log_ns(&kernel());
        let b = gcn.predict_log_ns(&kernel());
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
            assert!(gcn.predict_log_ns(&kernel()).is_finite(), "hops={hops}");
        }
    }
}
