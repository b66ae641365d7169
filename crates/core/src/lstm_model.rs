//! The LSTM baseline (§6.1): "an LSTM trained over topologically sorted
//! sequences of nodes, whose embeddings are the same per-node
//! representations used in our proposed model."

use crate::batch::{GraphBatch, Prepared};
use crate::features::FEATURE_DIM;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use tpu_hlo::{Kernel, Opcode};
use tpu_nn::{Activation, Embedding, Linear, LstmCell, ParamStore, Tape, Tensor, Var};

/// Hyperparameters of the LSTM baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmConfig {
    /// Opcode embedding width (shared representation with the GNN).
    pub opcode_embed_dim: usize,
    /// Width of the per-node projection f₁.
    pub node_dim: usize,
    /// LSTM hidden width.
    pub hidden: usize,
    /// RNG seed for initialization.
    pub seed: u64,
}

impl Default for LstmConfig {
    fn default() -> Self {
        LstmConfig {
            opcode_embed_dim: 16,
            node_dim: 48,
            hidden: 48,
            seed: 17,
        }
    }
}

/// The sequential baseline model: node representations identical to the
/// GNN's ε⁰ (opcode embedding ‖ features → feedforward), consumed by an
/// LSTM in topological order; the final hidden state predicts
/// log-runtime.
///
/// Variable-length kernels in a batch run in lockstep with per-row masks,
/// so one tape serves the whole batch.
#[derive(Debug)]
pub struct LstmModel {
    config: LstmConfig,
    store: ParamStore,
    embedding: Embedding,
    f1: Linear,
    cell: LstmCell,
    head: Linear,
}

impl LstmModel {
    /// Initialize with fresh parameters.
    pub fn new(config: LstmConfig) -> LstmModel {
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
            config.node_dim,
            Activation::Relu,
            &mut rng,
        );
        let cell = LstmCell::new(&mut store, "lstm", config.node_dim, config.hidden, &mut rng);
        let head = Linear::new(
            &mut store,
            "head",
            config.hidden,
            1,
            Activation::Identity,
            &mut rng,
        );
        LstmModel {
            config,
            store,
            embedding,
            f1,
            cell,
            head,
        }
    }

    /// The model's hyperparameters.
    pub fn config(&self) -> &LstmConfig {
        &self.config
    }

    /// The parameter store.
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

    /// Forward pass over a batch: `[B×1]` log-runtime predictions.
    pub fn forward(&self, tape: &mut Tape, batch: &GraphBatch) -> Var {
        // Shared per-node representation (same as the GNN's ε⁰).
        let emb = self
            .embedding
            .forward(tape, &self.store, &batch.opcode_ids);
        let feats = tape.input(batch.features.clone());
        let x = tape.concat_cols(&[emb, feats]);
        let nodes = self.f1.forward(tape, &self.store, x);

        let b = batch.num_kernels();
        let max_len = batch
            .kernel_nodes
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0);
        let mut state = self.cell.zero_state(tape, b);

        for t in 0..max_len {
            // Row i of the step input = node t of kernel i (or an arbitrary
            // row masked out when kernel i is shorter).
            let mut idx = Vec::with_capacity(b);
            let mut mask = Tensor::zeros(b, self.config.hidden);
            for (ki, nodes_of_k) in batch.kernel_nodes.iter().enumerate() {
                if t < nodes_of_k.len() {
                    idx.push(nodes_of_k[t]);
                    for c in 0..self.config.hidden {
                        mask.set(ki, c, 1.0);
                    }
                } else {
                    idx.push(0);
                }
            }
            let inv = mask.map(|m| 1.0 - m);
            let xt = tape.gather_rows(nodes, Arc::new(idx));
            state = self.cell.masked_step(
                tape,
                &self.store,
                xt,
                state,
                &Arc::new(mask),
                &Arc::new(inv),
            );
        }

        let y = self.head.forward(tape, &self.store, state.h);
        tape.add_scalar(y, crate::model::LOG_NS_OFFSET)
    }

    /// Predict log-runtime for one kernel. Batched callers go through
    /// [`CostModel::predict_batch_ns`](crate::CostModel) or a
    /// [`Predictor`](crate::Predictor) session instead.
    pub fn predict_log_ns(&self, kernel: &Kernel) -> f64 {
        crate::engine::forward_log_ns(self, &[&Prepared::from_kernel(kernel)])[0]
    }

    /// Predict runtime in nanoseconds.
    pub fn predict_ns(&self, kernel: &Kernel) -> f64 {
        self.predict_log_ns(kernel).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Sample;
    use tpu_hlo::{DType, GraphBuilder, Shape};

    fn kernel(depth: usize) -> Kernel {
        let mut b = GraphBuilder::new("k");
        let mut v = b.parameter("x", Shape::matrix(64, 64), DType::F32);
        for _ in 0..depth {
            v = b.tanh(v);
        }
        Kernel::new(b.finish(v))
    }

    #[test]
    fn forward_shapes() {
        let m = LstmModel::new(LstmConfig::default());
        let p1 = Prepared::from_sample(&Sample::new(kernel(2), 100.0));
        let p2 = Prepared::from_sample(&Sample::new(kernel(5), 100.0));
        let batch = GraphBatch::pack(&[&p1, &p2]).unwrap();
        let mut tape = Tape::new();
        let out = m.forward(&mut tape, &batch);
        assert_eq!(tape.value(out).shape(), (2, 1));
    }

    #[test]
    fn masked_batching_matches_single_inference() {
        // A short kernel batched with a long one must predict exactly what
        // it predicts alone — masking must not leak.
        let m = LstmModel::new(LstmConfig::default());
        let short = kernel(1);
        let long = kernel(9);
        let alone = m.predict_log_ns(&short);
        let ps = Prepared::from_sample(&Sample::new(short, 0.0));
        let pl = Prepared::from_sample(&Sample::new(long, 0.0));
        let both = crate::engine::forward_log_ns(&m, &[&ps, &pl]);
        assert!(
            (both[0] - alone).abs() < 1e-5,
            "batched={} alone={alone}",
            both[0]
        );
    }

    #[test]
    fn sequence_length_matters() {
        let m = LstmModel::new(LstmConfig::default());
        let a = m.predict_log_ns(&kernel(1));
        let b = m.predict_log_ns(&kernel(8));
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = LstmModel::new(LstmConfig::default()).predict_log_ns(&kernel(3));
        let b = LstmModel::new(LstmConfig::default()).predict_log_ns(&kernel(3));
        assert_eq!(a, b);
    }
}
