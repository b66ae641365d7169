//! The LSTM baseline (§6.1): "an LSTM trained over topologically sorted
//! sequences of nodes, whose embeddings are the same per-node
//! representations used in our proposed model."

use crate::features::FEATURE_DIM;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tpu_hlo::Opcode;
use tpu_nn::{Activation, Embedding, Graph, Linear, LstmCell, ParamSource, ParamStore, Recorder};

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
#[derive(Debug, Clone)]
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
        LstmModel::build(config, &mut rng)
    }

    /// The model with its parameters, in registration order, from `src`:
    /// [`LstmModel::new`]'s fresh ones, or trained ones a loader restores.
    pub fn build<S: ParamSource + ?Sized>(config: LstmConfig, src: &mut S) -> LstmModel {
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
            config.node_dim,
            Activation::Relu,
            &mut *src,
        );
        let cell = LstmCell::new(
            &mut store,
            "lstm",
            config.node_dim,
            config.hidden,
            &mut *src,
        );
        let head = Linear::new(
            &mut store,
            "head",
            config.hidden,
            1,
            Activation::Identity,
            &mut *src,
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

    /// The model's one forward: `[kernels × 1]` log-runtime predictions
    /// over every kernel of `g`, recorded by `r`. Kernel `k`'s nodes are
    /// consumed in index order, its topological order; a kernel that has
    /// ended keeps its state while longer ones step on.
    pub fn forward<R: Recorder>(&self, r: &mut R, g: &Graph<'_>) -> R::Value {
        let store = &self.store;
        // Shared per-node representation (same as the GNN's ε⁰).
        let start = r.mark();
        let x = r.embed(store, &self.embedding, g);
        let encoded = r.linear(store, &self.f1, x);
        let nodes = r.keep(start, encoded);
        let mut state = r.lstm_zero_state(&self.cell, g);
        for t in 0..g.max_len() {
            state = r.lstm_step(store, &self.cell, nodes, state, g, t);
        }
        let y = r.linear(store, &self.head, state.h);
        r.add_scalar(y, crate::model::LOG_NS_OFFSET)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{GraphBatch, Prepared, Sample};
    use crate::model::log_ns;
    use tpu_hlo::{DType, GraphBuilder, Kernel, Shape};
    use tpu_nn::Tape;

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
        let out = m.forward(&mut tape, &batch.graph());
        assert_eq!(tape.value(out).shape(), (2, 1));
    }

    #[test]
    fn masked_batching_matches_single_inference() {
        // A short kernel batched with a long one must predict exactly what
        // it predicts alone, bit for bit — masking must not leak.
        let mut m = LstmModel::new(LstmConfig::default());
        crate::model::perturb_biases(m.store_mut());
        let short = kernel(1);
        let long = kernel(9);
        let alone = log_ns(&m, &short);
        let ps = Prepared::from_sample(&Sample::new(short, 0.0));
        let pl = Prepared::from_sample(&Sample::new(long, 0.0));
        let both = crate::engine::forward_log_ns(&m, &[&ps, &pl]);
        assert_eq!(
            both[0].to_bits(),
            alone.to_bits(),
            "batched={} alone={alone}",
            both[0]
        );
    }

    #[test]
    fn sequence_length_matters() {
        let m = LstmModel::new(LstmConfig::default());
        let a = log_ns(&m, &kernel(1));
        let b = log_ns(&m, &kernel(8));
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = log_ns(&LstmModel::new(LstmConfig::default()), &kernel(3));
        let b = log_ns(&LstmModel::new(LstmConfig::default()), &kernel(3));
        assert_eq!(a, b);
    }
}
