//! Neural-network layers built on the tape.

use crate::params::{ParamId, ParamStore};
use crate::tape::{sigmoid, Tape, Var};
use crate::tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How a fresh parameter is made (a [`ParamSource`] restoring trained
/// values ignores it).
#[derive(Debug, Clone, Copy)]
pub enum Init {
    /// Xavier-uniform.
    Xavier,
    /// All zeros.
    Zeros,
    /// Uniform in `[-scale, scale)`.
    Uniform(f32),
    /// An LSTM's fused `i, f, g, o` bias: the forget gate's quarter ones
    /// (the standard trick), the rest zeros.
    ForgetBias,
}

/// Where a layer's parameters come from, one at a time in the order the
/// model registers them: every RNG makes fresh ones, and a loader hands
/// over trained ones.
pub trait ParamSource {
    /// The `rows × cols` value of the parameter `name`.
    fn param(&mut self, name: &str, rows: usize, cols: usize, init: Init) -> Tensor;
}

impl<R: Rng + ?Sized> ParamSource for R {
    fn param(&mut self, _name: &str, rows: usize, cols: usize, init: Init) -> Tensor {
        match init {
            Init::Xavier => Tensor::xavier(rows, cols, self),
            Init::Zeros => Tensor::zeros(rows, cols),
            Init::Uniform(scale) => Tensor::uniform(rows, cols, scale, self),
            Init::ForgetBias => {
                let mut bias = Tensor::zeros(rows, cols);
                bias.data_mut()[cols / 4..cols / 2].fill(1.0);
                bias
            }
        }
    }
}

/// Register the parameter `name` with its value from `src`.
fn fetch<S: ParamSource + ?Sized>(
    store: &mut ParamStore,
    src: &mut S,
    name: String,
    (rows, cols): (usize, usize),
    init: Init,
) -> ParamId {
    let value = src.param(&name, rows, cols, init);
    store.register(name, value)
}

/// Activation of a [`Linear`] layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// No activation.
    Identity,
    /// Rectified linear.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// The activation of one element: the arithmetic the tape's op and
    /// the tape-free evaluator share.
    #[inline]
    pub(crate) fn eval(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => sigmoid(x),
        }
    }
}

/// A fully-connected layer `act(x·W + b)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    pub(crate) w: ParamId,
    pub(crate) b: ParamId,
    pub(crate) activation: Activation,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Create and register the layer's parameters.
    pub fn new<S: ParamSource + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        src: &mut S,
    ) -> Linear {
        let w = fetch(
            store,
            src,
            format!("{name}.w"),
            (in_dim, out_dim),
            Init::Xavier,
        );
        let b = fetch(store, src, format!("{name}.b"), (1, out_dim), Init::Zeros);
        Linear {
            w,
            b,
            activation,
            in_dim,
            out_dim,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

/// An embedding table: maps integer ids to learned vectors via row gather.
/// This is the paper's opcode embedding ("embedded into a vector of floats
/// via a simple embedding lookup table", §4.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Embedding {
    pub(crate) table: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Create and register the table.
    pub fn new<S: ParamSource + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        src: &mut S,
    ) -> Embedding {
        let table = fetch(store, src, name.into(), (vocab, dim), Init::Uniform(0.1));
        Embedding { table, vocab, dim }
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Look up `ids`, producing `[ids.len() × dim]`.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of vocabulary.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, ids: &[usize]) -> Var {
        for &id in ids {
            assert!(id < self.vocab, "embedding id {id} out of vocabulary");
        }
        let t = tape.param(store, self.table);
        tape.gather_rows(t, Arc::new(ids.to_vec()))
    }
}

/// A standard LSTM cell; the sequential baseline of §6.1 stacks this over
/// topologically sorted node embeddings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmCell {
    pub(crate) w: ParamId,
    pub(crate) b: ParamId,
    input_dim: usize,
    pub(crate) hidden: usize,
}

impl LstmCell {
    /// Create and register parameters. Gate weights are a single fused
    /// `[input+hidden × 4·hidden]` matrix in `i, f, g, o` order.
    pub fn new<S: ParamSource + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden: usize,
        src: &mut S,
    ) -> LstmCell {
        let shape = (input_dim + hidden, 4 * hidden);
        let w = fetch(store, src, format!("{name}.w"), shape, Init::Xavier);
        let b = fetch(
            store,
            src,
            format!("{name}.b"),
            (1, 4 * hidden),
            Init::ForgetBias,
        );
        LstmCell {
            w,
            b,
            input_dim,
            hidden,
        }
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::record::Recorder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn linear_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let l = Linear::new(&mut store, "l", 4, 8, Activation::Relu, &mut rng);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::ones(3, 4));
        let y = tape.linear(&store, &l, x);
        assert_eq!(tape.value(y).shape(), (3, 8));
        assert!(tape.value(y).data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn embedding_lookup() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let e = Embedding::new(&mut store, "emb", 10, 6, &mut rng);
        let mut tape = Tape::new();
        let v = e.forward(&mut tape, &store, &[3, 3, 7]);
        assert_eq!(tape.value(v).shape(), (3, 6));
        assert_eq!(tape.value(v).row(0), tape.value(v).row(1));
        assert_ne!(tape.value(v).row(0), tape.value(v).row(2));
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn embedding_oov_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let e = Embedding::new(&mut store, "emb", 10, 6, &mut rng);
        let mut tape = Tape::new();
        e.forward(&mut tape, &store, &[10]);
    }

    #[test]
    fn lstm_steps_update_running_kernels_and_freeze_finished_ones() {
        use crate::record::{Graph, Recorder};
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 4, 8, &mut rng);
        let mut tape = Tape::new();
        // Kernel 0 has two nodes, kernel 1 one: step 1 runs kernel 0 only.
        let kernels = [0..2, 2..3];
        let g = Graph::shape(&kernels, 4);
        let nodes = tape.input(Tensor::from_rows(&[&[1.0; 4], &[-1.0; 4], &[0.5; 4]]));
        let s0 = tape.lstm_zero_state(&cell, &g);
        let s1 = tape.lstm_step(&store, &cell, nodes, s0, &g, 0);
        assert_eq!(tape.value(s1.h).shape(), (2, 8));
        assert!(tape.value(s1.h).sq_norm() > 0.0);
        let s2 = tape.lstm_step(&store, &cell, nodes, s1, &g, 1);
        let (h1, h2) = (tape.value(s1.h), tape.value(s2.h));
        assert_eq!(h1.row(1), h2.row(1), "a finished kernel keeps its state");
        assert_ne!(h1.row(0), h2.row(0), "a running kernel steps");
    }

    #[test]
    fn linear_stack_can_learn_xor() {
        // End-to-end sanity: two stacked layers fit XOR.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let l0 = Linear::new(&mut store, "xor.0", 2, 8, Activation::Tanh, &mut rng);
        let l1 = Linear::new(&mut store, "xor.1", 8, 1, Activation::Identity, &mut rng);
        let x = Tensor::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = Tensor::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]);
        let mut opt = Adam::new(0.05);
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let mut tape = Tape::new();
            let xv = tape.input(x.clone());
            let hidden = tape.linear(&store, &l0, xv);
            let pred = tape.linear(&store, &l1, hidden);
            let yv = tape.input(y.clone());
            let diff = tape.sub(pred, yv);
            let sq = tape.square(diff);
            let loss = tape.mean_all(sq);
            last = tape.value(loss).item();
            store.zero_grads();
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        assert!(last < 0.05, "xor loss did not converge: {last}");
    }
}
