//! Neural-network layers built on the tape.

use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Activation applied by [`Linear::forward`].
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
    fn apply(self, tape: &mut Tape, x: Var) -> Var {
        match self {
            Activation::Identity => x,
            Activation::Relu => tape.relu(x),
            Activation::Tanh => tape.tanh(x),
            Activation::Sigmoid => tape.sigmoid(x),
        }
    }
}

/// A fully-connected layer `act(x·W + b)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    activation: Activation,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Create and register the layer's parameters.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Linear {
        let w = store.register(format!("{name}.w"), Tensor::xavier(in_dim, out_dim, rng));
        let b = store.register(format!("{name}.b"), Tensor::zeros(1, out_dim));
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

    /// Apply to `x [n×in_dim]`, producing `[n×out_dim]`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        let xw = tape.matmul(x, w);
        let z = tape.add_row(xw, b);
        self.activation.apply(tape, z)
    }
}

/// An embedding table: maps integer ids to learned vectors via row gather.
/// This is the paper's opcode embedding ("embedded into a vector of floats
/// via a simple embedding lookup table", §4.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Embedding {
    table: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Create and register the table.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut R,
    ) -> Embedding {
        let table = store.register(name, Tensor::uniform(vocab, dim, 0.1, rng));
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
    w: ParamId,
    b: ParamId,
    input_dim: usize,
    hidden: usize,
}

/// Hidden and cell state of an [`LstmCell`].
#[derive(Debug, Clone, Copy)]
pub struct LstmState {
    /// Hidden state `[batch × hidden]`.
    pub h: Var,
    /// Cell state `[batch × hidden]`.
    pub c: Var,
}

impl LstmCell {
    /// Create and register parameters. Gate weights are a single fused
    /// `[input+hidden × 4·hidden]` matrix in `i, f, g, o` order.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden: usize,
        rng: &mut R,
    ) -> LstmCell {
        let w = store.register(
            format!("{name}.w"),
            Tensor::xavier(input_dim + hidden, 4 * hidden, rng),
        );
        // Forget-gate bias initialized to 1 (standard trick).
        let mut bias = Tensor::zeros(1, 4 * hidden);
        for c in hidden..2 * hidden {
            bias.set(0, c, 1.0);
        }
        let b = store.register(format!("{name}.b"), bias);
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

    /// Zero initial state for a batch.
    pub fn zero_state(&self, tape: &mut Tape, batch: usize) -> LstmState {
        LstmState {
            h: tape.input(Tensor::zeros(batch, self.hidden)),
            c: tape.input(Tensor::zeros(batch, self.hidden)),
        }
    }

    /// One step: consume `x [batch × input_dim]`, return the new state.
    pub fn step(&self, tape: &mut Tape, store: &ParamStore, x: Var, state: LstmState) -> LstmState {
        let z = tape.concat_cols(&[x, state.h]);
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        let zw = tape.matmul(z, w);
        let gates = tape.add_row(zw, b);
        let h = self.hidden;
        let i_g = tape.slice_cols(gates, 0, h);
        let f_g = tape.slice_cols(gates, h, 2 * h);
        let g_g = tape.slice_cols(gates, 2 * h, 3 * h);
        let o_g = tape.slice_cols(gates, 3 * h, 4 * h);
        let i = tape.sigmoid(i_g);
        let f = tape.sigmoid(f_g);
        let g = tape.tanh(g_g);
        let o = tape.sigmoid(o_g);
        let fc = tape.mul(f, state.c);
        let ig = tape.mul(i, g);
        let c_new = tape.add(fc, ig);
        let ct = tape.tanh(c_new);
        let h_new = tape.mul(o, ct);
        LstmState { h: h_new, c: c_new }
    }

    /// One masked step for packed variable-length batches: rows with mask 0
    /// keep their previous state.
    pub fn masked_step(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        state: LstmState,
        mask: &Arc<Tensor>,
        inv_mask: &Arc<Tensor>,
    ) -> LstmState {
        let next = self.step(tape, store, x, state);
        let h_on = tape.mul_const(next.h, mask.clone());
        let h_off = tape.mul_const(state.h, inv_mask.clone());
        let c_on = tape.mul_const(next.c, mask.clone());
        let c_off = tape.mul_const(state.c, inv_mask.clone());
        LstmState {
            h: tape.add(h_on, h_off),
            c: tape.add(c_on, c_off),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn linear_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let l = Linear::new(&mut store, "l", 4, 8, Activation::Relu, &mut rng);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::ones(3, 4));
        let y = l.forward(&mut tape, &store, x);
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
    fn lstm_step_shapes_and_state_change() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 4, 8, &mut rng);
        let mut tape = Tape::new();
        let s0 = cell.zero_state(&mut tape, 2);
        let x = tape.input(Tensor::ones(2, 4));
        let s1 = cell.step(&mut tape, &store, x, s0);
        assert_eq!(tape.value(s1.h).shape(), (2, 8));
        assert!(tape.value(s1.h).sq_norm() > 0.0);
    }

    #[test]
    fn lstm_masked_step_freezes_finished_rows() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 4, 8, &mut rng);
        let mut tape = Tape::new();
        let s0 = cell.zero_state(&mut tape, 2);
        let x = tape.input(Tensor::ones(2, 4));
        let s1 = cell.step(&mut tape, &store, x, s0);
        // Row 1 masked off: its state must stay equal to s1's row 1.
        let mut mask = Tensor::zeros(2, 8);
        for c in 0..8 {
            mask.set(0, c, 1.0);
        }
        let inv = mask.map(|m| 1.0 - m);
        let x2 = tape.input(Tensor::full(2, 4, -1.0));
        let s2 = cell.masked_step(&mut tape, &store, x2, s1, &Arc::new(mask), &Arc::new(inv));
        let h1 = tape.value(s1.h).clone();
        let h2 = tape.value(s2.h).clone();
        assert_eq!(h1.row(1), h2.row(1), "masked row frozen");
        assert_ne!(h1.row(0), h2.row(0), "active row updated");
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
            let hidden = l0.forward(&mut tape, &store, xv);
            let pred = l1.forward(&mut tape, &store, hidden);
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
