//! Recurrent model families: RNN language model, WaveRNN, GRU LM, LSTM LM.

use super::common::{dense, embed, gate};
use tpu_hlo::{GraphBuilder, NodeId, Program, Shape};

/// Vanilla RNN language model: unrolled `h = tanh(x·W + h·U + b)` steps
/// over embedded tokens, with a softmax head. Table 2's "RNN".
pub(crate) fn rnn_lm(name: &str, steps: usize, hidden: usize, vocab: usize) -> Program {
    let mut b = GraphBuilder::new("main");
    let tokens = embed(&mut b, "emb", vocab, hidden, steps);
    let x0 = slice_step(&mut b, tokens, 0);
    let mut h = dense(&mut b, "h0", x0, hidden, false);
    h = b.tanh(h);
    for t in 1..steps {
        let x = slice_step(&mut b, tokens, t);
        h = gate(&mut b, &format!("step{t}"), x, h, hidden, false);
    }
    let logits = dense(&mut b, "head", h, vocab, false);
    let out = b.softmax(logits);
    Program::new(name, b.finish(out))
}

/// WaveRNN-style audio model: a GRU-like cell with split gates, a dual
/// softmax head (coarse + fine), unrolled.
pub(crate) fn wavernn(name: &str, steps: usize, hidden: usize) -> Program {
    let mut b = GraphBuilder::new("main");
    let x0 = b.parameter("samples", Shape::matrix(steps, 3), tpu_hlo::DType::F32);
    let first = slice_step(&mut b, x0, 0);
    let mut h = dense(&mut b, "init", first, hidden, false);
    h = b.tanh(h);
    for t in 0..steps {
        let x = slice_step(&mut b, x0, t);
        // Fused gate matmul, then split (WaveRNN's batched gates).
        let xg = dense(&mut b, &format!("s{t}_xg"), x, 3 * hidden, false);
        let hg = dense(&mut b, &format!("s{t}_hg"), h, 3 * hidden, false);
        let gates = b.add(xg, hg);
        let u_ = b.slice_dim(gates, 1, 0, hidden);
        let r_ = b.slice_dim(gates, 1, hidden, 2 * hidden);
        let e_ = b.slice_dim(gates, 1, 2 * hidden, 3 * hidden);
        let u = b.logistic(u_);
        let r = b.logistic(r_);
        let rh = b.multiply(r, h);
        let cand_in = b.add(e_, rh);
        let cand = b.tanh(cand_in);
        let one = b.scalar_constant();
        let one_b = b.broadcast_scalar(one, b.shape(u).clone());
        let inv_u = b.subtract(one_b, u);
        let keep = b.multiply(inv_u, h);
        let upd = b.multiply(u, cand);
        h = b.add(keep, upd);
    }
    let coarse = dense(&mut b, "coarse", h, 256, false);
    let fine = dense(&mut b, "fine", h, 256, false);
    let sc = b.softmax(coarse);
    let sf = b.softmax(fine);
    let out = b.concatenate(&[sc, sf], 1);
    Program::new(name, b.finish(out))
}

/// GRU language model (train-only family).
pub(crate) fn gru_lm(name: &str, steps: usize, hidden: usize, vocab: usize) -> Program {
    let mut b = GraphBuilder::new("main");
    let tokens = embed(&mut b, "emb", vocab, hidden, steps);
    let x0 = slice_step(&mut b, tokens, 0);
    let mut h = dense(&mut b, "h0", x0, hidden, false);
    h = b.tanh(h);
    for t in 1..steps {
        let x = slice_step(&mut b, tokens, t);
        let z = gate(&mut b, &format!("s{t}_z"), x, h, hidden, true);
        let r = gate(&mut b, &format!("s{t}_r"), x, h, hidden, true);
        let rh = b.multiply(r, h);
        let cand = gate(&mut b, &format!("s{t}_c"), x, rh, hidden, false);
        let one = b.scalar_constant();
        let one_b = b.broadcast_scalar(one, b.shape(z).clone());
        let nz = b.subtract(one_b, z);
        let keep = b.multiply(nz, h);
        let upd = b.multiply(z, cand);
        h = b.add(keep, upd);
    }
    let logits = dense(&mut b, "head", h, vocab, false);
    let out = b.softmax(logits);
    Program::new(name, b.finish(out))
}

/// LSTM language model (train-only family).
pub(crate) fn lstm_lm(name: &str, steps: usize, hidden: usize, vocab: usize) -> Program {
    let mut b = GraphBuilder::new("main");
    let tokens = embed(&mut b, "emb", vocab, hidden, steps);
    let x0 = slice_step(&mut b, tokens, 0);
    let mut h = dense(&mut b, "h0", x0, hidden, false);
    h = b.tanh(h);
    let mut c = dense(&mut b, "c0", x0, hidden, false);
    for t in 1..steps {
        let x = slice_step(&mut b, tokens, t);
        let i = gate(&mut b, &format!("s{t}_i"), x, h, hidden, true);
        let f = gate(&mut b, &format!("s{t}_f"), x, h, hidden, true);
        let o = gate(&mut b, &format!("s{t}_o"), x, h, hidden, true);
        let g = gate(&mut b, &format!("s{t}_g"), x, h, hidden, false);
        let fc = b.multiply(f, c);
        let ig = b.multiply(i, g);
        c = b.add(fc, ig);
        let ct = b.tanh(c);
        h = b.multiply(o, ct);
    }
    let logits = dense(&mut b, "head", h, vocab, false);
    let out = b.softmax(logits);
    Program::new(name, b.finish(out))
}

/// Slice one timestep row `[1×d]` from a `[T×d]` sequence tensor.
fn slice_step(b: &mut GraphBuilder, seq: NodeId, t: usize) -> NodeId {
    b.slice_dim(seq, 0, t, t + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rnn_families_validate() {
        let programs = [
            rnn_lm("r", 6, 64, 128),
            wavernn("w", 6, 64),
            gru_lm("g", 5, 48, 96),
            lstm_lm("l", 5, 48, 96),
        ];
        for p in &programs {
            assert!(p.computation.validate().is_ok(), "{}", p.name);
            assert!(p.num_nodes() > 20, "{} too small", p.name);
        }
    }

    #[test]
    fn steps_scale_nodes() {
        let small = rnn_lm("s", 4, 32, 64);
        let big = rnn_lm("b", 12, 32, 64);
        assert!(big.num_nodes() > small.num_nodes() + 30);
    }

    #[test]
    fn rnn_has_many_small_dots() {
        let p = rnn_lm("r", 8, 64, 128);
        let dots = p
            .computation
            .nodes()
            .iter()
            .filter(|n| n.opcode == tpu_hlo::Opcode::Dot)
            .count();
        assert!(dots >= 15, "expected many matmuls, got {dots}");
    }
}
