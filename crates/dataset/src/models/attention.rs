//! Attention-based model families: NMT (RNN encoder-decoder with
//! attention), Transformer ("Translate"), BERT-lite.

use super::common::{dense, embed, gate};
use tpu_hlo::{GraphBuilder, NodeId, Program};

/// RNN encoder-decoder with dot-product attention: the paper's
/// "NMT Model".
pub(crate) fn nmt(
    name: &str,
    enc_steps: usize,
    dec_steps: usize,
    hidden: usize,
    vocab: usize,
) -> Program {
    let mut b = GraphBuilder::new("main");
    let src = embed(&mut b, "src", vocab, hidden, enc_steps);

    // Encoder: GRU-ish recurrence; collect states.
    let x0 = b.slice_dim(src, 0, 0, 1);
    let mut h = dense(&mut b, "h0", x0, hidden, false);
    h = b.tanh(h);
    let mut enc_states: Vec<NodeId> = vec![h];
    for t in 1..enc_steps {
        let x = b.slice_dim(src, 0, t, t + 1);
        h = gate(&mut b, &format!("enc{t}"), x, h, hidden, false);
        enc_states.push(h);
    }
    let memory = b.concatenate(&enc_states, 0); // [enc_steps × hidden]

    // Decoder with attention.
    let tgt = embed(&mut b, "tgt", vocab, hidden, dec_steps);
    let d0 = b.slice_dim(tgt, 0, 0, 1);
    let mut dh = dense(&mut b, "d0", d0, hidden, false);
    dh = b.tanh(dh);
    let mut outputs = Vec::new();
    for t in 0..dec_steps {
        // scores = dh · memoryᵀ  → softmax → context = attn · memory.
        let mem_t = b.transpose(memory, vec![1, 0]);
        let scores = b.dot(dh, mem_t); // [1 × enc_steps]
        let attn = b.softmax(scores);
        let ctx = b.dot(attn, memory); // [1 × hidden]
        let x = b.slice_dim(tgt, 0, t, t + 1);
        let inp = b.concatenate(&[x, ctx], 1);
        dh = gate(&mut b, &format!("dec{t}"), inp, dh, hidden, false);
        outputs.push(dh);
    }
    let all = b.concatenate(&outputs, 0);
    let logits = dense(&mut b, "proj", all, vocab, false);
    let out = b.softmax(logits);
    Program::new(name, b.finish(out))
}

/// A Transformer encoder stack: the paper's "Translate" (and, with other
/// sizes, "Transformer").
pub fn transformer(name: &str, layers: usize, seq: usize, d_model: usize, heads: usize) -> Program {
    let mut b = GraphBuilder::new("main");
    let mut h = embed(&mut b, "tok", 1024, d_model, seq);
    let d_head = d_model / heads;
    for l in 0..layers {
        // Multi-head self-attention (heads as separate dots).
        let q = dense(&mut b, &format!("l{l}_q"), h, d_model, false);
        let k = dense(&mut b, &format!("l{l}_k"), h, d_model, false);
        let v = dense(&mut b, &format!("l{l}_v"), h, d_model, false);
        let mut head_outs = Vec::new();
        for hd in 0..heads {
            let qs = b.slice_dim(q, 1, hd * d_head, (hd + 1) * d_head);
            let ks = b.slice_dim(k, 1, hd * d_head, (hd + 1) * d_head);
            let vs = b.slice_dim(v, 1, hd * d_head, (hd + 1) * d_head);
            let kt = b.transpose(ks, vec![1, 0]);
            let scores = b.dot(qs, kt); // [seq × seq]
            let scale = b.scalar_constant();
            let scaled = b.multiply(scores, scale);
            let attn = b.softmax(scaled);
            let ctx = b.dot(attn, vs); // [seq × d_head]
            head_outs.push(ctx);
        }
        let cat = b.concatenate(&head_outs, 1);
        let proj = dense(&mut b, &format!("l{l}_o"), cat, d_model, false);
        let res1 = b.add(proj, h);
        let n1 = b.layer_norm(res1);

        // Feedforward.
        let ff1 = dense(&mut b, &format!("l{l}_ff1"), n1, d_model * 4, true);
        let ff2 = dense(&mut b, &format!("l{l}_ff2"), ff1, d_model, false);
        let res2 = b.add(ff2, n1);
        h = b.layer_norm(res2);
    }
    let logits = dense(&mut b, "head", h, 1024, false);
    let out = b.softmax(logits);
    Program::new(name, b.finish(out))
}

/// BERT-lite: a transformer with a pooled classification head
/// (train-only family).
pub(crate) fn bert_lite(name: &str, layers: usize, seq: usize, d_model: usize) -> Program {
    let mut b = GraphBuilder::new("main");
    let mut h = embed(&mut b, "tok", 2048, d_model, seq);
    let seg = embed(&mut b, "seg", 2, d_model, seq);
    h = b.add(h, seg);
    for l in 0..layers {
        let q = dense(&mut b, &format!("l{l}_q"), h, d_model, false);
        let k = dense(&mut b, &format!("l{l}_k"), h, d_model, false);
        let v = dense(&mut b, &format!("l{l}_v"), h, d_model, false);
        let kt = b.transpose(k, vec![1, 0]);
        let scores = b.dot(q, kt);
        let attn = b.softmax(scores);
        let ctx = b.dot(attn, v);
        let res1 = b.add(ctx, h);
        let n1 = b.layer_norm(res1);
        let ff1 = dense(&mut b, &format!("l{l}_ff1"), n1, d_model * 2, true);
        let ff2 = dense(&mut b, &format!("l{l}_ff2"), ff1, d_model, false);
        let res2 = b.add(ff2, n1);
        h = b.layer_norm(res2);
    }
    let cls = b.slice_dim(h, 0, 0, 1);
    let pooled = dense(&mut b, "pool", cls, d_model, false);
    let pt = b.tanh(pooled);
    let logits = dense(&mut b, "cls", pt, 2, false);
    let out = b.softmax(logits);
    Program::new(name, b.finish(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_attention_families_validate() {
        let programs = [
            nmt("n", 6, 6, 64, 256),
            transformer("t", 2, 32, 64, 4),
            bert_lite("b", 2, 32, 64),
        ];
        for p in &programs {
            assert!(p.computation.validate().is_ok(), "{}", p.name);
            assert!(
                p.num_nodes() > 40,
                "{} too small: {}",
                p.name,
                p.num_nodes()
            );
        }
    }

    #[test]
    fn transformer_layers_scale() {
        let a = transformer("a", 1, 16, 32, 2);
        let b = transformer("b", 4, 16, 32, 2);
        assert!(b.num_nodes() > a.num_nodes() * 2);
    }

    #[test]
    fn nmt_contains_attention_dots() {
        let p = nmt("n", 4, 4, 32, 64);
        let softmaxes = p
            .computation
            .nodes()
            .iter()
            .filter(|n| n.opcode == tpu_hlo::Opcode::Divide)
            .count();
        assert!(softmaxes >= 4, "one softmax per decode step expected");
    }
}
