//! Remaining model families: MLP, autoencoder, ConvDRAW, Char2Feats,
//! deep-and-wide, NCF, ResNet-parallel.

use super::common::{conv_layer, dense, embed, flatten};
use tpu_hlo::{ConvAttrs, DType, GraphBuilder, Program, Shape};

/// Plain multilayer perceptron.
pub fn mlp(name: &str, batch: usize, widths: &[usize]) -> Program {
    let mut b = GraphBuilder::new("main");
    let mut h = b.parameter("x", Shape::matrix(batch, widths[0]), DType::F32);
    for (i, &w) in widths[1..].iter().enumerate() {
        h = dense(&mut b, &format!("fc{i}"), h, w, true);
    }
    let logits = dense(&mut b, "head", h, 10, false);
    let out = b.softmax(logits);
    Program::new(name, b.finish(out))
}

/// Autoencoder with a reconstruction-error head.
pub(crate) fn autoencoder(name: &str, batch: usize, dim: usize, code: usize) -> Program {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("x", Shape::matrix(batch, dim), DType::F32);
    let e1 = dense(&mut b, "e1", x, dim / 2, true);
    let e2 = dense(&mut b, "e2", e1, code, true);
    let d1 = dense(&mut b, "d1", e2, dim / 2, true);
    let recon = dense(&mut b, "d2", d1, dim, false);
    let diff = b.subtract(recon, x);
    let sq = b.multiply(diff, diff);
    let loss = b.reduce(sq, vec![0, 1]);
    Program::new(name, b.finish(loss))
}

/// ConvDRAW-like recurrent variational sketcher: conv encoder, a recurrent
/// latent loop with sampling, conv-ish decoder, KL terms.
pub(crate) fn convdraw(
    name: &str,
    batch: usize,
    px: usize,
    steps: usize,
    hidden: usize,
) -> Program {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("img", Shape::new(vec![batch, px, px, 1]), DType::F32);
    let c1 = conv_layer(&mut b, "enc1", x, 16, 3, 2);
    let r1 = b.relu(c1);
    let c2 = conv_layer(&mut b, "enc2", r1, 32, 3, 2);
    let r2 = b.relu(c2);
    let feat = flatten(&mut b, r2);
    let mut h = dense(&mut b, "h0", feat, hidden, true);
    let mut kl_terms = Vec::new();
    for t in 0..steps {
        let mu = dense(&mut b, &format!("mu{t}"), h, hidden, false);
        let logvar = dense(&mut b, &format!("lv{t}"), h, hidden, false);
        let noise = b.rng(b.shape(mu).clone(), DType::F32);
        let half = b.scalar_constant();
        let hv = b.multiply(logvar, half);
        let std = b.exp(hv);
        let scaled = b.multiply(noise, std);
        let z = b.add(mu, scaled);
        h = dense(&mut b, &format!("step{t}"), z, hidden, true);
        // KL(q‖p) elementwise pieces.
        let mu2 = b.multiply(mu, mu);
        let var = b.exp(logvar);
        let inner = b.add(mu2, var);
        let kl = b.subtract(inner, logvar);
        let klr = b.reduce(kl, vec![0, 1]);
        kl_terms.push(klr);
    }
    let canvas = dense(&mut b, "dec", h, px * px, false);
    let img = b.logistic(canvas);
    let recon = b.reduce(img, vec![0, 1]);
    let mut total = recon;
    for kl in kl_terms {
        total = b.add(total, kl);
    }
    Program::new(name, b.finish(total))
}

/// Character-to-features model: character embedding + 1-D convolutions +
/// max-over-time pooling (the paper's "Char2Feats").
pub(crate) fn char2feats(name: &str, chars: usize, dim: usize) -> Program {
    let mut b = GraphBuilder::new("main");
    let e = embed(&mut b, "chars", 96, dim, chars);
    // Treat as a 1×1×chars×dim NHWC image and convolve over "width".
    let img = b.reshape(e, Shape::new(vec![1, 1, chars, dim]));
    let mut branch_outs = Vec::new();
    for (i, k) in [2usize, 3, 4].into_iter().enumerate() {
        let w = b.parameter(
            &format!("cw{i}"),
            Shape::new(vec![1, k, dim, dim]),
            DType::F32,
        );
        let conv = b.convolution(
            img,
            w,
            ConvAttrs {
                filter_h: 1,
                filter_w: k,
                stride_h: 1,
                stride_w: 1,
                pad_h: (0, 0),
                pad_w: (k - 1, 0),
                feature_groups: 1,
            },
        );
        let act = b.relu(conv);
        let pooled = b.reduce(act, vec![1, 2]); // max-over-time stand-in
        branch_outs.push(pooled);
    }
    let cat = b.concatenate(&branch_outs, 1);
    let h = dense(&mut b, "proj", cat, dim * 2, true);
    let out = b.tanh(h);
    Program::new(name, b.finish(out))
}

/// Deep-and-wide recommender: a wide linear path over sparse features plus
/// a deep MLP path, summed.
pub(crate) fn deep_and_wide(
    name: &str,
    batch: usize,
    wide_dim: usize,
    deep_dims: &[usize],
) -> Program {
    let mut b = GraphBuilder::new("main");
    let wide = b.parameter("wide", Shape::matrix(batch, wide_dim), DType::F32);
    let wide_out = dense(&mut b, "wide_lr", wide, 1, false);
    let mut deep = b.parameter("deep", Shape::matrix(batch, deep_dims[0]), DType::F32);
    for (i, &d) in deep_dims[1..].iter().enumerate() {
        deep = dense(&mut b, &format!("deep{i}"), deep, d, true);
    }
    let deep_out = dense(&mut b, "deep_head", deep, 1, false);
    let sum = b.add(wide_out, deep_out);
    let out = b.logistic(sum);
    Program::new(name, b.finish(out))
}

/// Neural collaborative filtering: user/item embeddings → elementwise
/// product and MLP tower.
pub(crate) fn ncf(name: &str, batch: usize, dim: usize) -> Program {
    let mut b = GraphBuilder::new("main");
    let users = embed(&mut b, "user", 10_000, dim, batch);
    let items = embed(&mut b, "item", 50_000, dim, batch);
    let gmf = b.multiply(users, items);
    let cat = b.concatenate(&[users, items], 1);
    let m1 = dense(&mut b, "m1", cat, dim, true);
    let m2 = dense(&mut b, "m2", m1, dim / 2, true);
    let both = b.concatenate(&[gmf, m2], 1);
    let score = dense(&mut b, "head", both, 1, false);
    let out = b.logistic(score);
    Program::new(name, b.finish(out))
}

/// Two ResNet towers evaluated in parallel and merged — the paper's
/// "ResNet-parallel" autotuning target.
pub(crate) fn resnet_parallel(
    name: &str,
    batch: usize,
    px: usize,
    width: usize,
    blocks: usize,
) -> Program {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("input", Shape::new(vec![batch, px, px, 3]), DType::F32);
    let mut outs = Vec::new();
    for tower in 0..2 {
        let stem = conv_layer(&mut b, &format!("t{tower}_stem"), x, width, 3, 1);
        let mut h = b.relu(stem);
        for i in 0..blocks {
            let c1 = conv_layer(&mut b, &format!("t{tower}_b{i}_c1"), h, width, 3, 1);
            let r1 = b.relu(c1);
            let c2 = conv_layer(&mut b, &format!("t{tower}_b{i}_c2"), r1, width, 3, 1);
            let s = b.add(c2, h);
            h = b.relu(s);
        }
        let red = b.reduce(h, vec![1, 2]);
        outs.push(red);
    }
    let merged = b.add(outs[0], outs[1]);
    let logits = dense(&mut b, "fc", merged, 100, false);
    let out = b.softmax(logits);
    Program::new(name, b.finish(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_misc_families_validate() {
        let programs = [
            mlp("m", 32, &[128, 256, 128]),
            autoencoder("a", 16, 256, 32),
            convdraw("c", 2, 16, 3, 64),
            char2feats("ch", 32, 32),
            deep_and_wide("dw", 64, 512, &[128, 64]),
            ncf("n", 64, 64),
            resnet_parallel("rp", 2, 14, 16, 2),
        ];
        for p in &programs {
            assert!(p.computation.validate().is_ok(), "{}", p.name);
            assert!(p.num_nodes() > 10, "{} too small", p.name);
        }
    }

    #[test]
    fn convdraw_contains_rng() {
        let p = convdraw("c", 2, 16, 3, 64);
        assert!(p
            .computation
            .nodes()
            .iter()
            .any(|n| n.opcode == tpu_hlo::Opcode::Rng));
    }

    #[test]
    fn ncf_contains_gathers() {
        let p = ncf("n", 32, 32);
        let gathers = p
            .computation
            .nodes()
            .iter()
            .filter(|n| n.opcode == tpu_hlo::Opcode::Gather)
            .count();
        assert_eq!(gathers, 2);
    }
}
