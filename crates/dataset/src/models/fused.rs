//! Fused multi-kernel programs: several family-style towers composed into
//! one computation, emitted as **single large training graphs**
//! (TpuGraphs-style whole-graph examples). Node count grows linearly with
//! the tower/stage parameters, so these families parameterize the
//! large-graph end of the corpus.

use super::common::{conv_layer, dense, flatten};
use tpu_hlo::{DType, GraphBuilder, Program, Shape};

/// `towers` parallel residual conv towers over a shared image input, each
/// `depth` blocks deep, merged by concatenation into a joint MLP head.
pub(crate) fn multi_tower(
    name: &str,
    batch: usize,
    px: usize,
    width: usize,
    towers: usize,
    depth: usize,
) -> Program {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("input", Shape::new(vec![batch, px, px, 3]), DType::F32);
    let mut outs = Vec::new();
    for t in 0..towers {
        let stem = conv_layer(&mut b, &format!("t{t}_stem"), x, width, 3, 1);
        let mut h = b.relu(stem);
        for i in 0..depth {
            let c1 = conv_layer(&mut b, &format!("t{t}_b{i}_c1"), h, width, 3, 1);
            let r1 = b.relu(c1);
            let c2 = conv_layer(&mut b, &format!("t{t}_b{i}_c2"), r1, width, 3, 1);
            let s = b.add(c2, h);
            h = b.relu(s);
        }
        let red = b.reduce(h, vec![1, 2]);
        outs.push(red);
    }
    let cat = b.concatenate(&outs, 1);
    let joint = dense(&mut b, "joint", cat, width * 2, true);
    let logits = dense(&mut b, "head", joint, 100, false);
    let out = b.softmax(logits);
    Program::new(name, b.finish(out))
}

/// A deep stack of gated residual dense stages — a single graph whose node
/// count scales with `stages`, standing in for pipelines of fused models.
pub(crate) fn stacked_pipeline(name: &str, batch: usize, dim: usize, stages: usize) -> Program {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("x", Shape::matrix(batch, dim), DType::F32);
    let mut h = x;
    for s in 0..stages {
        let e = dense(&mut b, &format!("s{s}_e"), h, dim, false);
        let t = b.tanh(e);
        let g = dense(&mut b, &format!("s{s}_g"), h, dim, false);
        let gate = b.logistic(g);
        let mixed = b.multiply(t, gate);
        h = b.add(mixed, h);
    }
    let logits = dense(&mut b, "head", h, 10, false);
    let out = b.softmax(logits);
    Program::new(name, b.finish(out))
}

/// A hybrid program: a conv tower and a dense tower over separate inputs,
/// fused at a joint head — the "multiple models in one graph" shape that
/// motivates segment training.
pub(crate) fn conv_dense_hybrid(
    name: &str,
    batch: usize,
    px: usize,
    width: usize,
    dim: usize,
    depth: usize,
) -> Program {
    let mut b = GraphBuilder::new("main");
    let img = b.parameter("img", Shape::new(vec![batch, px, px, 3]), DType::F32);
    let stem = conv_layer(&mut b, "conv_stem", img, width, 3, 2);
    let mut h = b.relu(stem);
    for i in 0..depth {
        let c = conv_layer(&mut b, &format!("conv{i}"), h, width, 3, 1);
        h = b.relu(c);
    }
    let feat = flatten(&mut b, h);
    let conv_out = dense(&mut b, "conv_proj", feat, dim, true);

    let tab = b.parameter("tabular", Shape::matrix(batch, dim), DType::F32);
    let mut d = tab;
    for i in 0..depth {
        d = dense(&mut b, &format!("dense{i}"), d, dim, true);
    }

    let cat = b.concatenate(&[conv_out, d], 1);
    let joint = dense(&mut b, "joint", cat, dim, true);
    let logits = dense(&mut b, "head", joint, 1, false);
    let out = b.logistic(logits);
    Program::new(name, b.finish(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_families_validate() {
        let programs = [
            multi_tower("mt", 2, 14, 16, 3, 2),
            stacked_pipeline("sp", 32, 128, 6),
            conv_dense_hybrid("cd", 2, 16, 16, 64, 2),
        ];
        for p in &programs {
            assert!(p.computation.validate().is_ok(), "{}", p.name);
            assert!(p.num_nodes() > 30, "{} too small", p.name);
        }
    }

    #[test]
    fn node_count_scales_with_parameters() {
        let small = multi_tower("s", 2, 14, 16, 2, 2);
        let big = multi_tower("b", 2, 14, 16, 6, 8);
        assert!(big.num_nodes() > 3 * small.num_nodes());
        let shallow = stacked_pipeline("s", 16, 64, 4);
        let deep = stacked_pipeline("d", 16, 64, 40);
        assert!(deep.num_nodes() > 5 * shallow.num_nodes());
    }
}
