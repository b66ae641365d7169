//! Shared building blocks for the model-family generators.

use tpu_hlo::{ConvAttrs, DType, GraphBuilder, NodeId, Shape};

/// A dense layer `relu?(x·W + b)` with parameter weights, returning the
/// output node.
pub(crate) fn dense(
    b: &mut GraphBuilder,
    name: &str,
    x: NodeId,
    out_dim: usize,
    relu: bool,
) -> NodeId {
    let in_dim = *b.shape(x).dims().last().expect("dense needs rank>=1");
    let rows = b.shape(x).dims()[0];
    let _ = rows;
    let w = b.parameter(
        &format!("{name}_w"),
        Shape::matrix(in_dim, out_dim),
        DType::F32,
    );
    let bias = b.parameter(&format!("{name}_b"), Shape::vector(out_dim), DType::F32);
    let xw = b.dot(x, w);
    let target = b.shape(xw).clone();
    let bb = b.broadcast(bias, target, vec![1]);
    let z = b.add(xw, bb);
    if relu {
        b.relu(z)
    } else {
        z
    }
}

/// `sigmoid(x·W + U·h + bias)`-style gate used by the recurrent families.
pub(crate) fn gate(
    b: &mut GraphBuilder,
    name: &str,
    x: NodeId,
    h: NodeId,
    hidden: usize,
    logistic: bool,
) -> NodeId {
    let xd = dense(b, &format!("{name}_x"), x, hidden, false);
    let hd = dense(b, &format!("{name}_h"), h, hidden, false);
    let s = b.add(xd, hd);
    if logistic {
        b.logistic(s)
    } else {
        b.tanh(s)
    }
}

/// A convolution layer with parameter filter: `conv(x, W)` for NHWC `x`.
pub(crate) fn conv_layer(
    b: &mut GraphBuilder,
    name: &str,
    x: NodeId,
    out_ch: usize,
    k: usize,
    stride: usize,
) -> NodeId {
    let in_ch = b.shape(x).dim(3);
    let w = b.parameter(
        &format!("{name}_w"),
        Shape::new(vec![k, k, in_ch, out_ch]),
        DType::F32,
    );
    let attrs = if stride == 1 {
        ConvAttrs::same(k)
    } else {
        ConvAttrs::same_strided(k, stride)
    };
    b.convolution(x, w, attrs)
}

/// Batch-norm + ReLU, as fused inference-time ops.
pub(crate) fn bn_relu(b: &mut GraphBuilder, name: &str, x: NodeId) -> NodeId {
    let ch = b.shape(x).dim(3);
    let scale = b.parameter(&format!("{name}_scale"), Shape::vector(ch), DType::F32);
    let offset = b.parameter(&format!("{name}_offset"), Shape::vector(ch), DType::F32);
    let n = b.batch_norm_inference(x, scale, offset);
    b.relu(n)
}

/// 2×2 max-pool (stride 2) on NHWC.
pub(crate) fn max_pool(b: &mut GraphBuilder, x: NodeId) -> NodeId {
    let init = b.scalar_constant();
    b.reduce_window(x, init, (2, 2, 2, 2))
}

/// Flatten NHWC to `[N, H·W·C]`.
pub(crate) fn flatten(b: &mut GraphBuilder, x: NodeId) -> NodeId {
    let s = b.shape(x).clone();
    let n = s.dim(0);
    let rest: usize = s.dims()[1..].iter().product();
    b.reshape(x, Shape::matrix(n, rest))
}

/// Embedding lookup: gathers `seq_len` rows of a `[vocab × dim]` table.
pub(crate) fn embed(
    b: &mut GraphBuilder,
    name: &str,
    vocab: usize,
    dim: usize,
    seq_len: usize,
) -> NodeId {
    let table = b.parameter(
        &format!("{name}_table"),
        Shape::matrix(vocab, dim),
        DType::F32,
    );
    let ids = b.parameter(&format!("{name}_ids"), Shape::vector(seq_len), DType::S32);
    b.gather_rows(table, ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_shapes() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(4, 16), DType::F32);
        let y = dense(&mut b, "l", x, 32, true);
        assert_eq!(b.shape(y).dims(), &[4, 32]);
    }

    #[test]
    fn conv_bn_pool_shapes() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::new(vec![2, 16, 16, 8]), DType::F32);
        let c = conv_layer(&mut b, "c", x, 16, 3, 1);
        let r = bn_relu(&mut b, "bn", c);
        let p = max_pool(&mut b, r);
        assert_eq!(b.shape(p).dims(), &[2, 8, 8, 16]);
        let f = flatten(&mut b, p);
        assert_eq!(b.shape(f).dims(), &[2, 8 * 8 * 16]);
    }

    #[test]
    fn embed_shapes() {
        let mut b = GraphBuilder::new("t");
        let e = embed(&mut b, "emb", 1000, 64, 12);
        assert_eq!(b.shape(e).dims(), &[12, 64]);
    }
}
