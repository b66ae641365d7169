//! Which producer→consumer edges may be fused.
//!
//! Fusion decisions are per *edge*: fusing edge `(p, c)` pulls `p` into the
//! kernel rooted at (or containing) `c`. Like XLA's loop fusion, a cheap
//! producer with several consumers may be *duplicated* into each fused
//! consumer, which keeps the kernel-level graph acyclic by construction.
//! Heavy ops (dot/convolution/reduction) are protected from duplication and
//! hero-sharing by the pass itself (see
//! [`apply_fusion`](crate::apply_fusion)), so legality stays permissive and
//! the search space stays large — §3.1's "up to 2^40,000 configuration
//! candidates".

use tpu_hlo::{Computation, NodeId, OpCategory, Opcode};

/// Largest constant (in elements) that may be fused as an immediate.
/// Larger constants behave like weights: always read from HBM, never a
/// fusion decision.
pub const MAX_FUSIBLE_CONSTANT_ELEMS: u64 = 1024;

/// Whether a producer op may in principle be fused into a consumer.
fn producer_fusible(c: &Computation, p: NodeId) -> bool {
    let node = c.node(p);
    match node.opcode.category() {
        OpCategory::Parameter => false,
        OpCategory::Leaf => match node.opcode {
            Opcode::Constant => node.elem_count() <= MAX_FUSIBLE_CONSTANT_ELEMS,
            Opcode::Iota | Opcode::Rng => true,
            _ => false,
        },
        // Elementwise and data-movement producers always offer a fusion
        // decision; duplication economics are the autotuner's problem (and
        // the pass forbids the truly illegal cases).
        OpCategory::ElementwiseUnary
        | OpCategory::ElementwiseBinary
        | OpCategory::ElementwiseTernary
        | OpCategory::DataMovement => true,
        // Reductions, dots and convolutions are fusion *roots*; they may be
        // fused upward only through the single-consumer output-fusion rule
        // below.
        OpCategory::Reduction | OpCategory::Dot | OpCategory::Convolution => {
            heavy_output_fusible(c, p)
        }
        OpCategory::Other => false,
    }
}

/// Output fusion: a heavy op (dot/conv/reduce) may be fused into its
/// consumer only when it has exactly one consumer and that consumer is
/// elementwise — duplicating a matmul would be absurd.
fn heavy_output_fusible(c: &Computation, p: NodeId) -> bool {
    if c.root() == p {
        return false;
    }
    let users = c.users(p);
    if users.len() != 1 {
        return false;
    }
    c.node(users[0]).opcode.is_elementwise()
}

/// Whether the consumer side of an edge accepts fusion.
fn consumer_fusible(c: &Computation, q: NodeId) -> bool {
    let node = c.node(q);
    !matches!(
        node.opcode.category(),
        OpCategory::Parameter | OpCategory::Leaf
    )
}

/// All edges `(producer, consumer)` whose fusion is a legal decision, in a
/// deterministic order. This is the autotuner's search space.
pub(crate) fn fusible_edges(c: &Computation) -> Vec<(NodeId, NodeId)> {
    let mut edges = Vec::new();
    for node in c.nodes() {
        if !consumer_fusible(c, node.id) {
            continue;
        }
        let mut seen = Vec::new();
        for &op in &node.operands {
            if seen.contains(&op) {
                continue;
            }
            seen.push(op);
            if producer_fusible(c, op) {
                edges.push((op, node.id));
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_hlo::{DType, GraphBuilder, Shape};

    #[test]
    fn parameters_never_fusible() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(4, 4), DType::F32);
        let y = b.tanh(x);
        let c = b.finish(y);
        assert!(!producer_fusible(&c, x));
        assert!(fusible_edges(&c).is_empty());
    }

    #[test]
    fn elementwise_chain_is_fusible() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(4, 4), DType::F32);
        let t = b.tanh(x);
        let e = b.exp(t);
        let c = b.finish(e);
        assert_eq!(fusible_edges(&c), vec![(t, e)]);
    }

    #[test]
    fn multi_consumer_elementwise_is_fusible() {
        // Even with a dot upstream: the pass (not legality) protects the
        // dot from recomputation.
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(32, 32), DType::F32);
        let w = b.parameter("w", Shape::matrix(32, 32), DType::F32);
        let d = b.dot(x, w);
        let a = b.abs(d);
        let e = b.exp(a);
        let s = b.logistic(a);
        let m = b.add(e, s);
        let c = b.finish(m);
        assert!(producer_fusible(&c, a), "duplication is a search decision");
        assert!(fusible_edges(&c).contains(&(a, e)));
        assert!(fusible_edges(&c).contains(&(a, s)));
    }

    #[test]
    fn small_constants_fusible_large_not() {
        let mut b = GraphBuilder::new("t");
        let small = b.constant(Shape::vector(8), DType::F32);
        let big = b.constant(Shape::matrix(512, 512), DType::F32);
        let sb = b.broadcast(small, Shape::matrix(512, 8), vec![1]);
        let _ = sb;
        let t = b.tanh(big);
        let c = b.finish(t);
        assert!(producer_fusible(&c, small));
        assert!(!producer_fusible(&c, big));
    }

    #[test]
    fn dot_output_fusion_single_consumer_only() {
        // dot with one elementwise consumer: fusible.
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(8, 8), DType::F32);
        let w = b.parameter("w", Shape::matrix(8, 8), DType::F32);
        let d = b.dot(x, w);
        let r = b.relu(d);
        let c = b.finish(r);
        assert!(producer_fusible(&c, d));
        assert!(fusible_edges(&c).contains(&(d, r)));

        // dot with two consumers: not fusible.
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(8, 8), DType::F32);
        let w = b.parameter("w", Shape::matrix(8, 8), DType::F32);
        let d = b.dot(x, w);
        let r = b.relu(d);
        let s = b.logistic(d);
        let m = b.add(r, s);
        let c = b.finish(m);
        assert!(!producer_fusible(&c, d));
    }

    #[test]
    fn root_never_fused_upward() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(8, 8), DType::F32);
        let w = b.parameter("w", Shape::matrix(8, 8), DType::F32);
        let d = b.dot(x, w);
        let c = b.finish(d);
        assert!(!producer_fusible(&c, d));
    }

    #[test]
    fn reduce_into_elementwise_consumer() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(8, 8), DType::F32);
        let r = b.reduce(x, vec![1]);
        let t = b.tanh(r);
        let c = b.finish(t);
        assert!(producer_fusible(&c, r));
    }

    #[test]
    fn duplicate_operands_give_one_edge() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(4, 4), DType::F32);
        let t = b.tanh(x);
        let m = b.multiply(t, t);
        let c = b.finish(m);
        assert_eq!(fusible_edges(&c), vec![(t, m)]);
    }
}
