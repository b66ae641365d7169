//! Per-node compute cost estimation (cycles on the MXU or VPU).

use crate::config::TpuConfig;
use tpu_hlo::{Computation, Node, OpAttrs, OpCategory, Opcode};

/// Matrix-multiply problem dimensions extracted from a `dot` node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DotProblem {
    /// Batch size (product of batch dims).
    pub b: u64,
    /// Rows of the left operand result.
    pub m: u64,
    /// Contracted dimension size.
    pub k: u64,
    /// Columns of the right operand result.
    pub n: u64,
}

/// Extract [`DotProblem`] dimensions from a `dot` node.
///
/// # Panics
///
/// Panics if the node is not a `dot` or is missing its dimension numbers.
pub fn dot_problem(c: &Computation, node: &Node) -> DotProblem {
    let OpAttrs::Dot(dims) = &node.attrs else {
        panic!("dot node without DotDims")
    };
    let lhs = &c.node(node.operands[0]).shape;
    let rhs = &c.node(node.operands[1]).shape;
    let k = lhs.dim(dims.lhs_contracting) as u64;
    let mut b = 1u64;
    for &d in &dims.lhs_batch {
        b *= lhs.dim(d) as u64;
    }
    let mut m = 1u64;
    for d in 0..lhs.rank() {
        if d != dims.lhs_contracting && !dims.lhs_batch.contains(&d) {
            m *= lhs.dim(d) as u64;
        }
    }
    let mut n = 1u64;
    for d in 0..rhs.rank() {
        if d != dims.rhs_contracting && !dims.rhs_batch.contains(&d) {
            n *= rhs.dim(d) as u64;
        }
    }
    DotProblem { b, m, k, n }
}

/// Convolution problem mapped onto the MXU via implicit im2col:
/// `M = N·OH·OW`, `K = FH·FW·CI`, `N = CO`.
///
/// # Panics
///
/// Panics if the node is not a convolution.
pub fn conv_as_dot(c: &Computation, node: &Node) -> DotProblem {
    let OpAttrs::Conv(conv) = &node.attrs else {
        panic!("conv node without attrs")
    };
    let out = &node.shape;
    let filter = &c.node(node.operands[1]).shape;
    let m = (out.dim(0) * out.dim(1) * out.dim(2)) as u64;
    let k = (conv.filter_h * conv.filter_w * filter.dim(2)) as u64;
    let n = out.dim(3) as u64;
    DotProblem {
        b: conv.feature_groups as u64,
        m,
        k,
        n,
    }
}

/// Cycles to run a [`DotProblem`] on the systolic MXU.
///
/// The array computes a `mxu_dim × mxu_dim` output block per pass; each
/// pass streams `K` values plus a pipeline fill. Partial blocks waste the
/// unused rows/columns — the padding nonlinearity the learned model has to
/// discover.
pub(crate) fn mxu_cycles(p: DotProblem, cfg: &TpuConfig) -> f64 {
    let d = cfg.mxu_dim as u64;
    let blocks_m = p.m.div_ceil(d);
    let blocks_n = p.n.div_ceil(d);
    (p.b * blocks_m * blocks_n) as f64 * (p.k as f64 + cfg.mxu_fill_cycles)
}

/// Cycles for `elems` elementwise lanes of per-element cost `unit_cost`.
pub(crate) fn vpu_cycles(elems: u64, unit_cost: f64, cfg: &TpuConfig) -> f64 {
    (elems as f64 / cfg.vpu_width()).ceil() * unit_cost
}

/// Compute cycles for one node inside a kernel.
///
/// Data-movement ops that a fused loop absorbs into its indexing (reshape,
/// broadcast, slice, pad) are free; cross-lane shuffles (transpose,
/// reverse) and irregular access (gather/scatter) are not.
pub(crate) fn node_compute_cycles(c: &Computation, node: &Node, cfg: &TpuConfig) -> f64 {
    let elems = node.elem_count();
    match node.opcode.category() {
        OpCategory::Parameter | OpCategory::Leaf => match node.opcode {
            // RNG costs a few cycles per element.
            Opcode::Rng => vpu_cycles(elems, 8.0, cfg),
            Opcode::Iota => vpu_cycles(elems, 1.0, cfg),
            _ => 0.0,
        },
        OpCategory::ElementwiseUnary
        | OpCategory::ElementwiseBinary
        | OpCategory::ElementwiseTernary => vpu_cycles(elems, node.opcode.elementwise_cost(), cfg),
        OpCategory::DataMovement => match node.opcode {
            // Loop-index remaps: free inside a fused loop.
            Opcode::Reshape
            | Opcode::Broadcast
            | Opcode::Slice
            | Opcode::Pad
            | Opcode::Concatenate => 0.0,
            // Cross-lane data movement uses the permute unit.
            Opcode::Transpose | Opcode::Reverse => vpu_cycles(elems, 2.5, cfg),
            Opcode::DynamicSlice | Opcode::DynamicUpdateSlice => vpu_cycles(elems, 1.5, cfg),
            // Irregular addressing defeats vectorization.
            Opcode::Gather | Opcode::Scatter => vpu_cycles(elems, 6.0, cfg),
            Opcode::Copy => vpu_cycles(elems, 1.0, cfg),
            _ => vpu_cycles(elems, 1.0, cfg),
        },
        OpCategory::Reduction => {
            let in_elems = c.node(node.operands[0]).elem_count();
            match node.opcode {
                Opcode::ReduceWindow => {
                    let &OpAttrs::Window(wh, ww, _, _) = &node.attrs else {
                        panic!("window attrs")
                    };
                    vpu_cycles(elems * (wh * ww) as u64, 1.2, cfg)
                }
                // Tree reduction: one pass over input plus log-depth tail.
                _ => vpu_cycles(in_elems, 1.0, cfg) * 1.3 + 16.0,
            }
        }
        OpCategory::Dot => mxu_cycles(dot_problem(c, node), cfg),
        // im2col window-feeding overhead above a pure matmul.
        OpCategory::Convolution => mxu_cycles(conv_as_dot(c, node), cfg) * 1.12,
        OpCategory::Other => vpu_cycles(elems, 4.0, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_hlo::{ConvAttrs, DType, DotDims, GraphBuilder, Shape};

    fn cfg() -> TpuConfig {
        TpuConfig::default()
    }

    #[test]
    fn dot_problem_extraction() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(100, 300), DType::F32);
        let w = b.parameter("w", Shape::matrix(300, 200), DType::F32);
        let d = b.dot(x, w);
        let c = b.finish(d);
        let p = dot_problem(&c, c.node(d));
        assert_eq!(
            p,
            DotProblem {
                b: 1,
                m: 100,
                k: 300,
                n: 200
            }
        );
    }

    #[test]
    fn batch_dot_problem() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::new(vec![4, 16, 32]), DType::F32);
        let w = b.parameter("w", Shape::new(vec![4, 32, 8]), DType::F32);
        let d = b.dot_general(x, w, DotDims::batch_matmul());
        let c = b.finish(d);
        let p = dot_problem(&c, c.node(d));
        assert_eq!(
            p,
            DotProblem {
                b: 4,
                m: 16,
                k: 32,
                n: 8
            }
        );
    }

    #[test]
    fn mxu_padding_quantizes() {
        let c = cfg();
        // 129 rows needs two row-blocks: exactly 2x the cycles of 128 rows.
        let small = mxu_cycles(
            DotProblem {
                b: 1,
                m: 128,
                k: 256,
                n: 128,
            },
            &c,
        );
        let padded = mxu_cycles(
            DotProblem {
                b: 1,
                m: 129,
                k: 256,
                n: 128,
            },
            &c,
        );
        assert!((padded / small - 2.0).abs() < 1e-12);
    }

    #[test]
    fn conv_as_dot_dimensions() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::new(vec![2, 16, 16, 8]), DType::F32);
        let w = b.parameter("w", Shape::new(vec![3, 3, 8, 32]), DType::F32);
        let y = b.convolution(x, w, ConvAttrs::same(3));
        let c = b.finish(y);
        let p = conv_as_dot(&c, c.node(y));
        assert_eq!(p.m, 2 * 16 * 16);
        assert_eq!(p.k, 3 * 3 * 8);
        assert_eq!(p.n, 32);
    }

    #[test]
    fn transcendental_elementwise_costs_more() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(64, 128), DType::F32);
        let t = b.tanh(x);
        let a = b.abs(x);
        let m = b.maximum(t, a);
        let c = b.finish(m);
        let cost_tanh = node_compute_cycles(&c, c.node(t), &cfg());
        let cost_abs = node_compute_cycles(&c, c.node(a), &cfg());
        assert!(cost_tanh > 4.0 * cost_abs);
    }

    #[test]
    fn reshape_is_free_gather_is_not() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(64, 128), DType::F32);
        let r = b.reshape(x, Shape::new(vec![8192]));
        let tbl = b.parameter("tbl", Shape::matrix(1000, 64), DType::F32);
        let idx = b.parameter("idx", Shape::vector(512), DType::S32);
        let g = b.gather_rows(tbl, idx);
        let root = b.reduce(g, vec![0, 1]);
        let c = b.finish(root);
        assert_eq!(node_compute_cycles(&c, c.node(r), &cfg()), 0.0);
        assert!(node_compute_cycles(&c, c.node(g), &cfg()) > 0.0);
    }

    #[test]
    fn vpu_cycles_ceil() {
        let c = cfg();
        assert_eq!(vpu_cycles(1, 1.0, &c), 1.0);
        assert_eq!(vpu_cycles(1024, 1.0, &c), 1.0);
        assert_eq!(vpu_cycles(1025, 1.0, &c), 2.0);
    }
}
