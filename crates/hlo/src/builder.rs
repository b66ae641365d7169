//! A shape-inferring builder for computation graphs.

use crate::attrs::{Comparison, ConvAttrs, DotDims, NodeAttrs, PadConfig, SliceAttrs};
use crate::dtype::DType;
use crate::graph::Computation;
use crate::node::{Node, NodeId};
use crate::opcode::Opcode;
use crate::shape::{Layout, Shape};

/// Builds a [`Computation`] node by node, inferring output shapes.
///
/// Operands must already exist when a node is added, so the resulting graph
/// is acyclic by construction and ids are a topological order.
///
/// # Example
///
/// ```
/// use tpu_hlo::{ConvAttrs, DType, GraphBuilder, Shape};
/// let mut b = GraphBuilder::new("convnet");
/// let x = b.parameter("img", Shape::new(vec![8, 32, 32, 16]), DType::F32);
/// let w = b.parameter("w", Shape::new(vec![3, 3, 16, 32]), DType::F32);
/// let y = b.convolution(x, w, ConvAttrs::same(3));
/// let c = b.finish(y);
/// assert_eq!(c.node(y).shape.dims(), &[8, 32, 32, 32]);
/// ```
///
/// # Panics
///
/// Builder methods panic on shape errors (mismatched elementwise operands,
/// invalid dot/conv dimensions, …). The builder is the trusted construction
/// path; fallible validation of arbitrary graphs lives in
/// [`Computation::validate`].
#[derive(Debug)]
pub struct GraphBuilder {
    name: String,
    nodes: Vec<Node>,
}

impl GraphBuilder {
    /// Start a new computation with the given name.
    pub fn new(name: impl Into<String>) -> GraphBuilder {
        GraphBuilder {
            name: name.into(),
            nodes: Vec::new(),
        }
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes have been added yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Shape of an already-added node.
    pub fn shape(&self, id: NodeId) -> &Shape {
        &self.nodes[id.index()].shape
    }

    /// DType of an already-added node.
    pub fn dtype(&self, id: NodeId) -> DType {
        self.nodes[id.index()].dtype
    }

    fn push(
        &mut self,
        opcode: Opcode,
        dtype: DType,
        shape: Shape,
        operands: Vec<NodeId>,
        attrs: NodeAttrs,
        name: impl Into<String>,
    ) -> NodeId {
        for &op in &operands {
            assert!(op.index() < self.nodes.len(), "operand {op} not yet added");
        }
        let id = NodeId(self.nodes.len() as u32);
        let layout = Layout::default_for_rank(shape.rank());
        self.nodes.push(Node {
            id,
            opcode,
            dtype,
            shape,
            layout,
            operands,
            attrs,
            name: name.into(),
        });
        id
    }

    /// Add a graph input.
    pub fn parameter(&mut self, name: &str, shape: Shape, dtype: DType) -> NodeId {
        self.push(
            Opcode::Parameter,
            dtype,
            shape,
            Vec::new(),
            NodeAttrs::none(),
            name,
        )
    }

    /// Add a constant tensor (contents are irrelevant to cost modeling;
    /// only shape/dtype matter).
    pub fn constant(&mut self, shape: Shape, dtype: DType) -> NodeId {
        self.push(
            Opcode::Constant,
            dtype,
            shape,
            Vec::new(),
            NodeAttrs::none(),
            "",
        )
    }

    /// Add a scalar f32 constant.
    pub fn scalar_constant(&mut self) -> NodeId {
        self.constant(Shape::scalar(), DType::F32)
    }

    /// Add an `iota` (index-generating) node.
    pub fn iota(&mut self, shape: Shape, dtype: DType) -> NodeId {
        self.push(
            Opcode::Iota,
            dtype,
            shape,
            Vec::new(),
            NodeAttrs::none(),
            "",
        )
    }

    /// Add a random-number generator node.
    pub fn rng(&mut self, shape: Shape, dtype: DType) -> NodeId {
        self.push(Opcode::Rng, dtype, shape, Vec::new(), NodeAttrs::none(), "")
    }

    fn unary(&mut self, opcode: Opcode, x: NodeId) -> NodeId {
        let shape = self.shape(x).clone();
        let dtype = self.dtype(x);
        self.push(opcode, dtype, shape, vec![x], NodeAttrs::none(), "")
    }

    fn binary(&mut self, opcode: Opcode, a: NodeId, b: NodeId) -> NodeId {
        let (sa, sb) = (self.shape(a).clone(), self.shape(b).clone());
        // XLA requires explicit broadcasts; we additionally allow scalar
        // operands for convenience, as the compiler would insert a
        // broadcast there anyway.
        let shape = if sa == sb || sb.is_scalar() {
            sa
        } else if sa.is_scalar() {
            sb
        } else {
            panic!("elementwise operands disagree: {sa} vs {sb} (insert an explicit broadcast)");
        };
        let dtype = self.dtype(a);
        self.push(opcode, dtype, shape, vec![a, b], NodeAttrs::none(), "")
    }

    // --- elementwise unary ---

    /// `|x|`.
    pub fn abs(&mut self, x: NodeId) -> NodeId {
        self.unary(Opcode::Abs, x)
    }
    /// `-x`.
    pub fn negate(&mut self, x: NodeId) -> NodeId {
        self.unary(Opcode::Negate, x)
    }
    /// `e^x`.
    pub fn exp(&mut self, x: NodeId) -> NodeId {
        self.unary(Opcode::Exp, x)
    }
    /// `ln x`.
    pub fn log(&mut self, x: NodeId) -> NodeId {
        self.unary(Opcode::Log, x)
    }
    /// `√x`.
    pub fn sqrt(&mut self, x: NodeId) -> NodeId {
        self.unary(Opcode::Sqrt, x)
    }
    /// `1/√x`.
    pub fn rsqrt(&mut self, x: NodeId) -> NodeId {
        self.unary(Opcode::Rsqrt, x)
    }
    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: NodeId) -> NodeId {
        self.unary(Opcode::Tanh, x)
    }
    /// Logistic sigmoid.
    pub fn logistic(&mut self, x: NodeId) -> NodeId {
        self.unary(Opcode::Logistic, x)
    }
    /// Rectified linear unit.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        self.unary(Opcode::Relu, x)
    }
    /// Sign function.
    pub fn sign(&mut self, x: NodeId) -> NodeId {
        self.unary(Opcode::Sign, x)
    }
    /// Floor.
    pub fn floor(&mut self, x: NodeId) -> NodeId {
        self.unary(Opcode::Floor, x)
    }
    /// Cosine.
    pub fn cos(&mut self, x: NodeId) -> NodeId {
        self.unary(Opcode::Cos, x)
    }
    /// Sine.
    pub fn sin(&mut self, x: NodeId) -> NodeId {
        self.unary(Opcode::Sin, x)
    }
    /// Identity copy (layout assignment uses these).
    pub fn copy(&mut self, x: NodeId) -> NodeId {
        self.unary(Opcode::Copy, x)
    }

    /// Element type conversion.
    pub fn convert(&mut self, x: NodeId, to: DType) -> NodeId {
        let shape = self.shape(x).clone();
        self.push(Opcode::Convert, to, shape, vec![x], NodeAttrs::none(), "")
    }

    // --- elementwise binary ---

    /// `a + b`.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(Opcode::Add, a, b)
    }
    /// `a - b`.
    pub fn subtract(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(Opcode::Subtract, a, b)
    }
    /// `a * b`.
    pub fn multiply(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(Opcode::Multiply, a, b)
    }
    /// `a / b`.
    pub fn divide(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(Opcode::Divide, a, b)
    }
    /// `max(a, b)`.
    pub fn maximum(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(Opcode::Maximum, a, b)
    }
    /// `min(a, b)`.
    pub fn minimum(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(Opcode::Minimum, a, b)
    }
    /// `a ^ b` (power).
    pub fn power(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(Opcode::Power, a, b)
    }

    /// Elementwise comparison producing a `pred` tensor.
    pub fn compare(&mut self, a: NodeId, b: NodeId, cmp: Comparison) -> NodeId {
        let shape = self.shape(a).clone();
        let attrs = NodeAttrs {
            comparison: Some(cmp),
            ..Default::default()
        };
        self.push(Opcode::Compare, DType::Pred, shape, vec![a, b], attrs, "")
    }

    /// `select(pred, on_true, on_false)`.
    pub fn select(&mut self, pred: NodeId, on_true: NodeId, on_false: NodeId) -> NodeId {
        let shape = self.shape(on_true).clone();
        let dtype = self.dtype(on_true);
        self.push(
            Opcode::Select,
            dtype,
            shape,
            vec![pred, on_true, on_false],
            NodeAttrs::none(),
            "",
        )
    }

    /// `clamp(lo, x, hi)`.
    pub fn clamp(&mut self, lo: NodeId, x: NodeId, hi: NodeId) -> NodeId {
        let shape = self.shape(x).clone();
        let dtype = self.dtype(x);
        self.push(
            Opcode::Clamp,
            dtype,
            shape,
            vec![lo, x, hi],
            NodeAttrs::none(),
            "",
        )
    }

    // --- data movement ---

    /// Reshape to `target` (element counts must match).
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn reshape(&mut self, x: NodeId, target: Shape) -> NodeId {
        assert_eq!(
            self.shape(x).elem_count(),
            target.elem_count(),
            "reshape must preserve element count"
        );
        let dtype = self.dtype(x);
        self.push(
            Opcode::Reshape,
            dtype,
            target,
            vec![x],
            NodeAttrs::none(),
            "",
        )
    }

    /// Transpose by `perm` (output dim `i` = input dim `perm[i]`).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of the input rank.
    pub fn transpose(&mut self, x: NodeId, perm: Vec<usize>) -> NodeId {
        let in_shape = self.shape(x).clone();
        assert_eq!(perm.len(), in_shape.rank(), "permutation rank mismatch");
        let dims: Vec<usize> = perm.iter().map(|&p| in_shape.dim(p)).collect();
        let dtype = self.dtype(x);
        let attrs = NodeAttrs {
            transpose_perm: perm,
            ..Default::default()
        };
        self.push(
            Opcode::Transpose,
            dtype,
            Shape::new(dims),
            vec![x],
            attrs,
            "",
        )
    }

    /// Broadcast `x` into `target`, with `broadcast_dims[i]` giving the
    /// output dimension that input dimension `i` maps to.
    ///
    /// # Panics
    ///
    /// Panics if the mapped dimension sizes disagree.
    pub fn broadcast(&mut self, x: NodeId, target: Shape, broadcast_dims: Vec<usize>) -> NodeId {
        let in_shape = self.shape(x).clone();
        assert_eq!(broadcast_dims.len(), in_shape.rank());
        for (i, &d) in broadcast_dims.iter().enumerate() {
            assert_eq!(
                in_shape.dim(i),
                target.dim(d),
                "broadcast dim {i} size mismatch"
            );
        }
        let dtype = self.dtype(x);
        let attrs = NodeAttrs {
            broadcast_dims,
            ..Default::default()
        };
        self.push(Opcode::Broadcast, dtype, target, vec![x], attrs, "")
    }

    /// Broadcast a scalar into `target`.
    pub fn broadcast_scalar(&mut self, x: NodeId, target: Shape) -> NodeId {
        assert!(self.shape(x).is_scalar(), "broadcast_scalar needs a scalar");
        self.broadcast(x, target, Vec::new())
    }

    /// Static slice.
    pub fn slice(&mut self, x: NodeId, attrs: SliceAttrs) -> NodeId {
        let out = Shape::new(attrs.out_dims());
        let dtype = self.dtype(x);
        let na = NodeAttrs {
            slice: Some(attrs),
            ..Default::default()
        };
        self.push(Opcode::Slice, dtype, out, vec![x], na, "")
    }

    /// Slice `[start, limit)` along one dimension, full extent elsewhere.
    pub fn slice_dim(&mut self, x: NodeId, dim: usize, start: usize, limit: usize) -> NodeId {
        let s = self.shape(x).clone();
        let starts: Vec<usize> = (0..s.rank())
            .map(|d| if d == dim { start } else { 0 })
            .collect();
        let limits: Vec<usize> = (0..s.rank())
            .map(|d| if d == dim { limit } else { s.dim(d) })
            .collect();
        let strides = vec![1; s.rank()];
        self.slice(
            x,
            SliceAttrs {
                starts,
                limits,
                strides,
            },
        )
    }

    /// Concatenate along `dim`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than one operand, or non-`dim` extents disagree.
    pub fn concatenate(&mut self, xs: &[NodeId], dim: usize) -> NodeId {
        assert!(!xs.is_empty(), "concatenate needs at least one operand");
        let first = self.shape(xs[0]).clone();
        let mut total = 0;
        for &x in xs {
            let s = self.shape(x);
            assert_eq!(s.rank(), first.rank());
            for d in 0..s.rank() {
                if d != dim {
                    assert_eq!(s.dim(d), first.dim(d), "concat extent mismatch at dim {d}");
                }
            }
            total += s.dim(dim);
        }
        let out = first.with_dim(dim, total);
        let dtype = self.dtype(xs[0]);
        let attrs = NodeAttrs {
            concat_dim: Some(dim),
            ..Default::default()
        };
        self.push(Opcode::Concatenate, dtype, out, xs.to_vec(), attrs, "")
    }

    /// Pad with the given configuration.
    pub fn pad(&mut self, x: NodeId, config: PadConfig) -> NodeId {
        let out = Shape::new(config.out_dims(self.shape(x).dims()));
        let dtype = self.dtype(x);
        let attrs = NodeAttrs {
            pad: Some(config),
            ..Default::default()
        };
        self.push(Opcode::Pad, dtype, out, vec![x], attrs, "")
    }

    /// Reverse along all dimensions.
    pub fn reverse(&mut self, x: NodeId) -> NodeId {
        self.unary(Opcode::Reverse, x)
    }

    /// Gather rows: `table [V, D]` indexed by `indices [N]` -> `[N, D]`.
    pub fn gather_rows(&mut self, table: NodeId, indices: NodeId) -> NodeId {
        let t = self.shape(table).clone();
        let idx = self.shape(indices).clone();
        assert_eq!(t.rank(), 2, "gather_rows expects a rank-2 table");
        assert_eq!(idx.rank(), 1, "gather_rows expects rank-1 indices");
        let out = Shape::new(vec![idx.dim(0), t.dim(1)]);
        let dtype = self.dtype(table);
        self.push(
            Opcode::Gather,
            dtype,
            out,
            vec![table, indices],
            NodeAttrs::none(),
            "",
        )
    }

    // --- reductions ---

    /// Sum-reduce over `dims`.
    ///
    /// # Panics
    ///
    /// Panics if any reduced dim is out of range.
    pub fn reduce(&mut self, x: NodeId, dims: Vec<usize>) -> NodeId {
        let s = self.shape(x).clone();
        for &d in &dims {
            assert!(d < s.rank(), "reduce dim {d} out of range");
        }
        let out_dims: Vec<usize> = (0..s.rank())
            .filter(|d| !dims.contains(d))
            .map(|d| s.dim(d))
            .collect();
        let out = if out_dims.is_empty() {
            Shape::scalar()
        } else {
            Shape::new(out_dims)
        };
        let dtype = self.dtype(x);
        let attrs = NodeAttrs {
            reduce_dims: dims,
            ..Default::default()
        };
        self.push(Opcode::Reduce, dtype, out, vec![x], attrs, "")
    }

    /// Windowed reduction (pooling) over NHWC input.
    pub fn reduce_window(
        &mut self,
        x: NodeId,
        init: NodeId,
        window: (usize, usize, usize, usize),
    ) -> NodeId {
        let s = self.shape(x).clone();
        assert_eq!(s.rank(), 4, "reduce_window expects NHWC input");
        let (wh, ww, sh, sw) = window;
        let oh = (s.dim(1) - wh) / sh + 1;
        let ow = (s.dim(2) - ww) / sw + 1;
        let out = Shape::new(vec![s.dim(0), oh, ow, s.dim(3)]);
        let dtype = self.dtype(x);
        let attrs = NodeAttrs {
            window: Some(window),
            ..Default::default()
        };
        self.push(Opcode::ReduceWindow, dtype, out, vec![x, init], attrs, "")
    }

    // --- heavy compute ---

    /// Canonical matmul: `a [M,K] · b [K,N] -> [M,N]`.
    ///
    /// # Panics
    ///
    /// Panics if shapes are not rank-2 or `K` disagrees.
    pub fn dot(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.dot_general(a, b, DotDims::matmul())
    }

    /// General dot product with explicit dimension numbers. Supports rank-2
    /// matmul and rank-3 single-batch matmul.
    ///
    /// # Panics
    ///
    /// Panics if the contracted or batch dimension sizes disagree.
    pub fn dot_general(&mut self, a: NodeId, b: NodeId, dims: DotDims) -> NodeId {
        let sa = self.shape(a).clone();
        let sb = self.shape(b).clone();
        assert_eq!(
            sa.dim(dims.lhs_contracting),
            sb.dim(dims.rhs_contracting),
            "contracting dimension mismatch: {sa} · {sb}"
        );
        let mut out_dims = Vec::new();
        for (&lb, &rb) in dims.lhs_batch.iter().zip(&dims.rhs_batch) {
            assert_eq!(sa.dim(lb), sb.dim(rb), "batch dimension mismatch");
            out_dims.push(sa.dim(lb));
        }
        for d in 0..sa.rank() {
            if d != dims.lhs_contracting && !dims.lhs_batch.contains(&d) {
                out_dims.push(sa.dim(d));
            }
        }
        for d in 0..sb.rank() {
            if d != dims.rhs_contracting && !dims.rhs_batch.contains(&d) {
                out_dims.push(sb.dim(d));
            }
        }
        let out = Shape::new(out_dims);
        let dtype = self.dtype(a);
        let attrs = NodeAttrs {
            dot: Some(dims),
            ..Default::default()
        };
        self.push(Opcode::Dot, dtype, out, vec![a, b], attrs, "")
    }

    /// 2-D convolution over NHWC input with HWIO filter.
    ///
    /// # Panics
    ///
    /// Panics if input channel counts disagree with the filter.
    pub fn convolution(&mut self, input: NodeId, filter: NodeId, conv: ConvAttrs) -> NodeId {
        let si = self.shape(input).clone();
        let sf = self.shape(filter).clone();
        assert_eq!(si.rank(), 4, "convolution input must be NHWC");
        assert_eq!(sf.rank(), 4, "convolution filter must be HWIO");
        assert_eq!(sf.dim(0), conv.filter_h);
        assert_eq!(sf.dim(1), conv.filter_w);
        assert_eq!(
            si.dim(3),
            sf.dim(2) * conv.feature_groups,
            "input channels must equal filter-in × groups"
        );
        let out = Shape::new(vec![
            si.dim(0),
            conv.out_h(si.dim(1)),
            conv.out_w(si.dim(2)),
            sf.dim(3),
        ]);
        let dtype = self.dtype(input);
        let attrs = NodeAttrs {
            conv: Some(conv),
            ..Default::default()
        };
        self.push(
            Opcode::Convolution,
            dtype,
            out,
            vec![input, filter],
            attrs,
            "",
        )
    }

    /// Fused batch-norm at inference: `(x - mean) * inv_stddev_scale`,
    /// taking `(x, scale, offset)` like XLA's batch-norm-inference HLO.
    pub fn batch_norm_inference(&mut self, x: NodeId, scale: NodeId, offset: NodeId) -> NodeId {
        let shape = self.shape(x).clone();
        let dtype = self.dtype(x);
        self.push(
            Opcode::BatchNormInference,
            dtype,
            shape,
            vec![x, scale, offset],
            NodeAttrs::none(),
            "",
        )
    }

    // --- composites (convenience; expand into primitive nodes) ---

    /// `softmax(x)` over the last dimension, expanded into
    /// `exp / broadcast(reduce-sum(exp))` primitives.
    pub fn softmax(&mut self, x: NodeId) -> NodeId {
        let s = self.shape(x).clone();
        let last = s.rank() - 1;
        let e = self.exp(x);
        let sum = self.reduce(e, vec![last]);
        let dims: Vec<usize> = (0..last).collect();
        let b = self.broadcast(sum, s, dims);
        self.divide(e, b)
    }

    /// `layer_norm(x)`-style normalization over the last dimension,
    /// expanded into primitive ops.
    pub fn layer_norm(&mut self, x: NodeId) -> NodeId {
        let s = self.shape(x).clone();
        let last = s.rank() - 1;
        let dims: Vec<usize> = (0..last).collect();
        let mean = self.reduce(x, vec![last]);
        let meanb = self.broadcast(mean, s.clone(), dims.clone());
        let centered = self.subtract(x, meanb);
        let sq = self.multiply(centered, centered);
        let var = self.reduce(sq, vec![last]);
        let varb = self.broadcast(var, s, dims);
        let inv = self.rsqrt(varb);
        self.multiply(centered, inv)
    }

    /// Finish the computation with `root` as the output node.
    ///
    /// # Panics
    ///
    /// Panics if the builder is empty or `root` does not exist.
    pub fn finish(mut self, root: NodeId) -> Computation {
        assert!(!self.nodes.is_empty(), "empty computation");
        assert!(root.index() < self.nodes.len(), "root does not exist");
        self.nodes[root.index()].attrs.is_output = true;
        Computation::from_parts_unchecked(self.name, self.nodes, root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_shape() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(4, 8), DType::F32);
        let w = b.parameter("w", Shape::matrix(8, 16), DType::F32);
        let y = b.dot(x, w);
        assert_eq!(b.shape(y).dims(), &[4, 16]);
    }

    #[test]
    fn batch_dot_shape() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::new(vec![2, 4, 8]), DType::F32);
        let w = b.parameter("w", Shape::new(vec![2, 8, 16]), DType::F32);
        let y = b.dot_general(x, w, DotDims::batch_matmul());
        assert_eq!(b.shape(y).dims(), &[2, 4, 16]);
    }

    #[test]
    #[should_panic(expected = "contracting dimension mismatch")]
    fn dot_mismatch_panics() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(4, 8), DType::F32);
        let w = b.parameter("w", Shape::matrix(9, 16), DType::F32);
        b.dot(x, w);
    }

    #[test]
    fn conv_shape_same_and_strided() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::new(vec![1, 28, 28, 8]), DType::F32);
        let w = b.parameter("w", Shape::new(vec![3, 3, 8, 16]), DType::F32);
        let y = b.convolution(x, w, ConvAttrs::same(3));
        assert_eq!(b.shape(y).dims(), &[1, 28, 28, 16]);
        let w2 = b.parameter("w2", Shape::new(vec![3, 3, 16, 32]), DType::F32);
        let z = b.convolution(y, w2, ConvAttrs::same_strided(3, 2));
        assert_eq!(b.shape(z).dims(), &[1, 14, 14, 32]);
    }

    #[test]
    fn reduce_shapes() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::new(vec![4, 8, 16]), DType::F32);
        let r = b.reduce(x, vec![1]);
        assert_eq!(b.shape(r).dims(), &[4, 16]);
        let r2 = b.reduce(x, vec![0, 1, 2]);
        assert!(b.shape(r2).is_scalar());
    }

    #[test]
    fn concat_shape() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(4, 8), DType::F32);
        let y = b.parameter("y", Shape::matrix(4, 24), DType::F32);
        let c = b.concatenate(&[x, y], 1);
        assert_eq!(b.shape(c).dims(), &[4, 32]);
    }

    #[test]
    fn broadcast_shape() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::vector(16), DType::F32);
        let y = b.broadcast(x, Shape::matrix(4, 16), vec![1]);
        assert_eq!(b.shape(y).dims(), &[4, 16]);
    }

    #[test]
    fn scalar_binary_broadcast_allowed() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(4, 4), DType::F32);
        let s = b.scalar_constant();
        let y = b.multiply(x, s);
        assert_eq!(b.shape(y).dims(), &[4, 4]);
    }

    #[test]
    #[should_panic(expected = "elementwise operands disagree")]
    fn mismatched_binary_panics() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(4, 4), DType::F32);
        let y = b.parameter("y", Shape::matrix(4, 5), DType::F32);
        b.add(x, y);
    }

    #[test]
    fn softmax_expands_to_primitives() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(4, 10), DType::F32);
        let s = b.softmax(x);
        let c = b.finish(s);
        assert!(c.validate().is_ok());
        assert_eq!(c.num_nodes(), 5); // param, exp, reduce, broadcast, divide
        assert_eq!(c.node(c.root()).opcode, Opcode::Divide);
    }

    #[test]
    fn layer_norm_validates() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(4, 10), DType::F32);
        let s = b.layer_norm(x);
        let c = b.finish(s);
        assert!(c.validate().is_ok());
        assert_eq!(c.node(s).shape.dims(), &[4, 10]);
    }

    #[test]
    fn gather_rows_shape() {
        let mut b = GraphBuilder::new("t");
        let t = b.parameter("t", Shape::matrix(1000, 64), DType::F32);
        let i = b.parameter("i", Shape::vector(32), DType::S32);
        let g = b.gather_rows(t, i);
        assert_eq!(b.shape(g).dims(), &[32, 64]);
    }

    #[test]
    fn reduce_window_shape() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::new(vec![1, 28, 28, 8]), DType::F32);
        let init = b.scalar_constant();
        let p = b.reduce_window(x, init, (2, 2, 2, 2));
        assert_eq!(b.shape(p).dims(), &[1, 14, 14, 8]);
    }

    #[test]
    fn finish_marks_output() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(2, 2), DType::F32);
        let y = b.tanh(x);
        let c = b.finish(y);
        assert!(c.node(y).attrs.is_output);
        assert!(!c.node(x).attrs.is_output);
    }

    #[test]
    fn slice_dim_shape() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(10, 8), DType::F32);
        let s = b.slice_dim(x, 0, 2, 7);
        assert_eq!(b.shape(s).dims(), &[5, 8]);
    }

    #[test]
    fn transpose_shape() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::new(vec![2, 3, 4]), DType::F32);
        let t = b.transpose(x, vec![2, 0, 1]);
        assert_eq!(b.shape(t).dims(), &[4, 2, 3]);
    }
}
