//! Reverse-mode automatic differentiation on a tape.
//!
//! Tapes own a small buffer arena: [`Tape::reset`] recycles every forward
//! value into a free list, so steady-state training steps allocate
//! (almost) nothing. Backward passes accumulate gradients in place,
//! transform the incoming gradient in place for elementwise ops, and use
//! the fused [`Tensor::matmul_at`]/[`Tensor::matmul_bt`] kernels so the
//! matmul backward never materializes a transposed copy.
//!
//! Op payloads are [`Arc`]s, so a [`Tape`] is `Send`.

use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;
use std::sync::Arc;

/// Handle to a value on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

// Some op payloads (e.g. the scalar of `AddScalar`, segment counts) are
// needed only at forward time but kept for debuggability of recorded tapes.
#[allow(dead_code)]
#[derive(Debug, Clone)]
enum Op {
    Input,
    Param(ParamId),
    MatMul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    AddRow(Var, Var),
    Scale(Var, f32),
    AddScalar(Var, f32),
    Relu(Var),
    Tanh(Var),
    Sigmoid(Var),
    Exp(Var),
    Ln(Var),
    Square(Var),
    Sqrt(Var),
    Softplus(Var),
    ConcatCols(Vec<Var>),
    SliceCols(Var, usize, usize),
    GatherRows(Var, Arc<Vec<usize>>),
    SegmentSum(Var, Arc<Vec<usize>>, usize),
    SegmentMean(Var, Arc<Vec<usize>>, usize),
    /// Per-(segment, column) argmax row recorded at forward time.
    SegmentMax(Var, Arc<Vec<usize>>, usize, Arc<Vec<i64>>),
    L2NormRows(Var),
    SumAll(Var),
    MeanAll(Var),
    MulConst(Var, Arc<Tensor>),
}

struct Node {
    op: Op,
    value: Tensor,
}

/// Free list of `f32` buffers recycled between tape steps: forward ops and
/// backward scratch draw from here instead of the allocator.
#[derive(Default)]
struct BufferPool {
    free: Vec<Vec<f32>>,
}

impl BufferPool {
    /// A `rows×cols` tensor filled with `fill`, reusing a free buffer.
    fn take_filled(&mut self, rows: usize, cols: usize, fill: f32) -> Tensor {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf.resize(rows * cols, fill);
        Tensor::from_vec(rows, cols, buf)
    }

    /// A zeroed `rows×cols` tensor, reusing a free buffer.
    fn take_zeroed(&mut self, rows: usize, cols: usize) -> Tensor {
        self.take_filled(rows, cols, 0.0)
    }

    /// A copy of `src`, reusing a free buffer.
    fn take_copy(&mut self, src: &Tensor) -> Tensor {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(src.data());
        Tensor::from_vec(src.rows(), src.cols(), buf)
    }

    /// Return a tensor's buffer to the free list.
    fn put(&mut self, t: Tensor) {
        self.free.push(t.into_data());
    }
}

/// Destination for the parameter gradients produced by
/// [`Tape::backward_with`].
pub trait GradSink {
    /// Add `grad` into the accumulator for `id`.
    fn accumulate(&mut self, id: ParamId, grad: &Tensor);
}

impl GradSink for ParamStore {
    fn accumulate(&mut self, id: ParamId, grad: &Tensor) {
        self.grad_mut(id).axpy(1.0, grad);
    }
}

/// A standalone gradient accumulator for the sharded training step: each
/// batch shard's backward pass writes into its own `GradBuffer`, then the
/// buffers are applied to the shared [`ParamStore`] in shard order — the
/// grouping of the gradient sum the training goldens pin.
#[derive(Default)]
pub struct GradBuffer {
    grads: Vec<Option<Tensor>>,
}

impl GradBuffer {
    /// An empty buffer.
    pub fn new() -> GradBuffer {
        GradBuffer::default()
    }

    /// Drop all accumulated gradients, keeping capacity for reuse.
    pub fn clear(&mut self) {
        for g in &mut self.grads {
            *g = None;
        }
    }

    /// Whether no gradient has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.grads.iter().all(Option::is_none)
    }

    /// Add every accumulated gradient into `store`, in ascending
    /// [`ParamId`] order.
    pub fn apply_to(&self, store: &mut ParamStore) {
        for (i, g) in self.grads.iter().enumerate() {
            if let Some(g) = g {
                store.grad_mut(ParamId(i)).axpy(1.0, g);
            }
        }
    }
}

impl GradSink for GradBuffer {
    fn accumulate(&mut self, id: ParamId, grad: &Tensor) {
        if self.grads.len() <= id.0 {
            self.grads.resize_with(id.0 + 1, || None);
        }
        match &mut self.grads[id.0] {
            Some(existing) => existing.axpy(1.0, grad),
            slot @ None => *slot = Some(grad.clone()),
        }
    }
}

/// A computation tape: builds a forward graph op by op and computes
/// gradients for every [`ParamStore`] parameter it touched.
///
/// Tapes are designed to be kept across training steps: [`Tape::reset`]
/// clears the graph but recycles every value buffer into an internal
/// arena, so the next step's forward ops reuse them instead of hitting
/// the allocator.
///
/// # Example
///
/// ```
/// use tpu_nn::{ParamStore, Tape, Tensor};
/// let mut store = ParamStore::new();
/// let w = store.register("w", Tensor::from_rows(&[&[2.0]]));
///
/// let mut tape = Tape::new();
/// let x = tape.input(Tensor::scalar(3.0));
/// let wv = tape.param(&store, w);
/// let y = tape.mul(x, wv);           // y = 3w
/// let loss = tape.square(y);         // (3w)^2, dL/dw = 18w = 36
/// tape.backward(loss, &mut store);
/// assert_eq!(store.grad(w).item(), 36.0);
/// ```
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    pool: BufferPool,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Tape {
        Tape::default()
    }

    /// Number of recorded values.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clear the recorded graph, recycling every value buffer into the
    /// tape's arena for the next step.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            self.pool.free.push(node.value.into_data());
        }
    }

    /// The forward value of a variable.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    fn push(&mut self, op: Op, value: Tensor) -> Var {
        let v = Var(self.nodes.len());
        self.nodes.push(Node { op, value });
        v
    }

    /// Pooled elementwise unary op.
    fn unary(&mut self, a: Var, op: Op, f: impl Fn(f32) -> f32) -> Var {
        let (rows, cols) = self.value(a).shape();
        let mut out = self.pool.take_zeroed(rows, cols);
        for (o, &x) in out.data_mut().iter_mut().zip(self.nodes[a.0].value.data()) {
            *o = f(x);
        }
        self.push(op, out)
    }

    /// Pooled elementwise binary op over same-shape operands.
    fn binary(&mut self, a: Var, b: Var, op: Op, f: impl Fn(f32, f32) -> f32) -> Var {
        let (rows, cols) = self.value(a).shape();
        assert_eq!((rows, cols), self.value(b).shape(), "shape mismatch");
        let mut out = self.pool.take_zeroed(rows, cols);
        for ((o, &x), &y) in out
            .data_mut()
            .iter_mut()
            .zip(self.nodes[a.0].value.data())
            .zip(self.nodes[b.0].value.data())
        {
            *o = f(x, y);
        }
        self.push(op, out)
    }

    /// Record a constant input (no gradient flows into it).
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(Op::Input, t)
    }

    /// Record a parameter value; [`Tape::backward`] will accumulate its
    /// gradient into the store.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let t = self.pool.take_copy(store.value(id));
        self.push(Op::Param(id), t)
    }

    /// Matrix product.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let rows = self.value(a).rows();
        let cols = self.value(b).cols();
        let mut out = self.pool.take_zeroed(rows, cols);
        self.nodes[a.0]
            .value
            .matmul_into(&self.nodes[b.0].value, &mut out);
        self.push(Op::MatMul(a, b), out)
    }

    /// Elementwise sum of same-shape tensors.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.binary(a, b, Op::Add(a, b), |x, y| x + y)
    }

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.binary(a, b, Op::Sub(a, b), |x, y| x - y)
    }

    /// Elementwise product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.binary(a, b, Op::Mul(a, b), |x, y| x * y)
    }

    /// Broadcast row add: `a [n×d] + b [1×d]` (bias add).
    ///
    /// # Panics
    ///
    /// Panics if `b` is not `1×d` with matching `d`.
    pub fn add_row(&mut self, a: Var, b: Var) -> Var {
        let (ar, ac) = self.value(a).shape();
        let (br, bc) = self.value(b).shape();
        assert_eq!(br, 1, "add_row rhs must have one row");
        assert_eq!(ac, bc, "add_row column mismatch");
        let mut out = self.pool.take_copy(&self.nodes[a.0].value);
        let bias = self.nodes[b.0].value.data();
        for r in 0..ar {
            for (o, &bv) in out.row_mut(r).iter_mut().zip(bias) {
                *o += bv;
            }
        }
        self.push(Op::AddRow(a, b), out)
    }

    /// Scalar multiple `s · a`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        self.unary(a, Op::Scale(a, s), |x| x * s)
    }

    /// Scalar offset `a + s`.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        self.unary(a, Op::AddScalar(a, s), |x| x + s)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.unary(a, Op::Relu(a), |x| x.max(0.0))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.unary(a, Op::Tanh(a), f32::tanh)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.unary(a, Op::Sigmoid(a), |x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Elementwise `e^x`.
    pub fn exp(&mut self, a: Var) -> Var {
        self.unary(a, Op::Exp(a), f32::exp)
    }

    /// Elementwise natural log. Inputs must be positive.
    pub fn ln(&mut self, a: Var) -> Var {
        self.unary(a, Op::Ln(a), f32::ln)
    }

    /// Elementwise square.
    pub fn square(&mut self, a: Var) -> Var {
        self.unary(a, Op::Square(a), |x| x * x)
    }

    /// Elementwise square root. Inputs must be non-negative.
    pub fn sqrt(&mut self, a: Var) -> Var {
        self.unary(a, Op::Sqrt(a), f32::sqrt)
    }

    /// Numerically stable `softplus(x) = ln(1 + e^x)`.
    pub fn softplus(&mut self, a: Var) -> Var {
        self.unary(a, Op::Softplus(a), |x| {
            if x > 20.0 {
                x
            } else {
                (1.0 + x.exp()).ln()
            }
        })
    }

    /// Concatenate along columns.
    ///
    /// # Panics
    ///
    /// Panics if operand row counts differ or the list is empty.
    pub fn concat_cols(&mut self, xs: &[Var]) -> Var {
        assert!(!xs.is_empty(), "concat of nothing");
        let rows = self.value(xs[0]).rows();
        let total: usize = xs.iter().map(|&x| self.value(x).cols()).sum();
        let mut out = self.pool.take_zeroed(rows, total);
        let mut off = 0;
        for &x in xs {
            let t = &self.nodes[x.0].value;
            assert_eq!(t.rows(), rows, "concat row mismatch");
            for r in 0..rows {
                out.row_mut(r)[off..off + t.cols()].copy_from_slice(t.row(r));
            }
            off += t.cols();
        }
        self.push(Op::ConcatCols(xs.to_vec()), out)
    }

    /// Columns `[start, end)` of `a`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let (rows, cols) = self.value(a).shape();
        assert!(start < end && end <= cols, "bad column range");
        let mut out = self.pool.take_zeroed(rows, end - start);
        let t = &self.nodes[a.0].value;
        for r in 0..rows {
            out.row_mut(r).copy_from_slice(&t.row(r)[start..end]);
        }
        self.push(Op::SliceCols(a, start, end), out)
    }

    /// Gather rows of `a` by index; `out[r] = a[idx[r]]`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&mut self, a: Var, idx: Arc<Vec<usize>>) -> Var {
        let cols = self.value(a).cols();
        let mut out = self.pool.take_zeroed(idx.len(), cols);
        let t = &self.nodes[a.0].value;
        for (r, &i) in idx.iter().enumerate() {
            assert!(i < t.rows(), "gather index out of range");
            out.row_mut(r).copy_from_slice(t.row(i));
        }
        self.push(Op::GatherRows(a, idx), out)
    }

    /// Sum rows of `a` into `n_segments` buckets: `out[seg[r]] += a[r]`.
    ///
    /// # Panics
    ///
    /// Panics if `seg.len() != a.rows()` or a segment id is out of range.
    pub fn segment_sum(&mut self, a: Var, seg: Arc<Vec<usize>>, n_segments: usize) -> Var {
        let (rows, cols) = self.value(a).shape();
        assert_eq!(seg.len(), rows, "segment id per row required");
        let mut out = self.pool.take_zeroed(n_segments, cols);
        let t = &self.nodes[a.0].value;
        for (r, &s) in seg.iter().enumerate() {
            assert!(s < n_segments, "segment id out of range");
            for (o, &v) in out.row_mut(s).iter_mut().zip(t.row(r)) {
                *o += v;
            }
        }
        self.push(Op::SegmentSum(a, seg, n_segments), out)
    }

    /// Mean rows of `a` per segment (empty segments give zero rows).
    ///
    /// # Panics
    ///
    /// Panics like [`Tape::segment_sum`].
    pub fn segment_mean(&mut self, a: Var, seg: Arc<Vec<usize>>, n_segments: usize) -> Var {
        let (rows, cols) = self.value(a).shape();
        assert_eq!(seg.len(), rows);
        let mut out = self.pool.take_zeroed(n_segments, cols);
        let t = &self.nodes[a.0].value;
        let mut counts = vec![0usize; n_segments];
        for (r, &s) in seg.iter().enumerate() {
            assert!(s < n_segments);
            counts[s] += 1;
            for (o, &v) in out.row_mut(s).iter_mut().zip(t.row(r)) {
                *o += v;
            }
        }
        for (s, &cnt) in counts.iter().enumerate() {
            if cnt > 0 {
                for o in out.row_mut(s) {
                    *o /= cnt as f32;
                }
            }
        }
        self.push(Op::SegmentMean(a, seg, n_segments), out)
    }

    /// Columnwise max per segment (empty segments give zero rows).
    ///
    /// # Panics
    ///
    /// Panics like [`Tape::segment_sum`].
    pub fn segment_max(&mut self, a: Var, seg: Arc<Vec<usize>>, n_segments: usize) -> Var {
        let (rows, cols) = self.value(a).shape();
        assert_eq!(seg.len(), rows);
        let mut out = self.pool.take_filled(n_segments, cols, f32::NEG_INFINITY);
        let t = &self.nodes[a.0].value;
        let mut argmax = vec![-1i64; n_segments * cols];
        for (r, &s) in seg.iter().enumerate() {
            assert!(s < n_segments);
            for c in 0..cols {
                let v = t.get(r, c);
                if v > out.get(s, c) {
                    out.set(s, c, v);
                    argmax[s * cols + c] = r as i64;
                }
            }
        }
        // Empty segments: replace -inf with 0.
        for s in 0..n_segments {
            for c in 0..cols {
                if argmax[s * cols + c] < 0 {
                    out.set(s, c, 0.0);
                }
            }
        }
        self.push(Op::SegmentMax(a, seg, n_segments, Arc::new(argmax)), out)
    }

    /// L2-normalize each row (`x / max(‖x‖₂, ε)`), Eq. 1's `l2`.
    pub fn l2_normalize_rows(&mut self, a: Var) -> Var {
        let rows = self.value(a).rows();
        let mut out = self.pool.take_copy(&self.nodes[a.0].value);
        for r in 0..rows {
            let norm = out.row(r).iter().map(|&x| x * x).sum::<f32>().sqrt();
            let n = norm.max(L2_EPS);
            for v in out.row_mut(r) {
                *v /= n;
            }
        }
        self.push(Op::L2NormRows(a), out)
    }

    /// Sum of all elements → `1×1`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s = self.value(a).sum();
        let v = self.pool.take_filled(1, 1, s);
        self.push(Op::SumAll(a), v)
    }

    /// Mean of all elements → `1×1`.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let m = self.value(a).mean();
        let v = self.pool.take_filled(1, 1, m);
        self.push(Op::MeanAll(a), v)
    }

    /// Elementwise multiply by a constant tensor (no gradient to the
    /// constant): masks, dropout, loss weights.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul_const(&mut self, a: Var, c: Arc<Tensor>) -> Var {
        let (rows, cols) = self.value(a).shape();
        assert_eq!((rows, cols), c.shape(), "shape mismatch");
        let mut out = self.pool.take_zeroed(rows, cols);
        for ((o, &x), &y) in out
            .data_mut()
            .iter_mut()
            .zip(self.nodes[a.0].value.data())
            .zip(c.data())
        {
            *o = x * y;
        }
        self.push(Op::MulConst(a, c), out)
    }

    /// Run reverse-mode differentiation from `loss` (must be `1×1`),
    /// accumulating parameter gradients into `store`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not scalar.
    pub fn backward(&mut self, loss: Var, store: &mut ParamStore) {
        self.backward_with(loss, store);
    }

    /// [`Tape::backward`] into any [`GradSink`] — the training step
    /// passes a per-shard [`GradBuffer`] here.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not scalar.
    pub fn backward_with(&mut self, loss: Var, sink: &mut impl GradSink) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward needs a scalar loss"
        );
        let Tape { nodes, pool } = self;
        let mut grads: Vec<Option<Tensor>> = Vec::new();
        grads.resize_with(nodes.len(), || None);
        grads[loss.0] = Some(pool.take_filled(1, 1, 1.0));

        for i in (0..nodes.len()).rev() {
            let mut g = match grads[i].take() {
                Some(g) => g,
                None => continue,
            };
            match &nodes[i].op {
                Op::Input => pool.put(g),
                Op::Param(id) => {
                    sink.accumulate(*id, &g);
                    pool.put(g);
                }
                Op::MatMul(a, b) => {
                    let av = &nodes[a.0].value;
                    let bv = &nodes[b.0].value;
                    // da = g · bᵀ and db = aᵀ · g via the fused kernels —
                    // no transposed copies are ever built.
                    let mut da = pool.take_zeroed(g.rows(), bv.rows());
                    g.matmul_bt_into(bv, &mut da);
                    let mut db = pool.take_zeroed(av.cols(), g.cols());
                    av.matmul_at_into(&g, &mut db);
                    accumulate_owned(&mut grads, pool, *a, da);
                    accumulate_owned(&mut grads, pool, *b, db);
                    pool.put(g);
                }
                Op::Add(a, b) => {
                    accumulate_ref(&mut grads, pool, *a, &g);
                    accumulate_owned(&mut grads, pool, *b, g);
                }
                Op::Sub(a, b) => {
                    accumulate_ref(&mut grads, pool, *a, &g);
                    for x in g.data_mut() {
                        *x = -*x;
                    }
                    accumulate_owned(&mut grads, pool, *b, g);
                }
                Op::Mul(a, b) => {
                    let mut da = pool.take_zeroed(g.rows(), g.cols());
                    for ((o, &gv), &bv) in da
                        .data_mut()
                        .iter_mut()
                        .zip(g.data())
                        .zip(nodes[b.0].value.data())
                    {
                        *o = gv * bv;
                    }
                    for (gv, &av) in g.data_mut().iter_mut().zip(nodes[a.0].value.data()) {
                        *gv *= av;
                    }
                    accumulate_owned(&mut grads, pool, *a, da);
                    accumulate_owned(&mut grads, pool, *b, g);
                }
                Op::AddRow(a, b) => {
                    let bc = nodes[b.0].value.cols();
                    let mut db = pool.take_zeroed(1, bc);
                    for r in 0..g.rows() {
                        for (o, &gv) in db.data_mut().iter_mut().zip(g.row(r)) {
                            *o += gv;
                        }
                    }
                    accumulate_owned(&mut grads, pool, *b, db);
                    accumulate_owned(&mut grads, pool, *a, g);
                }
                Op::Scale(a, s) => {
                    for x in g.data_mut() {
                        *x *= s;
                    }
                    accumulate_owned(&mut grads, pool, *a, g);
                }
                Op::AddScalar(a, _) => accumulate_owned(&mut grads, pool, *a, g),
                Op::Relu(a) => {
                    for (gv, &x) in g.data_mut().iter_mut().zip(nodes[a.0].value.data()) {
                        if x <= 0.0 {
                            *gv = 0.0;
                        }
                    }
                    accumulate_owned(&mut grads, pool, *a, g);
                }
                Op::Tanh(a) => {
                    for (gv, &y) in g.data_mut().iter_mut().zip(nodes[i].value.data()) {
                        *gv *= 1.0 - y * y;
                    }
                    accumulate_owned(&mut grads, pool, *a, g);
                }
                Op::Sigmoid(a) => {
                    for (gv, &y) in g.data_mut().iter_mut().zip(nodes[i].value.data()) {
                        *gv *= y * (1.0 - y);
                    }
                    accumulate_owned(&mut grads, pool, *a, g);
                }
                Op::Exp(a) => {
                    for (gv, &y) in g.data_mut().iter_mut().zip(nodes[i].value.data()) {
                        *gv *= y;
                    }
                    accumulate_owned(&mut grads, pool, *a, g);
                }
                Op::Ln(a) => {
                    for (gv, &x) in g.data_mut().iter_mut().zip(nodes[a.0].value.data()) {
                        *gv /= x;
                    }
                    accumulate_owned(&mut grads, pool, *a, g);
                }
                Op::Square(a) => {
                    for (gv, &x) in g.data_mut().iter_mut().zip(nodes[a.0].value.data()) {
                        *gv *= 2.0 * x;
                    }
                    accumulate_owned(&mut grads, pool, *a, g);
                }
                Op::Sqrt(a) => {
                    for (gv, &y) in g.data_mut().iter_mut().zip(nodes[i].value.data()) {
                        *gv /= 2.0 * y.max(1e-12);
                    }
                    accumulate_owned(&mut grads, pool, *a, g);
                }
                Op::Softplus(a) => {
                    for (gv, &x) in g.data_mut().iter_mut().zip(nodes[a.0].value.data()) {
                        *gv /= 1.0 + (-x).exp();
                    }
                    accumulate_owned(&mut grads, pool, *a, g);
                }
                Op::ConcatCols(xs) => {
                    let mut off = 0;
                    for &x in xs {
                        let cols = nodes[x.0].value.cols();
                        let mut dx = pool.take_zeroed(g.rows(), cols);
                        for r in 0..g.rows() {
                            dx.row_mut(r).copy_from_slice(&g.row(r)[off..off + cols]);
                        }
                        accumulate_owned(&mut grads, pool, x, dx);
                        off += cols;
                    }
                    pool.put(g);
                }
                Op::SliceCols(a, start, end) => {
                    let (tr, tc) = nodes[a.0].value.shape();
                    let mut da = pool.take_zeroed(tr, tc);
                    for r in 0..g.rows() {
                        da.row_mut(r)[*start..*end].copy_from_slice(g.row(r));
                    }
                    accumulate_owned(&mut grads, pool, *a, da);
                    pool.put(g);
                }
                Op::GatherRows(a, idx) => {
                    let (tr, tc) = nodes[a.0].value.shape();
                    let mut da = pool.take_zeroed(tr, tc);
                    for (r, &src) in idx.iter().enumerate() {
                        for (o, &v) in da.row_mut(src).iter_mut().zip(g.row(r)) {
                            *o += v;
                        }
                    }
                    accumulate_owned(&mut grads, pool, *a, da);
                    pool.put(g);
                }
                Op::SegmentSum(a, seg, _) => {
                    let (tr, tc) = nodes[a.0].value.shape();
                    let mut da = pool.take_zeroed(tr, tc);
                    for (r, &s) in seg.iter().enumerate() {
                        da.row_mut(r).copy_from_slice(g.row(s));
                    }
                    accumulate_owned(&mut grads, pool, *a, da);
                    pool.put(g);
                }
                Op::SegmentMean(a, seg, n) => {
                    let mut counts = vec![0f32; *n];
                    for &s in seg.iter() {
                        counts[s] += 1.0;
                    }
                    let (tr, tc) = nodes[a.0].value.shape();
                    let mut da = pool.take_zeroed(tr, tc);
                    for (r, &s) in seg.iter().enumerate() {
                        let inv = 1.0 / counts[s];
                        for (o, &v) in da.row_mut(r).iter_mut().zip(g.row(s)) {
                            *o = v * inv;
                        }
                    }
                    accumulate_owned(&mut grads, pool, *a, da);
                    pool.put(g);
                }
                Op::SegmentMax(a, _, n, argmax) => {
                    let (tr, tc) = nodes[a.0].value.shape();
                    let mut da = pool.take_zeroed(tr, tc);
                    for s in 0..*n {
                        for c in 0..tc {
                            let r = argmax[s * tc + c];
                            if r >= 0 {
                                let v = da.get(r as usize, c) + g.get(s, c);
                                da.set(r as usize, c, v);
                            }
                        }
                    }
                    accumulate_owned(&mut grads, pool, *a, da);
                    pool.put(g);
                }
                Op::L2NormRows(a) => {
                    let x = &nodes[a.0].value;
                    let y = &nodes[i].value;
                    let mut da = pool.take_zeroed(x.rows(), x.cols());
                    for r in 0..x.rows() {
                        let norm = x.row(r).iter().map(|&v| v * v).sum::<f32>().sqrt();
                        let n = norm.max(L2_EPS);
                        let dot: f32 = y
                            .row(r)
                            .iter()
                            .zip(g.row(r))
                            .map(|(&yv, &gv)| yv * gv)
                            .sum();
                        for c in 0..x.cols() {
                            // Treat the ε-clamped region as constant-norm.
                            let proj = if norm > L2_EPS {
                                y.get(r, c) * dot
                            } else {
                                0.0
                            };
                            da.set(r, c, (g.get(r, c) - proj) / n);
                        }
                    }
                    accumulate_owned(&mut grads, pool, *a, da);
                    pool.put(g);
                }
                Op::SumAll(a) => {
                    let (tr, tc) = nodes[a.0].value.shape();
                    let da = pool.take_filled(tr, tc, g.item());
                    accumulate_owned(&mut grads, pool, *a, da);
                    pool.put(g);
                }
                Op::MeanAll(a) => {
                    let (tr, tc) = nodes[a.0].value.shape();
                    let da = pool.take_filled(tr, tc, g.item() / nodes[a.0].value.len() as f32);
                    accumulate_owned(&mut grads, pool, *a, da);
                    pool.put(g);
                }
                Op::MulConst(a, c) => {
                    for (gv, &cv) in g.data_mut().iter_mut().zip(c.data()) {
                        *gv *= cv;
                    }
                    accumulate_owned(&mut grads, pool, *a, g);
                }
            }
        }
    }
}

const L2_EPS: f32 = 1e-6;

/// Accumulate an owned gradient into `grads[v]`; when the slot is already
/// occupied the addition happens in place and `g`'s buffer is recycled.
fn accumulate_owned(grads: &mut [Option<Tensor>], pool: &mut BufferPool, v: Var, g: Tensor) {
    match &mut grads[v.0] {
        Some(existing) => {
            existing.axpy(1.0, &g);
            pool.put(g);
        }
        slot @ None => *slot = Some(g),
    }
}

/// Accumulate a borrowed gradient into `grads[v]`, copying through the
/// pool only when the slot is empty.
fn accumulate_ref(grads: &mut [Option<Tensor>], pool: &mut BufferPool, v: Var, g: &Tensor) {
    match &mut grads[v.0] {
        Some(existing) => existing.axpy(1.0, g),
        slot @ None => *slot = Some(pool.take_copy(g)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check for a scalar function of one
    /// parameter tensor.
    fn grad_check<F>(init: Tensor, f: F, tol: f32)
    where
        F: Fn(&mut Tape, Var) -> Var,
    {
        let mut store = ParamStore::new();
        let p = store.register("p", init.clone());

        // Analytical gradient.
        let mut tape = Tape::new();
        let pv = tape.param(&store, p);
        let loss = f(&mut tape, pv);
        tape.backward(loss, &mut store);
        let analytic = store.grad(p).clone();

        // Numerical gradient.
        let eps = 1e-3f32;
        for r in 0..init.rows() {
            for c in 0..init.cols() {
                let eval = |delta: f32, store: &mut ParamStore| -> f32 {
                    let old = store.value(p).get(r, c);
                    store.value_mut(p).set(r, c, old + delta);
                    let mut tape = Tape::new();
                    let pv = tape.param(store, p);
                    let loss = f(&mut tape, pv);
                    let out = tape.value(loss).item();
                    store.value_mut(p).set(r, c, old);
                    out
                };
                let plus = eval(eps, &mut store);
                let minus = eval(-eps, &mut store);
                let numeric = (plus - minus) / (2.0 * eps);
                let a = analytic.get(r, c);
                assert!(
                    (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                    "grad mismatch at ({r},{c}): analytic={a} numeric={numeric}"
                );
            }
        }
    }

    #[test]
    fn grad_matmul() {
        let init = Tensor::from_rows(&[&[0.5, -1.0], &[2.0, 0.3]]);
        grad_check(
            init,
            |t, p| {
                let x = t.input(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, -1.0]]));
                let y = t.matmul(x, p);
                let sq = t.square(y);
                t.sum_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_activations() {
        let init = Tensor::from_rows(&[&[0.5, -1.2, 2.0, 0.1]]);
        grad_check(
            init.clone(),
            |t, p| {
                let a = t.tanh(p);
                let b = t.sigmoid(a);
                let c = t.softplus(b);
                t.sum_all(c)
            },
            1e-2,
        );
        grad_check(
            init,
            |t, p| {
                let a = t.exp(p);
                let b = t.sqrt(a);
                let c = t.ln(b);
                t.mean_all(c)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_relu() {
        // Away from the kink.
        let init = Tensor::from_rows(&[&[0.5, -1.2, 2.0]]);
        grad_check(
            init,
            |t, p| {
                let a = t.relu(p);
                let b = t.square(a);
                t.sum_all(b)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_concat_slice() {
        let init = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        grad_check(
            init,
            |t, p| {
                let c = t.concat_cols(&[p, p]);
                let s = t.slice_cols(c, 1, 3);
                let sq = t.square(s);
                t.sum_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_gather_and_segments() {
        let init = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let idx = Arc::new(vec![2usize, 0, 2, 1]);
        let seg = Arc::new(vec![0usize, 1, 1, 0]);
        grad_check(
            init.clone(),
            |t, p| {
                let g = t.gather_rows(p, idx.clone());
                let s = t.segment_sum(g, seg.clone(), 2);
                let sq = t.square(s);
                t.sum_all(sq)
            },
            1e-2,
        );
        grad_check(
            init.clone(),
            |t, p| {
                let s = t.segment_mean(p, Arc::new(vec![0, 0, 1]), 2);
                let sq = t.square(s);
                t.sum_all(sq)
            },
            1e-2,
        );
        grad_check(
            init,
            |t, p| {
                let s = t.segment_max(p, Arc::new(vec![0, 0, 1]), 2);
                let sq = t.square(s);
                t.sum_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_l2_normalize() {
        let init = Tensor::from_rows(&[&[3.0, 4.0], &[0.5, -0.2]]);
        grad_check(
            init,
            |t, p| {
                let n = t.l2_normalize_rows(p);
                let w = t.input(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, -1.0]]));
                let m = t.mul(n, w);
                t.sum_all(m)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_add_row_bias() {
        let init = Tensor::from_rows(&[&[0.1, -0.3, 0.7]]);
        grad_check(
            init,
            |t, p| {
                let x = t.input(Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]));
                let y = t.add_row(x, p);
                let sq = t.square(y);
                t.mean_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_mul_const_mask() {
        let init = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mask = Arc::new(Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]));
        grad_check(
            init,
            |t, p| {
                let m = t.mul_const(p, mask.clone());
                let sq = t.square(m);
                t.sum_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_accumulates_for_reused_vars() {
        // p used twice: gradient must be the sum of both paths.
        let mut store = ParamStore::new();
        let p = store.register("p", Tensor::scalar(3.0));
        let mut tape = Tape::new();
        let pv = tape.param(&store, p);
        let sq = tape.mul(pv, pv); // p^2: d/dp = 2p = 6
        tape.backward(sq, &mut store);
        assert!((store.grad(p).item() - 6.0).abs() < 1e-5);
    }

    #[test]
    fn backward_accumulates_across_calls() {
        let mut store = ParamStore::new();
        let p = store.register("p", Tensor::scalar(1.0));
        for _ in 0..3 {
            let mut tape = Tape::new();
            let pv = tape.param(&store, p);
            let d = tape.scale(pv, 2.0);
            tape.backward(d, &mut store);
        }
        assert_eq!(store.grad(p).item(), 6.0);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_nonscalar() {
        let mut store = ParamStore::new();
        let p = store.register("p", Tensor::ones(2, 2));
        let mut tape = Tape::new();
        let pv = tape.param(&store, p);
        tape.backward(pv, &mut store);
    }

    #[test]
    fn segment_max_empty_segment_is_zero() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_rows(&[&[1.0], &[2.0]]));
        let m = tape.segment_max(x, Arc::new(vec![0, 0]), 2);
        assert_eq!(tape.value(m).get(1, 0), 0.0);
    }

    /// A small two-matmul network used by the arena/sink tests below.
    fn little_net(tape: &mut Tape, store: &ParamStore, w: ParamId, b: ParamId) -> Var {
        let x = tape.input(Tensor::from_rows(&[&[1.0, -2.0], &[0.5, 3.0], &[2.0, 2.0]]));
        let wv = tape.param(store, w);
        let bv = tape.param(store, b);
        let h = tape.matmul(x, wv);
        let hb = tape.add_row(h, bv);
        let r = tape.relu(hb);
        let sq = tape.square(r);
        tape.mean_all(sq)
    }

    fn little_store() -> (ParamStore, ParamId, ParamId) {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_rows(&[&[0.4, -0.6], &[1.1, 0.2]]));
        let b = store.register("b", Tensor::from_rows(&[&[0.1, -0.2]]));
        (store, w, b)
    }

    #[test]
    fn reset_reuses_buffers_and_keeps_results_identical() {
        let (mut store, w, b) = little_store();
        // Fresh tape per step (the old allocation pattern).
        let mut fresh_grads = Vec::new();
        for _ in 0..3 {
            store.zero_grads();
            let mut tape = Tape::new();
            let loss = little_net(&mut tape, &store, w, b);
            tape.backward(loss, &mut store);
            fresh_grads.push((store.grad(w).clone(), store.grad(b).clone()));
        }
        // One tape reset between steps (the arena pattern).
        let mut tape = Tape::new();
        for (step, fresh) in fresh_grads.iter().enumerate() {
            store.zero_grads();
            tape.reset();
            let loss = little_net(&mut tape, &store, w, b);
            tape.backward(loss, &mut store);
            assert_eq!(store.grad(w), &fresh.0, "step {step}");
            assert_eq!(store.grad(b), &fresh.1, "step {step}");
        }
        assert!(!tape.is_empty());
        tape.reset();
        assert!(tape.is_empty());
    }

    #[test]
    fn grad_buffer_matches_direct_store_accumulation() {
        let (mut store, w, b) = little_store();
        let mut tape = Tape::new();
        let loss = little_net(&mut tape, &store, w, b);
        store.zero_grads();
        tape.backward(loss, &mut store);
        let direct_w = store.grad(w).clone();
        let direct_b = store.grad(b).clone();

        let mut tape2 = Tape::new();
        let loss2 = little_net(&mut tape2, &store, w, b);
        let mut gb = GradBuffer::new();
        assert!(gb.is_empty());
        tape2.backward_with(loss2, &mut gb);
        assert!(!gb.is_empty());
        store.zero_grads();
        gb.apply_to(&mut store);
        assert_eq!(store.grad(w), &direct_w);
        assert_eq!(store.grad(b), &direct_b);

        gb.clear();
        assert!(gb.is_empty());
        store.zero_grads();
        gb.apply_to(&mut store);
        assert_eq!(store.grad_norm(), 0.0);
    }
}
