//! Reverse-mode automatic differentiation on a tape.
//!
//! Tapes own a small buffer arena: [`Tape::reset`] recycles every forward
//! value into a free list that the next step's ops and backward scratch
//! draw from, so a steady-state step takes its tensor buffers from the
//! arena, not the allocator. Per-op bookkeeping — the backward's list of
//! gradient slots, index lists, argmax tables, concat operand lists — is
//! still allocated every step. Backward passes accumulate gradients in
//! place and transform the incoming gradient in place for elementwise ops.
//!
//! A backward pass first sums each parameter's gradient over its uses in
//! buffers the tape keeps across passes, then adds the sums into the
//! [`ParamStore`] in [`ParamId`] order; a sharded training step calls it
//! once per shard on one tape, so the store receives shard after shard.
//!
//! The matmul backward forms `db = aᵀ·g` with the fused
//! [`Tensor::matmul_at`], which reads `a`'s columns in place, and
//! `da = g·bᵀ` from a transposed copy of `b`. When `b` is a parameter — as
//! it is in every model — the copy is cached per [`ParamId`] under the
//! store's stamp at [`Tape::param`] time, so a weight is transposed once
//! per optimizer step however many shards or time steps use it; any other
//! `b` takes [`Tensor::transpose`].
//!
//! Op payloads are [`Arc`]s, so a [`Tape`] is `Send`.

use crate::layers::Activation;
use crate::params::{ParamId, ParamStore};
use crate::record::{bias_act, l2_normalize_row, reduce_rows, Reduction};
use crate::tensor::Tensor;
use std::sync::Arc;

/// Handle to a value on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

#[derive(Debug, Clone)]
enum Op {
    Input,
    /// A parameter and the store's stamp when its value was read.
    Param(ParamId, u64),
    MatMul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    AddRow(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    Relu(Var),
    Tanh(Var),
    Sigmoid(Var),
    Square(Var),
    Softplus(Var),
    ConcatCols(Vec<Var>),
    SliceCols(Var, usize, usize),
    GatherRows(Var, Arc<Vec<usize>>),
    SegmentSum(Var, Arc<Vec<usize>>),
    SegmentMean(Var, Arc<Vec<usize>>, usize),
    /// Per-(segment, column) argmax row recorded at forward time.
    SegmentMax(Var, usize, Arc<Vec<i64>>),
    L2NormRows(Var),
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

    /// A `rows×cols` tensor of unspecified contents, reusing a free
    /// buffer, for an op that overwrites every element (the matmuls).
    fn take_for_overwrite(&mut self, rows: usize, cols: usize) -> Tensor {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.resize(rows * cols, 0.0);
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

/// Per-parameter gradient sums of one backward pass, indexed by
/// [`ParamId`]. The buffers outlive the pass, so a steady-state pass
/// copies each parameter's first gradient instead of allocating for it.
#[derive(Default)]
struct GradSums {
    sums: Vec<Option<Tensor>>,
    live: Vec<bool>,
}

impl GradSums {
    /// Add one use's gradient to `id`'s sum.
    fn add(&mut self, id: ParamId, g: &Tensor) {
        if self.sums.len() <= id.0 {
            self.sums.resize_with(id.0 + 1, || None);
            self.live.resize(id.0 + 1, false);
        }
        let slot = &mut self.sums[id.0];
        if self.live[id.0] {
            slot.as_mut().expect("a live sum has a buffer").axpy(1.0, g);
        } else {
            let mut buf = slot.take().map(Tensor::into_data).unwrap_or_default();
            buf.clear();
            buf.extend_from_slice(g.data());
            *slot = Some(Tensor::from_vec(g.rows(), g.cols(), buf));
            self.live[id.0] = true;
        }
    }

    /// Add every sum into `store` in ascending [`ParamId`] order and start
    /// the next pass empty.
    fn fold_into(&mut self, store: &mut ParamStore) {
        for (i, (sum, live)) in self.sums.iter().zip(&mut self.live).enumerate() {
            if std::mem::take(live) {
                let sum = sum.as_ref().expect("a live sum has a buffer");
                store.grad_mut(ParamId(i)).axpy(1.0, sum);
            }
        }
    }
}

/// `bᵀ` of every parameter a matmul backward has used as its right
/// operand, indexed by [`ParamId`] and tagged with the store stamp it was
/// taken under. Stamps change with every change to a store's values, so an
/// entry whose stamp matches a [`Op::Param`]'s is the transpose of that
/// node's value.
#[derive(Default)]
struct TransposeCache {
    entries: Vec<Option<(u64, Tensor)>>,
}

impl TransposeCache {
    /// `bᵀ` for parameter `id`, whose value `b` was read under `stamp`;
    /// transposes only when the entry was taken under another stamp.
    fn get(&mut self, id: ParamId, stamp: u64, b: &Tensor) -> &Tensor {
        if self.entries.len() <= id.0 {
            self.entries.resize_with(id.0 + 1, || None);
        }
        let slot = &mut self.entries[id.0];
        if !matches!(slot, Some((at, _)) if *at == stamp) {
            let mut buf = slot.take().map(|(_, t)| t.into_data()).unwrap_or_default();
            buf.resize(b.len(), 0.0);
            let mut bt = Tensor::from_vec(b.cols(), b.rows(), buf);
            b.transpose_into(&mut bt);
            *slot = Some((stamp, bt));
        }
        &slot.as_ref().expect("filled above").1
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
    grad_sums: GradSums,
    transposes: TransposeCache,
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

    /// Clear the recorded graph, recycling every value buffer the arena
    /// handed out into it for the next step. An input's buffer came from
    /// the caller and is dropped: kept, it would grow the arena by one
    /// buffer per input on every step.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            if !matches!(node.op, Op::Input) {
                self.pool.free.push(node.value.into_data());
            }
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
        self.push(Op::Param(id, store.stamp()), t)
    }

    /// Matrix product.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let rows = self.value(a).rows();
        let cols = self.value(b).cols();
        let mut out = self.pool.take_for_overwrite(rows, cols);
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
    pub(crate) fn add_row(&mut self, a: Var, b: Var) -> Var {
        let ac = self.value(a).cols();
        let (br, bc) = self.value(b).shape();
        assert_eq!(br, 1, "add_row rhs must have one row");
        assert_eq!(ac, bc, "add_row column mismatch");
        let mut out = self.pool.take_copy(&self.nodes[a.0].value);
        bias_act(
            out.data_mut(),
            self.nodes[b.0].value.data(),
            Activation::Identity,
        );
        self.push(Op::AddRow(a, b), out)
    }

    /// Scalar multiple `s · a`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        self.unary(a, Op::Scale(a, s), |x| x * s)
    }

    /// Scalar offset `a + s`.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        self.unary(a, Op::AddScalar(a), |x| x + s)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.unary(a, Op::Relu(a), |x| Activation::Relu.eval(x))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.unary(a, Op::Tanh(a), |x| Activation::Tanh.eval(x))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.unary(a, Op::Sigmoid(a), |x| Activation::Sigmoid.eval(x))
    }

    /// Elementwise square.
    pub fn square(&mut self, a: Var) -> Var {
        self.unary(a, Op::Square(a), |x| x * x)
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
    pub(crate) fn concat_cols(&mut self, xs: &[Var]) -> Var {
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
    pub(crate) fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
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

    /// Reduce the rows of `a` into `n_segments` rows, row `r` into row
    /// `seg[r]` (an empty segment gives a zero row).
    ///
    /// # Panics
    ///
    /// Panics if `seg.len() != a.rows()` or a segment id is out of range.
    pub fn segment(
        &mut self,
        red: Reduction,
        a: Var,
        seg: Arc<Vec<usize>>,
        n_segments: usize,
    ) -> Var {
        let (rows, cols) = self.value(a).shape();
        assert_eq!(seg.len(), rows, "segment id per row required");
        let in_range = seg.iter().all(|&s| s < n_segments);
        assert!(in_range, "segment id out of range");
        let mut out = self.pool.take_for_overwrite(n_segments, cols);
        let mut counts = vec![
            0.0f32;
            if red == Reduction::Mean {
                n_segments
            } else {
                0
            }
        ];
        let mut argmax = vec![
            -1i64;
            if red == Reduction::Max {
                n_segments * cols
            } else {
                0
            }
        ];
        let (x, pairs) = (
            self.nodes[a.0].value.data(),
            seg.iter().copied().enumerate(),
        );
        let won = |at: usize, r: usize| argmax[at] = r as i64;
        reduce_rows(red, x, cols, pairs, out.data_mut(), &mut counts, won);
        let op = match red {
            Reduction::Sum => Op::SegmentSum(a, seg),
            Reduction::Mean => Op::SegmentMean(a, seg, n_segments),
            Reduction::Max => Op::SegmentMax(a, n_segments, Arc::new(argmax)),
        };
        self.push(op, out)
    }

    /// L2-normalize each row (`x / max(‖x‖₂, ε)`), Eq. 1's `l2`.
    pub(crate) fn l2_normalize_rows(&mut self, a: Var) -> Var {
        let mut out = self.pool.take_copy(&self.nodes[a.0].value);
        let cols = out.cols();
        for row in out.data_mut().chunks_exact_mut(cols) {
            l2_normalize_row(row);
        }
        self.push(Op::L2NormRows(a), out)
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
    pub(crate) fn mul_const(&mut self, a: Var, c: Arc<Tensor>) -> Var {
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
    /// adding parameter gradients into `store`: each parameter's uses are
    /// summed first, then the sums are added in [`ParamId`] order.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not scalar.
    pub fn backward(&mut self, loss: Var, store: &mut ParamStore) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward needs a scalar loss"
        );
        let Tape {
            nodes,
            pool,
            grad_sums,
            transposes,
        } = self;
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
                Op::Param(id, _) => {
                    grad_sums.add(*id, &g);
                    pool.put(g);
                }
                Op::MatMul(a, b) => {
                    let av = &nodes[a.0].value;
                    let bv = &nodes[b.0].value;
                    // da = g · bᵀ through a transpose of b (the weight,
                    // small next to g); db = aᵀ · g reads a's columns in
                    // place.
                    let mut da = pool.take_for_overwrite(g.rows(), bv.rows());
                    if let Op::Param(id, stamp) = nodes[b.0].op {
                        g.matmul_into(transposes.get(id, stamp, bv), &mut da);
                    } else {
                        g.matmul_into(&bv.transpose(), &mut da);
                    }
                    let mut db = pool.take_for_overwrite(av.cols(), g.cols());
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
                Op::AddScalar(a) => accumulate_owned(&mut grads, pool, *a, g),
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
                Op::Square(a) => {
                    for (gv, &x) in g.data_mut().iter_mut().zip(nodes[a.0].value.data()) {
                        *gv *= 2.0 * x;
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
                Op::SegmentSum(a, seg) => {
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
                Op::SegmentMax(a, n, argmax) => {
                    let (tr, tc) = nodes[a.0].value.shape();
                    let mut da = pool.take_zeroed(tr, tc);
                    let da_data = da.data_mut();
                    for s in 0..*n {
                        let best = &argmax[s * tc..(s + 1) * tc];
                        for ((c, &r), &gv) in best.iter().enumerate().zip(g.row(s)) {
                            if r >= 0 {
                                da_data[r as usize * tc + c] += gv;
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
                        let (y_row, g_row) = (y.row(r), g.row(r));
                        let dot: f32 = y_row.iter().zip(g_row).map(|(&yv, &gv)| yv * gv).sum();
                        for ((d, &yv), &gv) in da.row_mut(r).iter_mut().zip(y_row).zip(g_row) {
                            // Treat the ε-clamped region as constant-norm.
                            let proj = if norm > L2_EPS { yv * dot } else { 0.0 };
                            *d = (gv - proj) / n;
                        }
                    }
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
        grad_sums.fold_into(store);
    }
}

/// The `ε` of [`Tape::l2_normalize_rows`]: a row is divided by
/// `max(‖x‖₂, ε)`.
pub(crate) const L2_EPS: f32 = 1e-6;

/// The logistic sigmoid `1 / (1 + e^-x)` [`Tape::sigmoid`] applies per
/// element.
#[inline]
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

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
                t.mean_all(sq)
            },
            1e-2,
        );
    }

    /// The parameter on the left and an input on the right: the backward
    /// transposes a right operand that is not a parameter.
    #[test]
    fn grad_matmul_by_an_input_on_the_right() {
        let init = Tensor::from_rows(&[&[0.5, -1.0, 0.2], &[2.0, 0.3, -0.4]]);
        grad_check(
            init,
            |t, p| {
                let x = t.input(Tensor::from_rows(&[
                    &[1.0, 2.0],
                    &[3.0, -1.0],
                    &[-0.5, 0.7],
                ]));
                let y = t.matmul(p, x);
                let sq = t.square(y);
                t.mean_all(sq)
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
                t.mean_all(c)
            },
            1e-2,
        );
        grad_check(
            init,
            |t, p| {
                let a = t.square(p);
                let b = t.add_scalar(a, 0.5);
                let c = t.scale(b, -0.7);
                let d = t.tanh(c);
                t.mean_all(d)
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
                t.mean_all(b)
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
                t.mean_all(sq)
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
                let s = t.segment(Reduction::Sum, g, seg.clone(), 2);
                let sq = t.square(s);
                t.mean_all(sq)
            },
            1e-2,
        );
        grad_check(
            init.clone(),
            |t, p| {
                let s = t.segment(Reduction::Mean, p, Arc::new(vec![0, 0, 1]), 2);
                let sq = t.square(s);
                t.mean_all(sq)
            },
            1e-2,
        );
        grad_check(
            init,
            |t, p| {
                let s = t.segment(Reduction::Max, p, Arc::new(vec![0, 0, 1]), 2);
                let sq = t.square(s);
                t.mean_all(sq)
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
                t.mean_all(m)
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
                t.mean_all(sq)
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
        let m = tape.segment(Reduction::Max, x, Arc::new(vec![0, 0]), 2);
        assert_eq!(tape.value(m).get(1, 0), 0.0);
    }

    /// A small one-layer network used by the arena test below.
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
    fn the_arena_does_not_grow_across_steps() {
        let (mut store, w, b) = little_store();
        let mut tape = Tape::new();
        let mut step = |tape: &mut Tape| {
            let loss = little_net(tape, &store, w, b);
            tape.backward(loss, &mut store);
            tape.reset();
            tape.pool.free.len()
        };
        let settled = step(&mut tape);
        for _ in 0..10 {
            assert_eq!(step(&mut tape), settled, "the input's buffer was pooled");
        }
    }

    #[test]
    fn backward_sums_a_parameters_uses_before_adding_them() {
        let mut store = ParamStore::new();
        let p = store.register("p", Tensor::scalar(1.0));
        let mut tape = Tape::new();
        let pv = tape.param(&store, p);
        tape.backward(pv, &mut store);
        assert_eq!(store.grad(p).item(), 1.0);

        // Two uses of `p`, 4e-8 each: added one by one, each is lost
        // against the 1.0 already in the store; summed first, they are not.
        let small = 4e-8f32;
        assert_ne!(1.0 + (small + small), (1.0 + small) + small);
        tape.reset();
        let p1 = tape.param(&store, p);
        let p2 = tape.param(&store, p);
        let a = tape.scale(p1, small);
        let b = tape.scale(p2, small);
        let loss = tape.add(a, b);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(p).item(), 1.0 + (small + small));
    }

    /// `w` used twice, the second time after a nonlinearity, so its
    /// gradient reads `wᵀ` through the first use's input gradient.
    fn two_use_net(tape: &mut Tape, store: &ParamStore, w: ParamId, b: ParamId) -> Var {
        let x = tape.input(Tensor::from_rows(&[&[1.0, -2.0], &[0.5, 3.0], &[2.0, 2.0]]));
        let wv = tape.param(store, w);
        let bv = tape.param(store, b);
        let h = tape.matmul(x, wv);
        let hb = tape.add_row(h, bv);
        let r = tape.tanh(hb);
        let wv2 = tape.param(store, w);
        let y = tape.matmul(r, wv2);
        let sq = tape.square(y);
        tape.mean_all(sq)
    }

    /// `(dw, db)` of [`two_use_net`] on `tape`, from zeroed gradients.
    fn grads_on(
        tape: &mut Tape,
        store: &mut ParamStore,
        w: ParamId,
        b: ParamId,
    ) -> (Tensor, Tensor) {
        store.zero_grads();
        tape.reset();
        let loss = two_use_net(tape, store, w, b);
        tape.backward(loss, store);
        (store.grad(w).clone(), store.grad(b).clone())
    }

    /// The oracle: the same gradients on a tape that has cached nothing.
    fn fresh_grads(store: &mut ParamStore, w: ParamId, b: ParamId) -> (Tensor, Tensor) {
        grads_on(&mut Tape::new(), store, w, b)
    }

    #[test]
    fn transpose_cache_follows_value_mut() {
        let (mut store, w, b) = little_store();
        let mut tape = Tape::new();
        let first = grads_on(&mut tape, &mut store, w, b);
        assert_eq!(first, fresh_grads(&mut store, w, b));
        store.value_mut(w).set(0, 1, 0.9);
        let second = grads_on(&mut tape, &mut store, w, b);
        assert_ne!(second.0, first.0, "the edit must move dw");
        assert_eq!(second, fresh_grads(&mut store, w, b));
    }

    #[test]
    fn transpose_cache_tells_a_clone_from_its_original() {
        let (mut original, w, b) = little_store();
        let mut clone = original.clone();
        let mut tape = Tape::new();
        // Unchanged, the two share a stamp and the entry serves both.
        let shared = grads_on(&mut tape, &mut original, w, b);
        assert_eq!(grads_on(&mut tape, &mut clone, w, b), shared);
        clone.value_mut(w).set(1, 0, -0.7);
        original.value_mut(w).set(0, 0, 1.3);
        for round in 0..2 {
            for store in [&mut original, &mut clone] {
                let reused = grads_on(&mut tape, store, w, b);
                assert_eq!(reused, fresh_grads(store, w, b), "round {round}");
            }
        }
        assert_ne!(
            grads_on(&mut tape, &mut original, w, b),
            grads_on(&mut tape, &mut clone, w, b)
        );
    }

    #[test]
    fn transpose_cache_never_serves_a_deserialized_store() {
        let (mut live, w, b) = little_store();
        let mut tape = Tape::new();
        grads_on(&mut tape, &mut live, w, b);
        let mut other = live.clone();
        other.value_mut(w).set(1, 1, -1.5);
        let mut from_live = ParamStore::from_json(&live.to_json()).unwrap();
        let mut from_other = ParamStore::from_json(&other.to_json()).unwrap();
        let stamps = [
            live.stamp(),
            other.stamp(),
            from_live.stamp(),
            from_other.stamp(),
        ];
        for (i, s) in stamps.iter().enumerate() {
            assert!(!stamps[..i].contains(s), "stamp {s} shared: {stamps:?}");
        }
        for store in [&mut from_other, &mut from_live, &mut live] {
            let reused = grads_on(&mut tape, store, w, b);
            assert_eq!(reused, fresh_grads(store, w, b));
        }
        let reused = grads_on(&mut tape, &mut from_other, w, b);
        assert_eq!(reused, fresh_grads(&mut from_other, w, b));
    }
}
