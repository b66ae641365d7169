//! One forward, two recorders. A model writes its forward once, generic
//! over [`Recorder`]: over a [`Tape`] it records the graph training
//! differentiates; over [`NoTape`] it computes the same values with no
//! graph, reading weights in place from the [`ParamStore`] and keeping
//! every value as a [`Slot`] of one `f32` arena. [`ArenaLen`] is
//! `NoTape`'s allocation pattern without its arithmetic: a forward over it
//! measures the arena before anything is allocated.
//!
//! Each op's arithmetic is one function here ([`reduce_rows`],
//! [`bias_act`], [`l2_normalize_row`], [`lstm_cell`], [`blend`]) or the
//! matmul kernel, and both recorders call it, so both give the same bits
//! (`tests/recorder_contract.rs`). Under `NoTape`, `l2_normalize`,
//! `add_scalar`, `half_sum` (into its first operand) and the LSTM state
//! work in place, because a forward never reads their operand again, and
//! [`Recorder::keep`] frees a hop's temporaries; the tape records plain ops.

use crate::layers::{Activation, Embedding, Linear, LstmCell};
use crate::params::ParamStore;
use crate::tape::{sigmoid, Tape, Var, L2_EPS};
use crate::tensor::{matmul_slices, Tensor};
use std::ops::Range;
use std::sync::Arc;

/// A reduction over a set of rows: Eq. 1's neighbourhood Σ, and each
/// kernel pool of κ. An empty set gives zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reduction {
    /// Sum of the rows.
    Sum,
    /// Mean of the rows.
    Mean,
    /// Columnwise max of the rows.
    Max,
}

/// The graph a forward runs over: kernels packed as a disjoint union.
/// Node `i` has opcode `opcode_ids[i]` and features
/// `features[i·feature_dim..][..feature_dim]`; `kernel_nodes` splits the
/// nodes into each kernel's, contiguous and in order.
#[derive(Debug, Clone, Copy)]
pub struct Graph<'a> {
    /// Embedding id per node.
    pub opcode_ids: &'a [usize],
    /// `n × feature_dim` row-major node features.
    pub features: &'a [f32],
    /// Features per node.
    pub feature_dim: usize,
    /// Directed edges `(a, b)`, which every op reads both ways.
    pub edges: &'a [(usize, usize)],
    /// Per-kernel node ranges.
    pub kernel_nodes: &'a [Range<usize>],
}

impl<'a> Graph<'a> {
    /// `kernel_nodes` without node data: all [`ArenaLen`] reads.
    pub fn shape(kernel_nodes: &'a [Range<usize>], feature_dim: usize) -> Graph<'a> {
        let (opcode_ids, features, edges) = (&[], &[], &[]);
        Graph {
            opcode_ids,
            features,
            feature_dim,
            edges,
            kernel_nodes,
        }
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.kernel_nodes.last().map_or(0, |r| r.end)
    }

    /// Node count of the longest kernel: the LSTM's step count.
    pub fn max_len(&self) -> usize {
        self.kernel_nodes.iter().map(|r| r.len()).max().unwrap_or(0)
    }

    /// `(from, to)` for every edge both ways, in edge order.
    fn neighbour_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges.iter().flat_map(|&(a, b)| [(a, b), (b, a)])
    }

    /// `(node, kernel)` for every node, in node order.
    fn kernel_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let kernels = self.kernel_nodes.iter().enumerate();
        kernels.flat_map(|(k, nodes)| nodes.clone().map(move |i| (i, k)))
    }

    /// Per kernel, its LSTM input row at step `t` and whether the step is
    /// on: node `t`, or node 0 once the kernel has ended.
    fn step_rows(&self, t: usize) -> impl Iterator<Item = (usize, bool)> + '_ {
        let row = move |k: &Range<usize>| (k.start + t < k.end).then_some(k.start + t);
        self.kernel_nodes
            .iter()
            .map(move |k| row(k).map_or((0, false), |i| (i, true)))
    }
}

/// Hidden and cell state of an [`LstmCell`], one row per kernel.
#[derive(Debug, Clone, Copy)]
pub struct LstmState<V> {
    /// Hidden state.
    pub h: V,
    /// Cell state.
    pub c: V,
}

/// A rewind point of a [`Recorder`]: see [`Recorder::keep`].
#[derive(Debug, Clone, Copy)]
pub struct Mark(usize);

/// The operations of the paper's models, which a forward is written
/// against.
pub trait Recorder {
    /// A recorded value: a tape [`Var`], or an arena [`Slot`].
    type Value: Copy;
    /// `[table[opcode_id] ‖ features]`, one row per node.
    fn embed(&mut self, store: &ParamStore, table: &Embedding, g: &Graph<'_>) -> Self::Value;
    /// `act(x·W + b)`.
    fn linear(&mut self, store: &ParamStore, layer: &Linear, x: Self::Value) -> Self::Value;
    /// Per node, the reduction of `x`'s rows at its neighbours.
    fn aggregate(&mut self, x: Self::Value, g: &Graph<'_>, red: Reduction) -> Self::Value;
    /// Per kernel, the reduction of `x`'s rows at its nodes.
    fn pool(&mut self, x: Self::Value, g: &Graph<'_>, red: Reduction) -> Self::Value;
    /// `[xs[0] ‖ xs[1] ‖ …]` along columns.
    fn concat(&mut self, xs: &[Self::Value]) -> Self::Value;
    /// Each row divided by `max(‖row‖₂, L2_EPS)`.
    fn l2_normalize(&mut self, x: Self::Value) -> Self::Value;
    /// `x + s`.
    fn add_scalar(&mut self, x: Self::Value, s: f32) -> Self::Value;
    /// `(a + b) · ½`, rounded after the sum and after the product.
    fn half_sum(&mut self, a: Self::Value, b: Self::Value) -> Self::Value;
    /// A zero state, one row per kernel.
    fn lstm_zero_state(&mut self, cell: &LstmCell, g: &Graph<'_>) -> LstmState<Self::Value>;
    /// Step `t` of every kernel at once: kernel `k` consumes its node `t`
    /// (a row of `nodes`), and a kernel that has ended keeps its state.
    fn lstm_step(
        &mut self,
        store: &ParamStore,
        cell: &LstmCell,
        nodes: Self::Value,
        state: LstmState<Self::Value>,
        g: &Graph<'_>,
        t: usize,
    ) -> LstmState<Self::Value>;
    /// A point [`Recorder::keep`] can rewind to.
    fn mark(&self) -> Mark;
    /// `v`, with every other value recorded since `mark` freed.
    fn keep(&mut self, mark: Mark, v: Self::Value) -> Self::Value;
}

impl Recorder for Tape {
    type Value = Var;

    fn embed(&mut self, store: &ParamStore, table: &Embedding, g: &Graph<'_>) -> Var {
        let emb = table.forward(self, store, g.opcode_ids);
        let n = g.opcode_ids.len();
        let feats = self.input(Tensor::from_vec(n, g.feature_dim, g.features.to_vec()));
        self.concat_cols(&[emb, feats])
    }

    fn linear(&mut self, store: &ParamStore, layer: &Linear, x: Var) -> Var {
        let w = self.param(store, layer.w);
        let b = self.param(store, layer.b);
        let xw = self.matmul(x, w);
        let z = self.add_row(xw, b);
        match layer.activation {
            Activation::Identity => z,
            Activation::Relu => self.relu(z),
            Activation::Tanh => self.tanh(z),
            Activation::Sigmoid => self.sigmoid(z),
        }
    }

    fn aggregate(&mut self, x: Var, g: &Graph<'_>, red: Reduction) -> Var {
        let pairs = 2 * g.edges.len();
        let (mut src, mut dst) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
        for (from, to) in g.neighbour_pairs() {
            src.push(from);
            dst.push(to);
        }
        let gathered = self.gather_rows(x, Arc::new(src));
        self.segment(red, gathered, Arc::new(dst), g.num_nodes())
    }

    fn pool(&mut self, x: Var, g: &Graph<'_>, red: Reduction) -> Var {
        let mut seg = Vec::with_capacity(g.num_nodes());
        seg.extend(g.kernel_pairs().map(|(_, k)| k));
        self.segment(red, x, Arc::new(seg), g.kernel_nodes.len())
    }

    fn concat(&mut self, xs: &[Var]) -> Var {
        self.concat_cols(xs)
    }

    fn l2_normalize(&mut self, x: Var) -> Var {
        self.l2_normalize_rows(x)
    }

    fn add_scalar(&mut self, x: Var, s: f32) -> Var {
        Tape::add_scalar(self, x, s)
    }

    fn half_sum(&mut self, a: Var, b: Var) -> Var {
        let sum = Tape::add(self, a, b);
        self.scale(sum, 0.5)
    }

    fn lstm_zero_state(&mut self, cell: &LstmCell, g: &Graph<'_>) -> LstmState<Var> {
        let b = g.kernel_nodes.len();
        let h = self.input(Tensor::zeros(b, cell.hidden));
        let c = self.input(Tensor::zeros(b, cell.hidden));
        LstmState { h, c }
    }

    /// The gathered step input, the fused gate product, `c' = σ(f)·c +
    /// σ(i)·tanh(g)`, `h' = σ(o)·tanh(c')`, then per row the blend
    /// `new·m + old·(1 − m)` with `m` 1 while the kernel runs.
    fn lstm_step(
        &mut self,
        store: &ParamStore,
        cell: &LstmCell,
        nodes: Var,
        state: LstmState<Var>,
        g: &Graph<'_>,
        t: usize,
    ) -> LstmState<Var> {
        let h = cell.hidden;
        let (idx, on): (Vec<usize>, Vec<bool>) = g.step_rows(t).unzip();
        let mut mask = Tensor::zeros(on.len(), h);
        for (k, _) in on.iter().enumerate().filter(|(_, on)| **on) {
            mask.row_mut(k).fill(1.0);
        }
        let inv = Arc::new(mask.map(|m| 1.0 - m));
        let mask = Arc::new(mask);
        let x = self.gather_rows(nodes, Arc::new(idx));
        let z = self.concat_cols(&[x, state.h]);
        let w = self.param(store, cell.w);
        let b = self.param(store, cell.b);
        let zw = self.matmul(z, w);
        let gates = self.add_row(zw, b);
        let [i, f, g, o] = [0, 1, 2, 3].map(|q| self.slice_cols(gates, q * h, (q + 1) * h));
        let (i, f, g, o) = (
            self.sigmoid(i),
            self.sigmoid(f),
            self.tanh(g),
            self.sigmoid(o),
        );
        let fc = self.mul(f, state.c);
        let ig = self.mul(i, g);
        let c_new = Tape::add(self, fc, ig);
        let ct = self.tanh(c_new);
        let h_new = self.mul(o, ct);
        let h_on = self.mul_const(h_new, mask.clone());
        let h_off = self.mul_const(state.h, inv.clone());
        let c_on = self.mul_const(c_new, mask);
        let c_off = self.mul_const(state.c, inv);
        let h = Tape::add(self, h_on, h_off);
        LstmState {
            h,
            c: Tape::add(self, c_on, c_off),
        }
    }

    fn mark(&self) -> Mark {
        Mark(self.len())
    }

    fn keep(&mut self, _mark: Mark, v: Var) -> Var {
        v
    }
}

/// A value of an [`Arena`]: `rows × cols` row-major `f32`s at `off`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    off: usize,
    rows: usize,
    cols: usize,
}

impl Slot {
    fn range(self) -> Range<usize> {
        self.off..self.off + self.rows * self.cols
    }
}

/// A stack of [`Slot`]s: with `RUN`, computing every value into its arena
/// ([`NoTape`]); without, only allocating ([`ArenaLen`]). `SKIP_ZEROS`
/// turns the matmul kernel's zero skip on, exact only for finite weights.
#[derive(Debug, Clone, Default)]
pub struct Arena<const RUN: bool, const SKIP_ZEROS: bool> {
    data: Vec<f32>,
    top: usize,
    high: usize,
}

/// The tape-free evaluator; its arena grows only if a forward needs more
/// than it was built with.
pub type NoTape<const SKIP_ZEROS: bool> = Arena<true, SKIP_ZEROS>;

/// The shape pass: [`Arena::high_water`] after a forward is the arena
/// length [`NoTape`] needs for it.
pub type ArenaLen = Arena<false, false>;

impl<const RUN: bool, const SKIP_ZEROS: bool> Arena<RUN, SKIP_ZEROS> {
    /// A stack over `len` zeros (none without `RUN`): a forward's one
    /// allocation.
    pub fn with_len(len: usize) -> Self {
        let data = if RUN { vec![0.0; len] } else { Vec::new() };
        Arena {
            data,
            top: 0,
            high: 0,
        }
    }

    /// Free every value, keeping the arena.
    pub fn reset(&mut self) {
        self.top = 0;
    }

    /// The most `f32`s held at once so far.
    pub fn high_water(&self) -> usize {
        self.high
    }

    /// The `f32`s of `v`, row-major.
    pub fn value(&self, v: Slot) -> &[f32] {
        &self.data[v.range()]
    }

    fn alloc(&mut self, rows: usize, cols: usize) -> Slot {
        let slot = Slot {
            off: self.top,
            rows,
            cols,
        };
        self.top += rows * cols;
        self.high = self.high.max(self.top);
        if RUN && self.data.len() < self.top {
            self.data.resize(self.top, 0.0);
        }
        slot
    }

    /// The arena below `out`, where every operand lives, and `out`.
    fn split(&mut self, out: Slot) -> (&[f32], &mut [f32]) {
        let (below, rest) = self.data.split_at_mut(out.off);
        (below, &mut rest[..out.range().len()])
    }

    /// A fresh `rows`-row [`reduce_rows`] of `x` over `pairs`, with
    /// `Mean`'s counts in a slot above it, freed again.
    fn reduce<I>(&mut self, x: Slot, rows: usize, red: Reduction, pairs: impl FnOnce() -> I) -> Slot
    where
        I: Iterator<Item = (usize, usize)>,
    {
        let (len, counts) = (rows * x.cols, if red == Reduction::Mean { rows } else { 0 });
        let out = self.alloc(rows, x.cols);
        let scratch = self.alloc(1, counts);
        if RUN {
            let (below, rest) = self.data.split_at_mut(out.off);
            let (dst, counts) = rest[..len + counts].split_at_mut(len);
            reduce_rows(
                red,
                &below[x.range()],
                x.cols,
                pairs(),
                dst,
                counts,
                |_, _| {},
            );
        }
        self.top = scratch.off;
        out
    }
}

impl<const RUN: bool, const SKIP_ZEROS: bool> Recorder for Arena<RUN, SKIP_ZEROS> {
    type Value = Slot;

    fn embed(&mut self, store: &ParamStore, table: &Embedding, g: &Graph<'_>) -> Slot {
        let (d, f) = (table.dim(), g.feature_dim);
        let out = self.alloc(g.num_nodes(), d + f);
        if RUN {
            let emb = store.value(table.table).data();
            let rows = self.data[out.range()].chunks_exact_mut(d + f);
            for ((row, &id), feats) in rows.zip(g.opcode_ids).zip(g.features.chunks_exact(f)) {
                assert!(id < table.vocab(), "embedding id {id} out of vocabulary");
                row[..d].copy_from_slice(&emb[id * d..][..d]);
                row[d..].copy_from_slice(feats);
            }
        }
        out
    }

    fn linear(&mut self, store: &ParamStore, layer: &Linear, x: Slot) -> Slot {
        assert_eq!(x.cols, layer.in_dim(), "linear input width");
        let out = self.alloc(x.rows, layer.out_dim());
        if RUN {
            let (below, y) = self.split(out);
            let w = store.value(layer.w).data();
            matmul_slices::<SKIP_ZEROS>(&below[x.range()], x.cols, w, out.cols, y);
            bias_act(y, store.value(layer.b).data(), layer.activation);
        }
        out
    }

    fn aggregate(&mut self, x: Slot, g: &Graph<'_>, red: Reduction) -> Slot {
        self.reduce(x, g.num_nodes(), red, || g.neighbour_pairs())
    }

    fn pool(&mut self, x: Slot, g: &Graph<'_>, red: Reduction) -> Slot {
        self.reduce(x, g.kernel_nodes.len(), red, || g.kernel_pairs())
    }

    fn concat(&mut self, xs: &[Slot]) -> Slot {
        assert!(!xs.is_empty(), "concat of nothing");
        let out = self.alloc(xs[0].rows, xs.iter().map(|x| x.cols).sum());
        if RUN {
            let (below, y) = self.split(out);
            let mut at = 0;
            for x in xs {
                assert_eq!(x.rows, out.rows, "concat row mismatch");
                let rows = y
                    .chunks_exact_mut(out.cols)
                    .zip(below[x.range()].chunks_exact(x.cols));
                rows.for_each(|(row, part)| row[at..at + x.cols].copy_from_slice(part));
                at += x.cols;
            }
        }
        out
    }

    fn l2_normalize(&mut self, x: Slot) -> Slot {
        if RUN {
            self.data[x.range()]
                .chunks_exact_mut(x.cols)
                .for_each(l2_normalize_row);
        }
        x
    }

    fn add_scalar(&mut self, x: Slot, s: f32) -> Slot {
        if RUN {
            self.data[x.range()].iter_mut().for_each(|v| *v += s);
        }
        x
    }

    fn half_sum(&mut self, a: Slot, b: Slot) -> Slot {
        assert_eq!((a.rows, a.cols), (b.rows, b.cols), "shape mismatch");
        if RUN {
            for i in 0..a.rows * a.cols {
                self.data[a.off + i] = (self.data[a.off + i] + self.data[b.off + i]) * 0.5;
            }
        }
        a
    }

    fn lstm_zero_state(&mut self, cell: &LstmCell, g: &Graph<'_>) -> LstmState<Slot> {
        let rows = g.kernel_nodes.len();
        let (h, c) = (self.alloc(rows, cell.hidden), self.alloc(rows, cell.hidden));
        if RUN {
            self.data[h.off..c.range().end].fill(0.0);
        }
        LstmState { h, c }
    }

    fn lstm_step(
        &mut self,
        store: &ParamStore,
        cell: &LstmCell,
        nodes: Slot,
        state: LstmState<Slot>,
        g: &Graph<'_>,
        t: usize,
    ) -> LstmState<Slot> {
        let (d, h, rows) = (nodes.cols, cell.hidden, g.kernel_nodes.len());
        let z = self.alloc(rows, d + h);
        let gates = self.alloc(rows, 4 * h);
        if RUN {
            // z = [x_t ‖ h] per kernel, then the fused gate product.
            let (below, zs) = self.split(z);
            let old_h = below[state.h.range()].chunks_exact(h);
            for ((row, (node, _)), old_h) in
                zs.chunks_exact_mut(d + h).zip(g.step_rows(t)).zip(old_h)
            {
                row[..d].copy_from_slice(&below[nodes.off + node * d..][..d]);
                row[d..].copy_from_slice(old_h);
            }
            let (below, gs) = self.split(gates);
            matmul_slices::<SKIP_ZEROS>(
                &below[z.range()],
                d + h,
                store.value(cell.w).data(),
                4 * h,
                gs,
            );
            bias_act(gs, store.value(cell.b).data(), Activation::Identity);
            for (k, (_, on)) in g.step_rows(t).enumerate() {
                for j in 0..h {
                    let gate = |q: usize| self.data[gates.off + (4 * k + q) * h + j];
                    let (i, f, g, o) = (gate(0), gate(1), gate(2), gate(3));
                    let (hi, ci) = (state.h.off + k * h + j, state.c.off + k * h + j);
                    let (c_new, h_new) = lstm_cell(i, f, g, o, self.data[ci]);
                    self.data[ci] = blend(c_new, self.data[ci], on);
                    self.data[hi] = blend(h_new, self.data[hi], on);
                }
            }
        }
        self.top = z.off;
        state
    }

    fn mark(&self) -> Mark {
        Mark(self.top)
    }

    fn keep(&mut self, mark: Mark, v: Slot) -> Slot {
        assert!(v.off >= mark.0, "keep of a value from before the mark");
        if RUN {
            self.data.copy_within(v.range(), mark.0);
        }
        self.top = mark.0 + v.rows * v.cols;
        Slot { off: mark.0, ..v }
    }
}

/// `out[to] ⊕= x[from]` for every `(from, to)` of `pairs`, in order, over
/// `cols`-wide rows: every segment op's arithmetic. `Sum` and `Mean` add
/// onto zeros, then `Mean` divides each row that has a count (`counts`,
/// one per row) by it. `Max` keeps a value only if strictly greater,
/// starting from `-inf`, reporting each win as `won(index in out, from)`;
/// a row nothing won becomes zeros.
pub(crate) fn reduce_rows(
    red: Reduction,
    x: &[f32],
    cols: usize,
    pairs: impl Iterator<Item = (usize, usize)>,
    out: &mut [f32],
    counts: &mut [f32],
    mut won: impl FnMut(usize, usize),
) {
    let max = red == Reduction::Max;
    out.fill(if max { f32::NEG_INFINITY } else { 0.0 });
    counts.fill(0.0);
    for (from, to) in pairs {
        let (src, dst) = (&x[from * cols..][..cols], &mut out[to * cols..][..cols]);
        if max {
            for (c, (o, &v)) in dst.iter_mut().zip(src).enumerate() {
                if v > *o {
                    *o = v;
                    won(to * cols + c, from);
                }
            }
        } else {
            dst.iter_mut().zip(src).for_each(|(o, &v)| *o += v);
            if red == Reduction::Mean {
                counts[to] += 1.0;
            }
        }
    }
    if red == Reduction::Mean {
        for (row, &n) in out
            .chunks_exact_mut(cols)
            .zip(counts.iter())
            .filter(|(_, &n)| n > 0.0)
        {
            row.iter_mut().for_each(|v| *v /= n);
        }
    } else if max {
        out.iter_mut()
            .filter(|v| **v == f32::NEG_INFINITY)
            .for_each(|v| *v = 0.0);
    }
}

/// `act(row + bias)` for every `bias.len()`-wide row of `out`, in place:
/// one loop per activation, so no element pays for the `match`.
pub(crate) fn bias_act(out: &mut [f32], bias: &[f32], act: Activation) {
    fn rows(out: &mut [f32], bias: &[f32], f: impl Fn(f32) -> f32) {
        for row in out.chunks_exact_mut(bias.len()) {
            row.iter_mut().zip(bias).for_each(|(o, &b)| *o = f(*o + b));
        }
    }
    match act {
        Activation::Identity => rows(out, bias, |x| Activation::Identity.eval(x)),
        Activation::Relu => rows(out, bias, |x| Activation::Relu.eval(x)),
        Activation::Tanh => rows(out, bias, |x| Activation::Tanh.eval(x)),
        Activation::Sigmoid => rows(out, bias, |x| Activation::Sigmoid.eval(x)),
    }
}

/// `row / max(‖row‖₂, L2_EPS)`, in place.
pub(crate) fn l2_normalize_row(row: &mut [f32]) {
    let norm = row.iter().map(|&x| x * x).sum::<f32>().sqrt().max(L2_EPS);
    row.iter_mut().for_each(|v| *v /= norm);
}

/// One LSTM element, `(c', h')` from the pre-activation gates and `c`,
/// rounded in the order the tape's ops round it.
fn lstm_cell(i: f32, f: f32, g: f32, o: f32, c: f32) -> (f32, f32) {
    let c_new = sigmoid(f) * c + sigmoid(i) * g.tanh();
    (c_new, sigmoid(o) * c_new.tanh())
}

/// The masked blend `new·m + old·(1 − m)`, `m` 1 or 0.
fn blend(new: f32, old: f32, on: bool) -> f32 {
    let m = if on { 1.0f32 } else { 0.0 };
    new * m + old * (1.0 - m)
}
