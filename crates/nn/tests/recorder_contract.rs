//! The recorder contract: every [`Recorder`] op gives the same `f32`s,
//! `to_bits`, whether the [`Tape`] records it or [`NoTape`] evaluates it
//! (with the matmul kernel's zero skip off and on), and [`ArenaLen`]'s
//! shape pass asks for exactly the arena `NoTape` fills.
//!
//! Inputs are drawn from values that expose a second arithmetic: zeros
//! of both signs, subnormals, values whose row norm falls below `L2_EPS`,
//! and ordinary magnitudes. Graphs are random disjoint unions with empty
//! kernels and nodes that have no neighbours.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;
use tpu_nn::{
    Activation, ArenaLen, Embedding, Graph, Linear, LstmCell, NoTape, ParamStore, Recorder,
    Reduction, Tape,
};

/// splitmix64: the test's own value stream, from one proptest seed.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A value from the awkward set or an ordinary one.
    fn value(&mut self) -> f32 {
        const AWKWARD: [f32; 8] = [0.0, -0.0, 1e-45, -3e-45, 1e-39, -1e-39, 3e-7, -2e-7];
        if self.below(3) == 0 {
            AWKWARD[self.below(AWKWARD.len())]
        } else {
            (self.below(2001) as f32 - 1000.0) / 400.0
        }
    }

    fn fill(&mut self, xs: &mut [f32]) {
        xs.iter_mut().for_each(|x| *x = self.value());
    }
}

/// One of everything an op reads: a graph and the layers over it.
struct Case {
    store: ParamStore,
    table: Embedding,
    relu: Linear,
    head: Linear,
    cell: LstmCell,
    opcode_ids: Vec<usize>,
    features: Vec<f32>,
    edges: Vec<(usize, usize)>,
    kernel_nodes: Vec<Range<usize>>,
}

const FEATURES: usize = 3;

impl Case {
    fn new(seed: u64) -> Case {
        let mut s = Stream(seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let (vocab, d, h) = (5, 2 + s.below(3), 1 + s.below(6));
        let table = Embedding::new(&mut store, "emb", vocab, d, &mut rng);
        let width = d + FEATURES;
        let relu = Linear::new(&mut store, "relu", width, h, Activation::Relu, &mut rng);
        let head = Linear::new(&mut store, "head", h, 1, Activation::Identity, &mut rng);
        let cell = LstmCell::new(&mut store, "lstm", width, h, &mut rng);
        let ids: Vec<_> = store.ids().collect();
        for id in ids {
            s.fill(store.value_mut(id).data_mut());
        }

        // Kernels of 0..=4 nodes, the empty ones included.
        let mut kernel_nodes = Vec::new();
        let mut n = 0;
        for _ in 0..1 + s.below(4) {
            let len = s.below(5);
            kernel_nodes.push(n..n + len);
            n += len;
        }
        let mut edges = Vec::new();
        for k in &kernel_nodes {
            for _ in 0..s.below(2 * k.len() + 1) {
                edges.push((k.start + s.below(k.len()), k.start + s.below(k.len())));
            }
        }
        let mut features = vec![0.0; n * FEATURES];
        s.fill(&mut features);
        Case {
            store,
            table,
            relu,
            head,
            cell,
            opcode_ids: (0..n).map(|_| s.below(vocab)).collect(),
            features,
            edges,
            kernel_nodes,
        }
    }

    fn graph(&self) -> Graph<'_> {
        Graph {
            opcode_ids: &self.opcode_ids,
            features: &self.features,
            feature_dim: FEATURES,
            edges: &self.edges,
            kernel_nodes: &self.kernel_nodes,
        }
    }

    /// Every op once, in place where the recorder may work in place,
    /// each result read right after it is made.
    fn run<R: Recorder>(
        &self,
        r: &mut R,
        read: impl Fn(&R, R::Value) -> Vec<u32>,
    ) -> Vec<Vec<u32>> {
        let (store, g) = (&self.store, &self.graph());
        let mut out = Vec::new();
        let x = r.embed(store, &self.table, g);
        out.push(read(r, x));
        let y = r.linear(store, &self.relu, x);
        out.push(read(r, y));
        let reds = [Reduction::Sum, Reduction::Mean, Reduction::Max];
        let aggs = reds.map(|red| r.aggregate(y, g, red));
        let pools = reds.map(|red| r.pool(y, g, red));
        for v in aggs.iter().chain(&pools) {
            out.push(read(r, *v));
        }
        let cat = r.concat(&[y, aggs[2], x]);
        out.push(read(r, cat));

        let mark = r.mark();
        let fresh = r.linear(store, &self.relu, x);
        let unit = r.l2_normalize(fresh);
        out.push(read(r, unit));
        let kept = r.keep(mark, unit);
        out.push(read(r, kept));
        let shifted = r.add_scalar(kept, 0.75);
        out.push(read(r, shifted));
        let half = r.half_sum(aggs[0], y);
        out.push(read(r, half));

        // One step past the longest kernel, where every kernel is masked
        // off (there must be a node 0 to feed them).
        let steps = g.max_len() + usize::from(g.num_nodes() > 0);
        let mut state = r.lstm_zero_state(&self.cell, g);
        out.push(read(r, state.h));
        for t in 0..steps {
            state = r.lstm_step(store, &self.cell, x, state, g, t);
            out.push(read(r, state.h));
            out.push(read(r, state.c));
        }
        let pred = r.linear(store, &self.head, state.h);
        out.push(read(r, pred));
        out
    }
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn no_tape<const SKIP_ZEROS: bool>(case: &Case) -> (Vec<Vec<u32>>, usize) {
    let mut r = NoTape::<SKIP_ZEROS>::with_len(0);
    let values = case.run(&mut r, |r, v| bits(r.value(v)));
    (values, r.high_water())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_op_is_the_tapes_bit_for_bit(seed in any::<u64>()) {
        let case = Case::new(seed);
        let taped = case.run(&mut Tape::new(), |t, v| bits(t.value(v).data()));
        let (plain, high) = no_tape::<false>(&case);
        let (skipping, _) = no_tape::<true>(&case);
        prop_assert!(plain == taped, "seed {}: NoTape differs from the tape", seed);
        prop_assert!(skipping == taped, "seed {}: the zero skip differs from the tape", seed);

        let mut shapes = ArenaLen::with_len(0);
        case.run(&mut shapes, |_, _| Vec::new());
        prop_assert_eq!(shapes.high_water(), high);
    }
}

#[test]
fn an_empty_kernel_pools_to_zeros_and_a_lonely_node_aggregates_to_zeros() {
    let mut case = Case::new(7);
    case.kernel_nodes = vec![0..0, 0..2, 2..2];
    case.opcode_ids.resize(2, 0);
    case.features.resize(2 * FEATURES, 1.0);
    case.edges.clear();
    let mut r = NoTape::<false>::with_len(0);
    let g = case.graph();
    let x = r.embed(&case.store, &case.table, &g);
    for red in [Reduction::Sum, Reduction::Mean, Reduction::Max] {
        let agg = r.aggregate(x, &g, red);
        assert!(r.value(agg).iter().all(|v| v.to_bits() == 0), "{red:?}");
        let pool = r.pool(x, &g, red);
        let cols = r.value(x).len() / 2;
        let pooled = r.value(pool);
        assert!(pooled[..cols]
            .iter()
            .chain(&pooled[2 * cols..])
            .all(|v| v.to_bits() == 0));
    }
}
