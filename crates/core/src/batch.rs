//! Dataset samples, pre-featurized kernels, and graph batching.

use crate::features::{kernel_features, FEATURE_DIM};
use std::ops::Range;
use tpu_hlo::{Computation, Kernel};
use tpu_nn::{Graph, Tensor};

/// One dataset example: a kernel and its measured runtime.
///
/// `group` identifies which kernel a tile-size sample belongs to, so the
/// rank loss can be restricted to within-kernel pairs (§4.2: "grouping
/// samples of different tile sizes of the same kernel into the same
/// batch"). For the fusion task every sample is its own group.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The kernel (with tile attached for tile-size samples).
    pub kernel: Kernel,
    /// Measured runtime in nanoseconds (min of 3 runs).
    pub runtime_ns: f64,
    /// Group id for within-kernel ranking.
    pub group: usize,
}

impl Sample {
    /// A fusion-task sample (its own group).
    pub fn new(kernel: Kernel, runtime_ns: f64) -> Sample {
        Sample {
            kernel,
            runtime_ns,
            group: usize::MAX,
        }
    }

    /// A tile-task sample belonging to kernel-group `group`.
    pub fn grouped(kernel: Kernel, runtime_ns: f64, group: usize) -> Sample {
        Sample {
            kernel,
            runtime_ns,
            group,
        }
    }
}

/// A kernel pre-featurized for training: opcode ids, feature matrix, and
/// directed edges. Featurization is done once, not per epoch.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Opcode embedding indices per node.
    pub opcode_ids: Vec<usize>,
    /// `N×FEATURE_DIM` feature matrix.
    pub features: Tensor,
    /// Directed edges (producer index, consumer index), sorted and
    /// deduplicated.
    pub edges: Vec<(usize, usize)>,
    /// Target: runtime in ns.
    pub runtime_ns: f64,
    /// Group id (see [`Sample::group`]).
    pub group: usize,
}

impl Prepared {
    /// Featurize a sample.
    pub fn from_sample(s: &Sample) -> Prepared {
        let mut p = Prepared::from_kernel(&s.kernel);
        p.runtime_ns = s.runtime_ns;
        p.group = s.group;
        p
    }

    /// Featurize a bare kernel (no measured target; its own group).
    ///
    /// This is the inference-path entry point: featurization is a pure
    /// function of the kernel, so the result is identical whether computed
    /// here or via [`Prepared::from_sample`].
    pub fn from_kernel(kernel: &Kernel) -> Prepared {
        let (opcode_ids, features) = kernel_features(kernel);
        Prepared {
            opcode_ids,
            features,
            edges: operand_edges(&kernel.computation),
            runtime_ns: 0.0,
            group: usize::MAX,
        }
    }

    /// Featurize a slice of samples, in order.
    pub fn from_samples(samples: &[Sample]) -> Vec<Prepared> {
        samples.iter().map(Prepared::from_sample).collect()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.opcode_ids.len()
    }

    /// This kernel as a one-kernel [`Graph`]; `whole` is its one node
    /// range, `0..num_nodes()`.
    pub fn graph<'a>(&'a self, whole: &'a Range<usize>) -> Graph<'a> {
        debug_assert_eq!(*whole, 0..self.num_nodes());
        Graph {
            opcode_ids: &self.opcode_ids,
            features: self.features.data(),
            feature_dim: FEATURE_DIM,
            edges: &self.edges,
            kernel_nodes: std::slice::from_ref(whole),
        }
    }
}

/// `(operand, user)` for every operand edge of `c`, sorted, an operand
/// that one user takes twice counted once: the undirected neighbor
/// relation of the paper's Eq. 1, which the GNN reads both ways.
fn operand_edges(c: &Computation) -> Vec<(usize, usize)> {
    let mut edges = Vec::with_capacity(c.num_edges());
    for node in c.nodes() {
        let user = node.id.index();
        edges.extend(node.operands.iter().map(|op| (op.index(), user)));
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Extract a contiguous BFS segment of a large graph (TpuGraphs-style
/// segment training): up to `max_nodes` nodes grown breadth-first from a
/// seeded start over the undirected edge set, induced as a subgraph with
/// the surviving nodes kept in their original (topological) order. The
/// runtime target is scaled by the kept node fraction so segment losses
/// stay on the whole-graph scale. Graphs already within `max_nodes` are
/// returned unchanged.
///
/// Purely a function of `(p, max_nodes, seed)`, so segment training
/// repeats bit for bit.
pub(crate) fn bfs_segment(p: &Prepared, max_nodes: usize, seed: u64) -> Prepared {
    let n = p.num_nodes();
    if max_nodes == 0 || n <= max_nodes {
        return p.clone();
    }
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in &p.edges {
        adj[a].push(b);
        adj[b].push(a);
    }
    for l in &mut adj {
        l.sort_unstable();
        l.dedup();
    }
    let mut visited = vec![false; n];
    let mut taken = 0usize;
    let mut queue = std::collections::VecDeque::new();
    let mut scan = (seed % n as u64) as usize;
    'grow: while taken < max_nodes {
        // Seed a BFS root at the next unvisited index (wrapping scan);
        // one always exists while taken < max_nodes < n.
        while visited[scan] {
            scan = (scan + 1) % n;
        }
        visited[scan] = true;
        taken += 1;
        if taken >= max_nodes {
            break;
        }
        queue.push_back(scan);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if !visited[v] {
                    visited[v] = true;
                    taken += 1;
                    queue.push_back(v);
                    if taken >= max_nodes {
                        break 'grow;
                    }
                }
            }
        }
    }

    let keep: Vec<usize> = (0..n).filter(|&i| visited[i]).collect();
    let mut remap = vec![usize::MAX; n];
    for (new, &old) in keep.iter().enumerate() {
        remap[old] = new;
    }
    let mut data = Vec::with_capacity(keep.len() * FEATURE_DIM);
    let src = p.features.data();
    for &old in &keep {
        data.extend_from_slice(&src[old * FEATURE_DIM..(old + 1) * FEATURE_DIM]);
    }
    let edges: Vec<(usize, usize)> = p
        .edges
        .iter()
        .filter(|&&(a, b)| visited[a] && visited[b])
        .map(|&(a, b)| (remap[a], remap[b]))
        .collect();
    let frac = keep.len() as f64 / n as f64;
    Prepared {
        opcode_ids: keep.iter().map(|&i| p.opcode_ids[i]).collect(),
        features: Tensor::from_vec(keep.len(), FEATURE_DIM, data),
        edges,
        runtime_ns: p.runtime_ns * frac,
        group: p.group,
    }
}

/// Several prepared kernels packed into one disjoint graph.
#[derive(Debug, Clone)]
pub struct GraphBatch {
    /// Opcode ids for all nodes of all kernels.
    pub opcode_ids: Vec<usize>,
    /// `N_total × FEATURE_DIM` stacked features.
    pub features: Tensor,
    /// Directed edges with batch-global node indices.
    pub edges: Vec<(usize, usize)>,
    /// Per-kernel node index ranges, in topological order (for the LSTM
    /// baseline's sequences): each kernel's nodes are contiguous.
    pub kernel_nodes: Vec<Range<usize>>,
    /// Per-kernel targets, ns.
    pub targets_ns: Vec<f64>,
    /// Per-kernel group ids.
    pub groups: Vec<usize>,
}

impl GraphBatch {
    /// Pack prepared kernels into a batch, or `None` for an empty slice.
    ///
    /// The empty case is not an error: a prediction batch whose kernels all
    /// hit the cache legitimately has nothing left to forward, and a serving
    /// path must not abort the process for it.
    pub fn pack(items: &[&Prepared]) -> Option<GraphBatch> {
        if items.is_empty() {
            return None;
        }
        let total_nodes: usize = items.iter().map(|p| p.num_nodes()).sum();
        let mut opcode_ids = Vec::with_capacity(total_nodes);
        let mut data = Vec::with_capacity(total_nodes * FEATURE_DIM);
        let mut edges = Vec::new();
        let mut kernel_nodes = Vec::with_capacity(items.len());
        let mut targets_ns = Vec::with_capacity(items.len());
        let mut groups = Vec::with_capacity(items.len());

        let mut offset = 0usize;
        for p in items {
            opcode_ids.extend_from_slice(&p.opcode_ids);
            data.extend_from_slice(p.features.data());
            for &(a, b) in &p.edges {
                edges.push((a + offset, b + offset));
            }
            kernel_nodes.push(offset..offset + p.num_nodes());
            targets_ns.push(p.runtime_ns);
            groups.push(p.group);
            offset += p.num_nodes();
        }

        Some(GraphBatch {
            opcode_ids,
            features: Tensor::from_vec(total_nodes, FEATURE_DIM, data),
            edges,
            kernel_nodes,
            targets_ns,
            groups,
        })
    }

    /// The batch as the [`Graph`] a forward runs over.
    pub fn graph(&self) -> Graph<'_> {
        Graph {
            opcode_ids: &self.opcode_ids,
            features: self.features.data(),
            feature_dim: FEATURE_DIM,
            edges: &self.edges,
            kernel_nodes: &self.kernel_nodes,
        }
    }

    /// Number of kernels in the batch.
    pub fn num_kernels(&self) -> usize {
        self.targets_ns.len()
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.opcode_ids.len()
    }

    /// Log-transformed targets as an `[B×1]` tensor (§4.2's fusion-task
    /// target transform).
    pub fn log_targets(&self) -> Tensor {
        Tensor::from_vec(
            self.targets_ns.len(),
            1,
            self.targets_ns
                .iter()
                .map(|&t| (t.max(1.0)).ln() as f32)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_hlo::{DType, GraphBuilder, Shape};

    fn sample(cols: usize) -> Sample {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(8, cols), DType::F32);
        let t = b.tanh(x);
        let e = b.exp(t);
        Sample::new(Kernel::new(b.finish(e)), 5_000.0)
    }

    #[test]
    fn prepared_has_edges_and_features() {
        let p = Prepared::from_sample(&sample(128));
        assert_eq!(p.num_nodes(), 3);
        assert_eq!(p.edges.len(), 2);
        assert_eq!(p.features.shape(), (3, FEATURE_DIM));
    }

    #[test]
    fn edges_are_the_operand_relation_sorted_and_distinct() {
        // x -> exp -> add <- tanh <- x, then add(x, x): an operand one
        // user takes twice is one edge, not two.
        let mut b = GraphBuilder::new("diamond");
        let x = b.parameter("x", Shape::matrix(4, 4), DType::F32);
        let e = b.exp(x);
        let t = b.tanh(x);
        let a = b.add(e, t);
        let twice = b.add(a, a);
        let p = Prepared::from_kernel(&Kernel::new(b.finish(twice)));
        assert_eq!(p.edges, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
    }

    #[test]
    fn pack_offsets_edges() {
        let p1 = Prepared::from_sample(&sample(128));
        let p2 = Prepared::from_sample(&sample(256));
        let b = GraphBatch::pack(&[&p1, &p2]).unwrap();
        assert_eq!(b.num_nodes(), 6);
        assert_eq!(b.num_kernels(), 2);
        assert_eq!(b.edges.len(), 4);
        // Second kernel's edges offset by 3.
        assert!(b.edges.contains(&(3, 4)));
        assert_eq!(b.kernel_nodes, vec![0..3, 3..6]);
    }

    #[test]
    fn log_targets_transform() {
        let p = Prepared::from_sample(&sample(128));
        let b = GraphBatch::pack(&[&p]).unwrap();
        let lt = b.log_targets();
        assert!((lt.item() - 5000.0_f32.ln()).abs() < 1e-4);
    }

    #[test]
    fn pack_of_empty_slice_is_none() {
        // Regression: an all-cache-hit prediction batch has no misses left
        // to pack; this must be a quiet `None`, not a panic.
        assert!(GraphBatch::pack(&[]).is_none());
    }

    #[test]
    fn grouped_sample_keeps_group() {
        let s = Sample::grouped(sample(64).kernel, 100.0, 7);
        let p = Prepared::from_sample(&s);
        assert_eq!(p.group, 7);
    }

    fn chain_prepared(len: usize) -> Prepared {
        let mut b = GraphBuilder::new("k");
        let mut h = b.parameter("x", Shape::matrix(8, 64), DType::F32);
        for _ in 0..len {
            h = b.tanh(h);
        }
        Prepared::from_sample(&Sample::new(Kernel::new(b.finish(h)), 64_000.0))
    }

    #[test]
    fn bfs_segment_respects_cap_and_scales_target() {
        let p = chain_prepared(63); // 64 nodes
        let s = bfs_segment(&p, 16, 3);
        assert_eq!(s.num_nodes(), 16);
        // Edges stay in-range and only connect kept nodes.
        for &(a, b) in &s.edges {
            assert!(a < 16 && b < 16);
        }
        // A contiguous chain segment of 16 nodes has 15 internal edges.
        assert_eq!(s.edges.len(), 15);
        let frac = 16.0 / 64.0;
        assert_eq!(s.runtime_ns.to_bits(), (p.runtime_ns * frac).to_bits());
        assert_eq!(s.group, p.group);
        assert_eq!(s.features.shape(), (16, FEATURE_DIM));
    }

    #[test]
    fn bfs_segment_small_graph_is_identity() {
        let p = chain_prepared(7);
        let s = bfs_segment(&p, 100, 9);
        assert_eq!(s.num_nodes(), p.num_nodes());
        assert_eq!(s.edges, p.edges);
        assert_eq!(s.runtime_ns.to_bits(), p.runtime_ns.to_bits());
    }

    #[test]
    fn bfs_segment_is_seed_deterministic_and_seed_sensitive() {
        let p = chain_prepared(127);
        let a = bfs_segment(&p, 32, 5);
        let b = bfs_segment(&p, 32, 5);
        assert_eq!(a.opcode_ids, b.opcode_ids);
        assert_eq!(a.edges, b.edges);
        assert_eq!(
            a.features
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            b.features
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
        // A far-away seed starts the segment elsewhere on the chain: the
        // seed-5 segment reaches the parameter node, the seed-77 one is
        // all tanh.
        let c = bfs_segment(&p, 32, 77);
        assert_ne!(
            a.opcode_ids, c.opcode_ids,
            "different seeds should pick different segments"
        );
    }
}
