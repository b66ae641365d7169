//! Canonical hashing of computations for duplicate elimination.
//!
//! The fusion dataset pipeline (§5: "yielding 207 million fused kernels
//! (examples) after duplicate elimination") deduplicates kernels that are
//! structurally identical regardless of node names or the program they came
//! from. Two computations hash equal iff they have the same nodes (opcode,
//! dtype, shape, layout, attributes) wired identically, compared in a
//! canonical topological order.

use crate::graph::Computation;
use crate::kernel::Kernel;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn hash_node(c: &Computation, id: crate::NodeId, h: &mut DefaultHasher, order_pos: &[usize]) {
    let n = c.node(id);
    n.opcode.mnemonic().hash(h);
    n.dtype.index().hash(h);
    n.shape.dims().hash(h);
    n.layout.minor_to_major().hash(h);
    // Operands by canonical position.
    for &op in &n.operands {
        order_pos[op.index()].hash(h);
    }
    // Attributes that affect semantics/cost.
    if let Some(d) = &n.attrs.dot {
        (
            d.lhs_contracting,
            d.rhs_contracting,
            &d.lhs_batch,
            &d.rhs_batch,
        )
            .hash(h);
    }
    if let Some(cv) = &n.attrs.conv {
        (
            cv.filter_h,
            cv.filter_w,
            cv.stride_h,
            cv.stride_w,
            cv.pad_h,
            cv.pad_w,
            cv.feature_groups,
        )
            .hash(h);
    }
    n.attrs.reduce_dims.hash(h);
    n.attrs.transpose_perm.hash(h);
    n.attrs.broadcast_dims.hash(h);
    if let Some(s) = &n.attrs.slice {
        (&s.starts, &s.limits, &s.strides).hash(h);
    }
    if let Some(p) = &n.attrs.pad {
        p.dims.hash(h);
    }
    n.attrs.concat_dim.hash(h);
    n.attrs.window.hash(h);
    n.attrs.is_output.hash(h);
}

/// Hash a computation canonically: identical structure ⇒ identical hash,
/// independent of node names.
///
/// Because builder-produced graphs are id-topologically ordered, id order is
/// used as the canonical order. Collisions are possible but astronomically
/// unlikely for dedup purposes (64-bit).
///
/// # Example
///
/// ```
/// use tpu_hlo::{canonical_hash, DType, GraphBuilder, Shape};
/// let build = |pname: &str| {
///     let mut b = GraphBuilder::new(pname);
///     let x = b.parameter(pname, Shape::matrix(4, 4), DType::F32);
///     let y = b.tanh(x);
///     b.finish(y)
/// };
/// assert_eq!(canonical_hash(&build("a")), canonical_hash(&build("b")));
/// ```
pub fn canonical_hash(c: &Computation) -> u64 {
    let mut h = DefaultHasher::new();
    let order_pos: Vec<usize> = (0..c.num_nodes()).collect();
    c.num_nodes().hash(&mut h);
    order_pos[c.root().index()].hash(&mut h);
    for n in c.nodes() {
        hash_node(c, n.id, &mut h, &order_pos);
    }
    h.finish()
}

/// Hash a kernel: the computation hash combined with kind and tile size, so
/// the same sub-graph at two tile sizes is two distinct dataset examples.
pub fn kernel_hash(k: &Kernel) -> u64 {
    let mut h = DefaultHasher::new();
    canonical_hash(&k.computation).hash(&mut h);
    k.kind.index().hash(&mut h);
    if let Some(t) = &k.tile {
        t.dims().hash(&mut h);
    }
    h.finish()
}

/// Canonical hash of a [`Kernel`] — the key used for dataset duplicate
/// elimination (§5) and for prediction caching in the inference engine.
///
/// This is [`kernel_hash`] under its role-describing name: two kernels get
/// the same key iff they have structurally identical computations (same
/// opcodes, dtypes, shapes, layouts, attributes, and wiring — node names
/// excluded) *and* the same kernel kind and tile size. A cached prediction
/// for one is therefore valid for the other.
pub fn canonical_kernel_hash(k: &Kernel) -> u64 {
    kernel_hash(k)
}

/// A [`Kernel`] together with its [`canonical_kernel_hash`], computed once.
///
/// The prediction cache is keyed by that hash, and a cached value is only
/// valid if the key belongs to the kernel it was computed for. The one
/// constructor computes the hash and nothing hands out `&mut Kernel`, so a
/// key can never disagree with its kernel; code that scores the same
/// kernels again and again (the autotuner's searchers) carries the pair
/// instead of re-hashing.
#[derive(Debug, Clone, PartialEq)]
pub struct HashedKernel {
    kernel: Kernel,
    hash: u64,
}

impl HashedKernel {
    /// Hash `kernel` and keep the two together.
    pub fn new(kernel: Kernel) -> HashedKernel {
        let hash = canonical_kernel_hash(&kernel);
        HashedKernel { kernel, hash }
    }

    /// The kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Its canonical hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::dtype::DType;
    use crate::kernel::TileSize;
    use crate::shape::Shape;

    fn graph(cols: usize) -> Computation {
        let mut b = GraphBuilder::new("g");
        let x = b.parameter("x", Shape::matrix(4, cols), DType::F32);
        let y = b.exp(x);
        b.finish(y)
    }

    #[test]
    fn equal_structure_equal_hash() {
        assert_eq!(canonical_hash(&graph(8)), canonical_hash(&graph(8)));
    }

    #[test]
    fn different_shape_different_hash() {
        assert_ne!(canonical_hash(&graph(8)), canonical_hash(&graph(16)));
    }

    #[test]
    fn names_do_not_matter() {
        let mut b1 = GraphBuilder::new("one");
        let x = b1.parameter("alpha", Shape::matrix(2, 2), DType::F32);
        let y = b1.tanh(x);
        let c1 = b1.finish(y);
        let mut b2 = GraphBuilder::new("two");
        let x = b2.parameter("beta", Shape::matrix(2, 2), DType::F32);
        let y = b2.tanh(x);
        let c2 = b2.finish(y);
        assert_eq!(canonical_hash(&c1), canonical_hash(&c2));
    }

    #[test]
    fn opcode_matters() {
        let mut b = GraphBuilder::new("g");
        let x = b.parameter("x", Shape::matrix(4, 8), DType::F32);
        let y = b.tanh(x);
        let c = b.finish(y);
        assert_ne!(canonical_hash(&graph(8)), canonical_hash(&c));
    }

    #[test]
    fn tile_size_distinguishes_kernels() {
        let k1 = crate::Kernel::new(graph(8)).with_tile(TileSize(vec![8, 4]));
        let k2 = crate::Kernel::new(graph(8)).with_tile(TileSize(vec![4, 4]));
        let k3 = crate::Kernel::new(graph(8));
        assert_ne!(kernel_hash(&k1), kernel_hash(&k2));
        assert_ne!(kernel_hash(&k1), kernel_hash(&k3));
    }

    #[test]
    fn hashed_kernel_key_is_the_canonical_hash_of_its_kernel() {
        let untiled = crate::Kernel::new(graph(8));
        let tiled = untiled.clone().with_tile(TileSize(vec![8, 4]));
        let (hu, ht) = (
            HashedKernel::new(untiled.clone()),
            HashedKernel::new(tiled.clone()),
        );
        assert_eq!(hu.hash(), canonical_kernel_hash(&untiled));
        assert_eq!(ht.hash(), canonical_kernel_hash(&tiled));
        assert_ne!(hu.hash(), ht.hash(), "a tiled variant is a different key");
        assert_eq!(ht.kernel(), &tiled);
    }
}
