//! Canonical hashing of computations for duplicate elimination.
//!
//! The fusion dataset pipeline (§5: "yielding 207 million fused kernels
//! (examples) after duplicate elimination") deduplicates kernels that are
//! structurally identical regardless of node names or the program they came
//! from. Two computations hash equal iff they have the same nodes (opcode,
//! dtype, shape, layout, cost-bearing attributes) wired identically,
//! compared in a canonical topological order.
//!
//! # What the key leaves out
//!
//! Node names, the computation's name and the comparison direction
//! ([`OpAttrs::Compare`]) are not hashed: kernels that differ only in them
//! share a key, so they are one dataset example and one cache slot. That
//! is sound because nothing that prices a kernel reads them — the
//! featurizer, the simulator and the analytical model see the same kernel
//! either way (the root `canonical_hash` suite pins this for the
//! comparison). A cost that starts reading one of them must add it to the
//! key first.
//!
//! # One write per key
//!
//! A key is SipHash-1-3 ([`DefaultHasher`]) over a byte stream gathered
//! into one buffer and written once. The stream is the one the derived
//! `Hash` impls of the same fields would feed the hasher call by call: a
//! `usize` as its native-endian bytes, a slice as its length and then its
//! elements, the opcode mnemonic as its bytes and then `0xff`, an `Option`
//! as its `isize` discriminant and then its payload, a `bool` as one byte.
//! SipHash's digest depends only on the concatenated stream, not on how
//! it was split into writes, so the keys are the per-field hash's keys.
//! The attributes are written as the eleven fields every node carried
//! before each opcode held its own ([`OpAttrs`]): an empty list for each
//! index list a node does not hold, nothing for an absent dot,
//! convolution, slice or pad, a `None` tag for an absent concatenation
//! dimension or window. So every key is the key it was.
//! The kernel level — a computation's key, its kind, its tile — is a few
//! words, written as they come, with no buffer.
//!
//! # Keys of sub-graphs, in place
//!
//! [`Computation::subgraph_kernel_hash`] writes that same stream for the
//! kernel [`Computation::extract_subgraph`] would build, from the walk that
//! builds it, without building anything: the count and root index lead the
//! stream, so their bytes are written last, over two placeholder words —
//! which is why the stream is gathered rather than fed to the hasher as it
//! is walked. A caller that keys many groups keeps one [`KeyScratch`] for
//! them: the stream's buffer and the walk's id tables, which
//! [`Computation::extract_subgraph`] works in too.

use crate::attrs::OpAttrs;
use crate::graph::{Computation, SubgraphSink, WalkTables};
use crate::kernel::{Kernel, KernelKind, KindTally};
use crate::node::{Node, NodeId};
use crate::opcode::Opcode;
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

/// The byte stream of one key, written to SipHash in one call.
struct KeyBytes(Vec<u8>);

impl KeyBytes {
    fn with_capacity(bytes: usize) -> KeyBytes {
        KeyBytes(Vec::with_capacity(bytes))
    }

    /// An empty stream that writes into `buffer`'s allocation.
    fn reusing(buffer: &mut Vec<u8>) -> KeyBytes {
        let mut bytes = std::mem::take(buffer);
        bytes.clear();
        KeyBytes(bytes)
    }

    fn usize(&mut self, v: usize) {
        self.0.extend_from_slice(&v.to_ne_bytes());
    }

    fn usizes(&mut self, vs: &[usize]) {
        self.usize(vs.len());
        for &v in vs {
            self.usize(v);
        }
    }

    /// An `Option`'s discriminant: 0 for `None`, 1 for `Some`.
    fn tag(&mut self, some: bool) {
        self.0.extend_from_slice(&isize::from(some).to_ne_bytes());
    }

    fn finish(&self) -> u64 {
        let mut h = DefaultHasher::new();
        h.write(&self.0);
        h.finish()
    }

    fn node(&mut self, n: &Node) {
        self.head(n.opcode, n);
        self.operands(&n.operands);
        self.attrs(&n.attrs, n.is_output);
    }

    /// A node's opcode, then the dtype, shape and layout of `value`.
    fn head(&mut self, opcode: Opcode, value: &Node) {
        self.0.extend_from_slice(opcode.mnemonic().as_bytes());
        self.0.push(0xff);
        self.usize(value.dtype.index());
        self.usizes(value.shape.dims());
        self.usizes(value.layout.minor_to_major());
    }

    /// Operands by canonical position, which is the id.
    fn operands(&mut self, operands: &[NodeId]) {
        for &op in operands {
            self.usize(op.index());
        }
    }

    /// Attributes that affect semantics/cost, with `is_output` in place of
    /// the node's flag, as the eleven fields nodes carried before each
    /// opcode held its own.
    fn attrs(&mut self, a: &OpAttrs, is_output: bool) {
        let a = a.fields(is_output);
        // An absent dot, conv, slice or pad writes nothing, not a
        // discriminant.
        if let Some(d) = a.dot {
            self.usize(d.lhs_contracting);
            self.usize(d.rhs_contracting);
            self.usizes(&d.lhs_batch);
            self.usizes(&d.rhs_batch);
        }
        if let Some(cv) = a.conv {
            for v in [
                cv.filter_h,
                cv.filter_w,
                cv.stride_h,
                cv.stride_w,
                cv.pad_h.0,
                cv.pad_h.1,
                cv.pad_w.0,
                cv.pad_w.1,
                cv.feature_groups,
            ] {
                self.usize(v);
            }
        }
        self.usizes(a.reduce_dims);
        self.usizes(a.transpose_perm);
        self.usizes(a.broadcast_dims);
        if let Some(s) = a.slice {
            self.usizes(&s.starts);
            self.usizes(&s.limits);
            self.usizes(&s.strides);
        }
        if let Some(p) = a.pad {
            self.usize(p.dims.len());
            for &(lo, hi, interior) in &p.dims {
                self.usize(lo);
                self.usize(hi);
                self.usize(interior);
            }
        }
        self.tag(a.concat_dim.is_some());
        if let Some(d) = a.concat_dim {
            self.usize(d);
        }
        self.tag(a.window.is_some());
        if let Some((h, w, sh, sw)) = a.window {
            for v in [h, w, sh, sw] {
                self.usize(v);
            }
        }
        self.0.push(u8::from(a.is_output));
    }
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
    // Room for rank-2 nodes with two operands each; a larger graph regrows.
    let mut b = KeyBytes::with_capacity(16 + 128 * c.num_nodes());
    b.usize(c.num_nodes());
    b.usize(c.root().index());
    for n in c.nodes() {
        b.node(n);
    }
    b.finish()
}

/// Canonical hash of a [`Kernel`] — the key used for dataset duplicate
/// elimination (§5) and for prediction caching in the inference engine.
///
/// The computation hash combined with the kernel kind and tile size: two
/// kernels get the same key iff they have structurally identical
/// computations (same opcodes, dtypes, shapes, layouts, attributes, and
/// wiring — node names and the comparison direction excluded, see the
/// module docs) *and* the same kind and tile size, so the same sub-graph
/// at two tile sizes is two distinct dataset examples, and a cached
/// prediction for one kernel is valid for any other with its key.
pub fn canonical_kernel_hash(k: &Kernel) -> u64 {
    let tile = k.tile.as_ref().map(|t| t.dims());
    kernel_key(canonical_hash(&k.computation), k.kind, tile)
}

/// The key of a kernel from the canonical hash of its computation, its
/// kind and its tile.
fn kernel_key(computation: u64, kind: KernelKind, tile: Option<&[usize]>) -> u64 {
    // A few words, fed to the hasher as they come: the digest is the one
    // their concatenation gives, and nothing is allocated.
    let mut h = DefaultHasher::new();
    h.write(&computation.to_ne_bytes());
    h.write(&kind.index().to_ne_bytes());
    // No tile writes nothing, not a discriminant.
    if let Some(dims) = tile {
        h.write(&dims.len().to_ne_bytes());
        for &d in dims {
            h.write(&d.to_ne_bytes());
        }
    }
    h.finish()
}

/// The buffers [`Computation::subgraph_kernel_hash`] and
/// [`Computation::extract_subgraph`] work in, kept by a caller that keys
/// or extracts many sub-graphs.
#[derive(Default)]
pub struct KeyScratch {
    bytes: Vec<u8>,
    pub(crate) walk: WalkTables,
    /// The nodes of an extraction, staged before they move into a list of
    /// their exact count.
    pub(crate) nodes: Vec<Node>,
}

/// The sink of [`Computation::walk_subgraph`] that writes, node by node,
/// the bytes [`canonical_hash`] would write for the sub-computation, and
/// tallies its kind.
struct KeyWriter {
    bytes: KeyBytes,
    kind: KindTally,
    root: Opcode,
}

impl SubgraphSink for KeyWriter {
    fn import(&mut self, ext: &Node, _id: NodeId) {
        self.bytes.head(Opcode::Parameter, ext);
        self.bytes.attrs(&OpAttrs::None, false);
        self.kind.add(Opcode::Parameter);
    }

    fn member(&mut self, node: &Node, _id: NodeId, operands: &[NodeId], is_root: bool) {
        self.bytes.head(node.opcode, node);
        self.bytes.operands(operands);
        self.bytes.attrs(&node.attrs, node.is_output || is_root);
        self.kind.add(node.opcode);
        if is_root {
            self.root = node.opcode;
        }
    }
}

impl Computation {
    /// The [`canonical_kernel_hash`] of the untiled kernel over
    /// [`Self::extract_subgraph`] of `members` — the key a fusion group's
    /// kernel is cached under — computed in place, without building the
    /// sub-computation: the one walk that builds it writes its key bytes
    /// instead.
    ///
    /// The bytes and the walk's tables live in `scratch`: a caller that
    /// keys many groups passes the same one each time, and once its buffers
    /// have grown to the largest group, keying allocates nothing.
    ///
    /// # Panics
    ///
    /// As [`Self::extract_subgraph`].
    pub fn subgraph_kernel_hash(
        &self,
        members: &[NodeId],
        root_of_subgraph: NodeId,
        scratch: &mut KeyScratch,
    ) -> u64 {
        let mut key = KeyWriter {
            bytes: KeyBytes::reusing(&mut scratch.bytes),
            kind: KindTally::default(),
            root: Opcode::Parameter,
        };
        // The node count and root index lead the stream, and are known
        // once the walk is done.
        key.bytes.usize(0);
        key.bytes.usize(0);
        let (nodes, root) =
            self.walk_subgraph(members, root_of_subgraph, &mut key, &mut scratch.walk);
        let word = std::mem::size_of::<usize>();
        key.bytes.0[..word].copy_from_slice(&nodes.to_ne_bytes());
        key.bytes.0[word..2 * word].copy_from_slice(&root.index().to_ne_bytes());
        let hash = key.bytes.finish();
        scratch.bytes = key.bytes.0;
        kernel_key(hash, key.kind.kind(key.root), None)
    }
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

    /// The kernel, without its hash.
    pub fn into_kernel(self) -> Kernel {
        self.kernel
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
        assert_ne!(canonical_kernel_hash(&k1), canonical_kernel_hash(&k2));
        assert_ne!(canonical_kernel_hash(&k1), canonical_kernel_hash(&k3));
    }

    #[test]
    fn hashes_keep_their_recorded_values() {
        // Recorded before `canonical_hash` stopped building an identity
        // position table per call: the same values are hashed, so every
        // dataset key and cache key is unchanged.
        let mut b = GraphBuilder::new("mlp");
        let x = b.parameter("x", Shape::matrix(16, 32), DType::F32);
        let w = b.parameter("w", Shape::matrix(32, 8), DType::F32);
        let d = b.dot(x, w);
        let t = b.tanh(d);
        let s = b.add(d, t);
        let r = b.reduce(s, vec![0]);
        let mlp = b.finish(r);
        let tiled = crate::Kernel::new(graph(8)).with_tile(TileSize(vec![8, 4]));
        let got = [
            canonical_hash(&graph(8)),
            canonical_hash(&mlp),
            canonical_kernel_hash(&crate::Kernel::new(graph(8))),
            canonical_kernel_hash(&tiled),
            canonical_kernel_hash(&crate::Kernel::new(mlp.clone())),
            canonical_kernel_hash(&crate::Kernel::new(mlp).with_tile(TileSize(vec![8, 128]))),
        ];
        assert_eq!(
            got,
            [
                0x9b3e_ef3d_930c_b8b9,
                0x39d5_8d7b_b964_b7de,
                0x0d35_8222_d774_68b2,
                0x1bc6_2887_48ba_8314,
                0xf6f2_a59e_22cf_e96e,
                0x1e4a_52bc_e658_f46a,
            ]
        );
    }

    #[test]
    fn a_subgraph_key_is_the_key_of_the_extracted_kernel() {
        // A dot with a fused producer, a shared operand and a reduce: every
        // sub-set of members that contains its root and is closed under
        // nothing in particular, in any member order.
        let mut b = GraphBuilder::new("mlp");
        let x = b.parameter("x", Shape::matrix(16, 32), DType::F32);
        let w = b.parameter("w", Shape::matrix(32, 8), DType::F32);
        let t = b.tanh(x);
        let d = b.dot(t, w);
        let e = b.exp(d);
        let s = b.add(d, e);
        let r = b.reduce(s, vec![0]);
        let c = b.finish(r);
        let ops = [t, d, e, s, r];
        let mut scratch = KeyScratch::default();
        for bits in 1u32..1 << ops.len() {
            let members: Vec<NodeId> = (0..ops.len())
                .filter(|&i| bits >> i & 1 == 1)
                .map(|i| ops[i])
                .collect();
            for &root in &members {
                let kernel = crate::Kernel::new(c.extract_subgraph(&members, root, &mut scratch));
                let mut reversed = members.clone();
                reversed.reverse();
                // One scratch for every key, left holding the last one's.
                assert_eq!(
                    c.subgraph_kernel_hash(&members, root, &mut scratch),
                    canonical_kernel_hash(&kernel),
                    "{members:?} rooted at {root}"
                );
                assert_eq!(
                    c.subgraph_kernel_hash(&reversed, root, &mut scratch),
                    canonical_kernel_hash(&kernel)
                );
            }
        }
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
