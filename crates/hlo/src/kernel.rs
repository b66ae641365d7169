//! Kernels: the unit of execution on the TPU and the unit whose runtime the
//! learned model predicts.

use crate::graph::Computation;
use crate::opcode::{OpCategory, Opcode};
use std::fmt;

/// How a kernel was formed by the fusion pass. Mirrors XLA's fusion kinds;
/// the analytical baseline keeps a separate output scale per kind (§6.1:
/// "estimated costs of different types of kernels ... are in different
/// scales").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// A single un-fused primitive op.
    Single,
    /// A fused loop over elementwise/data-movement ops.
    LoopFusion,
    /// A fusion whose root is a reduction.
    InputFusion,
    /// A fusion rooted at (or containing) a dot with fused elementwise ops.
    OutputFusion,
    /// Any kernel containing a convolution.
    Convolution,
}

impl KernelKind {
    /// All kinds in a stable order.
    pub fn all() -> &'static [KernelKind] {
        &[
            KernelKind::Single,
            KernelKind::LoopFusion,
            KernelKind::InputFusion,
            KernelKind::OutputFusion,
            KernelKind::Convolution,
        ]
    }

    /// Stable index within [`KernelKind::all`].
    pub fn index(self) -> usize {
        KernelKind::all()
            .iter()
            .position(|&k| k == self)
            .expect("kind missing from all()")
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A tile size for a kernel's output tensor, stored **minor-to-major**
/// (minor-most dimension's tile extent first), matching §4.2's tile-size
/// feature sub-vector ("elements are the sizes of a tile from minor to
/// major dimensions").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TileSize(pub Vec<usize>);

impl TileSize {
    /// Tile extents, minor-most first.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of tiled dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Product of all extents — the tile volume, which §4.2 calls "crucial
    /// as it represents the volume of the tensor".
    pub fn volume(&self) -> u64 {
        self.0.iter().map(|&d| d as u64).product()
    }

    /// Sum of all extents (also part of the feature sub-vector).
    pub fn sum(&self) -> u64 {
        self.0.iter().map(|&d| d as u64).sum()
    }
}

impl fmt::Display for TileSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tile(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

/// A kernel: a fused sub-graph with a designated output, an optional tile
/// size, and a fusion kind.
///
/// The contained [`Computation`] is self-contained — its parameters are the
/// kernel's inputs (tensors read from HBM) and its root is the kernel's
/// output (written back to HBM).
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// The fused sub-graph.
    pub computation: Computation,
    /// How the fusion pass formed this kernel.
    pub kind: KernelKind,
    /// Selected tile size for the output tensor, if any. Kernels without
    /// tile-size options (e.g. pure data-formatting kernels) carry `None`;
    /// the analytical model cannot score those (paper footnote 3).
    pub tile: Option<TileSize>,
    /// The node of the *original* (pre-fusion) computation this kernel's
    /// root corresponds to, when produced by the fusion pass. Lets callers
    /// thread values between kernels.
    pub source_root: Option<crate::node::NodeId>,
}

impl Kernel {
    /// Wrap a computation as a kernel, classifying its [`KernelKind`].
    pub fn new(computation: Computation) -> Kernel {
        let kind = classify(&computation);
        Kernel {
            computation,
            kind,
            tile: None,
            source_root: None,
        }
    }

    /// Builder-style: record the original-graph node this kernel's root
    /// computes.
    pub fn with_source_root(mut self, root: crate::node::NodeId) -> Kernel {
        self.source_root = Some(root);
        self
    }

    /// Builder-style: attach a tile size.
    pub fn with_tile(mut self, tile: TileSize) -> Kernel {
        self.tile = Some(tile);
        self
    }

    /// Number of primitive ops (excluding parameters).
    pub fn num_ops(&self) -> usize {
        self.computation
            .nodes()
            .iter()
            .filter(|n| n.opcode != Opcode::Parameter)
            .count()
    }

    /// Bytes written back to HBM (the root output).
    pub fn output_bytes(&self) -> u64 {
        self.computation
            .node(self.computation.root())
            .output_bytes()
    }

    /// Whether the kernel contains an op of the given category.
    pub fn contains_category(&self, cat: OpCategory) -> bool {
        self.computation
            .nodes()
            .iter()
            .any(|n| n.opcode.category() == cat)
    }
}

/// Classify a fused computation into a [`KernelKind`].
pub fn classify(c: &Computation) -> KernelKind {
    let mut tally = KindTally::default();
    for n in c.nodes() {
        tally.add(n.opcode);
    }
    tally.kind(c.node(c.root()).opcode)
}

/// What [`classify`] reads of a computation, gathered one node at a time,
/// so a walk that never builds the computation can classify it too.
#[derive(Default)]
pub(crate) struct KindTally {
    has_conv: bool,
    has_dot: bool,
    real_ops: usize,
}

impl KindTally {
    /// Count one node of the computation.
    pub(crate) fn add(&mut self, opcode: Opcode) {
        let cat = opcode.category();
        self.has_conv |= cat == OpCategory::Convolution;
        self.has_dot |= cat == OpCategory::Dot;
        self.real_ops += usize::from(opcode != Opcode::Parameter);
    }

    /// The kind of the computation whose every node was counted, rooted
    /// at an op of `root`.
    pub(crate) fn kind(&self, root: Opcode) -> KernelKind {
        if self.has_conv {
            return KernelKind::Convolution;
        }
        // Dot-containing kernels form their own cost class even when
        // un-fused: the analytical baseline keeps per-class output scales.
        if self.has_dot {
            return KernelKind::OutputFusion;
        }
        if self.real_ops <= 1 {
            return KernelKind::Single;
        }
        if root.category() == OpCategory::Reduction {
            return KernelKind::InputFusion;
        }
        KernelKind::LoopFusion
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::dtype::DType;
    use crate::shape::Shape;

    fn single_tanh() -> Computation {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(8, 128), DType::F32);
        let t = b.tanh(x);
        b.finish(t)
    }

    #[test]
    fn classify_single() {
        assert_eq!(classify(&single_tanh()), KernelKind::Single);
    }

    #[test]
    fn classify_loop_fusion() {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(8, 128), DType::F32);
        let t = b.tanh(x);
        let e = b.exp(t);
        let c = b.finish(e);
        assert_eq!(classify(&c), KernelKind::LoopFusion);
    }

    #[test]
    fn classify_output_fusion() {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(8, 16), DType::F32);
        let w = b.parameter("w", Shape::matrix(16, 8), DType::F32);
        let d = b.dot(x, w);
        let r = b.relu(d);
        let c = b.finish(r);
        assert_eq!(classify(&c), KernelKind::OutputFusion);
    }

    #[test]
    fn classify_input_fusion() {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(8, 128), DType::F32);
        let e = b.exp(x);
        let r = b.reduce(e, vec![1]);
        let c = b.finish(r);
        assert_eq!(classify(&c), KernelKind::InputFusion);
    }

    #[test]
    fn classify_convolution_wins() {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::new(vec![1, 8, 8, 4]), DType::F32);
        let w = b.parameter("w", Shape::new(vec![3, 3, 4, 4]), DType::F32);
        let y = b.convolution(x, w, crate::attrs::ConvAttrs::same(3));
        let r = b.relu(y);
        let c = b.finish(r);
        assert_eq!(classify(&c), KernelKind::Convolution);
    }

    #[test]
    fn kernel_byte_counts() {
        let k = Kernel::new(single_tanh());
        assert_eq!(k.output_bytes(), 8 * 128 * 4);
        assert_eq!(k.num_ops(), 1);
    }

    #[test]
    fn tile_size_features() {
        let t = TileSize(vec![128, 8, 2]);
        assert_eq!(t.volume(), 2048);
        assert_eq!(t.sum(), 138);
        assert_eq!(t.rank(), 3);
        assert_eq!(t.to_string(), "tile(128x8x2)");
    }

    #[test]
    fn kind_indices_stable() {
        for (i, &k) in KernelKind::all().iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn with_tile_attaches() {
        let k = Kernel::new(single_tanh()).with_tile(TileSize(vec![128, 8]));
        assert_eq!(k.tile.as_ref().unwrap().volume(), 1024);
    }
}
