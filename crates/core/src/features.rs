//! Node feature extraction, straight from the IR (§4.1).
//!
//! "A row of **X**ᶠ includes attributes extracted from an XLA program
//! representation, such as an output tensor shape, tensor layout, striding,
//! padding, tile size, and where applicable, convolution filter size." No
//! static analysis or performance counters are involved — that is the
//! paper's point of difference from Halide's learned model.

use tpu_hlo::{Kernel, Node, OpCategory, Shape, MAX_RANK};
use tpu_nn::Tensor;

/// Length of the tile-size sub-vector: tile extents minor→major padded to
/// [`MAX_RANK`], then their sum and product (§4.2: "ending with their sum
/// and product; including the product … is crucial as it represents the
/// volume of the tensor").
pub const TILE_FEATURE_DIM: usize = MAX_RANK + 2;

/// Total width of a node's non-opcode feature vector `Xᶠᵢ`.
pub const FEATURE_DIM: usize = MAX_RANK  // log shape dims
    + 2                                  // log elem count, log bytes
    + DTYPE_ONE_HOT                      // dtype one-hot
    + 1 + MAX_RANK                       // default-layout flag + m2m positions
    + MAX_RANK                           // log strides
    + CATEGORY_ONE_HOT                   // op category one-hot
    + 3                                  // is_output, is_parameter, num_operands
    + 6                                  // convolution window features
    + 3                                  // dot M/K/N
    + TILE_FEATURE_DIM; // kernel tile-size sub-vector

const DTYPE_ONE_HOT: usize = 5;
const CATEGORY_ONE_HOT: usize = 10;

fn log1p(x: f64) -> f32 {
    (x + 1.0).ln() as f32
}

/// The tile-size feature sub-vector of a kernel (§4.2). Kernels without a
/// tile get the zero vector.
pub fn tile_features(k: &Kernel) -> [f32; TILE_FEATURE_DIM] {
    let mut out = [0.0f32; TILE_FEATURE_DIM];
    if let Some(t) = &k.tile {
        for (i, &d) in t.dims().iter().take(MAX_RANK).enumerate() {
            out[i] = log1p(d as f64);
        }
        out[MAX_RANK] = log1p(t.sum() as f64);
        out[MAX_RANK + 1] = log1p(t.volume() as f64);
    }
    out
}

/// Build the feature vector of one node within its kernel.
///
/// Every feature occupies a fixed region of the vector ("An op's features
/// occupy a fixed region of the Xᶠᵢ vector", §4.1); all magnitudes are
/// log-compressed.
pub fn node_features(k: &Kernel, node: &Node) -> Vec<f32> {
    let c = &k.computation;
    let mut f = Vec::with_capacity(FEATURE_DIM);

    // Output shape dims (log), padded to MAX_RANK.
    push_shape_dims(&mut f, &node.shape);
    f.push(log1p(node.elem_count() as f64));
    f.push(log1p(node.output_bytes() as f64));

    // DType one-hot.
    let mut dt = [0.0f32; DTYPE_ONE_HOT];
    dt[node.dtype.index().min(DTYPE_ONE_HOT - 1)] = 1.0;
    f.extend_from_slice(&dt);

    // Layout.
    f.push(if node.layout.is_default() { 1.0 } else { 0.0 });
    let mut m2m = [0.0f32; MAX_RANK];
    for (i, &d) in node.layout.minor_to_major().iter().take(MAX_RANK).enumerate() {
        m2m[i] = (d + 1) as f32 / MAX_RANK as f32;
    }
    f.extend_from_slice(&m2m);

    // Strides (log), padded.
    let strides = node.layout.strides(&node.shape);
    let mut sf = [0.0f32; MAX_RANK];
    for (i, &s) in strides.iter().take(MAX_RANK).enumerate() {
        sf[i] = log1p(s as f64);
    }
    f.extend_from_slice(&sf);

    // Category one-hot.
    let mut cat = [0.0f32; CATEGORY_ONE_HOT];
    cat[node.opcode.category().index()] = 1.0;
    f.extend_from_slice(&cat);

    // Flags.
    f.push(if node.attrs.is_output { 1.0 } else { 0.0 });
    f.push(if node.is_parameter() { 1.0 } else { 0.0 });
    f.push(node.operands.len() as f32);

    // Convolution window.
    if let Some(cv) = &node.attrs.conv {
        f.push(log1p(cv.filter_h as f64));
        f.push(log1p(cv.filter_w as f64));
        f.push(cv.stride_h as f32);
        f.push(cv.stride_w as f32);
        f.push(cv.pad_h.0 as f32);
        f.push(cv.pad_w.0 as f32);
    } else {
        f.extend_from_slice(&[0.0; 6]);
    }

    // Dot problem dims.
    if node.opcode.category() == OpCategory::Dot {
        let p = tpu_sim::dot_problem(c, node);
        f.push(log1p((p.b * p.m) as f64));
        f.push(log1p(p.k as f64));
        f.push(log1p(p.n as f64));
    } else {
        f.extend_from_slice(&[0.0; 3]);
    }

    // Kernel tile-size sub-vector (same for every node of the kernel).
    f.extend_from_slice(&tile_features(k));

    debug_assert_eq!(f.len(), FEATURE_DIM);
    f
}

fn push_shape_dims(f: &mut Vec<f32>, shape: &Shape) {
    let mut dims = [0.0f32; MAX_RANK];
    for (i, &d) in shape.dims().iter().take(MAX_RANK).enumerate() {
        dims[i] = log1p(d as f64);
    }
    f.extend_from_slice(&dims);
}

/// Featurize a whole kernel: opcode ids (embedding-table indices) and the
/// `N×FEATURE_DIM` feature matrix, node order following node ids (which is
/// a topological order for builder-produced kernels).
pub fn kernel_features(k: &Kernel) -> (Vec<usize>, Tensor) {
    let n = k.computation.num_nodes();
    let mut ids = Vec::with_capacity(n);
    let mut data = Vec::with_capacity(n * FEATURE_DIM);
    for node in k.computation.nodes() {
        ids.push(node.opcode.index());
        data.extend_from_slice(&node_features(k, node));
    }
    (ids, Tensor::from_vec(n, FEATURE_DIM, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_hlo::{ConvAttrs, GraphBuilder, Kernel, TileSize};

    fn tanh_kernel() -> Kernel {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(64, 128), tpu_hlo::DType::F32);
        let t = b.tanh(x);
        Kernel::new(b.finish(t))
    }

    #[test]
    fn feature_dim_matches() {
        let k = tanh_kernel();
        for node in k.computation.nodes() {
            assert_eq!(node_features(&k, node).len(), FEATURE_DIM);
        }
    }

    #[test]
    fn kernel_features_shapes() {
        let k = tanh_kernel();
        let (ids, x) = kernel_features(&k);
        assert_eq!(ids.len(), 2);
        assert_eq!(x.shape(), (2, FEATURE_DIM));
        assert!(ids.iter().all(|&i| i < tpu_hlo::Opcode::count()));
    }

    #[test]
    fn tile_features_present_when_tiled() {
        let k = tanh_kernel().with_tile(TileSize(vec![128, 8]));
        let tf = tile_features(&k);
        assert!(tf[0] > 0.0);
        assert!(tf[MAX_RANK + 1] > 0.0, "volume feature");
        // Untiled kernel: all zeros.
        let tf0 = tile_features(&tanh_kernel());
        assert!(tf0.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn tile_features_differ_between_tiles() {
        let a = tile_features(&tanh_kernel().with_tile(TileSize(vec![128, 8])));
        let b = tile_features(&tanh_kernel().with_tile(TileSize(vec![8, 128])));
        assert_ne!(a, b, "minor-to-major ordering must matter");
        // Same volume though.
        assert_eq!(a[MAX_RANK + 1], b[MAX_RANK + 1]);
    }

    #[test]
    fn output_flag_set_only_on_root() {
        let k = tanh_kernel();
        let root = k.computation.root();
        for node in k.computation.nodes() {
            let f = node_features(&k, node);
            // is_output flag position: after dims(5)+2+dtype(5)+layout(6)+strides(5)+cat(10).
            let pos = MAX_RANK + 2 + 5 + 1 + MAX_RANK + MAX_RANK + 10;
            assert_eq!(f[pos] == 1.0, node.id == root);
        }
    }

    #[test]
    fn conv_features_populate() {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::new(vec![1, 16, 16, 8]), tpu_hlo::DType::F32);
        let w = b.parameter("w", Shape::new(vec![3, 3, 8, 16]), tpu_hlo::DType::F32);
        let y = b.convolution(x, w, ConvAttrs::same_strided(3, 2));
        let k = Kernel::new(b.finish(y));
        let conv_node = k.computation.node(k.computation.root());
        let f = node_features(&k, conv_node);
        // Conv region: find nonzero stride feature (stride 2).
        assert!(f.contains(&2.0), "conv stride feature missing");
    }

    #[test]
    fn features_are_finite() {
        let k = tanh_kernel().with_tile(TileSize(vec![128, 64]));
        let (_, x) = kernel_features(&k);
        assert!(x.data().iter().all(|v| v.is_finite()));
    }
}
