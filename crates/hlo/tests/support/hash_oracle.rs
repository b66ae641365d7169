//! The canonical hash as it was before it gathered its bytes into one
//! buffer: one `Hash::hash` call per field into a `DefaultHasher`, moved
//! here unchanged on the crate's public API (`Opcode`'s `Display` writes
//! the mnemonic the crate hashes). The equivalence suites compare
//! `tpu_hlo::canonical_hash` and `tpu_hlo::canonical_kernel_hash`
//! against these bit for bit; nothing else calls them.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use tpu_hlo::{Computation, Kernel, Node};

fn hash_node(n: &Node, h: &mut DefaultHasher) {
    n.opcode.to_string().hash(h);
    n.dtype.index().hash(h);
    n.shape.dims().hash(h);
    n.layout.minor_to_major().hash(h);
    // Operands by canonical position, which is the id.
    for &op in &n.operands {
        op.index().hash(h);
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

/// The per-field `canonical_hash`.
pub fn canonical_hash(c: &Computation) -> u64 {
    let mut h = DefaultHasher::new();
    c.num_nodes().hash(&mut h);
    c.root().index().hash(&mut h);
    for n in c.nodes() {
        hash_node(n, &mut h);
    }
    h.finish()
}

/// The per-field `canonical_kernel_hash`.
pub fn canonical_kernel_hash(k: &Kernel) -> u64 {
    let mut h = DefaultHasher::new();
    canonical_hash(&k.computation).hash(&mut h);
    k.kind.index().hash(&mut h);
    if let Some(t) = &k.tile {
        t.dims().hash(&mut h);
    }
    h.finish()
}
