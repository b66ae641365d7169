//! The canonical hash as it was before it gathered its bytes into one
//! buffer: one `Hash::hash` call per field into a `DefaultHasher`, moved
//! here unchanged on the crate's public API (`Opcode`'s `Display` writes
//! the mnemonic the crate hashes). The equivalence suites compare
//! `tpu_hlo::canonical_hash` and `tpu_hlo::canonical_kernel_hash`
//! against these bit for bit; nothing else calls them. The one change
//! since: a node holds its opcode's attributes alone ([`OpAttrs`]), so
//! the fields of the eleven-field attribute struct it hashed are read off
//! that, every field of another opcode absent or empty.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use tpu_hlo::{Computation, Kernel, Node, OpAttrs};

fn hash_node(n: &Node, h: &mut DefaultHasher) {
    n.opcode.to_string().hash(h);
    n.dtype.index().hash(h);
    n.shape.dims().hash(h);
    n.layout.minor_to_major().hash(h);
    // Operands by canonical position, which is the id.
    for &op in &n.operands {
        op.index().hash(h);
    }
    // Attributes that affect semantics/cost, as the eleven fields every
    // node carried then: the node's own attributes in their field, every
    // other field absent or empty.
    let a = &n.attrs;
    if let OpAttrs::Dot(d) = a {
        (
            d.lhs_contracting,
            d.rhs_contracting,
            &d.lhs_batch,
            &d.rhs_batch,
        )
            .hash(h);
    }
    if let OpAttrs::Conv(cv) = a {
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
    let lists: [&[usize]; 3] = match a {
        OpAttrs::Reduce(d) => [d, &[], &[]],
        OpAttrs::Transpose(d) => [&[], d, &[]],
        OpAttrs::Broadcast(d) => [&[], &[], d],
        _ => [&[]; 3],
    };
    for list in lists {
        list.hash(h);
    }
    if let OpAttrs::Slice(s) = a {
        (&s.starts, &s.limits, &s.strides).hash(h);
    }
    if let OpAttrs::Pad(p) = a {
        p.dims.hash(h);
    }
    match *a {
        OpAttrs::Concat(d) => Some(d),
        _ => None,
    }
    .hash(h);
    match *a {
        OpAttrs::Window(wh, ww, sh, sw) => Some((wh, ww, sh, sw)),
        _ => None,
    }
    .hash(h);
    n.is_output.hash(h);
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
