//! The fusion pass: apply a [`FusionConfig`] to a program, producing the
//! kernels the TPU will execute.
//!
//! The pass is two steps. [`fusion_groups`] *plans*: it decides which nodes
//! materialize and which nodes each kernel computes, touching only the
//! decision tables of the [`FusionSpace`]. [`materialize`] *builds* one
//! kernel from one group. [`apply_fusion`] is their composition and the
//! only way a kernel is made; callers that score many configurations of
//! one program plan each of them and materialize only the groups they have
//! not met before.

use crate::space::{FusionConfig, FusionSpace};
use tpu_hlo::{FusedProgram, Kernel, NodeId, OpCategory, Opcode, Program};

fn is_heavy(cat: OpCategory) -> bool {
    matches!(
        cat,
        OpCategory::Dot | OpCategory::Convolution | OpCategory::Reduction
    )
}

/// One kernel of a fusion plan: the node whose value the kernel writes to
/// HBM and the nodes computed inside it.
///
/// A fused kernel is a pure function of `(program, root, members)`, so a
/// group is the key under which a search may remember the kernel
/// ([`materialize`]) across the configurations that share it. Only
/// [`fusion_groups`] makes groups, which is what keeps `members` sorted,
/// duplicate-free and ending in `root`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FusionGroup {
    root: NodeId,
    members: Vec<NodeId>,
}

impl FusionGroup {
    /// The node this kernel materializes (the largest member id).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Every node computed inside the kernel, ascending, `root` included.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }
}

/// Plan a fusion configuration: decide which nodes materialize and which
/// nodes each materialized node's kernel computes, without building any
/// kernel. This is the cheap half of [`apply_fusion`]; [`materialize`] is
/// the other.
///
/// Semantics follow XLA loop fusion with duplication:
///
/// - A node is a **kernel root** if it is the computation root, at least
///   one of its consumer edges is unfused, or the pass *forces*
///   materialization (below). A non-root node all of whose consumer edges
///   are fused is duplicated into every consuming kernel and writes
///   nothing to HBM.
/// - Each kernel contains its root plus the transitive closure of fused
///   operand edges, cut at other roots. Values crossing a cut become the
///   kernel's parameters (HBM reads).
/// - `Parameter` and `Constant` nodes never form kernels of their own.
///
/// **Forced materialization** keeps kernels shaped like XLA's: a heavy op
/// (dot/convolution/reduction) is never *duplicated* across kernels and
/// never shares a kernel with another heavy op — each kernel has at most
/// one "hero". Cheap elementwise/data-movement ops duplicate freely; when
/// a configuration would duplicate or co-locate heavies, the pass
/// materializes them instead, which is what the production compiler does.
///
/// Because each kernel is the backward closure of its root along fused
/// edges of a DAG, the kernel-level dependency graph is acyclic by
/// construction — no legality DFS is needed at application time.
///
/// Groups come out in root-id order (a topological order of the kernel
/// DAG).
///
/// # Panics
///
/// Panics if `config` does not match `space`, or `space` was built for a
/// different computation.
pub fn fusion_groups(
    program: &Program,
    space: &FusionSpace,
    config: &FusionConfig,
) -> Vec<FusionGroup> {
    let c = &program.computation;
    assert_eq!(
        config.decisions.len(),
        space.num_edges(),
        "config does not match space"
    );
    let n = c.num_nodes();
    assert_eq!(space.num_nodes(), n, "space does not match program");

    let fused = |edge: Option<usize>| edge.is_some_and(|i| config.fused(i));
    let excluded =
        |id: NodeId| matches!(c.node(id).opcode, Opcode::Parameter | Opcode::Constant);
    let heavy = |id: NodeId| is_heavy(c.node(id).opcode.category());

    // Natural materialization points.
    let mut is_root = vec![false; n];
    for node in c.nodes() {
        if excluded(node.id) {
            continue;
        }
        let users = space.user_edges(node.id);
        is_root[node.id.index()] =
            node.id == c.root() || users.is_empty() || users.iter().any(|&edge| !fused(edge));
    }

    // Closure of a root under the current root set: fused operand edges,
    // cut at other roots and excluded nodes, in discovery order (which
    // decides the hero below). `seen[i] == stamp` marks membership in the
    // closure being collected.
    let mut seen = vec![0u32; n];
    let mut stamp = 0u32;
    let mut stack: Vec<NodeId> = Vec::new();
    let mut collect = |root: NodeId, is_root: &[bool]| -> Vec<NodeId> {
        stamp += 1;
        seen[root.index()] = stamp;
        let mut members = vec![root];
        stack.push(root);
        while let Some(cur) = stack.pop() {
            let edges = space.operand_edges(cur);
            for (&op, &edge) in c.node(cur).operands.iter().zip(edges) {
                if excluded(op) || is_root[op.index()] {
                    continue;
                }
                if fused(edge) && seen[op.index()] != stamp {
                    seen[op.index()] = stamp;
                    members.push(op);
                    stack.push(op);
                }
            }
        }
        members
    };

    // Fixed point: force heavies to materialize when a config would
    // duplicate them across kernels or co-locate two heroes. The round
    // that forces nothing has collected the final closures.
    let mut groups: Vec<FusionGroup> = loop {
        let mut groups = Vec::new();
        let mut appearances = vec![0usize; n];
        let mut forced: Vec<NodeId> = Vec::new();
        for r in (0..n).map(|i| NodeId(i as u32)).filter(|r| is_root[r.index()]) {
            let members = collect(r, &is_root);
            // One hero per kernel: keep the first heavy (the root itself
            // when it is heavy), force any further heavy member out.
            let mut hero_seen = heavy(r);
            for &m in &members {
                appearances[m.index()] += 1;
                if m != r && heavy(m) {
                    if hero_seen {
                        forced.push(m);
                    } else {
                        hero_seen = true;
                    }
                }
            }
            groups.push(FusionGroup { root: r, members });
        }
        // No heavy may be duplicated.
        for node in c.nodes() {
            if heavy(node.id) && !is_root[node.id.index()] && appearances[node.id.index()] > 1 {
                forced.push(node.id);
            }
        }
        if forced.is_empty() {
            break groups;
        }
        for f in forced {
            is_root[f.index()] = true;
        }
    };
    for g in &mut groups {
        g.members.sort_unstable();
    }
    groups
}

/// Build the kernel of one group of a plan: extract the members as a
/// self-contained computation whose imported operands become parameters,
/// classify it, and record which program node it computes.
///
/// `group` must come from [`fusion_groups`] over the same `program`.
pub fn materialize(program: &Program, group: &FusionGroup) -> Kernel {
    let (sub, _) = program
        .computation
        .extract_subgraph(&group.members, group.root);
    Kernel::new(sub).with_source_root(group.root)
}

/// Apply a fusion configuration, decomposing the program into kernels
/// (§3.1: "The graphs are then decomposed according to these fusion
/// configurations"): plan the groups ([`fusion_groups`], which documents
/// the semantics), then [`materialize`] each one in order.
///
/// # Panics
///
/// Panics if `config` does not match `space`.
pub fn apply_fusion(
    program: &Program,
    space: &FusionSpace,
    config: &FusionConfig,
) -> FusedProgram {
    let kernels = fusion_groups(program, space, config)
        .iter()
        .map(|g| materialize(program, g))
        .collect();
    FusedProgram::new(program.name.clone(), kernels)
}

/// Apply the all-unfused configuration: one kernel per primitive op.
pub fn unfused(program: &Program) -> FusedProgram {
    let space = FusionSpace::new(&program.computation);
    apply_fusion(program, &space, &space.none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_hlo::{DType, GraphBuilder, KernelKind, Shape};

    fn chain_program() -> Program {
        let mut b = GraphBuilder::new("main");
        let x = b.parameter("x", Shape::matrix(64, 64), DType::F32);
        let a = b.tanh(x);
        let c2 = b.exp(a);
        let d = b.abs(c2);
        Program::new("chain", b.finish(d))
    }

    #[test]
    fn unfused_gives_one_kernel_per_op() {
        let p = chain_program();
        let fp = unfused(&p);
        assert_eq!(fp.num_kernels(), 3);
        assert!(fp.kernels.iter().all(|k| k.kind == KernelKind::Single));
    }

    #[test]
    fn fully_fused_chain_gives_one_kernel() {
        let p = chain_program();
        let space = FusionSpace::new(&p.computation);
        let fp = apply_fusion(&p, &space, &space.all());
        assert_eq!(fp.num_kernels(), 1);
        assert_eq!(fp.kernels[0].num_ops(), 3);
        assert_eq!(fp.kernels[0].kind, KernelKind::LoopFusion);
    }

    #[test]
    fn partial_fusion_splits_at_unfused_edge() {
        let p = chain_program();
        let space = FusionSpace::new(&p.computation);
        // Fuse only the first edge (tanh -> exp).
        let mut cfg = space.none();
        cfg.decisions[0] = true;
        let fp = apply_fusion(&p, &space, &cfg);
        assert_eq!(fp.num_kernels(), 2);
        let ops: Vec<usize> = fp.kernels.iter().map(|k| k.num_ops()).collect();
        assert!(ops.contains(&2) && ops.contains(&1));
    }

    #[test]
    fn diamond_duplication() {
        // x -> t; t feeds exp and abs; both fused: t duplicated into both
        // kernels, writes nothing itself.
        let mut b = GraphBuilder::new("main");
        let x = b.parameter("x", Shape::matrix(8, 8), DType::F32);
        let t = b.tanh(x);
        let e = b.exp(t);
        let a = b.abs(t);
        let m = b.add(e, a);
        let p = Program::new("diamond", b.finish(m));
        let space = FusionSpace::new(&p.computation);
        // Fuse (t,e) and (t,a) but not (e,m), (a,m).
        let mut cfg = space.none();
        cfg.decisions[space.edge_index(t, e).unwrap()] = true;
        cfg.decisions[space.edge_index(t, a).unwrap()] = true;
        let fp = apply_fusion(&p, &space, &cfg);
        // Kernels: {t,e}, {t,a}, {m}.
        assert_eq!(fp.num_kernels(), 3);
        assert_eq!(fp.num_ops(), 5, "t duplicated into two kernels");
    }

    #[test]
    fn partially_fused_multi_consumer_still_materializes() {
        // t fused into e but NOT into a: the unfused edge forces t to
        // materialize, and once a value is in HBM no kernel recomputes it
        // — e reads it like a does.
        let mut b = GraphBuilder::new("main");
        let x = b.parameter("x", Shape::matrix(8, 8), DType::F32);
        let t = b.tanh(x);
        let e = b.exp(t);
        let a = b.abs(t);
        let m = b.add(e, a);
        let p = Program::new("d2", b.finish(m));
        let space = FusionSpace::new(&p.computation);
        let mut cfg = space.none();
        cfg.decisions[space.edge_index(t, e).unwrap()] = true;
        let fp = apply_fusion(&p, &space, &cfg);
        // Kernels: {t}, {e}, {a}, {m} — no duplication of materialized t.
        assert_eq!(fp.num_kernels(), 4);
        assert_eq!(fp.num_ops(), 4);
    }

    #[test]
    fn output_fusion_dot_plus_relu() {
        let mut b = GraphBuilder::new("main");
        let x = b.parameter("x", Shape::matrix(32, 32), DType::F32);
        let w = b.parameter("w", Shape::matrix(32, 32), DType::F32);
        let d = b.dot(x, w);
        let r = b.relu(d);
        let p = Program::new("mm", b.finish(r));
        let space = FusionSpace::new(&p.computation);
        let fp = apply_fusion(&p, &space, &space.all());
        assert_eq!(fp.num_kernels(), 1);
        assert_eq!(fp.kernels[0].kind, KernelKind::OutputFusion);
    }

    #[test]
    fn two_heroes_never_share_a_kernel() {
        // dot1 -> abs -> relu -> dot2, everything fused: the pass must
        // split so each kernel holds at most one dot.
        let mut b = GraphBuilder::new("main");
        let x = b.parameter("x", Shape::matrix(32, 32), DType::F32);
        let w1 = b.parameter("w1", Shape::matrix(32, 32), DType::F32);
        let w2 = b.parameter("w2", Shape::matrix(32, 32), DType::F32);
        let d1 = b.dot(x, w1);
        let a = b.abs(d1);
        let r = b.relu(a);
        let d2 = b.dot(r, w2);
        let t = b.tanh(d2);
        let p = Program::new("two_dots", b.finish(t));
        let space = FusionSpace::new(&p.computation);
        let fp = apply_fusion(&p, &space, &space.all());
        for k in &fp.kernels {
            let dots = k
                .computation
                .nodes()
                .iter()
                .filter(|n| n.opcode == Opcode::Dot)
                .count();
            assert!(dots <= 1, "kernel has {dots} dots");
        }
        let total_dots: usize = fp
            .kernels
            .iter()
            .map(|k| {
                k.computation
                    .nodes()
                    .iter()
                    .filter(|n| n.opcode == Opcode::Dot)
                    .count()
            })
            .sum();
        assert_eq!(total_dots, 2);
    }

    #[test]
    fn heavy_ops_never_duplicated() {
        // dot -> abs; abs feeds two consumers, everything fused. Without
        // protection the dot would be recomputed in both kernels; the pass
        // must materialize instead.
        let mut b = GraphBuilder::new("main");
        let x = b.parameter("x", Shape::matrix(32, 32), DType::F32);
        let w = b.parameter("w", Shape::matrix(32, 32), DType::F32);
        let d = b.dot(x, w);
        let a = b.abs(d);
        let e = b.exp(a);
        let s = b.logistic(a);
        let m = b.add(e, s);
        let p = Program::new("dup", b.finish(m));
        let space = FusionSpace::new(&p.computation);
        let fp = apply_fusion(&p, &space, &space.all());
        let total_dots: usize = fp
            .kernels
            .iter()
            .map(|k| {
                k.computation
                    .nodes()
                    .iter()
                    .filter(|n| n.opcode == Opcode::Dot)
                    .count()
            })
            .sum();
        assert_eq!(total_dots, 1, "the dot must not be recomputed");
        for k in &fp.kernels {
            assert!(k.computation.validate().is_ok());
        }
    }

    #[test]
    fn kernels_validate_and_have_marked_outputs() {
        let p = chain_program();
        let space = FusionSpace::new(&p.computation);
        let fp = apply_fusion(&p, &space, &space.all());
        for k in &fp.kernels {
            assert!(k.computation.validate().is_ok());
            let root = k.computation.root();
            assert!(k.computation.node(root).attrs.is_output);
        }
    }

    #[test]
    fn constants_never_become_kernels() {
        let mut b = GraphBuilder::new("main");
        let w = b.constant(Shape::matrix(512, 512), DType::F32); // big weight
        let x = b.parameter("x", Shape::matrix(512, 512), DType::F32);
        let y = b.add(x, w);
        let p = Program::new("c", b.finish(y));
        let fp = unfused(&p);
        assert_eq!(fp.num_kernels(), 1);
        // The constant arrives as a kernel parameter.
        assert_eq!(fp.kernels[0].computation.parameters().len(), 2);
    }
}
