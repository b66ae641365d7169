//! The fusion pass: apply a [`FusionConfig`] to a program, producing the
//! kernels the TPU will execute.
//!
//! The pass is two steps. A [`FusionPlanner`] *plans*: it decides which
//! nodes materialize and which nodes each kernel computes, touching only
//! the decision tables of the [`FusionSpace`]. [`materialize`] *builds* one
//! kernel from one group. [`apply_fusion`] is their composition and the
//! only way a kernel is made; callers that score many configurations of
//! one program plan each of them, key each group in place
//! ([`Computation::subgraph_kernel_hash`] over its members) and
//! materialize only the groups whose kernel they need.
//!
//! Planning is **local**: the plan of a connected component of fused
//! producer→consumer edges reads nothing outside the component (DESIGN.md,
//! "Fusion planning is local"). So there is one planning body, run over a
//! node set. [`FusionPlanner::plan`] (which is [`fusion_groups`]) runs it
//! over every node; [`FusionPlanner::replan`] runs it over the components
//! that a few flipped decisions touch and splices the result into the plan
//! the caller already has.

use crate::space::{FusionConfig, FusionSpace};
use tpu_hlo::{Computation, FusedProgram, Kernel, NodeId, OpCategory, Opcode, Program};

/// `Parameter` and `Constant` nodes never form kernels of their own and
/// are never members of one.
fn excluded(c: &Computation, id: NodeId) -> bool {
    matches!(c.node(id).opcode, Opcode::Parameter | Opcode::Constant)
}

fn heavy(c: &Computation, id: NodeId) -> bool {
    matches!(
        c.node(id).opcode.category(),
        OpCategory::Dot | OpCategory::Convolution | OpCategory::Reduction
    )
}

/// Whether a non-excluded node materializes by its own consumer edges
/// alone: it is the computation root, or one of those edges is unfused (an
/// edge that is not a decision never fuses).
fn natural_root(c: &Computation, space: &FusionSpace, config: &FusionConfig, id: NodeId) -> bool {
    let users = space.user_edges(id);
    id == c.root()
        || users.is_empty()
        || users
            .iter()
            .any(|edge| !edge.is_some_and(|i| config.fused(i)))
}

/// One kernel of a fusion plan: the node whose value the kernel writes to
/// HBM and the nodes computed inside it.
///
/// A fused kernel is a pure function of `(program, root, members)`, so a
/// group is the key under which a search may remember the kernel
/// ([`materialize`]) across the configurations that share it. Only a
/// [`FusionPlanner`] makes groups, which is what keeps `members` sorted,
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

/// One group of a re-planned configuration ([`FusionPlanner::replan`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Planned {
    /// The group at this index of the old plan, untouched by the flips.
    Kept(usize),
    /// A group of a re-planned component. It may equal a group of the old
    /// plan: a component is re-planned whole.
    Fresh(FusionGroup),
}

/// Plans the fusion configurations of one program: which nodes materialize
/// and which nodes each materialized node's kernel computes, without
/// building any kernel. This is the cheap half of [`apply_fusion`];
/// [`materialize`] is the other.
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
/// The planner owns the scratch of the planning body (one slot per node),
/// so a caller that plans many configurations of one program keeps one
/// planner and pays for a flipped decision only what [`Self::replan`]
/// touches.
pub struct FusionPlanner<'a> {
    program: &'a Program,
    space: &'a FusionSpace,
    /// Whether a node is a kernel root. Written before it is read: a full
    /// plan writes every node, a re-plan every node of its region and each
    /// of their operands, which is all the planning body looks at.
    is_root: Vec<bool>,
    /// `rooted[i] == stamp` of a re-plan: it has written `is_root[i]`.
    rooted: Vec<u64>,
    /// `seen[i] == stamp` marks membership in the closure (or region)
    /// being collected.
    seen: Vec<u64>,
    stamp: u64,
    /// How many closures of the current forcing round hold a node; all
    /// zero between rounds.
    appearances: Vec<u32>,
    stack: Vec<NodeId>,
    forced: Vec<NodeId>,
    /// The nodes a re-plan runs the planning body over, ascending.
    region: Vec<NodeId>,
}

impl<'a> FusionPlanner<'a> {
    /// A planner for `program` over `space`.
    ///
    /// # Panics
    ///
    /// Panics if `space` was built for a different computation.
    pub fn new(program: &'a Program, space: &'a FusionSpace) -> FusionPlanner<'a> {
        let n = program.computation.num_nodes();
        assert_eq!(space.num_nodes(), n, "space does not match program");
        FusionPlanner {
            program,
            space,
            is_root: vec![false; n],
            rooted: vec![0; n],
            seen: vec![0; n],
            stamp: 0,
            appearances: vec![0; n],
            stack: Vec::new(),
            forced: Vec::new(),
            region: Vec::new(),
        }
    }

    /// Plan `config` from nothing: the planning body over every node.
    ///
    /// # Panics
    ///
    /// Panics if `config` does not match the planner's space.
    pub fn plan(&mut self, config: &FusionConfig) -> Vec<FusionGroup> {
        let (c, space) = (&self.program.computation, self.space);
        assert_eq!(
            config.decisions.len(),
            space.num_edges(),
            "config does not match space"
        );
        for node in c.nodes() {
            self.is_root[node.id.index()] =
                !excluded(c, node.id) && natural_root(c, space, config, node.id);
        }
        self.plan_nodes((0..c.num_nodes()).map(|i| NodeId(i as u32)))
    }

    /// Plan `config` given the plan of a configuration that differs from
    /// it in the decisions `flipped` (each index once): `old_roots` are
    /// that plan's group roots, in its order. Equals [`Self::plan`] of
    /// `config` group for group, with every group the flips cannot have
    /// touched reported as [`Planned::Kept`] under its old index.
    ///
    /// An *effective edge* is a fused producer→consumer edge whose
    /// producer is neither `Parameter`/`Constant` nor a root by its own
    /// consumer edges; closures, heroes and duplicate counts walk those
    /// edges only, so the plan of a connected component of them reads
    /// nothing outside it. A flip of `(p, q)` changes effective edges
    /// between `p` and `p`'s consumers and no others, so the components
    /// (under `config`) holding those nodes are planned again and every
    /// other component keeps its groups. A `p` that is excluded, or that
    /// materializes whatever the flipped edges say, changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `config` does not match the planner's space or a flipped
    /// index is out of range.
    pub fn replan(
        &mut self,
        old_roots: &[NodeId],
        config: &FusionConfig,
        flipped: &[usize],
    ) -> Vec<Planned> {
        let (c, space) = (&self.program.computation, self.space);
        assert_eq!(
            config.decisions.len(),
            space.num_edges(),
            "config does not match space"
        );
        let consumer = |edge: &Option<usize>| {
            let i = edge.expect("a node that is not a natural root has only decision edges");
            space.edges()[i].1
        };

        // Seeds: each flipped edge's producer and that producer's
        // consumers. `seen` doubles as the region's visited set until the
        // planning body starts collecting closures.
        self.stamp += 1;
        let visit = self.stamp;
        let mut region = std::mem::take(&mut self.region);
        region.clear();
        let mut reach = |id: NodeId, region: &mut Vec<NodeId>| {
            if self.seen[id.index()] != visit {
                self.seen[id.index()] = visit;
                region.push(id);
            }
        };
        for &i in flipped {
            let p = space.edges()[i].0;
            let users = space.user_edges(p);
            let root_regardless = p == c.root()
                || users
                    .iter()
                    .any(|edge| !edge.is_some_and(|j| flipped.contains(&j) || config.fused(j)));
            if excluded(c, p) || root_regardless {
                continue;
            }
            reach(p, &mut region);
            for edge in users {
                reach(consumer(edge), &mut region);
            }
        }

        // Grow the seeds to whole components, noting on the way which of
        // the nodes the planning body will look at are natural roots.
        let mut natural = |id: NodeId| {
            let i = id.index();
            if self.rooted[i] != visit {
                self.rooted[i] = visit;
                self.is_root[i] = natural_root(c, space, config, id);
            }
            self.is_root[i]
        };
        let mut at = 0;
        while at < region.len() {
            let v = region[at];
            at += 1;
            for &op in &c.node(v).operands {
                if !excluded(c, op) && !natural(op) {
                    reach(op, &mut region);
                }
            }
            if !natural(v) {
                for edge in space.user_edges(v) {
                    reach(consumer(edge), &mut region);
                }
            }
        }
        region.sort_unstable();

        // Re-plan the region and splice it into the old plan in root
        // order: an old group stays iff its root is outside the region.
        let mut fresh = self
            .plan_nodes(region.iter().copied())
            .into_iter()
            .peekable();
        let mut out = Vec::with_capacity(old_roots.len() + fresh.len());
        let mut replaced = region.iter().copied().peekable();
        for (i, &root) in old_roots.iter().enumerate() {
            while replaced.next_if(|&r| r < root).is_some() {}
            if replaced.peek() == Some(&root) {
                continue;
            }
            while let Some(group) = fresh.next_if(|g| g.root < root) {
                out.push(Planned::Fresh(group));
            }
            out.push(Planned::Kept(i));
        }
        out.extend(fresh.map(Planned::Fresh));
        self.region = region;
        out
    }

    /// Closure of a root under the current root set: operand edges cut at
    /// roots and excluded nodes, in discovery order (which decides the
    /// hero). An operand that is not a root has every consumer edge fused,
    /// this one included.
    fn collect(&mut self, root: NodeId) -> Vec<NodeId> {
        let c = &self.program.computation;
        self.stamp += 1;
        self.seen[root.index()] = self.stamp;
        let mut members = Vec::with_capacity(8);
        members.push(root);
        self.stack.push(root);
        while let Some(cur) = self.stack.pop() {
            for &op in &c.node(cur).operands {
                if excluded(c, op) || self.is_root[op.index()] {
                    continue;
                }
                if self.seen[op.index()] != self.stamp {
                    self.seen[op.index()] = self.stamp;
                    members.push(op);
                    self.stack.push(op);
                }
            }
        }
        members
    }

    /// The planning body: the groups rooted in `nodes` (ascending), which
    /// must be whole components of effective edges with `is_root` holding
    /// the natural roots among them and their operands.
    ///
    /// Fixed point: force heavies to materialize when a config would
    /// duplicate them across kernels or co-locate two heroes. The round
    /// that forces nothing has collected the final closures.
    fn plan_nodes(&mut self, nodes: impl Iterator<Item = NodeId> + Clone) -> Vec<FusionGroup> {
        let c = &self.program.computation;
        let mut groups: Vec<FusionGroup> = loop {
            let roots = nodes.clone().filter(|r| self.is_root[r.index()]).count();
            let mut groups = Vec::with_capacity(roots);
            for r in nodes.clone() {
                if !self.is_root[r.index()] {
                    continue;
                }
                let members = self.collect(r);
                // One hero per kernel: keep the first heavy (the root itself
                // when it is heavy), force any further heavy member out.
                let mut hero_seen = heavy(c, r);
                for &m in &members {
                    self.appearances[m.index()] += 1;
                    if m != r && heavy(c, m) {
                        if hero_seen {
                            self.forced.push(m);
                        } else {
                            hero_seen = true;
                        }
                    }
                }
                groups.push(FusionGroup { root: r, members });
            }
            // No heavy may be duplicated.
            for id in nodes.clone() {
                let held_by = std::mem::take(&mut self.appearances[id.index()]);
                if held_by > 1 && heavy(c, id) && !self.is_root[id.index()] {
                    self.forced.push(id);
                }
            }
            if self.forced.is_empty() {
                break groups;
            }
            for f in self.forced.drain(..) {
                self.is_root[f.index()] = true;
            }
        };
        for g in &mut groups {
            g.members.sort_unstable();
        }
        groups
    }
}

/// Plan one configuration from nothing: [`FusionPlanner::plan`], which
/// documents the semantics, on a planner of its own.
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
    FusionPlanner::new(program, space).plan(config)
}

/// Build the kernel of one group of a plan: extract the members as a
/// self-contained computation whose imported operands become parameters,
/// classify it, and record which program node it computes.
///
/// `group` must come from a [`FusionPlanner`] over the same `program`.
pub fn materialize(program: &Program, group: &FusionGroup) -> Kernel {
    let sub = program
        .computation
        .extract_subgraph(&group.members, group.root);
    Kernel::new(sub).with_source_root(group.root)
}

/// Apply a fusion configuration, decomposing the program into kernels
/// (§3.1: "The graphs are then decomposed according to these fusion
/// configurations"): plan the groups ([`fusion_groups`]), then
/// [`materialize`] each one in order.
///
/// # Panics
///
/// Panics if `config` does not match `space`.
pub fn apply_fusion(program: &Program, space: &FusionSpace, config: &FusionConfig) -> FusedProgram {
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
