//! The fusion pass: apply a [`FusionConfig`] to a program, producing the
//! kernels the TPU will execute.
//!
//! The pass is two steps. A [`FusionPlanner`] *plans*: it decides which
//! nodes materialize and which nodes each kernel computes, touching only
//! the decision tables of the [`FusionSpace`]. [`materialize`] *builds* one
//! kernel from one group. [`apply_fusion`] is their composition and the
//! only way a kernel is made; callers that score many configurations of
//! one program plan each of them, key each group in place
//! ([`Computation::subgraph_kernel_hash`](tpu_hlo::Computation::subgraph_kernel_hash)
//! over its members) and materialize only the groups whose kernel they
//! need.
//!
//! A planner *interns* its groups: each distinct group is stored once, the
//! first time a plan makes it, and a plan is a list of [`GroupId`]s into
//! that table. So a caller that plans many configurations pays for a
//! group's member list once per planner, and tells two groups apart by
//! comparing ids.
//!
//! Planning is **local**: the plan of a connected component of fused
//! producer→consumer edges reads nothing outside the component (DESIGN.md
//! "Fusion planning is local"). So there is one planning body, run over a
//! node set. [`FusionPlanner::plan`] (under [`fusion_groups`]) runs it over
//! every node; [`FusionPlanner::replan`] runs it over the components that a
//! few flipped decisions touch and splices the result into the plan the
//! caller already has.

use crate::space::{FusionConfig, FusionSpace};
use tpu_hlo::{FusedProgram, Kernel, KeyScratch, NodeId, OpCategory, Opcode, Program};

/// What the planning body needs to know of a node's opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// `Parameter` and `Constant` nodes never form kernels of their own
    /// and are never members of one.
    Excluded,
    /// Dot, convolution and reduction: a kernel's hero.
    Heavy,
    Light,
}

/// Whether a non-excluded node materializes by its own consumer edges
/// alone: it is the computation root, or one of those edges is unfused (an
/// edge that is not a decision never fuses).
fn natural_root(root: NodeId, space: &FusionSpace, config: &FusionConfig, id: NodeId) -> bool {
    let users = space.user_edges(id);
    id == root
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

/// One distinct group of a [`FusionPlanner`]: its index in the planner's
/// table ([`FusionPlanner::groups`]). Ids are dense and handed out in the
/// order the groups are first planned, so two ids of one planner are equal
/// exactly when their groups are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupId(u32);

impl GroupId {
    /// The id as an index into [`FusionPlanner::groups`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One group of a re-planned configuration ([`FusionPlanner::replan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Planned {
    /// The group at this index of the old plan, untouched by the flips.
    Kept(usize),
    /// A group of a re-planned component. It may be a group of the old
    /// plan: a component is re-planned whole.
    Fresh(GroupId),
}

/// Each node's operands, back to back.
struct Operands {
    /// Node `i`'s operands are `ids[start[i]..start[i + 1]]`.
    start: Vec<u32>,
    ids: Vec<NodeId>,
}

impl Operands {
    fn of(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.ids[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

/// Marks a free slot of [`Interned::table`].
const FREE: u32 = u32::MAX;

/// The distinct groups of a planner, each stored once, and an open-addressed
/// table over them keyed by their members (which end in the root, so they
/// are the whole group). The planner makes every key from the program, and
/// a probe compares members in full, so a weak hash costs probe steps and
/// never a wrong id.
struct Interned {
    groups: Vec<FusionGroup>,
    hashes: Vec<u64>,
    /// Per slot, [`FREE`] or a group index; a power of two in length, at
    /// most half full.
    table: Vec<u32>,
    /// `64 - log2(table.len())`: a hash's top bits pick its first slot.
    shift: u32,
}

impl Interned {
    fn new() -> Interned {
        Interned {
            groups: Vec::new(),
            hashes: Vec::new(),
            table: vec![FREE; 64],
            shift: 64 - 6,
        }
    }

    /// The first slot from `hash`'s on that is free or holds a group
    /// `found` accepts.
    fn probe(&self, hash: u64, found: impl Fn(usize) -> bool) -> usize {
        let mask = self.table.len() - 1;
        let mut at = (hash >> self.shift) as usize;
        while self.table[at] != FREE && !found(self.table[at] as usize) {
            at = (at + 1) & mask;
        }
        at
    }

    /// The id of the group with these members, stored first if it is new.
    /// Only a new group allocates.
    fn intern(&mut self, members: &[NodeId]) -> GroupId {
        let hash = members.iter().fold(members.len() as u64, |h, m| {
            (h.rotate_left(5) ^ u64::from(m.0)).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        let at = self.probe(hash, |i| {
            self.hashes[i] == hash && self.groups[i].members == members
        });
        if self.table[at] != FREE {
            return GroupId(self.table[at]);
        }
        let id = GroupId(u32::try_from(self.groups.len()).expect("under 2^32 groups"));
        self.table[at] = id.0;
        self.groups.push(FusionGroup {
            root: *members.last().expect("a group holds its root"),
            members: members.to_vec(),
        });
        self.hashes.push(hash);
        if 2 * self.groups.len() > self.table.len() {
            self.shift -= 1;
            self.table = vec![FREE; 2 * self.table.len()];
            for i in 0..self.hashes.len() {
                let at = self.probe(self.hashes[i], |_| false);
                self.table[at] = i as u32;
            }
        }
        id
    }
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
/// DAG), each as the [`GroupId`] of its entry in the planner's table
/// ([`Self::groups`]).
///
/// The planner owns the scratch of the planning body (one slot per node)
/// and reads the program through a table of its own (each node's class
/// and operands), so a caller that plans many configurations of one
/// program keeps one planner, pays for a flipped decision only what
/// [`Self::replan`] touches, and allocates only for a group it has never
/// planned before.
pub struct FusionPlanner<'a> {
    space: &'a FusionSpace,
    /// The computation root.
    root: NodeId,
    class: Vec<Class>,
    operands: Operands,
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
    /// The closures of the current forcing round, back to back, and where
    /// each ends in `members`.
    members: Vec<NodeId>,
    closure_ends: Vec<usize>,
    /// The nodes a re-plan runs the planning body over, ascending.
    region: Vec<NodeId>,
    /// The groups a re-plan planned again, before the splice.
    fresh: Vec<GroupId>,
    interned: Interned,
}

impl<'a> FusionPlanner<'a> {
    /// A planner for `program` over `space`.
    ///
    /// # Panics
    ///
    /// Panics if `space` was built for a different computation.
    pub fn new(program: &'a Program, space: &'a FusionSpace) -> FusionPlanner<'a> {
        let c = &program.computation;
        let n = c.num_nodes();
        assert_eq!(space.num_nodes(), n, "space does not match program");
        let class = c
            .nodes()
            .iter()
            .map(|node| match (node.opcode, node.opcode.category()) {
                (Opcode::Parameter | Opcode::Constant, _) => Class::Excluded,
                (_, OpCategory::Dot | OpCategory::Convolution | OpCategory::Reduction) => {
                    Class::Heavy
                }
                _ => Class::Light,
            })
            .collect();
        let mut operands = Operands {
            start: vec![0],
            ids: Vec::new(),
        };
        for node in c.nodes() {
            operands.ids.extend_from_slice(&node.operands);
            let end = u32::try_from(operands.ids.len()).expect("under 2^32 operands");
            operands.start.push(end);
        }
        FusionPlanner {
            space,
            root: c.root(),
            class,
            operands,
            is_root: vec![false; n],
            rooted: vec![0; n],
            seen: vec![0; n],
            stamp: 0,
            appearances: vec![0; n],
            stack: Vec::new(),
            forced: Vec::new(),
            members: Vec::new(),
            closure_ends: Vec::new(),
            region: Vec::new(),
            fresh: Vec::new(),
            interned: Interned::new(),
        }
    }

    /// Every distinct group this planner has planned, indexed by
    /// [`GroupId::index`], in the order they were first planned.
    pub fn groups(&self) -> &[FusionGroup] {
        &self.interned.groups
    }

    /// Plan `config` from nothing: the planning body over every node. The
    /// plan replaces the contents of `out`.
    ///
    /// # Panics
    ///
    /// Panics if `config` does not match the planner's space.
    pub fn plan(&mut self, config: &FusionConfig, out: &mut Vec<GroupId>) {
        let space = self.space;
        assert_eq!(
            config.decisions.len(),
            space.num_edges(),
            "config does not match space"
        );
        for (i, class) in self.class.iter().enumerate() {
            self.is_root[i] = *class != Class::Excluded
                && natural_root(self.root, space, config, NodeId(i as u32));
        }
        out.clear();
        self.plan_nodes((0..self.class.len()).map(|i| NodeId(i as u32)), out);
    }

    /// Plan `config` given the plan `old` of a configuration that differs
    /// from it in the decisions `flipped` (each index once). The plan
    /// replaces the contents of `out`: it equals [`Self::plan`] of `config`
    /// group for group, with every group the flips cannot have touched
    /// reported as [`Planned::Kept`] under its index in `old`.
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
    /// Panics if `config` does not match the planner's space, a flipped
    /// index is out of range, or `old` holds an id of another planner.
    pub fn replan(
        &mut self,
        old: &[GroupId],
        config: &FusionConfig,
        flipped: &[usize],
        out: &mut Vec<Planned>,
    ) {
        let space = self.space;
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
            let root_regardless = p == self.root
                || users
                    .iter()
                    .any(|edge| !edge.is_some_and(|j| flipped.contains(&j) || config.fused(j)));
            if self.class[p.index()] == Class::Excluded || root_regardless {
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
                self.is_root[i] = natural_root(self.root, space, config, id);
            }
            self.is_root[i]
        };
        let mut at = 0;
        while at < region.len() {
            let v = region[at];
            at += 1;
            for &op in self.operands.of(v) {
                if self.class[op.index()] != Class::Excluded && !natural(op) {
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
        let mut fresh = std::mem::take(&mut self.fresh);
        fresh.clear();
        self.plan_nodes(region.iter().copied(), &mut fresh);
        let root = |id: GroupId| self.interned.groups[id.index()].root;
        let mut fresh_ids = fresh.iter().copied().peekable();
        let mut replaced = region.iter().copied().peekable();
        out.clear();
        for (i, &id) in old.iter().enumerate() {
            let old_root = root(id);
            while replaced.next_if(|&r| r < old_root).is_some() {}
            if replaced.peek() == Some(&old_root) {
                continue;
            }
            while let Some(id) = fresh_ids.next_if(|&g| root(g) < old_root) {
                out.push(Planned::Fresh(id));
            }
            out.push(Planned::Kept(i));
        }
        out.extend(fresh_ids.map(Planned::Fresh));
        self.fresh = fresh;
        self.region = region;
    }

    /// Append the closure of a root under the current root set to
    /// `members`: operand edges cut at roots and excluded nodes, in
    /// discovery order (which decides the hero). An operand that is not a
    /// root has every consumer edge fused, this one included.
    fn collect(&mut self, root: NodeId) {
        self.stamp += 1;
        self.seen[root.index()] = self.stamp;
        self.members.push(root);
        self.stack.push(root);
        while let Some(cur) = self.stack.pop() {
            for &op in self.operands.of(cur) {
                if self.class[op.index()] == Class::Excluded || self.is_root[op.index()] {
                    continue;
                }
                if self.seen[op.index()] != self.stamp {
                    self.seen[op.index()] = self.stamp;
                    self.members.push(op);
                    self.stack.push(op);
                }
            }
        }
    }

    /// The planning body: append to `out` the groups rooted in `nodes`
    /// (ascending), which must be whole components of effective edges with
    /// `is_root` holding the natural roots among them and their operands.
    ///
    /// Fixed point: force heavies to materialize when a config would
    /// duplicate them across kernels or co-locate two heroes. The round
    /// that forces nothing has collected the final closures.
    fn plan_nodes(&mut self, nodes: impl Iterator<Item = NodeId> + Clone, out: &mut Vec<GroupId>) {
        loop {
            self.members.clear();
            self.closure_ends.clear();
            for r in nodes.clone() {
                if !self.is_root[r.index()] {
                    continue;
                }
                let start = self.members.len();
                self.collect(r);
                // One hero per kernel: keep the first heavy (the root itself
                // when it is heavy), force any further heavy member out.
                let mut hero_seen = self.class[r.index()] == Class::Heavy;
                for &m in &self.members[start..] {
                    self.appearances[m.index()] += 1;
                    if m != r && self.class[m.index()] == Class::Heavy {
                        if hero_seen {
                            self.forced.push(m);
                        } else {
                            hero_seen = true;
                        }
                    }
                }
                self.closure_ends.push(self.members.len());
            }
            // No heavy may be duplicated.
            for id in nodes.clone() {
                let held_by = std::mem::take(&mut self.appearances[id.index()]);
                if held_by > 1
                    && self.class[id.index()] == Class::Heavy
                    && !self.is_root[id.index()]
                {
                    self.forced.push(id);
                }
            }
            if self.forced.is_empty() {
                break;
            }
            for f in self.forced.drain(..) {
                self.is_root[f.index()] = true;
            }
        }
        let mut start = 0;
        for &end in &self.closure_ends {
            let members = &mut self.members[start..end];
            members.sort_unstable();
            out.push(self.interned.intern(members));
            start = end;
        }
    }
}

/// Plan one configuration from nothing: [`FusionPlanner::plan`], which
/// documents the semantics, on a planner of its own, resolved to groups.
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
    let mut planner = FusionPlanner::new(program, space);
    let mut ids = Vec::new();
    planner.plan(config, &mut ids);
    // A plan holds no group twice, so a fresh planner's table is the plan,
    // in order.
    debug_assert!(ids.iter().enumerate().all(|(i, id)| id.index() == i));
    planner.interned.groups
}

/// Build the kernel of one group of a plan: extract the members as a
/// self-contained computation whose imported operands become parameters,
/// classify it, and record which program node it computes.
///
/// `group` must come from a [`FusionPlanner`] over the same `program`.
/// The extraction works in `scratch` (see
/// [`Computation::extract_subgraph`](tpu_hlo::Computation::extract_subgraph)):
/// a caller that builds many kernels passes the same one each time.
pub fn materialize(program: &Program, group: &FusionGroup, scratch: &mut KeyScratch) -> Kernel {
    let sub = program
        .computation
        .extract_subgraph(&group.members, group.root, scratch);
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
    let scratch = &mut KeyScratch::default();
    let kernels = fusion_groups(program, space, config)
        .iter()
        .map(|g| materialize(program, g, scratch))
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
            assert!(k.computation.node(root).is_output);
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
