//! Computation graphs: DAGs of primitive tensor operations.

use crate::attrs::{attr_key, OpAttrs};
use crate::error::{HloError, Result};
use crate::hashing::KeyScratch;
use crate::node::{Node, NodeId};
use crate::opcode::Opcode;
use std::borrow::Cow;
use std::fmt::Write as _;

/// A computation: a directed acyclic graph of [`Node`]s with a designated
/// root (output) node.
///
/// Node ids are dense indices into [`Computation::nodes`]. Edges point from
/// operand (producer) to user (consumer); `node.operands` lists producers.
///
/// # Example
///
/// ```
/// use tpu_hlo::{DType, GraphBuilder, Shape};
/// let mut b = GraphBuilder::new("f");
/// let x = b.parameter("x", Shape::matrix(4, 4), DType::F32);
/// let y = b.exp(x);
/// let c = b.finish(y);
/// assert_eq!(c.root(), y);
/// assert_eq!(c.users(x), &[y]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Computation {
    name: String,
    nodes: Vec<Node>,
    root: NodeId,
}

impl Computation {
    /// Assemble a computation from parts. Prefer
    /// [`GraphBuilder`](crate::GraphBuilder) for shape-inferred
    /// construction; this constructor validates the result.
    ///
    /// # Errors
    ///
    /// Returns any validation error (dangling operands, arity, cycles,
    /// missing attributes, bad root, empty graph).
    pub fn from_parts(name: impl Into<String>, nodes: Vec<Node>, root: NodeId) -> Result<Self> {
        let c = Computation {
            name: name.into(),
            nodes,
            root,
        };
        c.validate()?;
        Ok(c)
    }

    /// Assemble without validating. Used internally by the builder, which
    /// establishes the invariants by construction.
    pub(crate) fn from_parts_unchecked(name: String, nodes: Vec<Node>, root: NodeId) -> Self {
        Computation { name, nodes, root }
    }

    /// The computation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The root (output) node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// All nodes, indexed by id.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Look up a node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Ids of all parameter nodes, in id order.
    pub fn parameters(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.opcode == Opcode::Parameter)
            .map(|n| n.id)
            .collect()
    }

    /// Consumers of each node: `users()[i]` lists the nodes that take node
    /// `i` as an operand (with multiplicity collapsed).
    pub fn users(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for n in &self.nodes {
            if n.operands.contains(&id) && !out.contains(&n.id) {
                out.push(n.id);
            }
        }
        out
    }

    /// Consumer lists for all nodes at once (cheaper than repeated
    /// [`Computation::users`]).
    pub fn all_users(&self) -> Vec<Vec<NodeId>> {
        let mut users = vec![Vec::new(); self.nodes.len()];
        for n in &self.nodes {
            for &op in &n.operands {
                let list: &mut Vec<NodeId> = &mut users[op.index()];
                if list.last() != Some(&n.id) {
                    list.push(n.id);
                }
            }
        }
        users
    }

    /// Total number of operand edges.
    pub fn num_edges(&self) -> usize {
        self.nodes.iter().map(|n| n.operands.len()).sum()
    }

    /// A topological order of node ids (operands before users).
    ///
    /// Builder-produced graphs are already topologically ordered by id; this
    /// method computes an order for arbitrary (e.g. parsed) graphs via
    /// Kahn's algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`HloError::Cycle`] if the graph is cyclic.
    pub fn topo_order(&self) -> Result<Vec<NodeId>> {
        let n = self.nodes.len();
        let users = self.all_users();
        // Indegree from collapsed user lists (a node using the same operand
        // twice contributes one edge).
        let mut indeg = vec![0usize; n];
        for us in &users {
            for u in us {
                indeg[u.index()] += 1;
            }
        }
        let mut queue: Vec<NodeId> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(|i| NodeId(i as u32))
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            order.push(id);
            for &u in &users[id.index()] {
                indeg[u.index()] -= 1;
                if indeg[u.index()] == 0 {
                    queue.push(u);
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n)
                .find(|&i| indeg[i] > 0)
                .map(|i| NodeId(i as u32))
                .unwrap_or(NodeId(0));
            return Err(HloError::Cycle { node: stuck });
        }
        Ok(order)
    }

    /// Validate structural invariants: non-empty, root exists, every
    /// layout of its shape's rank, operands exist, arities match, required
    /// attributes present, dot dimension numbers and convolution ranks
    /// within the operands', convolution, reduce-window and slice
    /// attribute values within the operand extents they index, acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<()> {
        if self.nodes.is_empty() {
            return Err(HloError::Empty);
        }
        if self.root.index() >= self.nodes.len() {
            return Err(HloError::BadRoot { root: self.root });
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.id.index() != i {
                return Err(HloError::ShapeMismatch {
                    node: node.id,
                    reason: format!("node id {} does not match position {i}", node.id),
                });
            }
            if node.layout.rank() != node.shape.rank() {
                return Err(HloError::ShapeMismatch {
                    node: node.id,
                    reason: format!(
                        "layout rank {} does not match shape rank {}",
                        node.layout.rank(),
                        node.shape.rank()
                    ),
                });
            }
            for &op in &node.operands {
                if op.index() >= self.nodes.len() {
                    return Err(HloError::UnknownOperand {
                        node: node.id,
                        operand: op,
                    });
                }
            }
            if let Some(expected) = node.opcode.arity() {
                if node.operands.len() != expected {
                    return Err(HloError::ArityMismatch {
                        node: node.id,
                        expected,
                        actual: node.operands.len(),
                    });
                }
            }
            // Each node holds the attributes of its own opcode.
            match (attr_key(node.opcode), node.attrs.key()) {
                (Some(attr), held) if held != Some(attr) => {
                    return Err(HloError::MissingAttr {
                        node: node.id,
                        attr,
                    })
                }
                (None, Some(attr)) => {
                    return Err(HloError::ForeignAttr {
                        node: node.id,
                        attr,
                    })
                }
                _ => {}
            }
            // What the cost models index by must exist: a dot's dimension
            // numbers in its operands, a convolution's NHWC / HWIO ranks.
            let rank = |i: usize| self.node(node.operands[i]).shape.rank();
            let indexable = match &node.attrs {
                OpAttrs::Dot(d) => {
                    d.lhs_contracting < rank(0)
                        && d.rhs_contracting < rank(1)
                        && d.lhs_batch.iter().all(|&b| b < rank(0))
                        && d.rhs_batch.iter().all(|&b| b < rank(1))
                }
                OpAttrs::Conv(_) => [node.shape.rank(), rank(0), rank(1)] == [4; 3],
                _ => true,
            };
            if !indexable {
                return Err(HloError::ShapeMismatch {
                    node: node.id,
                    reason: format!("{} attributes exceed its operands' ranks", node.opcode),
                });
            }
            if let Some(reason) = self.attr_values_mismatch(node) {
                return Err(HloError::ShapeMismatch {
                    node: node.id,
                    reason,
                });
            }
        }
        // Operands that all precede their users are a topological order
        // already (every builder-made graph); only a graph with a forward
        // reference needs the search for a cycle.
        let ordered = |n: &Node| n.operands.iter().all(|&op| op < n.id);
        if !self.nodes.iter().all(ordered) {
            self.topo_order()?;
        }
        Ok(())
    }

    /// The builder's rules for attribute *values*, checked against the
    /// operand shapes they index; `None` when they hold. Runs after the
    /// rank checks, so a convolution's operands are NHWC and HWIO. A value
    /// outside them made the cost models compute garbage in a release
    /// build and overflow in a build with overflow checks.
    fn attr_values_mismatch(&self, node: &Node) -> Option<String> {
        let operand = |i: usize| &self.node(node.operands[i]).shape;
        match &node.attrs {
            OpAttrs::Conv(conv) => {
                let (input, filter) = (operand(0), operand(1));
                if [filter.dim(0), filter.dim(1)] != [conv.filter_h, conv.filter_w] {
                    return Some(format!(
                        "convolution window {}x{} is not its filter's {filter}",
                        conv.filter_h, conv.filter_w
                    ));
                }
                if filter.dim(2).checked_mul(conv.feature_groups) != Some(input.dim(3)) {
                    return Some(format!(
                        "convolution input {input} does not have {} groups of filter {filter}",
                        conv.feature_groups
                    ));
                }
                let axes = [
                    (input.dim(1), conv.filter_h, conv.stride_h, conv.pad_h),
                    (input.dim(2), conv.filter_w, conv.stride_w, conv.pad_w),
                ];
                axes.into_iter().find_map(|(extent, k, s, (lo, hi))| {
                    match extent.checked_add(lo).and_then(|e| e.checked_add(hi)) {
                        Some(padded) if k <= padded && (1..=padded).contains(&s) => None,
                        _ => Some(format!(
                            "convolution filter {k} or stride {s} outside its input extent {extent} padded by ({lo}, {hi})"
                        )),
                    }
                })
            }
            &OpAttrs::Window(wh, ww, sh, sw) => {
                let x = operand(0);
                let fits = match *x.dims() {
                    [_, h, w, _] => (1..=h).contains(&wh) && (1..=w).contains(&ww),
                    _ => false,
                };
                (!fits || sh == 0 || sw == 0).then(|| {
                    format!("reduce-window {wh}x{ww} stride {sh}x{sw} does not fit its operand {x}")
                })
            }
            OpAttrs::Slice(s) => {
                let x = operand(0);
                let ranks = [s.starts.len(), s.limits.len(), s.strides.len()] == [x.rank(); 3];
                let fits = x
                    .dims()
                    .iter()
                    .zip(&s.starts)
                    .zip(&s.limits)
                    .zip(&s.strides)
                    .all(|(((&d, &start), &limit), &stride)| {
                        start <= limit && limit <= d && stride > 0
                    });
                (!ranks || !fits).then(|| format!("slice bounds do not fit its operand {x}"))
            }
            _ => None,
        }
    }

    /// Extract the sub-computation reachable from `root_of_subgraph`
    /// restricted to `members`, remapping ids densely. Nodes in `members`
    /// whose operands fall outside `members` get those operands replaced by
    /// fresh `Parameter` nodes (the fused kernel's inputs), mirroring how a
    /// compiler outlines a fusion region.
    ///
    /// The walk's tables and the staged node list live in `scratch`: a
    /// caller that extracts many sub-graphs passes the same one each time,
    /// and once its buffers have grown, an extraction allocates only what
    /// the sub-computation owns.
    ///
    /// # Panics
    ///
    /// Panics if `root_of_subgraph` is not in `members`, or if a member
    /// takes another member of a higher id as an operand.
    pub fn extract_subgraph(
        &self,
        members: &[NodeId],
        root_of_subgraph: NodeId,
        scratch: &mut KeyScratch,
    ) -> Computation {
        let (walk, staged) = (&mut scratch.walk, &mut scratch.nodes);
        staged.clear();
        let (_, root) =
            self.walk_subgraph(members, root_of_subgraph, &mut NodeBuilder(staged), walk);
        // One allocation each, of the node count and of the name.
        let mut nodes = Vec::with_capacity(staged.len());
        nodes.append(staged);
        let name = [self.name.as_str(), ".fused"].concat();
        Computation::from_parts_unchecked(name, nodes, root)
    }

    /// The one description of the sub-computation [`Self::extract_subgraph`]
    /// builds: hands `sink` its nodes in their new id order and returns the
    /// node count and the new root. Each member comes with its operands
    /// remapped; an operand outside `members` arrives first, as a
    /// parameter, at its first use. The walk's id tables live in `tables`,
    /// cleared first.
    ///
    /// # Panics
    ///
    /// As [`Self::extract_subgraph`].
    pub(crate) fn walk_subgraph(
        &self,
        members: &[NodeId],
        root_of_subgraph: NodeId,
        sink: &mut impl SubgraphSink,
        tables: &mut WalkTables,
    ) -> (usize, NodeId) {
        // A fusion group's members come sorted and distinct already.
        let sorted: Cow<'_, [NodeId]> = if members.windows(2).all(|w| w[0] < w[1]) {
            Cow::Borrowed(members)
        } else {
            let mut sorted = members.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            Cow::Owned(sorted)
        };
        let root_at = sorted
            .binary_search(&root_of_subgraph)
            .expect("subgraph root not a member");

        let mut next = 0u32;
        let WalkTables {
            new_ids,
            imported,
            operands,
        } = tables;
        new_ids.clear();
        imported.clear();

        for (at, &old_id) in sorted.iter().enumerate() {
            let old = self.node(old_id);
            operands.clear();
            for &op in &old.operands {
                let new_op = match sorted.binary_search(&op) {
                    Ok(at) => *new_ids.get(at).expect("members must be topo-sorted by id"),
                    Err(_) => match imported.iter().find(|(ext, _)| *ext == op) {
                        Some(&(_, pid)) => pid,
                        None => {
                            let pid = NodeId(next);
                            next += 1;
                            sink.import(self.node(op), pid);
                            imported.push((op, pid));
                            pid
                        }
                    },
                };
                operands.push(new_op);
            }
            let id = NodeId(next);
            next += 1;
            new_ids.push(id);
            // The output node is marked (§4.1 of the paper).
            sink.member(old, id, operands, at == root_at);
        }
        (next as usize, new_ids[root_at])
    }
}

/// The id tables of [`Computation::walk_subgraph`].
#[derive(Default)]
pub(crate) struct WalkTables {
    /// The new id of each member, in member order.
    new_ids: Vec<NodeId>,
    /// Imported operands (outside `members`) become parameters; one per
    /// distinct external producer, and a kernel has few.
    imported: Vec<(NodeId, NodeId)>,
    /// The current member's operands, remapped.
    operands: Vec<NodeId>,
}

/// What [`Computation::walk_subgraph`] emits, in the new id order. The
/// node builder behind [`Computation::extract_subgraph`] is one sink; the
/// key writer behind [`Computation::subgraph_kernel_hash`] is the other.
pub(crate) trait SubgraphSink {
    /// The value of `ext`, a node outside the members, arrives as the
    /// parameter `id`.
    fn import(&mut self, ext: &Node, id: NodeId);

    /// The member `node` becomes node `id` reading `operands`; `is_root`
    /// marks the sub-computation's output.
    fn member(&mut self, node: &Node, id: NodeId, operands: &[NodeId], is_root: bool);
}

/// The sink that builds the nodes.
struct NodeBuilder<'a>(&'a mut Vec<Node>);

impl SubgraphSink for NodeBuilder<'_> {
    fn import(&mut self, ext: &Node, id: NodeId) {
        self.0.push(Node {
            id,
            opcode: Opcode::Parameter,
            dtype: ext.dtype,
            shape: ext.shape.clone(),
            layout: ext.layout.clone(),
            operands: Vec::new(),
            is_output: false,
            attrs: OpAttrs::None,
            // Imported values are named after the original producer node
            // so callers can thread values between kernels
            // (`in<original-id>`), in one allocation: room for any id.
            name: {
                let mut name = String::with_capacity("in4294967295".len());
                let _ = write!(name, "in{}", ext.id.0);
                name
            },
        });
    }

    fn member(&mut self, node: &Node, id: NodeId, operands: &[NodeId], is_root: bool) {
        self.0.push(Node {
            id,
            opcode: node.opcode,
            dtype: node.dtype,
            shape: node.shape.clone(),
            layout: node.layout.clone(),
            operands: operands.to_vec(),
            is_output: node.is_output || is_root,
            attrs: node.attrs.clone(),
            name: node.name.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::dtype::DType;
    use crate::shape::Shape;

    fn diamond() -> Computation {
        // x -> exp -> add <- tanh <- x
        let mut b = GraphBuilder::new("diamond");
        let x = b.parameter("x", Shape::matrix(4, 4), DType::F32);
        let e = b.exp(x);
        let t = b.tanh(x);
        let a = b.add(e, t);
        b.finish(a)
    }

    #[test]
    fn validate_rejects_what_the_cost_models_would_index_past() {
        // A layout of another rank than its shape (`Layout::strides`
        // asserts), dot dimension numbers beyond an operand's rank
        // (`dot_problem` indexes by them), a convolution that is not NHWC.
        let mut c = diamond();
        c.node_mut(NodeId(1)).layout = crate::shape::Layout::default_for_rank(1);
        assert!(matches!(
            c.validate(),
            Err(HloError::ShapeMismatch {
                node: NodeId(1),
                ..
            })
        ));

        let mut b = GraphBuilder::new("dot");
        let x = b.parameter("x", Shape::matrix(4, 8), DType::F32);
        let w = b.parameter("w", Shape::matrix(8, 2), DType::F32);
        let d = b.dot(x, w);
        let mut c = b.finish(d);
        assert!(c.validate().is_ok());
        let set = |c: &mut Computation, edit: fn(&mut crate::attrs::DotDims)| {
            let OpAttrs::Dot(dims) = &mut c.node_mut(d).attrs else {
                unreachable!("a dot")
            };
            edit(dims);
        };
        set(&mut c, |d| d.lhs_contracting = 2);
        assert!(matches!(c.validate(), Err(HloError::ShapeMismatch { .. })));
        set(&mut c, |d| d.lhs_contracting = 1);
        set(&mut c, |d| d.rhs_batch = vec![5]);
        assert!(matches!(c.validate(), Err(HloError::ShapeMismatch { .. })));

        let mut b = GraphBuilder::new("conv");
        let x = b.parameter("x", Shape::new(vec![1, 8, 8, 4]), DType::F32);
        let w = b.parameter("w", Shape::new(vec![3, 3, 4, 8]), DType::F32);
        let y = b.convolution(x, w, crate::attrs::ConvAttrs::same(3));
        let mut c = b.finish(y);
        assert!(c.validate().is_ok());
        c.node_mut(w).shape = Shape::matrix(3, 3);
        c.node_mut(w).layout = crate::shape::Layout::default_for_rank(2);
        assert!(matches!(c.validate(), Err(HloError::ShapeMismatch { .. })));
    }

    #[test]
    fn validate_checks_attribute_values_against_the_operand_shapes() {
        let mismatch =
            |c: &Computation| matches!(c.validate(), Err(HloError::ShapeMismatch { .. }));

        let mut b = GraphBuilder::new("conv");
        let x = b.parameter("x", Shape::new(vec![1, 8, 8, 4]), DType::F32);
        let w = b.parameter("w", Shape::new(vec![3, 3, 4, 8]), DType::F32);
        let y = b.convolution(x, w, crate::attrs::ConvAttrs::valid(3));
        let conv = b.finish(y);
        assert!(conv.validate().is_ok());
        let edits: [fn(&mut crate::attrs::ConvAttrs); 5] = [
            |a| a.filter_h = 1 << 32,
            |a| a.stride_w = 1 << 63,
            |a| a.stride_h = 0,
            |a| a.pad_w = (usize::MAX, 1),
            |a| a.feature_groups = 2,
        ];
        for edit in edits {
            let mut c = conv.clone();
            let OpAttrs::Conv(attrs) = &mut c.node_mut(y).attrs else {
                unreachable!("a convolution")
            };
            edit(attrs);
            assert!(mismatch(&c), "{:?}", c.node(y).attrs);
        }
        // A 9x9 filter, consistent with its own shape, over a 4x4 input.
        let mut c = conv.clone();
        c.node_mut(x).shape = Shape::new(vec![1, 4, 4, 4]);
        c.node_mut(w).shape = Shape::new(vec![9, 9, 4, 8]);
        c.node_mut(y).attrs = OpAttrs::Conv(crate::attrs::ConvAttrs::valid(9));
        assert!(mismatch(&c));

        let mut b = GraphBuilder::new("pool");
        let x = b.parameter("x", Shape::new(vec![1, 4, 4, 2]), DType::F32);
        let init = b.scalar_constant();
        let p = b.reduce_window(x, init, (4, 4, 1, 1));
        let pool = b.finish(p);
        assert!(pool.validate().is_ok());
        for (wh, ww, sh, sw) in [(5, 1, 1, 1), (1, 0, 1, 1), (2, 2, 0, 1)] {
            let mut c = pool.clone();
            c.node_mut(p).attrs = OpAttrs::Window(wh, ww, sh, sw);
            assert!(mismatch(&c), "{:?}", c.node(p).attrs);
        }

        let mut b = GraphBuilder::new("slice");
        let x = b.parameter("x", Shape::matrix(6, 10), DType::F32);
        let s = b.slice_dim(x, 1, 2, 10);
        let slice = b.finish(s);
        assert!(slice.validate().is_ok());
        let edits: [fn(&mut crate::attrs::SliceAttrs); 4] = [
            |a| a.starts[1] = 11,
            |a| a.limits[0] = 7,
            |a| a.strides[0] = 0,
            |a| a.strides.push(1),
        ];
        for edit in edits {
            let mut c = slice.clone();
            let OpAttrs::Slice(attrs) = &mut c.node_mut(s).attrs else {
                unreachable!("a slice")
            };
            edit(attrs);
            assert!(mismatch(&c), "{:?}", c.node(s).attrs);
        }
    }

    #[test]
    fn validate_holds_each_node_to_its_opcodes_attributes() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("x", Shape::matrix(4, 4), DType::F32);
        let d = b.dot(x, x);
        let r = b.reduce(d, vec![1]);
        let t = b.tanh(r);
        let c = b.finish(t);
        assert!(c.validate().is_ok());
        let held = |id: NodeId, attrs: OpAttrs| {
            let mut c = c.clone();
            c.node_mut(id).attrs = attrs;
            c.validate()
        };
        // What the text reader could always leave out, with the same error.
        assert_eq!(
            held(d, OpAttrs::None),
            Err(HloError::MissingAttr {
                node: d,
                attr: "dot"
            })
        );
        assert_eq!(
            held(r, OpAttrs::Concat(0)),
            Err(HloError::MissingAttr {
                node: r,
                attr: "reduce_dims"
            })
        );
        // A tanh holding a dot's dimension numbers is no longer a tanh.
        let foreign = held(t, OpAttrs::Dot(crate::attrs::DotDims::matmul()));
        assert_eq!(
            foreign,
            Err(HloError::ForeignAttr {
                node: t,
                attr: "dot"
            })
        );
        assert_eq!(
            foreign.unwrap_err().to_string(),
            "node %3 holds attribute `dot` of another opcode"
        );
    }

    #[test]
    fn a_forward_operand_is_searched_for_a_cycle() {
        // Ids in order skip Kahn's algorithm; a forward reference does not.
        let mut c = diamond();
        c.node_mut(NodeId(1)).operands = vec![NodeId(3)];
        assert!(matches!(c.validate(), Err(HloError::Cycle { .. })));
        c.node_mut(NodeId(1)).operands = vec![NodeId(2)];
        assert!(c.validate().is_ok());
    }

    #[test]
    fn users_and_edges() {
        let c = diamond();
        let x = NodeId(0);
        assert_eq!(c.users(x).len(), 2);
        assert_eq!(c.num_edges(), 4);
        let all = c.all_users();
        assert_eq!(all[0].len(), 2);
        assert_eq!(all[3].len(), 0, "root has no users");
    }

    #[test]
    fn topo_order_valid() {
        let c = diamond();
        let order = c.topo_order().unwrap();
        assert_eq!(order.len(), 4);
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, id) in order.iter().enumerate() {
                p[id.index()] = i;
            }
            p
        };
        for node in c.nodes() {
            for &op in &node.operands {
                assert!(pos[op.index()] < pos[node.id.index()]);
            }
        }
    }

    #[test]
    fn validate_accepts_builder_graphs() {
        assert!(diamond().validate().is_ok());
    }

    #[test]
    fn validate_rejects_dangling_operand() {
        let mut c = diamond();
        c.node_mut(NodeId(1)).operands = vec![NodeId(99)];
        assert!(matches!(c.validate(), Err(HloError::UnknownOperand { .. })));
    }

    #[test]
    fn validate_rejects_cycle() {
        let mut c = diamond();
        // exp takes add (its transitive user) as operand: cycle.
        c.node_mut(NodeId(1)).operands = vec![NodeId(3)];
        assert!(matches!(c.validate(), Err(HloError::Cycle { .. })));
    }

    #[test]
    fn validate_rejects_arity() {
        let mut c = diamond();
        c.node_mut(NodeId(3)).operands = vec![NodeId(1)];
        assert!(matches!(c.validate(), Err(HloError::ArityMismatch { .. })));
    }

    #[test]
    fn extract_subgraph_imports_parameters() {
        let c = diamond();
        // Extract {exp, add}: tanh's value must arrive via a new parameter.
        let scratch = &mut KeyScratch::default();
        let sub = c.extract_subgraph(&[NodeId(1), NodeId(3)], NodeId(3), scratch);
        assert!(sub.validate().is_ok());
        // exp's operand x becomes a parameter, tanh becomes a parameter:
        // in0, exp, in2, add.
        assert_eq!(sub.parameters(), [NodeId(0), NodeId(2)]);
        assert_eq!(sub.node(NodeId(2)).name, "in2");
        assert_eq!(sub.num_nodes(), 4);
        assert_eq!(sub.root(), NodeId(3));
        assert!(sub.node(NodeId(3)).is_output);
        // Members in any order, repeated, are the same members.
        assert_eq!(
            c.extract_subgraph(&[NodeId(3), NodeId(1), NodeId(3)], NodeId(3), scratch),
            sub
        );
    }

    #[test]
    fn extract_full_graph_is_isomorphic() {
        let c = diamond();
        let members: Vec<NodeId> = c.nodes().iter().map(|n| n.id).collect();
        let sub = c.extract_subgraph(&members, c.root(), &mut KeyScratch::default());
        assert_eq!(sub.num_nodes(), c.num_nodes());
        assert_eq!(sub.parameters().len(), 1);
    }

    #[test]
    fn extract_shares_single_import_per_external_producer() {
        // kernel = {add}; both operands come from outside but are distinct.
        let c = diamond();
        let sub = c.extract_subgraph(&[NodeId(3)], NodeId(3), &mut KeyScratch::default());
        assert_eq!(sub.parameters().len(), 2);
        assert_eq!(sub.num_nodes(), 3);
    }
}
