//! Nodes of a computation graph.

use crate::attrs::NodeAttrs;
use crate::dtype::DType;
use crate::opcode::Opcode;
use crate::shape::{Layout, Shape};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node within a [`Computation`](crate::Computation).
///
/// Ids are dense indices assigned in insertion order; because the builder
/// only lets a node reference already-inserted operands, `operand.0 <
/// node.0` holds for every edge, which makes insertion order a topological
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A single primitive tensor operation in a computation graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// This node's id within its computation.
    pub id: NodeId,
    /// The operation performed.
    pub opcode: Opcode,
    /// Element type of the output tensor.
    pub dtype: DType,
    /// Logical shape of the output tensor.
    pub shape: Shape,
    /// Physical layout of the output tensor.
    pub layout: Layout,
    /// Operand node ids, in operand order.
    pub operands: Vec<NodeId>,
    /// Operation configuration.
    pub attrs: NodeAttrs,
    /// Optional human-readable name (parameters keep their given names).
    pub name: String,
}

impl Node {
    /// Output tensor size in bytes.
    pub fn output_bytes(&self) -> u64 {
        self.shape.byte_size(self.dtype)
    }

    /// Number of output elements.
    pub fn elem_count(&self) -> u64 {
        self.shape.elem_count()
    }

    /// Whether this node is a graph input.
    pub fn is_parameter(&self) -> bool {
        self.opcode == Opcode::Parameter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Node {
        Node {
            id: NodeId(7),
            opcode: Opcode::Tanh,
            dtype: DType::F32,
            shape: Shape::new(vec![8, 128]),
            layout: Layout::default_for_rank(2),
            operands: vec![NodeId(2)],
            attrs: NodeAttrs::none(),
            name: String::new(),
        }
    }

    #[test]
    fn byte_and_elem_counts() {
        let n = sample();
        assert_eq!(n.elem_count(), 1024);
        assert_eq!(n.output_bytes(), 4096);
        assert!(!n.is_parameter());
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(12).to_string(), "%12");
        assert_eq!(NodeId(12).index(), 12);
    }
}
