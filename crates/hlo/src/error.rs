//! Error types for IR construction and validation.

use crate::node::NodeId;
use std::fmt;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, HloError>;

/// Errors produced while constructing, validating, or parsing computations.
#[derive(Debug, Clone, PartialEq)]
pub enum HloError {
    /// A node refers to an operand id that does not exist.
    UnknownOperand {
        /// The node with the dangling reference.
        node: NodeId,
        /// The missing operand id.
        operand: NodeId,
    },
    /// A node has the wrong number of operands for its opcode.
    ArityMismatch {
        /// The offending node.
        node: NodeId,
        /// Expected operand count.
        expected: usize,
        /// Actual operand count.
        actual: usize,
    },
    /// The graph contains a cycle.
    Cycle {
        /// A node participating in the cycle.
        node: NodeId,
    },
    /// A required attribute is missing (e.g. a `dot` node without
    /// [`DotDims`](crate::DotDims)).
    MissingAttr {
        /// The offending node.
        node: NodeId,
        /// Name of the missing attribute.
        attr: &'static str,
    },
    /// Operand shapes are inconsistent with the opcode.
    ShapeMismatch {
        /// The offending node.
        node: NodeId,
        /// Human-readable explanation.
        reason: String,
    },
    /// The designated root node does not exist.
    BadRoot {
        /// The missing root id.
        root: NodeId,
    },
    /// The computation has no nodes.
    Empty,
    /// Text-format parse error.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable explanation.
        reason: String,
    },
}

impl fmt::Display for HloError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HloError::UnknownOperand { node, operand } => {
                write!(f, "node {node} references unknown operand {operand}")
            }
            HloError::ArityMismatch {
                node,
                expected,
                actual,
            } => write!(f, "node {node} has {actual} operands, expected {expected}"),
            HloError::Cycle { node } => write!(f, "cycle detected through node {node}"),
            HloError::MissingAttr { node, attr } => {
                write!(f, "node {node} is missing required attribute `{attr}`")
            }
            HloError::ShapeMismatch { node, reason } => {
                write!(f, "shape mismatch at node {node}: {reason}")
            }
            HloError::BadRoot { root } => write!(f, "root node {root} does not exist"),
            HloError::Empty => write!(f, "computation has no nodes"),
            HloError::Parse { line, reason } => write!(f, "parse error on line {line}: {reason}"),
        }
    }
}

impl std::error::Error for HloError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let errs = [
            HloError::UnknownOperand {
                node: NodeId(3),
                operand: NodeId(9),
            },
            HloError::Cycle { node: NodeId(0) },
            HloError::Empty,
            HloError::Parse {
                line: 4,
                reason: "bad opcode".into(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
