//! Whole tensor programs, before and after fusion.

use crate::graph::Computation;
use crate::kernel::Kernel;

/// An un-fused tensor program: a named computation graph whose nodes are
/// single primitive ops (the paper's §3.1 pre-fusion state).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Program name, e.g. `"resnet_v1_50"`.
    pub name: String,
    /// The main computation.
    pub computation: Computation,
}

impl Program {
    /// Create a program.
    pub fn new(name: impl Into<String>, computation: Computation) -> Program {
        Program {
            name: name.into(),
            computation,
        }
    }

    /// Number of primitive ops.
    pub fn num_nodes(&self) -> usize {
        self.computation.num_nodes()
    }
}

/// A program after the fusion pass: an ordered list of kernels. On the TPU
/// "one kernel is executed at a time" (§3.3), so the program runtime is the
/// sum of the kernel runtimes.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedProgram {
    /// Program name.
    pub name: String,
    /// The kernels, in execution order.
    pub kernels: Vec<Kernel>,
}

impl FusedProgram {
    /// Create a fused program.
    pub fn new(name: impl Into<String>, kernels: Vec<Kernel>) -> FusedProgram {
        FusedProgram {
            name: name.into(),
            kernels,
        }
    }

    /// Number of kernels.
    pub fn num_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// Total primitive ops across all kernels.
    pub fn num_ops(&self) -> usize {
        self.kernels.iter().map(Kernel::num_ops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::dtype::DType;
    use crate::shape::Shape;

    #[test]
    fn program_counts() {
        let mut b = GraphBuilder::new("main");
        let x = b.parameter("x", Shape::matrix(4, 4), DType::F32);
        let y = b.tanh(x);
        let p = Program::new("tiny", b.finish(y));
        assert_eq!(p.num_nodes(), 2);
        assert_eq!(p.name, "tiny");
    }

    #[test]
    fn fused_program_counts() {
        let mut b = GraphBuilder::new("k0");
        let x = b.parameter("x", Shape::matrix(4, 4), DType::F32);
        let y = b.tanh(x);
        let k = Kernel::new(b.finish(y));
        let fp = FusedProgram::new("tiny", vec![k.clone(), k]);
        assert_eq!(fp.num_kernels(), 2);
        assert_eq!(fp.num_ops(), 2);
    }
}
