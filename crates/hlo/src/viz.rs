//! Graphviz (DOT) export for computations and fused programs.

use crate::graph::Computation;
use crate::opcode::OpCategory;
use crate::program::FusedProgram;
use std::fmt::Write as _;

/// Fill color per op category, chosen for readable graphs.
fn color(cat: OpCategory) -> &'static str {
    match cat {
        OpCategory::Parameter => "#d0e6f7",
        OpCategory::Leaf => "#e8e8e8",
        OpCategory::ElementwiseUnary
        | OpCategory::ElementwiseBinary
        | OpCategory::ElementwiseTernary => "#d9f2d9",
        OpCategory::DataMovement => "#fff2cc",
        OpCategory::Reduction => "#fce5cd",
        OpCategory::Dot => "#f4cccc",
        OpCategory::Convolution => "#ead1dc",
        OpCategory::Other => "#ffffff",
    }
}

/// Render one computation as a DOT digraph.
///
/// # Example
///
/// ```
/// use tpu_hlo::{viz, DType, GraphBuilder, Shape};
/// let mut b = GraphBuilder::new("g");
/// let x = b.parameter("x", Shape::matrix(4, 4), DType::F32);
/// let y = b.tanh(x);
/// let dot = viz::to_dot(&b.finish(y));
/// assert!(dot.contains("digraph"));
/// assert!(dot.contains("tanh"));
/// ```
pub fn to_dot(c: &Computation) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", c.name());
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(
        out,
        "  node [shape=box, style=filled, fontname=\"monospace\"];"
    );
    for n in c.nodes() {
        let label = if n.name.is_empty() {
            format!("{} {}\\n{}{}", n.id, n.opcode, n.dtype, n.shape)
        } else {
            format!(
                "{} {} ({})\\n{}{}",
                n.id, n.opcode, n.name, n.dtype, n.shape
            )
        };
        let peripheries = if n.id == c.root() { 2 } else { 1 };
        let _ = writeln!(
            out,
            "  n{} [label=\"{}\", fillcolor=\"{}\", peripheries={}];",
            n.id.0,
            label,
            color(n.opcode.category()),
            peripheries
        );
    }
    for n in c.nodes() {
        for &op in &n.operands {
            let _ = writeln!(out, "  n{} -> n{};", op.0, n.id.0);
        }
    }
    out.push_str("}\n");
    out
}

/// Render a fused program as a DOT digraph with one cluster per kernel.
pub fn fused_to_dot(fp: &FusedProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", fp.name);
    let _ = writeln!(out, "  rankdir=TB; compound=true;");
    let _ = writeln!(
        out,
        "  node [shape=box, style=filled, fontname=\"monospace\"];"
    );
    for (ki, k) in fp.kernels.iter().enumerate() {
        let _ = writeln!(out, "  subgraph cluster_{ki} {{");
        let _ = writeln!(
            out,
            "    label=\"kernel {ki}: {:?} ({} ops)\"; style=rounded;",
            k.kind,
            k.num_ops()
        );
        for n in k.computation.nodes() {
            let label = format!("{}\\n{}{}", n.opcode, n.dtype, n.shape);
            let _ = writeln!(
                out,
                "    k{ki}n{} [label=\"{}\", fillcolor=\"{}\"];",
                n.id.0,
                label,
                color(n.opcode.category())
            );
        }
        for n in k.computation.nodes() {
            for &op in &n.operands {
                let _ = writeln!(out, "    k{ki}n{} -> k{ki}n{};", op.0, n.id.0);
            }
        }
        let _ = writeln!(out, "  }}");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::dtype::DType;
    use crate::kernel::Kernel;
    use crate::shape::Shape;

    fn sample() -> Computation {
        let mut b = GraphBuilder::new("viz");
        let x = b.parameter("x", Shape::matrix(4, 8), DType::F32);
        let w = b.parameter("w", Shape::matrix(8, 4), DType::F32);
        let d = b.dot(x, w);
        let t = b.tanh(d);
        b.finish(t)
    }

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let c = sample();
        let dot = to_dot(&c);
        assert!(dot.starts_with("digraph"));
        for n in c.nodes() {
            assert!(dot.contains(&format!("n{} [", n.id.0)));
        }
        assert_eq!(dot.matches("->").count(), c.num_edges());
    }

    #[test]
    fn root_is_double_bordered() {
        let c = sample();
        let dot = to_dot(&c);
        assert!(dot.contains("peripheries=2"));
    }

    #[test]
    fn fused_export_has_clusters() {
        let c = sample();
        let fp = FusedProgram::new("p", vec![Kernel::new(c.clone()), Kernel::new(c)]);
        let dot = fused_to_dot(&fp);
        assert!(dot.contains("cluster_0"));
        assert!(dot.contains("cluster_1"));
    }
}
