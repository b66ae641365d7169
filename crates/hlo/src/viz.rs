//! Graphviz (DOT) export for fused programs.

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
    use crate::graph::Computation;
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
    fn fused_export_has_clusters() {
        let c = sample();
        let fp = FusedProgram::new("p", vec![Kernel::new(c.clone()), Kernel::new(c)]);
        let dot = fused_to_dot(&fp);
        assert!(dot.contains("cluster_0"));
        assert!(dot.contains("cluster_1"));
    }
}
