//! Program-level performance analysis and human-readable reports.

use crate::config::TpuConfig;
use crate::kernel_exec::{analyze_kernel, KernelTiming};
use tpu_hlo::{FusedProgram, KernelKind};

/// What limits a kernel's performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// MXU/VPU arithmetic dominates.
    Compute,
    /// HBM traffic / DMA latency dominates.
    Memory,
    /// Fixed launch/loop overheads dominate (tiny kernel).
    Overhead,
}

/// Per-kernel analysis row.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Index within the program.
    pub index: usize,
    /// Fusion kind.
    pub kind: KernelKind,
    /// Primitive op count.
    pub ops: usize,
    /// Timing breakdown.
    pub timing: KernelTiming,
    /// The limiting resource.
    pub bottleneck: Bottleneck,
}

/// Whole-program analysis.
#[derive(Debug, Clone)]
pub struct ProgramReport {
    /// Program name.
    pub name: String,
    /// Per-kernel rows, in execution order.
    pub kernels: Vec<KernelReport>,
    /// Total runtime, ns.
    pub total_ns: f64,
}

/// Classify what limits a kernel.
fn bottleneck_of(t: &KernelTiming) -> Bottleneck {
    if t.overhead_ns >= t.compute_ns.max(t.memory_ns) {
        Bottleneck::Overhead
    } else if t.compute_ns >= t.memory_ns {
        Bottleneck::Compute
    } else {
        Bottleneck::Memory
    }
}

/// Analyze every kernel of a fused program (noiseless).
pub fn analyze_program(p: &FusedProgram, cfg: &TpuConfig) -> ProgramReport {
    let kernels: Vec<KernelReport> = p
        .kernels
        .iter()
        .enumerate()
        .map(|(index, k)| {
            let timing = analyze_kernel(k, cfg);
            KernelReport {
                index,
                kind: k.kind,
                ops: k.num_ops(),
                bottleneck: bottleneck_of(&timing),
                timing,
            }
        })
        .collect();
    let total_ns = kernels.iter().map(|k| k.timing.total_ns).sum();
    ProgramReport {
        name: p.name.clone(),
        kernels,
        total_ns,
    }
}

impl ProgramReport {
    /// Fraction of total time in kernels with the given bottleneck.
    fn time_fraction(&self, b: Bottleneck) -> f64 {
        if self.total_ns == 0.0 {
            return 0.0;
        }
        self.kernels
            .iter()
            .filter(|k| k.bottleneck == b)
            .map(|k| k.timing.total_ns)
            .sum::<f64>()
            / self.total_ns
    }

    /// The `n` slowest kernels, descending.
    fn hottest(&self, n: usize) -> Vec<&KernelReport> {
        let mut rows: Vec<&KernelReport> = self.kernels.iter().collect();
        rows.sort_by(|a, b| b.timing.total_ns.total_cmp(&a.timing.total_ns));
        rows.truncate(n);
        rows
    }

    /// Render a text report (for CLI/debugging).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "program `{}`: {} kernels, total {:.3} ms",
            self.name,
            self.kernels.len(),
            self.total_ns / 1e6
        );
        let _ = writeln!(
            out,
            "time split: {:.0}% compute-bound, {:.0}% memory-bound, {:.0}% overhead-bound",
            100.0 * self.time_fraction(Bottleneck::Compute),
            100.0 * self.time_fraction(Bottleneck::Memory),
            100.0 * self.time_fraction(Bottleneck::Overhead),
        );
        let _ = writeln!(out, "hottest kernels:");
        for k in self.hottest(5) {
            let _ = writeln!(
                out,
                "  #{:<3} {:?} ops={:<3} {:>10.2} us ({:?}-bound, {} tiles)",
                k.index,
                k.kind,
                k.ops,
                k.timing.total_ns / 1000.0,
                k.bottleneck,
                k.timing.n_tiles
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_hlo::{DType, GraphBuilder, Kernel, Shape};

    fn program() -> FusedProgram {
        let mut kernels = Vec::new();
        // Compute-bound: big dot.
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(1024, 1024), DType::F32);
        let w = b.parameter("w", Shape::matrix(1024, 1024), DType::F32);
        let d = b.dot(x, w);
        kernels.push(Kernel::new(b.finish(d)));
        // Memory-bound: big elementwise.
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(2048, 2048), DType::F32);
        let t = b.abs(x);
        kernels.push(Kernel::new(b.finish(t)));
        // Overhead-bound: tiny op.
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(4, 4), DType::F32);
        let t = b.tanh(x);
        kernels.push(Kernel::new(b.finish(t)));
        FusedProgram::new("report", kernels)
    }

    #[test]
    fn bottlenecks_classified() {
        let cfg = TpuConfig::default();
        let report = analyze_program(&program(), &cfg);
        assert_eq!(report.kernels[0].bottleneck, Bottleneck::Compute);
        assert_eq!(report.kernels[1].bottleneck, Bottleneck::Memory);
        assert_eq!(report.kernels[2].bottleneck, Bottleneck::Overhead);
    }

    #[test]
    fn totals_and_fractions_consistent() {
        let cfg = TpuConfig::default();
        let report = analyze_program(&program(), &cfg);
        let sum: f64 = report.kernels.iter().map(|k| k.timing.total_ns).sum();
        assert!((report.total_ns - sum).abs() < 1e-6);
        let f = report.time_fraction(Bottleneck::Compute)
            + report.time_fraction(Bottleneck::Memory)
            + report.time_fraction(Bottleneck::Overhead);
        assert!((f - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hottest_sorted_descending() {
        let cfg = TpuConfig::default();
        let report = analyze_program(&program(), &cfg);
        let hot = report.hottest(3);
        for w in hot.windows(2) {
            assert!(w[0].timing.total_ns >= w[1].timing.total_ns);
        }
    }

    #[test]
    fn render_contains_key_facts() {
        let cfg = TpuConfig::default();
        let report = analyze_program(&program(), &cfg);
        let text = report.render();
        assert!(text.contains("3 kernels"));
        assert!(text.contains("hottest"));
    }
}
