//! The hand-written roofline cost model.

use tpu_hlo::{Kernel, OpCategory, Opcode, TileSize};
use tpu_sim::{conv_as_dot, dot_problem, TileGeometry, TpuConfig};
use tpu_tile::has_tile_options;

/// The analytical performance model: a roofline estimate in
/// **category-specific abstract units** (§6.1: "estimated costs of
/// different types of kernels … are in different scales").
///
/// This stands in for XLA's mature analytical model. It is tile-aware and
/// good at *ranking* tile sizes, but deliberately coarser than the
/// simulator that plays "real hardware":
///
/// - no MXU block quantization (smooth padding instead of 128-blocks),
/// - no pipeline-fill cycles or per-tile DMA latency,
/// - no double-buffering/working-set effects, spill modeling, or
///   bank-aliasing quirks,
/// - one flat cost for all elementwise ops (no transcendental table).
///
/// Kernels without tile-size options are unsupported and return `None`
/// (paper footnote 3).
#[derive(Debug, Clone)]
pub(crate) struct AnalyticalModel {
    cfg: TpuConfig,
    /// Hidden per-kind unit scales. Downstream users must calibrate these
    /// away (see [`Calibration`](crate::Calibration)); they model the fact
    /// that XLA's cost units are not nanoseconds.
    unit_scale: [f64; 5],
}

impl AnalyticalModel {
    /// Create the model for a machine configuration.
    pub(crate) fn new(cfg: TpuConfig) -> AnalyticalModel {
        AnalyticalModel {
            cfg,
            // Arbitrary non-1 scales per kernel kind (Single, LoopFusion,
            // InputFusion, OutputFusion, Convolution).
            unit_scale: [3.1, 2.2, 2.6, 0.9, 0.55],
        }
    }

    /// Raw cost in abstract units, or `None` for unsupported kernels
    /// (those without tile-size options).
    pub(crate) fn raw_cost(&self, k: &Kernel) -> Option<f64> {
        if !has_tile_options(k, &self.cfg) {
            return None;
        }
        let secs = self.roofline_ns(k);
        Some(secs * self.unit_scale[k.kind.index()])
    }

    /// The roofline estimate itself (ns-like scale, before unit scaling).
    fn roofline_ns(&self, k: &Kernel) -> f64 {
        let c = &k.computation;
        let root = c.node(c.root());
        let tile = k
            .tile
            .clone()
            .unwrap_or_else(|| TileSize(root.shape.dims().iter().rev().copied().collect()));

        // Tile geometry: tile count and the (sublane, lane) padding waste
        // — the hand model knows the register-file shape, which is exactly
        // what makes it strong at tile-size *ranking* (§6.2).
        let geo = TileGeometry::new(k, &tile, &self.cfg);
        let (n_tiles, pad_factor) = (geo.n_tiles as f64, geo.pad_factor);

        // --- compute ---
        let mut flops = 0.0f64;
        for n in c.nodes() {
            match n.opcode.category() {
                OpCategory::Dot => {
                    let p = dot_problem(c, n);
                    flops += 2.0 * (p.b * p.m * p.k * p.n) as f64 / mxu_efficiency(&tile, p.m, p.n);
                }
                OpCategory::Convolution => {
                    let p = conv_as_dot(c, n);
                    flops += 2.0 * (p.b * p.m * p.k * p.n) as f64 / pad_factor.min(2.0);
                }
                OpCategory::ElementwiseUnary
                | OpCategory::ElementwiseBinary
                | OpCategory::ElementwiseTernary => {
                    // Flat per-element cost scaled by lane-padding waste:
                    // the model does not know the transcendental cost
                    // table, but it does know ragged tiles waste lanes.
                    flops += n.elem_count() as f64 * 1.5 * pad_factor;
                }
                OpCategory::Reduction => {
                    let in_elems = c.node(n.operands[0]).elem_count();
                    flops += in_elems as f64 * 1.2 * pad_factor;
                }
                OpCategory::DataMovement => match n.opcode {
                    Opcode::Transpose | Opcode::Reverse | Opcode::Gather | Opcode::Scatter => {
                        flops += n.elem_count() as f64 * 2.0 * pad_factor;
                    }
                    _ => {}
                },
                _ => {}
            }
        }
        let heavy =
            k.contains_category(OpCategory::Dot) || k.contains_category(OpCategory::Convolution);
        let peak = if heavy {
            self.cfg.peak_matmul_flops()
        } else {
            // Vector unit peak.
            self.cfg.vpu_width() * self.cfg.clock_ghz * 1e9
        };
        // Per-tile loop cost: the model assumes a flat constant per tile,
        // an *underestimate* of the true DMA-latency-dominated cost (one
        // of its deliberate blind spots).
        let tile_overhead_ns = n_tiles * PER_TILE_OVERHEAD_NS;
        let compute_ns = flops / peak * 1e9 + tile_overhead_ns;

        // --- memory with tile reuse ---
        let out_bytes = root.output_bytes() as f64;
        let mut read_bytes = 0.0;
        let dot_node = c
            .nodes()
            .iter()
            .find(|n| matches!(n.opcode.category(), OpCategory::Dot));
        if let Some(h) = dot_node {
            let p = dot_problem(c, h);
            let rank = root.shape.rank();
            let m2m = root.layout.minor_to_major();
            let tile_of = |logical: usize| -> u64 {
                m2m.iter()
                    .position(|&d| d == logical)
                    .and_then(|i| tile.dims().get(i))
                    .map(|&t| t as u64)
                    .unwrap_or(1)
                    .max(1)
            };
            let tn = if rank >= 1 { tile_of(rank - 1) } else { p.n };
            let tm = if rank >= 2 { tile_of(rank - 2) } else { p.m };
            let lhs = c.node(h.operands[0]).output_bytes() as f64;
            let rhs = c.node(h.operands[1]).output_bytes() as f64;
            read_bytes += lhs * (p.n as f64 / tn.min(p.n) as f64).ceil();
            read_bytes += rhs * (p.m as f64 / tm.min(p.m) as f64).ceil();
            for &pid in &c.parameters() {
                if pid != h.operands[0] && pid != h.operands[1] {
                    read_bytes += c.node(pid).output_bytes() as f64;
                }
            }
        } else {
            for &pid in &c.parameters() {
                read_bytes += c.node(pid).output_bytes() as f64;
            }
        }
        let memory_ns = (read_bytes + out_bytes) / self.cfg.hbm_bytes_per_ns();

        // The model knows about the fixed kernel-launch overhead, but not
        // the per-tile DMA latencies, warm-up, or overlap behaviour.
        self.cfg.kernel_launch_ns + compute_ns.max(memory_ns)
    }
}

/// The analytical model's assumed flat cost per output tile, ns. The real
/// machine pays ~1 µs of DMA setup per tile; assuming less keeps the model
/// imperfect on tile-count-dominated kernels.
const PER_TILE_OVERHEAD_NS: f64 = 400.0;

/// Smooth MXU efficiency penalty for narrow tiles: the model knows narrow
/// tiles waste the array but approximates the quantized behaviour with a
/// continuous ratio.
fn mxu_efficiency(tile: &TileSize, m: u64, n: u64) -> f64 {
    let tn = tile.dims().first().copied().unwrap_or(128).max(1) as f64;
    let tm = tile.dims().get(1).copied().unwrap_or(128).max(1) as f64;
    let en = (tn.min(n as f64) / 128.0).min(1.0);
    let em = (tm.min(m as f64) / 128.0).min(1.0);
    (en * em).max(0.05)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_hlo::{DType, GraphBuilder, Shape};

    fn model() -> AnalyticalModel {
        AnalyticalModel::new(TpuConfig::default())
    }

    fn ew_kernel(rows: usize, cols: usize) -> Kernel {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(rows, cols), DType::F32);
        let t = b.tanh(x);
        Kernel::new(b.finish(t))
    }

    fn dot_kernel(m: usize, k: usize, n: usize) -> Kernel {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(m, k), DType::F32);
        let w = b.parameter("w", Shape::matrix(k, n), DType::F32);
        let d = b.dot(x, w);
        Kernel::new(b.finish(d))
    }

    #[test]
    fn unsupported_kernels_return_none() {
        let tiny = ew_kernel(4, 4);
        assert_eq!(model().raw_cost(&tiny), None);
    }

    #[test]
    fn supported_kernels_return_positive_cost() {
        let k = ew_kernel(1024, 1024);
        let cost = model().raw_cost(&k).unwrap();
        assert!(cost > 0.0);
    }

    #[test]
    fn cost_grows_with_size() {
        let m = model();
        let small = m.raw_cost(&ew_kernel(256, 256)).unwrap();
        let big = m.raw_cost(&ew_kernel(2048, 2048)).unwrap();
        assert!(big > small * 10.0);
    }

    #[test]
    fn units_differ_across_kinds() {
        // A dot kernel and an elementwise kernel with comparable simulator
        // runtimes get very different raw costs (different hidden scales),
        // which is exactly why calibration is needed.
        let m = model();
        let d = dot_kernel(512, 512, 512);
        let e = ew_kernel(2048, 2048);
        let rd = m.raw_cost(&d).unwrap();
        let re = m.raw_cost(&e).unwrap();
        let sd = tpu_sim::kernel_time_ns(&d, &TpuConfig::default());
        let se = tpu_sim::kernel_time_ns(&e, &TpuConfig::default());
        let scale_d = rd / sd;
        let scale_e = re / se;
        assert!(
            (scale_d / scale_e - 1.0).abs() > 0.2,
            "scales should differ: {scale_d} vs {scale_e}"
        );
    }

    #[test]
    fn tile_choice_affects_cost() {
        let m = model();
        let k = dot_kernel(1024, 512, 1024);
        let good = m
            .raw_cost(&k.clone().with_tile(TileSize(vec![256, 256])))
            .unwrap();
        let narrow = m
            .raw_cost(&k.clone().with_tile(TileSize(vec![8, 1024])))
            .unwrap();
        assert!(narrow > good, "good={good} narrow={narrow}");
    }

    #[test]
    fn analytical_ranks_tiles_like_simulator_roughly() {
        // The analytical model is purpose-built for tile selection: its
        // tile ranking should correlate with the simulator's.
        let m = model();
        let cfg = TpuConfig::default();
        let k = dot_kernel(1024, 512, 1024);
        let tiles = tpu_tile::valid_tile_sizes(&k, &cfg, 64);
        assert!(tiles.len() >= 4);
        let mut agree = 0;
        let mut total = 0;
        for i in 0..tiles.len() {
            for j in (i + 1)..tiles.len() {
                let ki = k.clone().with_tile(tiles[i].clone());
                let kj = k.clone().with_tile(tiles[j].clone());
                let ai = m.raw_cost(&ki).unwrap();
                let aj = m.raw_cost(&kj).unwrap();
                let si = tpu_sim::kernel_time_ns(&ki, &cfg);
                let sj = tpu_sim::kernel_time_ns(&kj, &cfg);
                if (ai < aj) == (si < sj) {
                    agree += 1;
                }
                total += 1;
            }
        }
        let frac = agree as f64 / total as f64;
        assert!(frac > 0.7, "tile rank agreement too low: {frac}");
    }
}
