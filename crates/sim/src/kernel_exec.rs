//! Kernel execution timing: the tile loop, DMA traffic, and compute/memory
//! overlap that determine a kernel's runtime.

use crate::config::TpuConfig;
use crate::cost::{dot_problem, mxu_cycles, node_compute_cycles, DotProblem};
use tpu_hlo::{Kernel, Node, OpAttrs, OpCategory, Opcode, TileSize};

/// Detailed timing breakdown for one kernel execution (noiseless).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTiming {
    /// Pure compute time, ns.
    pub compute_ns: f64,
    /// Pure HBM/DMA time, ns.
    pub memory_ns: f64,
    /// Launch + tile-loop overheads, ns.
    pub overhead_ns: f64,
    /// Total kernel time, ns.
    pub total_ns: f64,
    /// Number of output tiles executed.
    pub n_tiles: u64,
    /// Estimated VMEM working set, bytes.
    pub working_set: u64,
    /// Whether double buffering (compute/DMA overlap) was possible.
    pub double_buffered: bool,
}

/// The output-tile geometry of a kernel at one tiling: what the simulator
/// and the analytical baseline both read.
#[derive(Debug, Clone, PartialEq)]
pub struct TileGeometry {
    /// `per_dim[d]` is the tile extent along logical output dimension `d`.
    pub per_dim: Vec<usize>,
    /// Number of output tiles.
    pub n_tiles: u64,
    /// Vector-register padding waste: tiles are processed in (sublanes ×
    /// lanes) registers, so ragged tiles waste lanes. The lane factor times
    /// the sublane factor, each capped at 4.
    pub pad_factor: f64,
}

impl TileGeometry {
    /// The geometry of `k`'s output tiled by `tile` (extents in the
    /// output's minor-to-major order) on `cfg`'s vector unit.
    pub fn new(k: &Kernel, tile: &TileSize, cfg: &TpuConfig) -> TileGeometry {
        let root = k.computation.node(k.computation.root());
        let dims = root.shape.dims();
        let mut per_dim = dims.to_vec();
        for (&d, &t) in root.layout.minor_to_major().iter().zip(tile.dims()) {
            per_dim[d] = t.min(dims[d]).max(1);
        }
        let n_tiles = dims
            .iter()
            .zip(&per_dim)
            .map(|(&d, &t)| (d as u64).div_ceil(t as u64))
            .product::<u64>()
            .max(1);
        let minor = per_dim.last().map_or(1, |&t| t.max(1)) as f64;
        let subminor = match per_dim.len() {
            0 | 1 => 1.0,
            n => per_dim[n - 2].max(1) as f64,
        };
        let pad = |extent: f64, width: usize| {
            ((extent / width as f64).ceil() * width as f64 / extent).min(4.0)
        };
        let pad_factor = pad(minor, cfg.vpu_lanes) * pad(subminor, cfg.vpu_sublanes);
        TileGeometry {
            per_dim,
            n_tiles,
            pad_factor,
        }
    }
}

/// A reasonable compiler-default tile: the full output, with major
/// dimensions halved until the *output* working set fits comfortably in
/// VMEM. Like a quick compiler default, it does not account for operand
/// slices, so huge-contraction dots may still spill — one of the
/// suboptimalities an autotuner (or a better tile search over
/// [`crate::tile_fits`]-validated candidates) can exploit.
pub fn default_tile(k: &Kernel, cfg: &TpuConfig) -> TileSize {
    let root = k.computation.node(k.computation.root());
    let m2m = root.layout.minor_to_major();
    let mut dims: Vec<usize> = m2m.iter().map(|&d| root.shape.dim(d)).collect();
    if dims.is_empty() {
        return TileSize(vec![1]);
    }
    let budget = cfg.vmem_bytes / 3;
    let elem = root.dtype.size_bytes() as u64;
    // Shrink from the major-most end so the minor (lane) dimension stays
    // wide, as a real compiler would.
    let mut idx = dims.len();
    while dims.iter().map(|&d| d as u64).product::<u64>() * elem * 3 > budget {
        if idx == 0 {
            break;
        }
        idx -= 1;
        while dims[idx] > 1 && dims.iter().map(|&d| d as u64).product::<u64>() * elem * 3 > budget {
            dims[idx] = dims[idx].div_ceil(2);
        }
    }
    TileSize(dims)
}

struct Traffic {
    read_bytes: f64,
    write_bytes: f64,
    input_slice_bytes: f64,
}

/// HBM traffic and per-tile input residency for the kernel at the given
/// tiling. Dot- and conv-rooted kernels re-read their big operands once per
/// tile row/column — the classic tiling reuse trade-off.
fn traffic(k: &Kernel, geo: &TileGeometry) -> Traffic {
    let (per_dim, n_tiles) = (&geo.per_dim, geo.n_tiles);
    let c = &k.computation;
    let root = c.node(c.root());
    let write_bytes = root.output_bytes() as f64;

    // Identify a dominant heavy op (dot or conv) if present.
    let heavy = c
        .nodes()
        .iter()
        .filter(|n| {
            matches!(
                n.opcode.category(),
                OpCategory::Dot | OpCategory::Convolution
            )
        })
        .max_by_key(|n| n.elem_count());

    let mut read_bytes = 0.0;
    let mut input_slice_bytes = 0.0;

    if let Some(h) = heavy {
        let (lhs_id, rhs_id) = (h.operands[0], h.operands[1]);
        let lhs = c.node(lhs_id);
        let rhs = c.node(rhs_id);
        let elem = root.dtype.size_bytes() as f64;
        match h.opcode {
            Opcode::Dot => {
                let p = dot_problem(c, h);
                // Output [.., M, N]; minor tile covers N, next covers M.
                let rank = root.shape.rank();
                let tn = if rank >= 1 {
                    per_dim[rank - 1] as u64
                } else {
                    p.n
                };
                let tm = if rank >= 2 {
                    per_dim[rank - 2] as u64
                } else {
                    p.m
                };
                let row_passes = p.n.div_ceil(tn.max(1)) as f64;
                let col_passes = p.m.div_ceil(tm.max(1)) as f64;
                read_bytes += lhs.output_bytes() as f64 * row_passes;
                read_bytes += rhs.output_bytes() as f64 * col_passes;
                input_slice_bytes += (tm * p.k) as f64 * elem + (p.k * tn) as f64 * elem;
            }
            _ => {
                // Convolution: input re-read with halo overlap; filter
                // resident if small, re-fetched per spatial tile otherwise.
                let OpAttrs::Conv(conv) = &h.attrs else {
                    panic!("conv attrs")
                };
                let halo = 1.0
                    + 0.5 * ((conv.filter_h - 1) + (conv.filter_w - 1)) as f64
                        / (per_dim.get(1).copied().unwrap_or(8) as f64 + 1.0);
                read_bytes += lhs.output_bytes() as f64 * halo;
                let filter_bytes = rhs.output_bytes() as f64;
                if filter_bytes < 2.0 * 1024.0 * 1024.0 {
                    read_bytes += filter_bytes;
                } else {
                    read_bytes += filter_bytes * (n_tiles as f64).sqrt();
                }
                input_slice_bytes += filter_bytes.min(2.0 * 1024.0 * 1024.0)
                    + lhs.output_bytes() as f64 / n_tiles as f64 * halo;
            }
        }
        // Remaining parameters (side inputs to fused elementwise ops).
        for &pid in &c.parameters() {
            if pid != lhs_id && pid != rhs_id {
                let b = c.node(pid).output_bytes() as f64;
                read_bytes += b;
                input_slice_bytes += b / n_tiles as f64;
            }
        }
    } else {
        for &pid in &c.parameters() {
            let b = c.node(pid).output_bytes() as f64;
            read_bytes += b;
            input_slice_bytes += b / n_tiles as f64;
        }
    }

    Traffic {
        read_bytes,
        write_bytes,
        input_slice_bytes,
    }
}

/// Estimated VMEM working set, in bytes, of the tiling `geo` describes,
/// given that tiling's HBM traffic `tr`.
fn working_set_bytes(k: &Kernel, geo: &TileGeometry, tr: &Traffic) -> u64 {
    let root = k.computation.node(k.computation.root());
    let out_tile_bytes: u64 = geo
        .per_dim
        .iter()
        .map(|&t| t as u64)
        .product::<u64>()
        .max(1)
        * root.dtype.size_bytes() as u64;
    // Live intermediates scale with the fused op count, sublinearly: a
    // fused loop keeps only a few registers' worth per op alive, but deep
    // fusions still need buffer space.
    let live = (k.num_ops() as f64).sqrt().min(4.0);
    out_tile_bytes + (out_tile_bytes as f64 * live) as u64 + tr.input_slice_bytes as u64
}

/// Whether the tile's working set fits in VMEM.
pub fn tile_fits(k: &Kernel, tile: &TileSize, cfg: &TpuConfig) -> bool {
    let geo = TileGeometry::new(k, tile, cfg);
    working_set_bytes(k, &geo, &traffic(k, &geo)) <= cfg.vmem_bytes
}

/// Noiseless timing analysis of one kernel execution.
///
/// If the kernel has no tile size attached, a compiler-default tile from
/// [`default_tile`] is used.
pub fn analyze_kernel(k: &Kernel, cfg: &TpuConfig) -> KernelTiming {
    let c = &k.computation;
    let root = c.node(c.root());
    let geo = match &k.tile {
        Some(tile) => TileGeometry::new(k, tile, cfg),
        None => TileGeometry::new(k, &default_tile(k, cfg), cfg),
    };
    let (per_dim, n_tiles) = (&geo.per_dim, geo.n_tiles);

    // --- compute ---
    let mut mxu = 0.0f64;
    let mut vpu = 0.0f64;
    for n in c.nodes() {
        let cyc = node_compute_cycles(c, n, cfg);
        match n.opcode.category() {
            OpCategory::Dot | OpCategory::Convolution => mxu += cyc,
            _ => vpu += cyc,
        }
    }

    // Per-tile MXU efficiency: a dot kernel tiled to (tm, tn) executes
    // ceil-padded passes per tile; narrow tiles waste the array. Only
    // meaningful when the kernel has a single dot whose output shape the
    // kernel's output inherits (the usual epilogue-fusion case) — kernels
    // with other geometry keep the base estimate.
    let dots: Vec<&Node> = c
        .nodes()
        .iter()
        .filter(|n| n.opcode == Opcode::Dot)
        .collect();
    if let [h] = dots.as_slice() {
        let p = dot_problem(c, h);
        let rank = root.shape.rank();
        if rank >= 2 && root.shape.dims() == h.shape.dims() {
            let tn = per_dim[rank - 1] as u64;
            let tm = per_dim[rank - 2] as u64;
            let tiled = DotProblem {
                b: p.b,
                m: tm.min(p.m),
                k: p.k,
                n: tn.min(p.n),
            };
            let per_tile = mxu_cycles(tiled, cfg);
            let tiles_mn = p.m.div_ceil(tm.max(1)) * p.n.div_ceil(tn.max(1));
            let retiled = per_tile * tiles_mn as f64;
            // Never cheaper than the untiled ideal.
            mxu = mxu.max(retiled);
        }
    } else if dots.len() > 1 {
        // Multiple matmuls in one loop nest share MXU feeding poorly.
        mxu *= 1.15;
    }

    vpu *= geo.pad_factor;

    let compute_ns = (mxu + vpu) / cfg.clock_ghz;

    // --- memory ---
    let tr = traffic(k, &geo);
    let mut memory_ns = (tr.read_bytes + tr.write_bytes) / cfg.hbm_bytes_per_ns()
        + n_tiles as f64 * 2.0 * cfg.dma_latency_ns;

    // Bank-aliasing quirk: power-of-two-aligned wide tiles hit the same HBM
    // banks; a real machine effect the analytical model does not know.
    let minor = per_dim.last().map_or(1, |&t| t.max(1));
    if minor >= 256 && minor.is_multiple_of(256) {
        memory_ns *= 1.06;
    }

    // --- working set / overlap ---
    let ws = working_set_bytes(k, &geo, &tr);
    let double_buffered = 2 * ws <= cfg.vmem_bytes;
    if ws > cfg.vmem_bytes {
        // The compiler would spill; model it as a heavy traffic penalty.
        memory_ns *= 6.0;
    }

    let overlap = if double_buffered { cfg.overlap } else { 0.0 };
    let overhead_ns = cfg.kernel_launch_ns + n_tiles as f64 * cfg.tile_loop_ns;
    let bound = compute_ns.max(memory_ns);
    let slack = compute_ns.min(memory_ns);
    let total_ns = overhead_ns + bound + (1.0 - overlap) * slack;

    KernelTiming {
        compute_ns,
        memory_ns,
        overhead_ns,
        total_ns,
        n_tiles,
        working_set: ws,
        double_buffered,
    }
}

/// Noiseless kernel runtime in nanoseconds.
pub fn kernel_time_ns(k: &Kernel, cfg: &TpuConfig) -> f64 {
    analyze_kernel(k, cfg).total_ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_hlo::{DType, GraphBuilder, Kernel, Shape};

    fn cfg() -> TpuConfig {
        TpuConfig::default()
    }

    fn elementwise_kernel(rows: usize, cols: usize) -> Kernel {
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
    fn bigger_kernels_take_longer() {
        let small = kernel_time_ns(&elementwise_kernel(64, 128), &cfg());
        let big = kernel_time_ns(&elementwise_kernel(1024, 1024), &cfg());
        assert!(big > small * 5.0, "small={small} big={big}");
    }

    #[test]
    fn elementwise_is_memory_bound() {
        let t = analyze_kernel(&elementwise_kernel(2048, 2048), &cfg());
        assert!(t.memory_ns > t.compute_ns);
    }

    #[test]
    fn big_dot_is_compute_bound() {
        let t = analyze_kernel(&dot_kernel(1024, 1024, 1024), &cfg());
        assert!(t.compute_ns > t.memory_ns, "{t:?}");
    }

    #[test]
    fn tile_size_changes_runtime() {
        let k = dot_kernel(1024, 512, 1024);
        let good = kernel_time_ns(&k.clone().with_tile(TileSize(vec![256, 256])), &cfg());
        let narrow = kernel_time_ns(&k.clone().with_tile(TileSize(vec![8, 1024])), &cfg());
        assert!(
            narrow > good * 1.2,
            "narrow tiles should be slower: good={good} narrow={narrow}"
        );
    }

    #[test]
    fn ragged_tile_wastes_lanes() {
        let k = elementwise_kernel(1024, 1024);
        let aligned = kernel_time_ns(&k.clone().with_tile(TileSize(vec![128, 64])), &cfg());
        let ragged = kernel_time_ns(&k.clone().with_tile(TileSize(vec![100, 64])), &cfg());
        assert!(ragged > aligned, "aligned={aligned} ragged={ragged}");
    }

    #[test]
    fn default_tile_fits_vmem() {
        let k = elementwise_kernel(4096, 4096); // 64 MiB output
        let t = default_tile(&k, &cfg());
        assert!(tile_fits(&k, &t, &cfg()), "default tile must fit: {t}");
    }

    #[test]
    fn oversized_tile_detected() {
        let k = elementwise_kernel(4096, 4096);
        let whole = TileSize(vec![4096, 4096]);
        assert!(!tile_fits(&k, &whole, &cfg()));
        // And it runs slower than a fitting tile due to spill modeling.
        let spilled = kernel_time_ns(&k.clone().with_tile(whole), &cfg());
        let fitting = kernel_time_ns(&k.clone().with_tile(TileSize(vec![512, 512])), &cfg());
        assert!(spilled > fitting);
    }

    #[test]
    fn fusion_saves_memory_traffic() {
        // Two standalone elementwise kernels vs one fused kernel doing both
        // ops: the fused kernel avoids one HBM round-trip.
        let mut b = GraphBuilder::new("fused");
        let x = b.parameter("x", Shape::matrix(2048, 2048), DType::F32);
        let t = b.tanh(x);
        let e = b.exp(t);
        let fused = Kernel::new(b.finish(e));

        let k1 = elementwise_kernel(2048, 2048);
        let mut b2 = GraphBuilder::new("k2");
        let x2 = b2.parameter("x", Shape::matrix(2048, 2048), DType::F32);
        let e2 = b2.exp(x2);
        let k2 = Kernel::new(b2.finish(e2));

        let fused_ns = kernel_time_ns(&fused, &cfg());
        let split_ns = kernel_time_ns(&k1, &cfg()) + kernel_time_ns(&k2, &cfg());
        assert!(
            fused_ns < split_ns * 0.75,
            "fused={fused_ns} split={split_ns}"
        );
    }

    #[test]
    fn many_tiny_tiles_add_overhead() {
        let k = elementwise_kernel(1024, 1024);
        let few = kernel_time_ns(&k.clone().with_tile(TileSize(vec![1024, 256])), &cfg());
        let many = kernel_time_ns(&k.clone().with_tile(TileSize(vec![8, 8])), &cfg());
        assert!(many > few * 2.0, "few={few} many={many}");
    }

    #[test]
    fn timing_fields_consistent() {
        let t = analyze_kernel(&dot_kernel(256, 256, 256), &cfg());
        assert!(t.total_ns >= t.compute_ns.max(t.memory_ns));
        assert!(t.total_ns >= t.overhead_ns);
        assert!(t.n_tiles >= 1);
    }
}
