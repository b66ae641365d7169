//! Enumerating the valid tile sizes of a kernel (§3.2: "the number of
//! valid tile sizes ranges from two to 500,000 depending on the kernel").

use tpu_hlo::{Kernel, TileSize};
use tpu_sim::{tile_fits, TpuConfig};

/// Outputs smaller than this have no tile-size options: they fit in a
/// couple of vector registers and the compiler does not tile them. These
/// are the kernels the analytical model cannot score (paper footnote 3 —
/// ~1% of kernels; mostly tiny reductions and scalar epilogues here).
pub const MIN_TILABLE_ELEMS: u64 = 256;

/// The output dimensions of a kernel that has tile-size options, in
/// minor-to-major order, each with its hardware alignment (128 lanes for
/// the minor dimension, 8 sublanes for the second minor, unaligned for
/// outer dimensions); `None` for an output under the size floor.
fn tilable_dims(k: &Kernel) -> Option<impl Iterator<Item = (usize, usize)> + '_> {
    let root = k.computation.node(k.computation.root());
    if root.shape.is_scalar() || root.shape.elem_count() < MIN_TILABLE_ELEMS {
        return None;
    }
    let m2m = root.layout.minor_to_major();
    Some(m2m.iter().enumerate().map(|(i, &d)| {
        let align = match i {
            0 => 128,
            1 => 8,
            _ => 1,
        };
        (root.shape.dim(d), align)
    }))
}

/// The divisors `frac` of a dimension's unaligned extents
/// `d.div_ceil(frac)`.
fn unaligned_fracs(align: usize) -> &'static [usize] {
    if align > 1 {
        &[3, 5, 7, 9]
    } else {
        &[3, 5]
    }
}

/// Candidate extents for one dimension of size `d` with hardware alignment
/// `align`.
fn dim_candidates(d: usize, align: usize) -> Vec<usize> {
    let mut out = Vec::new();
    if align > 1 {
        // Aligned extents: 1×, 2×, 3×, 4×, 6×, 8×, 12×, 16×, … of the
        // hardware alignment. Many of these have near-identical runtimes —
        // exactly the near-ties that make tile ranking hard in practice.
        for mult in [1usize, 2, 3, 4, 6, 8, 12, 16, 24, 32] {
            let v = align * mult;
            if v < d {
                out.push(v);
            }
        }
    } else {
        let mut v = 1;
        while v < d {
            out.push(v);
            v *= 2;
        }
    }
    // Deliberately unaligned extents — real compilers expose them, and
    // they are the slow options a good model must rank low.
    for &frac in unaligned_fracs(align) {
        let u = d.div_ceil(frac);
        if u > 1 && u < d {
            out.push(u);
        }
    }
    out.push(d);
    out.sort_unstable();
    out.dedup();
    out
}

/// The smallest of [`dim_candidates`]`(d, align)`, without building them:
/// the first aligned extent (or 1), the finest unaligned one or `d`.
fn smallest_candidate(d: usize, align: usize) -> usize {
    unaligned_fracs(align)
        .iter()
        .map(|&frac| d.div_ceil(frac))
        .filter(|&u| u > 1)
        .chain([align])
        .filter(|&v| v < d)
        .fold(d, usize::min)
}

/// Enumerate the valid tile sizes for a kernel's output tensor, in
/// minor-to-major order per the output layout. Tiles whose working set
/// exceeds VMEM are excluded. Returns an empty vector for kernels without
/// tile-size options.
///
/// The candidate count is capped at `max_candidates` by coarsening the
/// outer dimensions first, mirroring how a compiler prunes its search.
pub fn valid_tile_sizes(k: &Kernel, cfg: &TpuConfig, max_candidates: usize) -> Vec<TileSize> {
    let Some(dims) = tilable_dims(k) else {
        return Vec::new();
    };
    let mut per_dim: Vec<Vec<usize>> = dims.map(|(d, align)| dim_candidates(d, align)).collect();

    // Cap the cartesian product by trimming outer-dimension choices.
    loop {
        let total: usize = per_dim.iter().map(Vec::len).product();
        if total <= max_candidates.max(1) {
            break;
        }
        // Trim the dimension with the most candidates, outermost first.
        let idx = (0..per_dim.len())
            .rev()
            .max_by_key(|&i| per_dim[i].len())
            .unwrap();
        if per_dim[idx].len() <= 2 {
            break;
        }
        // Drop every other candidate, keeping the extremes.
        let kept: Vec<usize> = per_dim[idx]
            .iter()
            .enumerate()
            .filter(|&(j, _)| j % 2 == 0 || j == per_dim[idx].len() - 1)
            .map(|(_, &v)| v)
            .collect();
        per_dim[idx] = kept;
    }

    let mut tiles = Vec::new();
    let mut idx = vec![0usize; per_dim.len()];
    'outer: loop {
        let tile = TileSize(
            idx.iter()
                .enumerate()
                .map(|(i, &j)| per_dim[i][j])
                .collect(),
        );
        if tile_fits(k, &tile, cfg) {
            tiles.push(tile);
        }
        // Odometer increment.
        for i in 0..idx.len() {
            idx[i] += 1;
            if idx[i] < per_dim[i].len() {
                continue 'outer;
            }
            idx[i] = 0;
        }
        break;
    }
    tiles
}

/// Whether a kernel has tile-size options at all: whether its output is
/// over the size floor and the tile of each dimension's smallest candidate
/// fits VMEM. That tile is the first [`valid_tile_sizes`] tries (capping
/// keeps every dimension's smallest candidate), and the working set grows
/// with the tile, so no other candidate fits when it does not
/// (`tests/tile_options.rs` checks the two answers agree).
pub fn has_tile_options(k: &Kernel, cfg: &TpuConfig) -> bool {
    tilable_dims(k).is_some_and(|dims| {
        let smallest = TileSize(
            dims.map(|(d, align)| smallest_candidate(d, align))
                .collect(),
        );
        tile_fits(k, &smallest, cfg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_hlo::{DType, GraphBuilder, Shape};

    fn cfg() -> TpuConfig {
        TpuConfig::default()
    }

    fn kernel(dims: Vec<usize>) -> Kernel {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::new(dims), DType::F32);
        let t = b.tanh(x);
        Kernel::new(b.finish(t))
    }

    #[test]
    fn smallest_candidate_is_the_first_enumerated() {
        for align in [1, 8, 128] {
            for d in 1..=20_000 {
                assert_eq!(
                    smallest_candidate(d, align),
                    dim_candidates(d, align)[0],
                    "d {d}, align {align}"
                );
            }
        }
    }

    #[test]
    fn tiny_kernel_has_no_options() {
        let k = kernel(vec![4, 4]);
        assert!(valid_tile_sizes(&k, &cfg(), 1000).is_empty());
        assert!(!has_tile_options(&k, &cfg()));
    }

    #[test]
    fn matrix_kernel_has_many_options() {
        let k = kernel(vec![1024, 2048]);
        let tiles = valid_tile_sizes(&k, &cfg(), 1000);
        assert!(tiles.len() >= 10, "got {}", tiles.len());
        // All fit VMEM.
        for t in &tiles {
            assert!(tpu_sim::tile_fits(&k, t, &cfg()), "{t}");
        }
    }

    #[test]
    fn tiles_are_minor_to_major() {
        let k = kernel(vec![64, 4096]);
        let tiles = valid_tile_sizes(&k, &cfg(), 1000);
        // Minor dim (logical dim 1, size 4096) candidates include 128.
        assert!(tiles.iter().any(|t| t.dims()[0] == 128));
        // Full-extent tile present.
        assert!(tiles.iter().any(|t| t.dims() == [4096, 64]));
    }

    #[test]
    fn candidate_cap_respected() {
        let k = kernel(vec![8, 512, 512, 64]);
        let capped = valid_tile_sizes(&k, &cfg(), 50);
        assert!(capped.len() <= 50, "got {}", capped.len());
        assert!(!capped.is_empty());
    }

    #[test]
    fn includes_unaligned_candidates() {
        let k = kernel(vec![1024, 1024]);
        let tiles = valid_tile_sizes(&k, &cfg(), 10_000);
        assert!(
            tiles.iter().any(|t| t.dims()[0] % 128 != 0),
            "expected some unaligned minor extents"
        );
    }

    #[test]
    fn huge_output_excludes_oversized_tiles() {
        let k = kernel(vec![8192, 8192]); // 256 MiB output
        let tiles = valid_tile_sizes(&k, &cfg(), 10_000);
        assert!(!tiles.is_empty());
        assert!(
            !tiles.iter().any(|t| t.dims() == [8192, 8192]),
            "whole-tensor tile cannot fit VMEM"
        );
    }
}
