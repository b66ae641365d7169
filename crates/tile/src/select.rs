//! Selecting tile sizes with a cost model.

use crate::enumerate::valid_tile_sizes;
use tpu_hlo::{Kernel, TileSize};
use tpu_sim::TpuConfig;

/// Rank all valid tiles of a kernel by a cost function (lower is better).
/// Returns `(tile, cost)` pairs sorted ascending by cost.
///
/// The cost function receives the kernel *with the candidate tile
/// attached*, so any cost-model backend — learned, analytical, or the
/// simulator itself — plugs in as a closure.
pub fn rank_tiles<F>(
    k: &Kernel,
    cfg: &TpuConfig,
    max_candidates: usize,
    mut cost: F,
) -> Vec<(TileSize, f64)>
where
    F: FnMut(&Kernel) -> f64,
{
    let mut scored: Vec<(TileSize, f64)> = valid_tile_sizes(k, cfg, max_candidates)
        .into_iter()
        .map(|t| {
            let cand = k.clone().with_tile(t.clone());
            (t, cost(&cand))
        })
        .collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1));
    scored
}

/// The best tile under the cost function, or `None` for kernels without
/// tile options.
pub fn best_tile<F>(k: &Kernel, cfg: &TpuConfig, max_candidates: usize, cost: F) -> Option<TileSize>
where
    F: FnMut(&Kernel) -> f64,
{
    rank_tiles(k, cfg, max_candidates, cost)
        .into_iter()
        .next()
        .map(|(t, _)| t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_hlo::{DType, GraphBuilder, Shape};
    use tpu_sim::kernel_time_ns;

    fn cfg() -> TpuConfig {
        TpuConfig::default()
    }

    fn dot_kernel() -> Kernel {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(1024, 512), DType::F32);
        let w = b.parameter("w", Shape::matrix(512, 1024), DType::F32);
        let d = b.dot(x, w);
        Kernel::new(b.finish(d))
    }

    #[test]
    fn rank_is_sorted_ascending() {
        let k = dot_kernel();
        let ranked = rank_tiles(&k, &cfg(), 500, |kk| kernel_time_ns(kk, &cfg()));
        assert!(ranked.len() > 5);
        for w in ranked.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn oracle_best_tile_beats_worst() {
        let k = dot_kernel();
        let ranked = rank_tiles(&k, &cfg(), 500, |kk| kernel_time_ns(kk, &cfg()));
        let best = ranked.first().unwrap().1;
        let worst = ranked.last().unwrap().1;
        assert!(worst > best * 1.2, "best={best} worst={worst}");
    }

    #[test]
    fn untilable_kernel_left_alone() {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(4, 4), DType::F32);
        let t = b.tanh(x);
        let k = Kernel::new(b.finish(t));
        assert!(best_tile(&k, &cfg(), 500, |kk| kernel_time_ns(kk, &cfg())).is_none());
    }
}
