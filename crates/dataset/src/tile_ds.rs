//! The tile-size dataset pipeline (§5): default-fusion kernels × valid
//! tile sizes, measured min-of-3.

use crate::corpus::Corpus;
use crate::example::{Dataset, KernelExample};
use std::collections::HashSet;
use tpu_fusion::{apply_fusion, default_space_and_config};
use tpu_hlo::{canonical_kernel_hash, Kernel};
use tpu_sim::{TpuConfig, TpuDevice};
use tpu_tile::valid_tile_sizes;

/// Pipeline parameters.
#[derive(Debug, Clone)]
pub struct TileDatasetConfig {
    /// Cap on measured tile sizes per kernel (paper: "as many as possible
    /// … within 30 minutes across 50 machines"; here an explicit cap).
    pub max_tiles_per_kernel: usize,
    /// Measurement repetitions; the minimum is the target.
    pub runs: usize,
    /// RNG seed.
    pub seed: u64,
    /// Machine configuration.
    pub machine: TpuConfig,
}

impl Default for TileDatasetConfig {
    fn default() -> Self {
        TileDatasetConfig {
            max_tiles_per_kernel: 24,
            runs: 3,
            seed: 13,
            machine: TpuConfig::default(),
        }
    }
}

/// Build the tile dataset: compile each program "using the compiler's
/// default fusion heuristics", decompose into kernels, query valid tile
/// sizes, and measure each (kernel, tile) pair. The tiles of one kernel
/// share its group: the id of that kernel, in first-occurrence order.
pub fn build_tile_dataset(corpus: &Corpus, cfg: &TileDatasetConfig) -> Dataset {
    // Collect (program, kernel) pairs first, deduplicating kernels
    // globally so each unique kernel gets one group id.
    let mut kernels: Vec<(usize, Kernel)> = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();
    for (pi, entry) in corpus.entries.iter().enumerate() {
        let (space, default_cfg) = default_space_and_config(&entry.program.computation);
        let fused = apply_fusion(&entry.program, &space, &default_cfg);
        for k in fused.kernels {
            if seen.insert(canonical_kernel_hash(&k)) {
                kernels.push((pi, k));
            }
        }
    }
    let examples = kernels
        .iter()
        .enumerate()
        .flat_map(|(group, (pi, k))| {
            let tiles = valid_tile_sizes(k, &cfg.machine, cfg.max_tiles_per_kernel);
            let device = TpuDevice::with_config(cfg.machine.clone(), cfg.seed ^ group as u64);
            tiles.into_iter().map(move |t| {
                let kt = k.clone().with_tile(t);
                let runtime_ns = device.measure_kernel(&kt, cfg.runs);
                KernelExample {
                    kernel: kt,
                    runtime_ns,
                    group,
                    program_idx: *pi,
                }
            })
        })
        .collect();
    Dataset {
        examples,
        kernels: kernels.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusScale;

    fn quick() -> (Corpus, Dataset) {
        let corpus = Corpus::build(CorpusScale::Tiny);
        let small = Corpus {
            entries: corpus.entries[..3].to_vec(),
        };
        let cfg = TileDatasetConfig {
            max_tiles_per_kernel: 8,
            ..Default::default()
        };
        let ds = build_tile_dataset(&small, &cfg);
        (small, ds)
    }

    #[test]
    fn groups_have_multiple_tiles() {
        let (_, ds) = quick();
        assert!(!ds.examples.is_empty());
        let mut per_group: std::collections::HashMap<usize, usize> = Default::default();
        for ex in &ds.examples {
            *per_group.entry(ex.group).or_default() += 1;
        }
        assert!(
            per_group.values().any(|&n| n >= 2),
            "at least some kernels must have ≥2 tile options"
        );
    }

    #[test]
    fn tiles_differ_within_group() {
        let (_, ds) = quick();
        let mut by_group: std::collections::HashMap<usize, Vec<&KernelExample>> =
            Default::default();
        for ex in &ds.examples {
            by_group.entry(ex.group).or_default().push(ex);
        }
        for (_, items) in by_group.iter().filter(|(_, v)| v.len() >= 2) {
            let t0 = items[0].kernel.tile.as_ref().unwrap();
            assert!(
                items[1..]
                    .iter()
                    .any(|e| e.kernel.tile.as_ref().unwrap() != t0),
                "tiles within a group must vary"
            );
        }
    }

    #[test]
    fn runtimes_vary_across_tiles() {
        let (_, ds) = quick();
        let mut by_group: std::collections::HashMap<usize, Vec<f64>> = Default::default();
        for ex in &ds.examples {
            by_group.entry(ex.group).or_default().push(ex.runtime_ns);
        }
        let spread = by_group.values().filter(|v| v.len() >= 3).any(|v| {
            let min = v.iter().fold(f64::INFINITY, |a, &b| a.min(b));
            let max = v.iter().fold(0.0f64, |a, &b| a.max(b));
            max > min * 1.1
        });
        assert!(spread, "tile choice should matter for some kernels");
    }

    #[test]
    fn kernel_count_reported() {
        let (_, ds) = quick();
        assert!(ds.kernels > 0);
        let max_group = ds.examples.iter().map(|e| e.group).max().unwrap();
        assert!(max_group < ds.kernels);
    }
}
