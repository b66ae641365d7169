//! The fusion dataset pipeline (§5): random fusion configs → kernel
//! decomposition → duplicate elimination → min-of-3 measurement.

use crate::corpus::{Corpus, Split};
use std::collections::HashSet;
use tpu_autotuner::random_configs;
use tpu_fusion::{apply_fusion, default_space_and_config};
use tpu_hlo::{kernel_hash, Kernel, Program};
use tpu_sim::{default_tile, TpuConfig, TpuDevice};

/// Pipeline parameters.
#[derive(Debug, Clone)]
pub struct FusionDatasetConfig {
    /// Random fusion configurations per program (paper: 50,000; scaled
    /// down here).
    pub configs_per_program: usize,
    /// Measurement repetitions; the minimum is the target (§5).
    pub runs: usize,
    /// RNG seed.
    pub seed: u64,
    /// Machine configuration of the measuring devices.
    pub machine: TpuConfig,
}

impl Default for FusionDatasetConfig {
    fn default() -> Self {
        FusionDatasetConfig {
            configs_per_program: 40,
            runs: 3,
            seed: 11,
            machine: TpuConfig::default(),
        }
    }
}

/// One fusion-dataset example: a kernel and its measured runtime.
#[derive(Debug, Clone)]
pub struct KernelExample {
    /// The kernel, with the compiler-default tile attached (the learned
    /// model's node features include the tile sub-vector).
    pub kernel: Kernel,
    /// min-of-`runs` measured runtime, ns.
    pub runtime_ns: f64,
    /// Index of the source program in the corpus.
    pub program_idx: usize,
}

/// All fusion examples generated from one corpus, tagged by program.
#[derive(Debug, Clone, Default)]
pub struct FusionDataset {
    /// Deduplicated measured kernels.
    pub examples: Vec<KernelExample>,
}

impl FusionDataset {
    /// Examples whose program index is in the given split subset.
    pub fn subset(&self, idxs: &[usize]) -> Vec<&KernelExample> {
        let set: HashSet<usize> = idxs.iter().copied().collect();
        self.examples
            .iter()
            .filter(|ex| set.contains(&ex.program_idx))
            .collect()
    }

    /// Split the dataset by program sets: (train, val, test) example refs.
    pub fn split(
        &self,
        split: &Split,
    ) -> (Vec<&KernelExample>, Vec<&KernelExample>, Vec<&KernelExample>) {
        (
            self.subset(&split.train),
            self.subset(&split.val),
            self.subset(&split.test),
        )
    }
}

/// Generate the kernels of one program under random fusion configs,
/// deduplicated by canonical hash.
pub fn program_kernels(
    program: &Program,
    cfg: &FusionDatasetConfig,
    seed: u64,
) -> Vec<Kernel> {
    let (space, default_cfg) = default_space_and_config(&program.computation);
    let mut configs = random_configs(&space, cfg.configs_per_program, seed);
    configs.push(default_cfg);
    let mut seen: HashSet<u64> = HashSet::new();
    let mut kernels = Vec::new();
    for c in &configs {
        let fused = apply_fusion(program, &space, c);
        for k in fused.kernels {
            // Attach the compiler-default tile so tile features are
            // populated, as the paper's shared feature set requires.
            let tiled = match k.tile {
                Some(_) => k,
                None => {
                    let t = default_tile(&k, &cfg.machine);
                    k.with_tile(t)
                }
            };
            if seen.insert(kernel_hash(&tiled)) {
                kernels.push(tiled);
            }
        }
    }
    kernels
}

/// The per-program generation step shared by [`build_fusion_dataset`] and
/// [`crate::stream_corpus`]: the kernels of corpus program `pi` with their
/// min-of-`runs` runtimes, in generation order.
///
/// The device's noise RNG is one sequential stream per program, so every
/// kernel is measured in order here and cross-program duplicates are
/// dropped by the callers only afterwards.
pub(crate) fn measured_program_kernels(
    program: &Program,
    pi: usize,
    cfg: &FusionDatasetConfig,
) -> Vec<(Kernel, f64)> {
    let kernels = program_kernels(program, cfg, cfg.seed ^ (pi as u64).wrapping_mul(0x9e37));
    let device = TpuDevice::with_config(cfg.machine.clone(), cfg.seed ^ pi as u64);
    kernels
        .into_iter()
        .map(|k| {
            let runtime_ns = device.measure_kernel(&k, cfg.runs);
            (k, runtime_ns)
        })
        .collect()
}

/// Build the fusion dataset over the fusion-eligible programs of a corpus,
/// program by program (the paper spreads this over 50 machines; each
/// program's device is seeded by its index, so programs are independent).
pub fn build_fusion_dataset(corpus: &Corpus, cfg: &FusionDatasetConfig) -> FusionDataset {
    let eligible = corpus.fusion_eligible();
    let mut examples: Vec<KernelExample> = eligible
        .iter()
        .flat_map(|&pi| {
            measured_program_kernels(&corpus.entries[pi].program, pi, cfg)
                .into_iter()
                .map(move |(kernel, runtime_ns)| KernelExample {
                    kernel,
                    runtime_ns,
                    program_idx: pi,
                })
        })
        .collect();
    // Global duplicate elimination across programs keeps the first
    // occurrence (its program tag), mirroring §5.
    let mut seen: HashSet<u64> = HashSet::new();
    examples.retain(|ex| seen.insert(kernel_hash(&ex.kernel)));
    FusionDataset { examples }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusScale;

    fn quick_cfg() -> FusionDatasetConfig {
        FusionDatasetConfig {
            configs_per_program: 6,
            ..Default::default()
        }
    }

    #[test]
    fn kernels_are_deduplicated() {
        let corpus = Corpus::build(CorpusScale::Tiny);
        let p = &corpus.entries[0].program;
        let kernels = program_kernels(p, &quick_cfg(), 1);
        let mut hashes: Vec<u64> = kernels.iter().map(kernel_hash).collect();
        let n = hashes.len();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), n, "duplicate kernels in dataset");
        assert!(n > 5);
    }

    #[test]
    fn all_kernels_carry_tiles_and_positive_targets() {
        let corpus = Corpus::build(CorpusScale::Tiny);
        let small = Corpus {
            entries: corpus.entries[..3].to_vec(),
        };
        let ds = build_fusion_dataset(&small, &quick_cfg());
        assert!(ds.examples.len() > 20);
        for ex in &ds.examples {
            assert!(ex.kernel.tile.is_some(), "tile missing");
            assert!(ex.runtime_ns > 0.0);
        }
    }

    #[test]
    fn subset_filters_by_program() {
        let corpus = Corpus::build(CorpusScale::Tiny);
        let small = Corpus {
            entries: corpus.entries[..3].to_vec(),
        };
        let ds = build_fusion_dataset(&small, &quick_cfg());
        let only0 = ds.subset(&[0]);
        assert!(!only0.is_empty());
        assert!(only0.iter().all(|ex| ex.program_idx == 0));
        assert!(only0.len() < ds.examples.len());
    }

    #[test]
    fn skew_toward_small_kernels() {
        // §5: "approximately half have runtimes below 5 µs". Ensure our
        // distribution straddles the 5 µs threshold rather than sitting
        // entirely on one side.
        let corpus = Corpus::build(CorpusScale::Tiny);
        let small = Corpus {
            entries: corpus.entries[..4].to_vec(),
        };
        let ds = build_fusion_dataset(&small, &quick_cfg());
        let below = ds
            .examples
            .iter()
            .filter(|ex| ex.runtime_ns < 5_000.0)
            .count();
        let frac = below as f64 / ds.examples.len() as f64;
        assert!(frac > 0.1 && frac < 0.98, "frac below 5us = {frac}");
    }
}
