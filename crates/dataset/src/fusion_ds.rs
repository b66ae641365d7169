//! The fusion dataset pipeline (§5): random fusion configs → kernel
//! decomposition → duplicate elimination → min-of-3 measurement.

use crate::corpus::Corpus;
use crate::example::{Dataset, KernelExample};
use std::collections::HashSet;
use tpu_autotuner::random_configs;
use tpu_fusion::{default_space_and_config, materialize, FusionPlanner};
use tpu_hlo::{HashedKernel, KeyScratch, Program};
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

/// Generate the kernels of one program under random fusion configs and
/// the default one, deduplicated by canonical hash, in first-occurrence
/// order, each with that hash.
///
/// One [`FusionPlanner`] plans every config, and only a group it has not
/// planned before is built: a kernel is a pure function of its group, so
/// the kernel of a known group is already kept or already a duplicate.
pub(crate) fn program_kernels(
    program: &Program,
    cfg: &FusionDatasetConfig,
    seed: u64,
) -> Vec<HashedKernel> {
    let (space, default_cfg) = default_space_and_config(&program.computation);
    let mut configs = random_configs(&space, cfg.configs_per_program, seed);
    configs.push(default_cfg);
    let mut planner = FusionPlanner::new(program, &space);
    let (mut plan, scratch) = (Vec::new(), &mut KeyScratch::default());
    let mut seen: HashSet<u64> = HashSet::new();
    let mut kernels = Vec::new();
    for config in &configs {
        // New groups take the next ids, in the order the plan emits them.
        let known = planner.groups().len();
        planner.plan(config, &mut plan);
        for group in &planner.groups()[known..] {
            let kernel = materialize(program, group, scratch);
            // Attach the compiler-default tile so tile features are
            // populated, as the paper's shared feature set requires.
            let tile = default_tile(&kernel, &cfg.machine);
            let kernel = HashedKernel::new(kernel.with_tile(tile));
            if seen.insert(kernel.hash()) {
                kernels.push(kernel);
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
/// dropped by the callers only afterwards, by the hash each kernel carries.
pub(crate) fn measured_program_kernels(
    program: &Program,
    pi: usize,
    cfg: &FusionDatasetConfig,
) -> Vec<(HashedKernel, f64)> {
    let kernels = program_kernels(program, cfg, cfg.seed ^ (pi as u64).wrapping_mul(0x9e37));
    let device = TpuDevice::with_config(cfg.machine.clone(), cfg.seed ^ pi as u64);
    kernels
        .into_iter()
        .map(|k| {
            let runtime_ns = device.measure_kernel(k.kernel(), cfg.runs);
            (k, runtime_ns)
        })
        .collect()
}

/// Build the fusion dataset over the fusion-eligible programs of a corpus,
/// program by program (the paper spreads this over 50 machines; each
/// program's device is seeded by its index, so programs are independent).
/// Every example is a distinct kernel in a group of its own.
pub fn build_fusion_dataset(corpus: &Corpus, cfg: &FusionDatasetConfig) -> Dataset {
    // Global duplicate elimination across programs keeps the first
    // occurrence (its program tag), mirroring §5.
    let mut seen: HashSet<u64> = HashSet::new();
    let examples = corpus
        .fusion_eligible()
        .into_iter()
        .flat_map(|pi| {
            measured_program_kernels(&corpus.entries[pi].program, pi, cfg)
                .into_iter()
                .map(move |(kernel, runtime_ns)| (pi, kernel, runtime_ns))
        })
        .filter(|(_, kernel, _)| seen.insert(kernel.hash()))
        .map(|(pi, kernel, runtime_ns)| KernelExample {
            kernel: kernel.into_kernel(),
            runtime_ns,
            group: usize::MAX,
            program_idx: pi,
        })
        .collect::<Vec<_>>();
    Dataset {
        kernels: examples.len(),
        examples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusScale;
    use tpu_fusion::apply_fusion;
    use tpu_hlo::{canonical_kernel_hash, Kernel};

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
        let mut hashes: Vec<u64> = kernels
            .iter()
            .map(|k| canonical_kernel_hash(k.kernel()))
            .collect();
        let n = hashes.len();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), n, "duplicate kernels in dataset");
        assert!(n > 5);
    }

    /// What `program_kernels` did before it planned: one `apply_fusion`
    /// per config, every kernel tiled and hashed, duplicates dropped.
    fn apply_fusion_per_config(
        program: &Program,
        cfg: &FusionDatasetConfig,
        seed: u64,
    ) -> Vec<Kernel> {
        let (space, default_cfg) = default_space_and_config(&program.computation);
        let mut configs = random_configs(&space, cfg.configs_per_program, seed);
        configs.push(default_cfg);
        let mut seen: HashSet<u64> = HashSet::new();
        configs
            .iter()
            .flat_map(|c| apply_fusion(program, &space, c).kernels)
            .map(|k| {
                let tile = default_tile(&k, &cfg.machine);
                k.with_tile(tile)
            })
            .filter(|k| seen.insert(canonical_kernel_hash(k)))
            .collect()
    }

    #[test]
    fn program_kernels_are_apply_fusion_per_config_deduplicated() {
        let corpus = Corpus::build(CorpusScale::Tiny);
        for (pi, entry) in corpus.entries.iter().enumerate() {
            let got = program_kernels(&entry.program, &quick_cfg(), pi as u64);
            let expected = apply_fusion_per_config(&entry.program, &quick_cfg(), pi as u64);
            assert_eq!(got.len(), expected.len(), "{}", entry.program.name);
            for (got, expected) in got.iter().zip(&expected) {
                assert_eq!(got.kernel(), expected, "{}", entry.program.name);
                assert_eq!(got.hash(), canonical_kernel_hash(expected));
            }
        }
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
