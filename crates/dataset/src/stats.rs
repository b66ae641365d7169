//! Dataset statistics — the numbers behind Table 1.

use crate::corpus::Split;
use crate::example::{Dataset, KernelExample};

/// Program and example counts of one dataset under one split, one row
/// group of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitStats {
    /// Programs in train/val/test.
    pub programs: (usize, usize, usize),
    /// Examples (kernels or kernel×tile pairs) in train/val/test.
    pub examples: (usize, usize, usize),
}

/// Table-1 statistics of a dataset under a split.
pub fn split_stats(ds: &Dataset, split: &Split) -> SplitStats {
    let (tr, va, te) = ds.split(split);
    let count_programs = |idxs: &[usize], examples: &[&KernelExample]| {
        idxs.iter()
            .filter(|&&i| examples.iter().any(|e| e.program_idx == i))
            .count()
    };
    SplitStats {
        programs: (
            count_programs(&split.train, &tr),
            count_programs(&split.val, &va),
            count_programs(&split.test, &te),
        ),
        examples: (tr.len(), va.len(), te.len()),
    }
}

/// Fraction of examples with runtime below 5 µs (§5 reports ~half of the
/// fusion dataset).
pub fn fraction_below_5us(ds: &Dataset) -> f64 {
    if ds.examples.is_empty() {
        return 0.0;
    }
    ds.examples
        .iter()
        .filter(|e| e.runtime_ns < 5_000.0)
        .count() as f64
        / ds.examples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, CorpusScale};
    use crate::fusion_ds::{build_fusion_dataset, FusionDatasetConfig};
    use crate::tile_ds::{build_tile_dataset, TileDatasetConfig};

    #[test]
    fn split_stats_counts_match_split() {
        let corpus = Corpus::build(CorpusScale::Tiny);
        let fusion = build_fusion_dataset(
            &corpus,
            &FusionDatasetConfig {
                configs_per_program: 4,
                ..Default::default()
            },
        );
        let tile = build_tile_dataset(
            &corpus,
            &TileDatasetConfig {
                max_tiles_per_kernel: 4,
                ..Default::default()
            },
        );
        let split = corpus.random_split(0);
        for ds in [&fusion, &tile] {
            assert!(!ds.examples.is_empty());
            let stats = split_stats(ds, &split);
            let total = stats.examples.0 + stats.examples.1 + stats.examples.2;
            assert_eq!(total, ds.examples.len());
            assert!(stats.programs.0 <= split.train.len());
            assert!(stats.programs.1 <= split.val.len());
            assert!(stats.programs.2 <= split.test.len());
        }
    }

    #[test]
    fn below_5us_fraction_in_unit_range() {
        let corpus = Corpus::build(CorpusScale::Tiny);
        let small = Corpus {
            entries: corpus.entries[..2].to_vec(),
        };
        let ds = build_fusion_dataset(
            &small,
            &FusionDatasetConfig {
                configs_per_program: 4,
                ..Default::default()
            },
        );
        let f = fraction_below_5us(&ds);
        assert!((0.0..=1.0).contains(&f));
    }
}
