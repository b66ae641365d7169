//! The canonical kernel hash over real kernels: every kernel of the Tiny
//! fusion dataset keys as the per-field oracle keys it, and what the key
//! leaves out (a compare's direction, `OpAttrs::Compare`) changes no cost.

#[path = "../crates/hlo/tests/support/hash_oracle.rs"]
mod hash_oracle;

use tpu_repro::analytical::AnalyticalCost;
use tpu_repro::dataset::{build_fusion_dataset, Corpus, CorpusScale, FusionDatasetConfig};
use tpu_repro::hlo::{
    canonical_hash, canonical_kernel_hash, Comparison, DType, GraphBuilder, Kernel, Shape,
};
use tpu_repro::learned::features::kernel_features;
use tpu_repro::learned::{CostModel, SimOracle};
use tpu_repro::sim::{default_tile, TpuConfig};

#[test]
fn dataset_kernels_hash_as_the_per_field_oracle() {
    let corpus = Corpus::build(CorpusScale::Tiny);
    let ds = build_fusion_dataset(&corpus, &FusionDatasetConfig::default());
    assert!(ds.examples.len() > 100, "{} examples", ds.examples.len());
    for ex in &ds.examples {
        let k = &ex.kernel;
        assert_eq!(
            canonical_hash(&k.computation),
            hash_oracle::canonical_hash(&k.computation),
            "{}",
            k.computation.name()
        );
        assert_eq!(
            canonical_kernel_hash(k),
            hash_oracle::canonical_kernel_hash(k),
            "{}",
            k.computation.name()
        );
        let untiled = Kernel {
            tile: None,
            ..k.clone()
        };
        assert_eq!(
            canonical_kernel_hash(&untiled),
            hash_oracle::canonical_kernel_hash(&untiled)
        );
    }
}

fn compare_kernel(cmp: Comparison) -> Kernel {
    let mut b = GraphBuilder::new("cmp");
    let x = b.parameter("x", Shape::matrix(256, 512), DType::F32);
    let y = b.parameter("y", Shape::matrix(256, 512), DType::F32);
    let c = b.compare(x, y, cmp);
    let s = b.select(c, x, y);
    let k = Kernel::new(b.finish(s));
    let tile = default_tile(&k, &TpuConfig::default());
    k.with_tile(tile)
}

/// The key does not hash the comparison direction. That is sound only
/// while no cost reads it: if a featurizer, the simulator or the
/// analytical model starts to, kernels that share a cache slot would get
/// different costs, and this test fails first.
#[test]
fn comparison_direction_shares_a_key_because_no_cost_reads_it() {
    let lt = compare_kernel(Comparison::Lt);
    let cfg = TpuConfig::default();
    let sim = SimOracle::new(cfg.clone());
    let analytical = AnalyticalCost::new(cfg);
    let (lt_ops, lt_feats) = kernel_features(&lt);
    for cmp in [
        Comparison::Eq,
        Comparison::Ne,
        Comparison::Le,
        Comparison::Gt,
        Comparison::Ge,
    ] {
        let other = compare_kernel(cmp);
        assert_ne!(lt, other, "the kernels differ in {cmp:?}");
        assert_eq!(canonical_kernel_hash(&lt), canonical_kernel_hash(&other));
        let (ops, feats) = kernel_features(&other);
        assert_eq!(lt_ops, ops);
        assert_eq!(lt_feats, feats);
        let sim_ns = sim.predict_kernel_ns(&other).map(f64::to_bits);
        assert_eq!(sim.predict_kernel_ns(&lt).map(f64::to_bits), sim_ns);
        let ana_ns = analytical.predict_kernel_ns(&other).map(f64::to_bits);
        assert!(ana_ns.is_some(), "the analytical model scores the kernel");
        assert_eq!(analytical.predict_kernel_ns(&lt).map(f64::to_bits), ana_ns);
    }
}
