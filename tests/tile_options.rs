//! `has_tile_options` decides which kernels the analytical model can
//! score (footnote 3) by fitting one tile: each dimension's smallest
//! candidate. Here it is checked against the enumeration it replaced —
//! "does `valid_tile_sizes(k, cfg, 64)` keep any tile?" — over generated
//! kernels and over the corpus's fused kernels, on machines whose VMEM
//! ranges from the default down to a 2¹⁸th of it, so that both answers
//! occur.
//!
//! The Full-corpus sweep (113,396 kernel-machine pairs) is left out of
//! the default run; CI runs it in release:
//!
//! ```text
//! cargo test --release --test tile_options -- --ignored
//! ```

use proptest::prelude::*;
use tpu_repro::autotuner::random_configs;
use tpu_repro::dataset::{Corpus, CorpusScale};
use tpu_repro::fusion::{apply_fusion, default_space_and_config};
use tpu_repro::hlo::{ConvAttrs, DType, GraphBuilder, Kernel, NodeId, Shape};
use tpu_repro::sim::TpuConfig;
use tpu_repro::tile::{has_tile_options, valid_tile_sizes};

/// The enumeration `has_tile_options` replaced: the oracle.
fn enumerated(k: &Kernel, cfg: &TpuConfig) -> bool {
    !valid_tile_sizes(k, cfg, 64).is_empty()
}

/// The default machine with its VMEM divided by `2^shift`.
fn machine(shift: u32) -> TpuConfig {
    let default = TpuConfig::default();
    TpuConfig {
        vmem_bytes: default.vmem_bytes >> shift,
        ..default
    }
}

/// `(with options, without)` over `kernels` on each machine; panics on
/// the first kernel where the two checks disagree.
fn sweep(kernels: &[Kernel]) -> (usize, usize) {
    let (mut with, mut without) = (0, 0);
    for shift in [0, 6, 12, 18] {
        let cfg = machine(shift);
        for k in kernels {
            let direct = has_tile_options(k, &cfg);
            assert_eq!(
                direct,
                enumerated(k, &cfg),
                "{} on VMEM / 2^{shift}",
                k.computation.name()
            );
            if direct {
                with += 1;
            } else {
                without += 1;
            }
        }
    }
    (with, without)
}

/// Every kernel the fusion pass emits for each program of `scale`, under
/// the all-unfused, all-fused, default and two random configurations.
fn corpus_kernels(scale: CorpusScale) -> Vec<Kernel> {
    let corpus = Corpus::build(scale);
    let mut kernels = Vec::new();
    for (i, entry) in corpus.entries.iter().enumerate() {
        let program = &entry.program;
        let (space, default) = default_space_and_config(&program.computation);
        let mut configs = vec![space.none(), space.all(), default];
        configs.extend(random_configs(&space, 2, i as u64));
        for config in &configs {
            kernels.extend(apply_fusion(program, &space, config).kernels);
        }
    }
    kernels
}

#[test]
fn has_tile_options_is_the_enumeration_over_the_tiny_corpus() {
    let (with, without) = sweep(&corpus_kernels(CorpusScale::Tiny));
    assert!(
        with > 0 && without > 0,
        "{with} with options, {without} without"
    );
}

#[test]
#[ignore = "the Full corpus; run in release"]
fn has_tile_options_is_the_enumeration_over_the_full_corpus() {
    let (with, without) = sweep(&corpus_kernels(CorpusScale::Full));
    assert!(
        with > 0 && without > 0,
        "{with} with options, {without} without"
    );
}

/// A kernel over an output of `dims`: an elementwise chain of `depth` ops
/// (the working set grows with the fused op count) over one or two inputs,
/// optionally behind a dot, a convolution or a reduction, so that operand
/// slices and the convolution halo enter the working set.
fn build(dims: &[usize], depth: usize, kind: u8, side_input: bool, inner: usize) -> Kernel {
    let mut b = GraphBuilder::new("generated");
    let out = Shape::new(dims.to_vec());
    let mut v: NodeId = match (kind, dims) {
        (1, &[m, n]) => {
            let x = b.parameter("x", Shape::matrix(m, inner), DType::F32);
            let w = b.parameter("w", Shape::matrix(inner, n), DType::F32);
            b.dot(x, w)
        }
        (2, &[n, h, w, c]) => {
            let f = 1 + inner % 5;
            let conv = ConvAttrs {
                filter_h: f,
                filter_w: f,
                stride_h: 1,
                stride_w: 1,
                pad_h: (f / 2, f - 1 - f / 2),
                pad_w: (f / 2, f - 1 - f / 2),
                feature_groups: 1,
            };
            let cin = 1 + inner % 64;
            let x = b.parameter("x", Shape::new(vec![n, h, w, cin]), DType::F32);
            let filter = b.parameter("f", Shape::new(vec![f, f, cin, c]), DType::F32);
            b.convolution(x, filter, conv)
        }
        (3, _) => {
            let mut wide = dims.to_vec();
            wide.push(inner);
            let x = b.parameter("x", Shape::new(wide), DType::F32);
            b.reduce(x, vec![dims.len()])
        }
        _ => b.parameter("x", out.clone(), DType::F32),
    };
    for step in 0..depth {
        v = match step % 3 {
            0 => b.tanh(v),
            1 => b.exp(v),
            _ => b.logistic(v),
        };
    }
    if side_input {
        let y = b.parameter("y", out, DType::F32);
        v = b.add(v, y);
    }
    Kernel::new(b.finish(v))
}

fn arb_kernel() -> impl Strategy<Value = Kernel> {
    let shape = (1usize..5, prop::collection::vec(0usize..70_000, 4..5));
    (shape, 0usize..12, 0u8..4, any::<bool>(), 1usize..5_000).prop_map(
        |((rank, raw), depth, kind, side, inner)| {
            // Extents shrink with the rank, so every output stays within
            // reach of the smaller machines' VMEM.
            let cap = [70_000, 3_000, 300, 300][rank - 1];
            let dims: Vec<usize> = raw[..rank].iter().map(|&r| 1 + r % cap).collect();
            build(&dims, depth, kind, side, inner)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn has_tile_options_is_the_enumeration(k in arb_kernel(), shift in 0u32..24) {
        let cfg = machine(shift);
        prop_assert_eq!(has_tile_options(&k, &cfg), enumerated(&k, &cfg));
    }
}
