//! Property-based tests over randomly generated tensor programs and
//! tensors, spanning the IR, fusion pass, simulator, text format, and
//! metrics.

use proptest::prelude::*;
use tpu_repro::dataset::{Corpus, CorpusScale};
use tpu_repro::fusion::{apply_fusion, default_space_and_config};
use tpu_repro::hlo::{
    canonical_hash, dump_computation, parse_computation, Computation, DType, GraphBuilder, Kernel,
    NodeId, Opcode, Program, Shape, TileSize,
};
use tpu_repro::learned::metrics::{kendall_tau, spearman};
use tpu_repro::learned::Prepared;
use tpu_repro::sim::{analyze_kernel, kernel_time_ns, tile_fits, TileGeometry, TpuConfig};
use tpu_repro::tile::valid_tile_sizes;

/// Strategy: a random DAG of elementwise/reduce/dot ops over 2-D tensors.
fn arb_program() -> impl Strategy<Value = Program> {
    // (rows, cols, op choices per step)
    (2usize..6, prop::collection::vec(0u8..8, 1..24), 1usize..4).prop_map(
        |(size_exp, ops, n_params)| {
            let dim = 1 << (size_exp + 3); // 16..256
            let mut b = GraphBuilder::new("main");
            let mut values: Vec<NodeId> = (0..n_params)
                .map(|i| b.parameter(&format!("p{i}"), Shape::matrix(dim, dim), DType::F32))
                .collect();
            for op in ops {
                let pick = |b: &GraphBuilder, values: &[NodeId], salt: usize| -> NodeId {
                    let _ = b;
                    values[salt % values.len()]
                };
                let n = values.len();
                let v = match op {
                    0 => {
                        let x = pick(&b, &values, n);
                        b.tanh(x)
                    }
                    1 => {
                        let x = pick(&b, &values, n);
                        b.exp(x)
                    }
                    2 => {
                        let x = pick(&b, &values, n);
                        let y = pick(&b, &values, n / 2);
                        b.add(x, y)
                    }
                    3 => {
                        let x = pick(&b, &values, n);
                        let y = pick(&b, &values, n.saturating_sub(1));
                        b.multiply(x, y)
                    }
                    4 => {
                        let x = pick(&b, &values, n);
                        b.abs(x)
                    }
                    5 => {
                        // dot keeps dims square so everything stays composable
                        let x = pick(&b, &values, n);
                        let y = pick(&b, &values, n / 3);
                        b.dot(x, y)
                    }
                    6 => {
                        let x = pick(&b, &values, n);
                        b.logistic(x)
                    }
                    _ => {
                        let x = pick(&b, &values, n);
                        b.relu(x)
                    }
                };
                values.push(v);
            }
            // Make sure everything feeds the root so there are no dead ends
            // with multiple sinks: combine the last few values.
            let mut root = *values.last().unwrap();
            let tail: Vec<NodeId> = values.iter().rev().take(3).copied().collect();
            for v in tail {
                if v != root {
                    root = b.add(root, v);
                }
            }
            Program::new("prop", b.finish(root))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_programs_validate(p in arb_program()) {
        prop_assert!(p.computation.validate().is_ok());
    }

    #[test]
    fn topo_order_respects_edges(p in arb_program()) {
        let order = p.computation.topo_order().unwrap();
        let mut pos = vec![0usize; p.num_nodes()];
        for (i, id) in order.iter().enumerate() {
            pos[id.index()] = i;
        }
        for n in p.computation.nodes() {
            for &op in &n.operands {
                prop_assert!(pos[op.index()] < pos[n.id.index()]);
            }
        }
    }

    #[test]
    fn text_roundtrip_preserves_hash(p in arb_program()) {
        let text = dump_computation(&p.computation);
        let parsed = parse_computation(&text).unwrap();
        prop_assert_eq!(canonical_hash(&parsed), canonical_hash(&p.computation));
    }

    #[test]
    fn fusion_covers_every_op(p in arb_program()) {
        // Every non-parameter/constant op must appear in at least one
        // kernel under ANY fusion config (here: default + none + all).
        let (space, default_cfg) = default_space_and_config(&p.computation);
        for cfg in [space.none(), space.all(), default_cfg] {
            let fused = apply_fusion(&p, &space, &cfg);
            let total_ops: usize = fused.kernels.iter().map(|k| k.num_ops()).sum();
            let program_ops = p
                .computation
                .nodes()
                .iter()
                .filter(|n| !matches!(n.opcode, Opcode::Parameter | Opcode::Constant))
                .count();
            // Duplication may add ops, never remove them.
            prop_assert!(total_ops >= program_ops,
                "ops lost: {} kernels ops {} < program ops {}",
                fused.num_kernels(), total_ops, program_ops);
            for k in &fused.kernels {
                prop_assert!(k.computation.validate().is_ok());
            }
        }
    }

    #[test]
    fn fusion_never_slows_down_the_ideal_total_too_much(p in arb_program()) {
        // Sanity: fully-fused programs should not be drastically slower
        // than unfused (fusion saves memory traffic; duplication may cost
        // some compute but never catastrophically under our legality).
        let cfg = TpuConfig::default();
        let (space, _) = default_space_and_config(&p.computation);
        let time = |c: &tpu_repro::fusion::FusionConfig| -> f64 {
            apply_fusion(&p, &space, c)
                .kernels
                .iter()
                .map(|k| kernel_time_ns(k, &cfg))
                .sum()
        };
        let unfused = time(&space.none());
        let fused = time(&space.all());
        prop_assert!(fused < unfused * 3.0,
            "full fusion should not catastrophically regress: {fused} vs {unfused}");
    }

    #[test]
    fn sim_time_positive_and_finite(p in arb_program()) {
        let cfg = TpuConfig::default();
        let (space, dcfg) = default_space_and_config(&p.computation);
        for k in apply_fusion(&p, &space, &dcfg).kernels {
            let t = kernel_time_ns(&k, &cfg);
            prop_assert!(t.is_finite() && t > 0.0);
        }
    }

    #[test]
    fn fusion_space_monotone_under_config_order(p in arb_program()) {
        // More fusion ⇒ fewer or equal kernels.
        let (space, _) = default_space_and_config(&p.computation);
        let none = apply_fusion(&p, &space, &space.none()).num_kernels();
        let all = apply_fusion(&p, &space, &space.all()).num_kernels();
        prop_assert!(all <= none);
    }

    /// The adjacency the GNN reads is the featurized edge list taken both
    /// ways, so it is symmetric when that list is exactly the operand
    /// relation: sorted, distinct, every edge from an operand to a later
    /// user, and every operand of every node present.
    #[test]
    fn adjacency_is_symmetric(p in arb_program()) {
        let edges = Prepared::from_kernel(&Kernel::new(p.computation.clone())).edges;
        prop_assert!(edges.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        prop_assert!(edges.iter().all(|&(op, user)| op < user));
        for node in p.computation.nodes() {
            for op in &node.operands {
                prop_assert!(edges.binary_search(&(op.index(), node.id.index())).is_ok());
            }
        }
        let distinct_operands = |ops: &[NodeId]| {
            (0..ops.len()).filter(|&i| !ops[..i].contains(&ops[i])).count()
        };
        let relation: usize = p
            .computation
            .nodes()
            .iter()
            .map(|n| distinct_operands(&n.operands))
            .sum();
        prop_assert_eq!(edges.len(), relation);
    }

    #[test]
    fn kernel_hashes_stable_across_clones(p in arb_program()) {
        let h1 = canonical_hash(&p.computation);
        let h2 = canonical_hash(&p.computation.clone());
        prop_assert_eq!(h1, h2);
    }
}

fn is_computation_deterministic(c: &Computation) -> bool {
    canonical_hash(c) == canonical_hash(c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kendall_tau_bounds(v in prop::collection::vec((0.0f64..1e6, 0.0f64..1e6), 2..40)) {
        let a: Vec<f64> = v.iter().map(|x| x.0).collect();
        let b: Vec<f64> = v.iter().map(|x| x.1).collect();
        let tau = kendall_tau(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&tau), "tau={tau}");
        // Self correlation is 1 unless constant.
        if a.iter().any(|&x| x != a[0]) {
            prop_assert!((kendall_tau(&a, &a) - 1.0).abs() < 1e-12);
        }
        // Symmetry.
        prop_assert!((kendall_tau(&a, &b) - kendall_tau(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn spearman_bounds(v in prop::collection::vec((0.0f64..1e6, 0.0f64..1e6), 2..40)) {
        let a: Vec<f64> = v.iter().map(|x| x.0).collect();
        let b: Vec<f64> = v.iter().map(|x| x.1).collect();
        let rho = spearman(&a, &b);
        prop_assert!((-1.0001..=1.0001).contains(&rho), "rho={rho}");
    }

    #[test]
    fn monotone_transform_preserves_kendall(
        v in prop::collection::vec(0.0f64..1e6, 3..30)
    ) {
        let squashed: Vec<f64> = v.iter().map(|&x| (x + 1.0).ln()).collect();
        let t1 = kendall_tau(&v, &squashed);
        prop_assert!((t1 - 1.0).abs() < 1e-9, "monotone map must preserve order: {t1}");
    }
}

#[test]
fn determinism_helper_compiles() {
    let mut b = GraphBuilder::new("t");
    let x = b.parameter("x", Shape::matrix(4, 4), DType::F32);
    let y = b.tanh(x);
    let c = b.finish(y);
    assert!(is_computation_deterministic(&c));
}

/// The simulator's timing and its fit check read one tile geometry: for
/// every default-fused kernel of the Tiny corpus, at each of its valid
/// tiles and at the whole output, the working set `analyze_kernel` reports
/// is within VMEM exactly when `tile_fits` says so, and its tile count is
/// the shared geometry's. The Tiny corpus fits the default VMEM whole, so
/// the check also runs on a machine with 1/64 of it, where tiles spill.
#[test]
fn analyze_kernel_reads_the_shared_tile_geometry() {
    let corpus = Corpus::build(CorpusScale::Tiny);
    let kernels: Vec<Kernel> = corpus
        .entries
        .iter()
        .flat_map(|entry| {
            let p = &entry.program;
            let (space, config) = default_space_and_config(&p.computation);
            apply_fusion(p, &space, &config).kernels
        })
        .collect();
    let default = TpuConfig::default();
    let small = TpuConfig {
        vmem_bytes: default.vmem_bytes / 64,
        ..default.clone()
    };
    let (mut fitting, mut spilling) = (0usize, 0usize);
    for cfg in [default, small] {
        for k in &kernels {
            let root = k.computation.node(k.computation.root());
            let m2m = root.layout.minor_to_major();
            let whole = TileSize(m2m.iter().map(|&d| root.shape.dim(d)).collect());
            for tile in valid_tile_sizes(k, &cfg, 64).into_iter().chain([whole]) {
                let timing = analyze_kernel(&k.clone().with_tile(tile.clone()), &cfg);
                let fits = tile_fits(k, &tile, &cfg);
                assert_eq!(
                    timing.working_set <= cfg.vmem_bytes,
                    fits,
                    "{}: tile {tile}, working set {}",
                    k.computation.name(),
                    timing.working_set
                );
                let geo = TileGeometry::new(k, &tile, &cfg);
                assert_eq!(
                    timing.n_tiles,
                    geo.n_tiles,
                    "{}: tile {tile}",
                    k.computation.name()
                );
                if fits {
                    fitting += 1;
                } else {
                    spilling += 1;
                }
            }
        }
    }
    assert!(
        fitting > 0 && spilling > 0,
        "{fitting} fitting, {spilling} spilling"
    );
}
