//! Fusion is a *scheduling* decision: it must never change what a program
//! computes. These tests execute programs with the reference interpreter
//! and re-execute them kernel by kernel under many fusion configurations,
//! checking value equivalence.

use proptest::prelude::*;
use std::collections::HashMap;
use tpu_repro::fusion::{apply_fusion, default_space_and_config};
use tpu_repro::hlo::interp::{evaluate, NdArray};
use tpu_repro::hlo::{DType, FusedProgram, GraphBuilder, NodeId, Program, Shape};

/// Evaluate every node of the original program, then evaluate each kernel
/// feeding its imported parameters (`in<orig-id>`) from the original node
/// values; the kernel's output must equal the original node's value.
fn check_fusion_equivalence(program: &Program, fused: &FusedProgram) {
    // Evaluate the original program node by node.
    let c = &program.computation;
    let mut inputs = HashMap::new();
    for (i, pid) in c.parameters().into_iter().enumerate() {
        let dims = c.node(pid).shape.dims().to_vec();
        inputs.insert(pid, NdArray::seeded(dims, 1000 + i as u64));
    }
    // Original values per node: evaluate growing prefixes is wasteful;
    // instead evaluate each node as root of a sub-computation… simplest:
    // interpreter exposes only root value, so build value table via
    // repeated evaluation of truncated graphs is O(n²). For test sizes
    // that is fine and keeps the interpreter API minimal.
    let mut original_values: HashMap<NodeId, NdArray> = HashMap::new();
    for node in c.nodes() {
        let mut nodes = c.nodes()[..=node.id.index()].to_vec();
        nodes[node.id.index()].is_output = true;
        let sub = tpu_repro::hlo::Computation::from_parts("prefix", nodes, node.id)
            .expect("prefix computation");
        let val = evaluate(&sub, &inputs).expect("prefix eval");
        original_values.insert(node.id, val);
    }

    for kernel in &fused.kernels {
        let source_root = kernel.source_root.expect("fusion pass records roots");
        let kc = &kernel.computation;
        let mut kernel_inputs = HashMap::new();
        for pid in kc.parameters() {
            let name = &kc.node(pid).name;
            let orig: u32 = name
                .strip_prefix("in")
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("unexpected import name `{name}`"));
            kernel_inputs.insert(pid, original_values[&NodeId(orig)].clone());
        }
        let out = evaluate(kc, &kernel_inputs).expect("kernel eval");
        let expected = &original_values[&source_root];
        assert_eq!(out.dims(), expected.dims());
        for (a, b) in out.data().iter().zip(expected.data()) {
            // Bitwise-equal covers inf==inf and NaN==NaN (exp chains can
            // overflow; fusion must still agree exactly).
            let equal = a.to_bits() == b.to_bits() || (a - b).abs() <= 1e-4 * (1.0 + b.abs());
            assert!(equal, "kernel for {source_root} diverged: {a} vs {b}");
        }
    }
}

fn mixed_program() -> Program {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("x", Shape::matrix(6, 8), DType::F32);
    let w = b.parameter("w", Shape::matrix(8, 4), DType::F32);
    let d = b.dot(x, w);
    let t = b.tanh(d);
    let e = b.exp(t);
    let s = b.logistic(t);
    let m = b.add(e, s);
    let r = b.reduce(m, vec![1]);
    let a = b.abs(r);
    Program::new("mixed", b.finish(a))
}

#[test]
fn default_fusion_preserves_semantics() {
    let p = mixed_program();
    let (space, cfg) = default_space_and_config(&p.computation);
    let fused = apply_fusion(&p, &space, &cfg);
    check_fusion_equivalence(&p, &fused);
}

#[test]
fn extreme_configs_preserve_semantics() {
    let p = mixed_program();
    let (space, _) = default_space_and_config(&p.computation);
    for cfg in [space.none(), space.all()] {
        let fused = apply_fusion(&p, &space, &cfg);
        check_fusion_equivalence(&p, &fused);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_configs_preserve_semantics(bits in prop::collection::vec(any::<bool>(), 0..32),
                                          seed in 0u64..50) {
        let p = mixed_program();
        let (space, _) = default_space_and_config(&p.computation);
        let mut cfg = space.none();
        for (i, &b) in bits.iter().enumerate() {
            if i < cfg.decisions.len() {
                cfg.decisions[i] = b;
            }
        }
        let _ = seed;
        let fused = apply_fusion(&p, &space, &cfg);
        check_fusion_equivalence(&p, &fused);
    }

    #[test]
    fn random_elementwise_programs_preserve_semantics(
        ops in prop::collection::vec(0u8..5, 1..12),
        bits in prop::collection::vec(any::<bool>(), 0..24),
    ) {
        let mut b = GraphBuilder::new("main");
        let x = b.parameter("x", Shape::matrix(4, 8), DType::F32);
        let mut vals = vec![x];
        for (i, op) in ops.iter().enumerate() {
            let a = vals[i % vals.len()];
            let v = match op {
                0 => b.tanh(a),
                1 => b.exp(a),
                2 => b.abs(a),
                3 => {
                    let c = vals[(i / 2) % vals.len()];
                    b.add(a, c)
                }
                _ => b.logistic(a),
            };
            vals.push(v);
        }
        let root = *vals.last().unwrap();
        let p = Program::new("rand", b.finish(root));
        let (space, _) = default_space_and_config(&p.computation);
        let mut cfg = space.none();
        for (i, &bit) in bits.iter().enumerate() {
            if i < cfg.decisions.len() {
                cfg.decisions[i] = bit;
            }
        }
        let fused = apply_fusion(&p, &space, &cfg);
        check_fusion_equivalence(&p, &fused);
    }
}
