//! The multi-chain, model-guided autotuner must return a bit-identical
//! [`TunedConfig`] every time it is run: per-chain RNG streams are fixed
//! by (seed, chain), and candidates and acceptances are reduced in
//! ascending chain order.

use std::sync::Arc;
use tpu_repro::autotuner::{autotune_with_cost_model, Budgets, StartMode, TunedConfig};
use tpu_repro::hlo::{DType, GraphBuilder, Program, Shape};
use tpu_repro::learned::{AtomicCache, GnnConfig, GnnModel};
use tpu_repro::sim::TpuDevice;

fn tunable_program() -> Program {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("x", Shape::matrix(256, 256), DType::F32);
    let w = b.parameter("w", Shape::matrix(256, 256), DType::F32);
    let mut v = x;
    for i in 0..3 {
        let t = b.tanh(v);
        let e = b.exp(t);
        let s = b.add(t, e);
        v = if i == 1 { b.dot(s, w) } else { s };
    }
    let r = b.reduce(v, vec![1]);
    let t = b.tanh(r);
    Program::new("determinism", b.finish(t))
}

/// One full model-guided run: a real (small) GNN so the batched forward
/// exercises the numeric core, a fresh cache, and a fresh same-seed device
/// so hardware noise is identical across runs.
fn run_once(program: &Program, gnn: &GnnModel, chains: usize) -> TunedConfig {
    let device = TpuDevice::new(13);
    let cache = Arc::new(AtomicCache::serving_default());
    let budgets = Budgets {
        hardware_ns: 25e9,
        model_steps: 120,
        top_k: 5,
        chains,
    };
    autotune_with_cost_model(
        program,
        &device,
        gnn,
        &cache,
        StartMode::Random,
        &budgets,
        11,
    )
}

#[test]
fn tuned_config_is_bit_identical_across_thread_counts() {
    let program = tunable_program();
    let gnn = GnnModel::new(GnnConfig {
        hidden: 8,
        opcode_embed_dim: 4,
        hops: 1,
        ..Default::default()
    });
    for chains in [1usize, 4] {
        let reference = run_once(&program, &gnn, chains);
        let run = run_once(&program, &gnn, chains);
        assert_eq!(
            reference.config, run.config,
            "chains={chains}: tuned config differs between runs"
        );
        assert_eq!(
            reference.true_ns.to_bits(),
            run.true_ns.to_bits(),
            "chains={chains}: true_ns differs between runs"
        );
        assert_eq!(
            (reference.hw_evals, reference.model_evals, reference.model_batches),
            (run.hw_evals, run.model_evals, run.model_batches),
            "chains={chains}: eval accounting differs between runs"
        );
    }
}
