//! The model-guided beam search must return a bit-identical
//! [`TunedConfig`] and search accounting every time it is run, for any
//! beam width: the beam core contains no RNG and layers are reduced by a
//! stable `total_cmp` sort in generation order.

use std::sync::Arc;
use tpu_repro::autotuner::{
    autotune_beam_with_cost_model, beam_search, Budgets, ModelObjective, SearchParams, StartMode,
    TunedConfig,
};
use tpu_repro::autotuner::BeamResult;
use tpu_repro::fusion::default_space_and_config;
use tpu_repro::hlo::{DType, GraphBuilder, Program, Shape};
use tpu_repro::learned::{AtomicCache, GnnConfig, GnnModel, Predictor};
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
    Program::new("beam-determinism", b.finish(t))
}

/// One full beam-guided run (model search + hardware re-rank): a real
/// (small) GNN so the batched forward exercises the numeric core, a fresh
/// cache, and a fresh same-seed device so hardware noise is identical
/// across runs. Also returns the raw [`BeamResult`] of a
/// standalone search so the [`BeamStats`] accounting is pinned too.
fn run_once(program: &Program, gnn: &GnnModel, width: usize) -> (TunedConfig, BeamResult) {
    let device = TpuDevice::new(13);
    let cache = Arc::new(AtomicCache::serving_default());
    let budgets = Budgets {
        hardware_ns: 25e9,
        model_steps: 120,
        top_k: 5,
        chains: 1,
    };
    let params = SearchParams {
        beam_width: width,
        seed: 11,
        ..Default::default()
    };
    let tuned = autotune_beam_with_cost_model(
        program,
        &device,
        gnn,
        &cache,
        StartMode::Random,
        &budgets,
        &params,
    );

    let (space, start) = default_space_and_config(&program.computation);
    let predictor = Predictor::with_cache(gnn, Arc::new(AtomicCache::serving_default()));
    let raw = beam_search(
        program,
        &space,
        start,
        ModelObjective::new(program, &space, &predictor),
        &SearchParams {
            max_evals: 120,
            ..params
        },
    );
    (tuned, raw)
}

#[test]
fn beam_tuned_config_is_bit_identical_across_thread_counts() {
    let program = tunable_program();
    let gnn = GnnModel::new(GnnConfig {
        hidden: 8,
        opcode_embed_dim: 4,
        hops: 1,
        ..Default::default()
    });
    for width in [1usize, 8] {
        let (tuned_ref, raw_ref) = run_once(&program, &gnn, width);
        let (tuned, raw) = run_once(&program, &gnn, width);
        assert_eq!(
            tuned_ref.config, tuned.config,
            "width={width}: tuned config differs between runs"
        );
        assert_eq!(
            tuned_ref.true_ns.to_bits(),
            tuned.true_ns.to_bits(),
            "width={width}: true_ns differs between runs"
        );
        assert_eq!(
            (tuned_ref.hw_evals, tuned_ref.model_evals, tuned_ref.model_batches),
            (tuned.hw_evals, tuned.model_evals, tuned.model_batches),
            "width={width}: eval accounting differs between runs"
        );
        assert_eq!(
            raw_ref.best_config, raw.best_config,
            "width={width}: beam best config differs between runs"
        );
        assert_eq!(
            raw_ref.best_cost.to_bits(),
            raw.best_cost.to_bits(),
            "width={width}: beam best cost differs between runs"
        );
        assert_eq!(
            raw_ref.evals, raw.evals,
            "width={width}: beam eval count differs between runs"
        );
        assert_eq!(
            raw_ref.stats, raw.stats,
            "width={width}: beam search stats differ between runs"
        );
    }
}
