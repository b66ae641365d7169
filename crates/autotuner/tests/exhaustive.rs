//! The searchers against the exhaustive optimum (ROADMAP item 4b).
//!
//! For programs small enough to enumerate (at most 12 fusion decisions,
//! 4,096 configurations) every configuration is scored by the simulator,
//! and the searchers — driven through the real [`ModelObjective`] over a
//! [`SimOracle`] predictor, so the kernel memo and keyed prediction are in
//! the loop — are held to three facts:
//!
//! 1. a beam wide enough to keep everything, with margin pruning off,
//!    returns exactly the enumerated minimum;
//! 2. whatever a default-width beam or the annealer reports as `best_cost`
//!    is the simulator's cost of the `best_config` it returns (a
//!    transposition-table hit, an inherited key or a memoized kernel never
//!    substitutes another configuration's cost);
//! 3. neither beats the enumerated minimum.

use std::sync::Arc;
use tpu_autotuner::{beam_search, simulated_annealing, ModelObjective, SaConfig, SearchParams};
use tpu_fusion::{apply_fusion, default_config, FusionConfig, FusionSpace};
use tpu_hlo::{DType, GraphBuilder, Program, Shape};
use tpu_learned_cost::{AtomicCache, Predictor, SimOracle};
use tpu_sim::{kernel_time_ns, TpuConfig};

/// Elementwise diamond into a dot, a reduction and a tail.
fn diamond_dot_reduce() -> Program {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("x", Shape::matrix(64, 64), DType::F32);
    let w = b.parameter("w", Shape::matrix(64, 64), DType::F32);
    let t = b.tanh(x);
    let e = b.exp(t);
    let s = b.add(t, e);
    let d = b.dot(s, w);
    let r = b.reduce(d, vec![1]);
    let z = b.tanh(r);
    Program::new("diamond-dot-reduce", b.finish(z))
}

/// Two dots with an elementwise bridge: forced materialization decides
/// which side of the bridge each op lands on.
fn two_dots() -> Program {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("x", Shape::matrix(128, 128), DType::F32);
    let w1 = b.parameter("w1", Shape::matrix(128, 128), DType::F32);
    let w2 = b.parameter("w2", Shape::matrix(128, 128), DType::F32);
    let d1 = b.dot(x, w1);
    let a = b.abs(d1);
    let r = b.relu(a);
    let d2 = b.dot(r, w2);
    let t = b.tanh(d2);
    let l = b.logistic(t);
    Program::new("two-dots", b.finish(l))
}

/// A producer duplicated into three consumers, rejoined.
fn fan_out() -> Program {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("x", Shape::matrix(256, 512), DType::F32);
    let t = b.tanh(x);
    let e = b.exp(t);
    let a = b.abs(t);
    let l = b.logistic(t);
    let m = b.add(e, a);
    let n = b.add(m, l);
    let r = b.reduce(n, vec![1]);
    Program::new("fan-out", b.finish(r))
}

/// The reference cost: the fused program's kernels timed one by one.
fn oracle_cost(program: &Program, space: &FusionSpace, config: &FusionConfig) -> f64 {
    let cfg = TpuConfig::default();
    apply_fusion(program, space, config)
        .kernels
        .iter()
        .map(|k| kernel_time_ns(k, &cfg))
        .sum()
}

#[test]
fn searchers_agree_with_the_enumerated_optimum() {
    let oracle = SimOracle::new(TpuConfig::default());
    for program in [diamond_dot_reduce(), two_dots(), fan_out()] {
        let space = FusionSpace::new(&program.computation);
        let e = space.num_edges();
        assert!((4..=12).contains(&e), "{}: {e} decisions", program.name);
        let minimum = (0..1usize << e)
            .map(|bits| {
                let decisions = (0..e).map(|i| (bits >> i) & 1 == 1).collect();
                oracle_cost(&program, &space, &FusionConfig { decisions })
            })
            .fold(f64::INFINITY, f64::min);

        let starts = [
            space.none(),
            space.all(),
            default_config(&program.computation, &space),
        ];
        for start in starts {
            let fresh = || Predictor::with_cache(&oracle, Arc::new(AtomicCache::serving_default()));

            let predictor = fresh();
            let full = beam_search(
                &program,
                &space,
                start.clone(),
                ModelObjective::new(&program, &space, &predictor),
                &SearchParams {
                    beam_width: 1 << e,
                    prune_margin: f64::INFINITY,
                    ..Default::default()
                },
            );
            assert_eq!(
                full.best_cost.to_bits(),
                minimum.to_bits(),
                "{}: a beam that keeps everything must find the optimum",
                program.name
            );

            let predictor = fresh();
            let beam = beam_search(
                &program,
                &space,
                start.clone(),
                ModelObjective::new(&program, &space, &predictor),
                &SearchParams::default(),
            );
            let predictor = fresh();
            let sa = simulated_annealing(
                &space,
                start.clone(),
                ModelObjective::new(&program, &space, &predictor),
                &SaConfig {
                    steps: 300,
                    chains: 4,
                    ..Default::default()
                },
            );
            for (who, config, cost) in [
                ("full-width beam", &full.best_config, full.best_cost),
                ("beam", &beam.best_config, beam.best_cost),
                ("sa", &sa.best_config, sa.best_cost),
            ] {
                assert_eq!(
                    cost.to_bits(),
                    oracle_cost(&program, &space, config).to_bits(),
                    "{} / {who}: best_cost is not the cost of best_config",
                    program.name
                );
                assert!(cost >= minimum, "{} / {who} beat the optimum", program.name);
            }
        }
    }
}
