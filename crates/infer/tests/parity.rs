//! Frozen-vs-tape parity suite for the frozen inference path.
//!
//! A frozen model holds the trained weights as they are and walks them in
//! the f32 they were trained in, so it is a valid serving artifact only
//! if it *is* the model: on fixed-seed models over the deterministic
//! generator kernels, every frozen prediction must sit within [`LOG_TOL`]
//! of the tape's — the room f32 summation order needs, and nothing more.

use proptest::prelude::*;
use tpu_hlo::Kernel;
use tpu_infer::{freeze_gnn, freeze_lstm, probe_kernels, FrozenModel};
use tpu_learned_cost::{
    CostModel, GnnConfig, GnnModel, LstmConfig, LstmModel, PoolCombo, Reduction,
};

/// Log-space tolerance for a single kernel.
const LOG_TOL: f64 = 1e-5;

fn assert_parity<M: CostModel>(label: &str, model: &M, frozen: &FrozenModel, kernels: &[Kernel]) {
    for (i, k) in kernels.iter().enumerate() {
        let tape = model.predict_kernel_ns(k).expect("tape scores kernel").ln();
        let got = frozen
            .predict_kernel_ns(k)
            .expect("frozen scores kernel")
            .ln();
        assert!(
            (tape - got).abs() <= LOG_TOL,
            "{label}, kernel {i}: tape {tape} vs frozen {got}"
        );
    }
}

#[test]
fn every_gnn_architecture_matches_the_tape() {
    let pools = [
        PoolCombo {
            sum: true,
            mean: false,
            max: false,
        },
        PoolCombo {
            sum: false,
            mean: true,
            max: true,
        },
        PoolCombo::all(),
    ];
    let kernels = probe_kernels(48);
    for reduction in [Reduction::Sum, Reduction::Mean, Reduction::Max] {
        for pooling in pools {
            for hops in [0, 2] {
                let model = GnnModel::new(GnnConfig {
                    reduction,
                    pooling,
                    hops,
                    seed: 41,
                    ..GnnConfig::default()
                });
                let frozen = FrozenModel::Gnn(freeze_gnn(&model, &[]).unwrap());
                let label = format!("{reduction:?}/{pooling:?}/{hops} hops");
                assert_parity(&label, &model, &frozen, &kernels);
            }
        }
    }
}

#[test]
fn lstm_matches_the_tape() {
    let model = LstmModel::new(LstmConfig {
        seed: 29,
        ..LstmConfig::default()
    });
    let frozen = FrozenModel::Lstm(freeze_lstm(&model, &[]).unwrap());
    assert_parity("lstm", &model, &frozen, &probe_kernels(64));
}

proptest! {
    /// Any generator kernel, any model seed: the frozen forward stays
    /// within [`LOG_TOL`] of the tape in log-space.
    #[test]
    fn frozen_forward_tracks_tape(seed in 0u64..32, idx in 0usize..96) {
        let model = GnnModel::new(GnnConfig { seed, ..GnnConfig::default() });
        let frozen = FrozenModel::Gnn(freeze_gnn(&model, &[]).unwrap());
        let kernel = probe_kernels(idx + 1).pop().unwrap();
        let tape = model.predict_kernel_ns(&kernel).unwrap().ln();
        let got = frozen.predict_kernel_ns(&kernel).unwrap().ln();
        prop_assert!(
            (tape - got).abs() <= LOG_TOL,
            "seed {}, kernel {}: tape {} vs frozen {}", seed, idx, tape, got
        );
    }
}

#[test]
fn a_pathological_kernel_still_predicts_finite() {
    // 2^20 × 4096 elements under a 512×512 tile: features far outside
    // anything a model trained on.
    use tpu_hlo::{DType, GraphBuilder, Shape, TileSize};
    let mut b = GraphBuilder::new("huge");
    let x = b.parameter("x", Shape::matrix(1 << 20, 4096), DType::F32);
    let mut v = x;
    for _ in 0..6 {
        v = b.exp(v);
    }
    let y = b.exp(x);
    let v = b.add(v, y);
    let huge = Kernel::new(b.finish(v)).with_tile(TileSize(vec![512, 512]));

    let model = GnnModel::new(GnnConfig::default());
    let frozen = FrozenModel::Gnn(freeze_gnn(&model, &[]).unwrap());
    let ns = frozen.predict_kernel_ns(&huge).unwrap();
    assert!(ns.is_finite() && ns > 0.0, "prediction {ns}");
}
