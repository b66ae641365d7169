//! Frozen-vs-tape parity suite for the frozen inference path.
//!
//! A frozen model holds the trained weights as they are and walks them in
//! the f32 they were trained in, through the matmul kernel the tape runs
//! and with the bias added where the tape adds it, so it is a valid
//! serving artifact only if it *is* the model: on fixed-seed models over
//! the deterministic generator kernels, every frozen prediction must be
//! the tape's, `to_bits`. Every model gets non-zero biases first: a fresh
//! one's are zero (the LSTM's forget gate aside), which would hide a bias
//! added anywhere but last.

use proptest::prelude::*;
use tpu_hlo::Kernel;
use tpu_infer::{freeze_gnn, freeze_lstm, probe_kernels, FrozenModel};
use tpu_learned_cost::{
    CostModel, GnnConfig, GnnModel, LstmConfig, LstmModel, PoolCombo, Reduction,
};
use tpu_nn::ParamStore;

/// Every bias of `store` (a parameter named `*.b`) set to a fixed pattern
/// of non-zero values of both signs, varied by `salt`.
fn perturb_biases(store: &mut ParamStore, salt: usize) {
    let ids: Vec<_> = store
        .ids()
        .filter(|&id| store.name(id).ends_with(".b"))
        .collect();
    for (l, id) in ids.into_iter().enumerate() {
        for (j, b) in store.value_mut(id).data_mut().iter_mut().enumerate() {
            *b = ((7 * l + 3 * j + salt) % 17) as f32 * 0.03 - 0.25;
        }
    }
}

/// A GNN with non-zero biases and its frozen copy.
fn gnn_pair(config: GnnConfig) -> (GnnModel, FrozenModel) {
    let salt = config.seed as usize;
    let mut model = GnnModel::new(config);
    perturb_biases(model.store_mut(), salt);
    let frozen = FrozenModel::Gnn(freeze_gnn(&model, &[]).unwrap());
    (model, frozen)
}

fn assert_parity<M: CostModel>(label: &str, model: &M, frozen: &FrozenModel, kernels: &[Kernel]) {
    for (i, k) in kernels.iter().enumerate() {
        let tape = model.predict_kernel_ns(k).expect("tape scores kernel");
        let got = frozen.predict_kernel_ns(k).expect("frozen scores kernel");
        assert_eq!(
            got.to_bits(),
            tape.to_bits(),
            "{label}, kernel {i}: tape {tape} vs frozen {got} ns"
        );
    }
}

/// Every reduction × pool set × hop count, at hidden 48 (64-column
/// tiles never fit, so the portable tiles run every column) and 64 (the
/// AVX-512F rung, where the build has it).
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
                for hidden in [48, 64] {
                    let (model, frozen) = gnn_pair(GnnConfig {
                        reduction,
                        pooling,
                        hops,
                        hidden,
                        seed: 41,
                        ..GnnConfig::default()
                    });
                    let label = format!("{reduction:?}/{pooling:?}/{hops} hops/hidden {hidden}");
                    assert_parity(&label, &model, &frozen, &kernels);
                }
            }
        }
    }
}

#[test]
fn lstm_matches_the_tape() {
    for hidden in [48, 64] {
        let mut model = LstmModel::new(LstmConfig {
            hidden,
            seed: 29,
            ..LstmConfig::default()
        });
        perturb_biases(model.store_mut(), hidden);
        let frozen = FrozenModel::Lstm(freeze_lstm(&model, &[]).unwrap());
        let label = format!("lstm/hidden {hidden}");
        assert_parity(&label, &model, &frozen, &probe_kernels(64));
    }
}

proptest! {
    /// Any generator kernel, any model seed: the frozen forward is the
    /// tape's, bit for bit.
    #[test]
    fn frozen_forward_is_the_tape(seed in 0u64..32, idx in 0usize..96) {
        let (model, frozen) = gnn_pair(GnnConfig { seed, ..GnnConfig::default() });
        let kernel = probe_kernels(idx + 1).pop().unwrap();
        let tape = model.predict_kernel_ns(&kernel).unwrap();
        let got = frozen.predict_kernel_ns(&kernel).unwrap();
        prop_assert!(
            got.to_bits() == tape.to_bits(),
            "seed {}, kernel {}: tape {} vs frozen {} ns", seed, idx, tape, got
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
