//! Cross-crate integration tests: the full pipeline from program
//! construction through fusion, tiling, measurement, learning, and
//! autotuning.

use std::sync::Arc;
use tpu_repro::autotuner::{autotune_with_cost_model, Budgets, StartMode, TunedConfig};
use tpu_repro::dataset::{
    build_fusion_dataset, build_tile_dataset, Corpus, CorpusScale, FusionDatasetConfig,
    TileDatasetConfig,
};
use tpu_repro::fusion::{apply_fusion, default_space_and_config};
use tpu_repro::hlo::{DType, GraphBuilder, Program, Shape};
use tpu_repro::learned::{
    predict_log_ns, prepare, train, AtomicCache, CostModel, FnCostModel, GnnConfig, GnnModel,
    Sample, TaskLoss, TrainConfig,
};
use tpu_repro::sim::{kernel_time_ns, TpuConfig, TpuDevice};
use tpu_repro::tile::{best_tile, valid_tile_sizes};

fn small_program() -> Program {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("x", Shape::matrix(256, 512), DType::F32);
    let w = b.parameter("w", Shape::matrix(512, 256), DType::F32);
    let d = b.dot(x, w);
    let r = b.relu(d);
    let e = b.exp(r);
    let s = b.reduce(e, vec![1]);
    let t = b.tanh(s);
    Program::new("integration", b.finish(t))
}

#[test]
fn program_to_kernels_to_runtimes() {
    let program = small_program();
    let (space, config) = default_space_and_config(&program.computation);
    let fused = apply_fusion(&program, &space, &config);
    assert!(fused.num_kernels() >= 1);

    let device = TpuDevice::new(0);
    let total: f64 = fused
        .kernels
        .iter()
        .map(|k| device.measure_kernel(k, 3))
        .sum();
    assert!(total > 0.0);

    // Program runtime equals the sum of kernel runtimes (§3.3), up to the
    // independent noise draws.
    let direct = device.measure_program(&fused, 3);
    assert!((direct / total - 1.0).abs() < 0.10, "{direct} vs {total}");
}

#[test]
fn every_fused_kernel_is_simulable_and_featurizable() {
    let corpus = Corpus::build(CorpusScale::Tiny);
    let cfg = TpuConfig::default();
    for entry in &corpus.entries {
        let (space, config) = default_space_and_config(&entry.program.computation);
        let fused = apply_fusion(&entry.program, &space, &config);
        assert!(fused.num_kernels() > 0, "{}", entry.program.name);
        for k in &fused.kernels {
            assert!(k.computation.validate().is_ok(), "{}", entry.program.name);
            let t = kernel_time_ns(k, &cfg);
            assert!(
                t.is_finite() && t > 0.0,
                "bad sim time in {}",
                entry.program.name
            );
            let (ids, feats) = tpu_repro::learned::features::kernel_features(k);
            assert_eq!(ids.len(), feats.rows());
            assert!(feats.data().iter().all(|v| v.is_finite()));
        }
    }
}

#[test]
fn learned_model_improves_with_training_on_unseen_programs() {
    let corpus = Corpus::build(CorpusScale::Tiny);
    let ds = build_fusion_dataset(
        &corpus,
        &FusionDatasetConfig {
            configs_per_program: 8,
            ..Default::default()
        },
    );
    let split = corpus.random_split(0);
    let (train_ex, val_ex, test_ex) = ds.split(&split);
    let to_samples = |exs: &[&tpu_repro::dataset::KernelExample]| -> Vec<Sample> {
        exs.iter()
            .map(|e| Sample::new(e.kernel.clone(), e.runtime_ns))
            .collect()
    };
    let train_p = prepare(&to_samples(&train_ex));
    let val_p = prepare(&to_samples(&val_ex));
    let test_p = prepare(&to_samples(&test_ex));
    assert!(!train_p.is_empty() && !test_p.is_empty());

    let mut model = GnnModel::new(GnnConfig {
        hidden: 24,
        opcode_embed_dim: 8,
        hops: 1,
        ..Default::default()
    });
    let eval_mape = |m: &GnnModel| {
        let preds: Vec<f64> = predict_log_ns(m, &test_p).into_iter().map(f64::exp).collect();
        let targets: Vec<f64> = test_p.iter().map(|p| p.runtime_ns).collect();
        tpu_repro::learned::metrics::mape(&preds, &targets)
    };
    let before = eval_mape(&model);
    let cfg = TrainConfig {
        epochs: 12,
        batch_size: 16,
        lr: 3e-3,
        loss: TaskLoss::FusionLogMse,
        max_batches_per_epoch: 60,
        ..Default::default()
    };
    train(&mut model, &train_p, &val_p, &cfg);
    let after = eval_mape(&model);
    assert!(
        after < before * 0.8,
        "training should cut test MAPE: {before:.1} -> {after:.1}"
    );
    assert!(after < 100.0, "trained MAPE should be sane: {after:.1}");
}

#[test]
fn tile_dataset_ranks_are_learnable_signals() {
    // The oracle (simulator) must rank tiles strictly better than chance,
    // and the dataset must contain within-kernel runtime spreads.
    let corpus = Corpus::build(CorpusScale::Tiny);
    let ds = build_tile_dataset(
        &corpus,
        &TileDatasetConfig {
            max_tiles_per_kernel: 10,
            ..Default::default()
        },
    );
    assert!(!ds.examples.is_empty());
    let mut spreads = 0;
    let mut groups = std::collections::HashMap::<usize, Vec<f64>>::new();
    for ex in &ds.examples {
        groups.entry(ex.kernel_group).or_default().push(ex.runtime_ns);
    }
    for v in groups.values() {
        if v.len() >= 2 {
            let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = v.iter().cloned().fold(0.0f64, f64::max);
            if max > min * 1.05 {
                spreads += 1;
            }
        }
    }
    assert!(spreads >= 3, "tile choice must matter: {spreads} spread groups");
}

#[test]
fn oracle_tile_selection_beats_worst_tile() {
    let mut b = GraphBuilder::new("k");
    let x = b.parameter("x", Shape::matrix(1024, 512), DType::F32);
    let w = b.parameter("w", Shape::matrix(512, 1024), DType::F32);
    let d = b.dot(x, w);
    let kernel = tpu_repro::hlo::Kernel::new(b.finish(d));
    let cfg = TpuConfig::default();
    let tiles = valid_tile_sizes(&kernel, &cfg, 100);
    assert!(tiles.len() >= 4);
    let best = best_tile(&kernel, &cfg, 100, |k| kernel_time_ns(k, &cfg)).unwrap();
    let best_ns = kernel_time_ns(&kernel.clone().with_tile(best), &cfg);
    let worst_ns = tiles
        .iter()
        .map(|t| kernel_time_ns(&kernel.clone().with_tile(t.clone()), &cfg))
        .fold(0.0f64, f64::max);
    assert!(worst_ns > best_ns * 1.2);
}

/// Model-guided autotuning with a closure cost model (`kernel_cost`
/// predicts one kernel's runtime in ns) and a private per-run cache.
fn autotune_with_model(
    program: &Program,
    device: &TpuDevice,
    kernel_cost: impl Fn(&tpu_repro::hlo::Kernel) -> f64,
    mode: StartMode,
    budgets: &Budgets,
    seed: u64,
) -> TunedConfig {
    let model = FnCostModel::new("closure", move |k: &tpu_repro::hlo::Kernel| Some(kernel_cost(k)));
    let cache = Arc::new(AtomicCache::serving_default());
    autotune_with_cost_model(program, device, &model, &cache, mode, budgets, seed)
}

#[test]
fn autotuner_with_trained_model_helps_from_random_start() {
    // End-to-end §6.3 miniature: train a model on one program's kernels,
    // then use it to autotune that program from a random configuration.
    let program = small_program();
    let machine = TpuConfig::default();
    let device = TpuDevice::with_config(machine.clone(), 5);

    let tuned = autotune_with_model(
        &program,
        &device,
        |k| kernel_time_ns(k, &machine), // oracle = upper bound of learned
        StartMode::Random,
        &Budgets {
            hardware_ns: 30e9,
            model_steps: 300,
            top_k: 8,
            chains: 2,
        },
        3,
    );
    let (space, default_cfg) = default_space_and_config(&program.computation);
    let default_ns = device.true_program_time(&apply_fusion(&program, &space, &default_cfg));
    // From a random start with a good model, we should get within 25% of
    // the default-config runtime (usually better than it).
    assert!(
        tuned.true_ns < default_ns * 1.25,
        "tuned {} vs default {}",
        tuned.true_ns,
        default_ns
    );
}

#[test]
fn cost_model_trait_is_retargetable() {
    // One interface, three backends (§1: "retargetable for different
    // compiler optimization tasks").
    let kernel = {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(512, 512), DType::F32);
        let t = b.tanh(x);
        tpu_repro::hlo::Kernel::new(b.finish(t))
    };
    let gnn = GnnModel::new(GnnConfig::default());
    let oracle = tpu_repro::learned::SimOracle::new(TpuConfig::default());
    let closure = tpu_repro::learned::FnCostModel::new("const", |_k: &tpu_repro::hlo::Kernel| {
        Some(1.0)
    });
    let models: Vec<&dyn CostModel> = vec![&gnn, &oracle, &closure];
    for m in models {
        let v = m.predict_kernel_ns(&kernel);
        assert!(v.is_some(), "{} failed", m.name());
    }
}
