//! Train the learned performance model end-to-end on a small corpus and
//! watch it beat an untrained baseline — a miniature of §6.1 — then freeze
//! it into the blob the serving path loads.
//!
//! ```text
//! cargo run --release --example train_cost_model
//! ```

use tpu_repro::dataset::{build_fusion_dataset, Corpus, CorpusScale, FusionDatasetConfig};
use tpu_repro::infer::{freeze_gnn, FrozenModel};
use tpu_repro::learned::metrics::mape;
use tpu_repro::learned::{predict_log_ns, prepare, train, GnnConfig, GnnModel, TrainConfig};

fn main() {
    // Build a small corpus and its fusion dataset against the simulator.
    let corpus = Corpus::build(CorpusScale::Tiny);
    let dataset = build_fusion_dataset(
        &corpus,
        &FusionDatasetConfig {
            configs_per_program: 24,
            ..Default::default()
        },
    );
    println!(
        "dataset: {} unique kernels from {} programs",
        dataset.examples.len(),
        corpus.len()
    );

    // Hold out one kernel in ten as the test set (unseen kernels from
    // seen programs — the 104-program cross-*program* generalization
    // experiment is the `table2` binary). Every 10th kernel: test;
    // every 9th of the rest: validation.
    let mut train_s = Vec::new();
    let mut val_s = Vec::new();
    let mut test_s = Vec::new();
    for (i, ex) in dataset.examples.iter().enumerate() {
        let s = ex.sample();
        if i % 10 == 0 {
            test_s.push(s);
        } else if i % 9 == 0 {
            val_s.push(s);
        } else {
            train_s.push(s);
        }
    }
    let train_prep = prepare(&train_s);
    let val_prep = prepare(&val_s);
    let test_prep = prepare(&test_s);
    println!(
        "split: {} train / {} val / {} test examples",
        train_prep.len(),
        val_prep.len(),
        test_prep.len()
    );

    let mut model = GnnModel::new(GnnConfig {
        hidden: 48,
        opcode_embed_dim: 12,
        hops: 2,
        ..Default::default()
    });

    let eval = |log_ns: Vec<f64>, name: &str| {
        let preds: Vec<f64> = log_ns.into_iter().map(f64::exp).collect();
        let targets: Vec<f64> = test_prep.iter().map(|p| p.runtime_ns).collect();
        let m = mape(&preds, &targets);
        println!("{name}: test MAPE {m:.1}%");
        m
    };

    let before = eval(predict_log_ns(&model, &test_prep).collect(), "untrained");

    let cfg = TrainConfig {
        epochs: 60,
        batch_size: 24,
        lr: 2e-3,
        max_batches_per_epoch: 150,
        ..Default::default()
    };
    let report = train(&mut model, &train_prep, &val_prep, &cfg);
    println!(
        "trained {} epochs; val MAPE per epoch (first/best/last): {:.1}% / {:.1}% / {:.1}%",
        report.val_metric.len(),
        report.val_metric[0],
        report.best_val,
        report.val_metric.last().unwrap()
    );

    let after = eval(predict_log_ns(&model, &test_prep).collect(), "trained  ");
    println!(
        "\nimprovement on held-out kernels: {:.1}% -> {:.1}% MAPE",
        before, after
    );

    // Deploy: freeze the trained weights into a `tpu-frozen.v2` blob and
    // load it back, as `tpu-serve --model frozen --bundle BLOB` does.
    let frozen = freeze_gnn(&model, &[]).expect("trained weights are finite");
    let blob = FrozenModel::Gnn(frozen).to_bytes();
    let served = FrozenModel::from_bytes(&blob).expect("a blob just written loads");
    let log_ns = test_prep.iter().map(|p| served.predict_log_ns(p)).collect();
    eval(log_ns, &format!("frozen ({} B)", blob.len()));
}
