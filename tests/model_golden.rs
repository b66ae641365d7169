//! Golden regression test for training results and frozen models.
//!
//! `train_determinism` and `stream_training` compare a run with another
//! run of the same code, so a refactor that shifts every run alike passes
//! them; `crates/infer/tests/golden_frozen.blob` pins one *untrained*
//! default GNN. This snapshot pins what the training loops and the freeze
//! pass *produce*, on the tiny corpus:
//!
//! - every `TrainReport` float (as bits) and a digest of the final weights
//!   for `train` (fusion log-MSE, tile rank loss, the LSTM), for
//!   `train_resumable` resumed mid-run, and for `train_stream` from memory
//!   (capped by `max_batches_per_epoch`) and from a `tpu-ds.v1` file (with
//!   graphs over `segment_nodes`),
//! - for `freeze_gnn` of the trained GNN, of briefly trained weights over
//!   every neighbourhood reduction × {sum-only, mean+max, all} pools ×
//!   {0, 2} hops, and for `freeze_lstm`: a digest of `to_bytes()` and the
//!   prediction bits on `probe_kernels(16)`.
//!
//! The `train_*` rows of `model_golden.json` were generated by the code
//! *before* `train_stream` and `train_resumable` came to share one epoch
//! loop and must keep passing unchanged: a restructuring may not move one
//! bit. The `freeze_*` rows were recorded by the f32 frozen forward of
//! `tpu-frozen.v2` once it ran tpu-nn's matmul kernel, when its
//! predictions became the tape's bit for bit (only their `log_ns_bits`
//! moved; every `blob_fnv` held). If a change to training or freezing
//! arithmetic is
//! *intentional*, regenerate with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test model_golden
//! ```
//!
//! and commit the updated `model_golden.json` together with the change.

use std::fmt::Write;
use tpu_repro::dataset::{
    build_fusion_dataset, build_tile_dataset, stream_corpus, Corpus, CorpusScale, DatasetReader,
    DatasetWriter, FusionDatasetConfig, StreamGenConfig, TileDatasetConfig,
};
use tpu_repro::hlo::Kernel;
use tpu_repro::infer::{freeze_gnn, freeze_lstm, probe_kernels, FrozenModel};
use tpu_repro::learned::{
    prepare, train, train_resumable, train_stream, BatchSource, GnnConfig, GnnModel, KernelModel,
    LstmConfig, LstmModel, PoolCombo, Prepared, Reduction, Sample, StreamConfig, TaskLoss,
    TrainCheckpoint, TrainConfig, TrainReport,
};
use tpu_repro::nn::RankPhi;
use tpu_repro::obs::Registry;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn bits(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|v| v.to_bits().to_string()).collect();
    format!("[{}]", parts.join(", "))
}

fn render_run<M: KernelModel>(out: &mut String, label: &str, report: &TrainReport, model: &M) {
    writeln!(
        out,
        "  \"{label}\": {{ \"train_loss_bits\": {}, \"val_metric_bits\": {}, \
         \"best_val_bits\": {}, \"best_epoch\": {}, \"weights_fnv\": {} }},",
        bits(&report.train_loss),
        bits(&report.val_metric),
        report.best_val.to_bits(),
        report.best_epoch,
        fnv1a(model.params().to_json().as_bytes()),
    )
    .expect("write to string");
}

fn render_frozen(out: &mut String, label: &str, frozen: &FrozenModel, last: bool) {
    let preds: Vec<String> = probe_kernels(16)
        .iter()
        .map(|k| {
            frozen
                .predict_log_ns(&Prepared::from_kernel(k))
                .to_bits()
                .to_string()
        })
        .collect();
    writeln!(
        out,
        "  \"{label}\": {{ \"blob_fnv\": {}, \"log_ns_bits\": [{}] }}{}",
        fnv1a(&frozen.to_bytes()),
        preds.join(", "),
        if last { "" } else { "," }
    )
    .expect("write to string");
}

fn small_gnn() -> GnnModel {
    GnnModel::new(GnnConfig {
        hidden: 16,
        opcode_embed_dim: 8,
        hops: 1,
        ..Default::default()
    })
}

fn render() -> String {
    let corpus = Corpus::build(CorpusScale::Tiny);
    let fusion_cfg = FusionDatasetConfig {
        configs_per_program: 2,
        runs: 1,
        ..Default::default()
    };
    let fusion = build_fusion_dataset(&corpus, &fusion_cfg);
    let samples: Vec<Sample> = fusion.examples.iter().map(|ex| ex.sample()).collect();
    let prepared = prepare(&samples);
    assert!(
        prepared.len() >= 40,
        "tiny fusion dataset shrank to {}",
        prepared.len()
    );
    let (train_set, val_set) = prepared.split_at(prepared.len() - 8);
    let calib: Vec<Kernel> = fusion
        .examples
        .iter()
        .take(48)
        .map(|ex| ex.kernel.clone())
        .collect();
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 8,
        lr: 3e-3,
        ..Default::default()
    };
    let mut out = String::from("{\n");

    // --- train: fusion log-MSE (GNN and LSTM) ---
    let mut gnn = small_gnn();
    let report = train(&mut gnn, train_set, val_set, &cfg);
    render_run(&mut out, "train_fusion_gnn", &report, &gnn);

    let mut lstm = LstmModel::new(LstmConfig {
        opcode_embed_dim: 8,
        node_dim: 16,
        hidden: 16,
        ..Default::default()
    });
    let lstm_cfg = TrainConfig {
        epochs: 2,
        max_batches_per_epoch: 6,
        ..cfg.clone()
    };
    let report = train(&mut lstm, train_set, val_set, &lstm_cfg);
    render_run(&mut out, "train_fusion_lstm", &report, &lstm);

    // --- train: tile rank loss ---
    // The validation split holds exactly two kernel groups: the code this
    // snapshot was recorded from averaged the per-group taus in a
    // hash-random order, and a two-term sum is the longest one whose bits
    // cannot depend on that order.
    let tiles = build_tile_dataset(
        &corpus,
        &TileDatasetConfig {
            max_tiles_per_kernel: 6,
            runs: 1,
            ..Default::default()
        },
    );
    let tile_samples: Vec<Sample> = tiles.examples.iter().map(|ex| ex.sample()).collect();
    let tile_prepared = prepare(&tile_samples);
    let mut sizes = std::collections::BTreeMap::<usize, usize>::new();
    for p in &tile_prepared {
        *sizes.entry(p.group).or_default() += 1;
    }
    let val_groups: Vec<usize> = sizes
        .iter()
        .filter(|&(_, &n)| n >= 3)
        .map(|(&g, _)| g)
        .take(2)
        .collect();
    assert_eq!(
        val_groups.len(),
        2,
        "tiny tile dataset lost its multi-tile kernels"
    );
    let (tile_val, tile_rest): (Vec<Prepared>, Vec<Prepared>) = tile_prepared
        .into_iter()
        .partition(|p| val_groups.contains(&p.group));
    let tile_train = &tile_rest[..tile_rest.len().min(160)];
    let tile_cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        loss: TaskLoss::TileRank(RankPhi::Logistic),
        ..cfg.clone()
    };
    let mut ranker = small_gnn();
    let report = train(&mut ranker, tile_train, &tile_val, &tile_cfg);
    render_run(&mut out, "train_tile_rank", &report, &ranker);

    // --- train_resumable: stop after 2 epochs, resume to 4 ---
    let noop = Registry::noop();
    let mut interrupted = small_gnn();
    let mut last: Option<String> = None;
    let mut sink = |c: &TrainCheckpoint| last = Some(c.to_json());
    let two = TrainConfig {
        epochs: 2,
        ..cfg.clone()
    };
    train_resumable(
        &mut interrupted,
        train_set,
        val_set,
        &two,
        &noop,
        None,
        Some(&mut sink),
    )
    .expect("fresh run");
    let ckpt = TrainCheckpoint::from_json(&last.expect("a checkpoint per epoch")).expect("parses");
    let mut resumed = small_gnn();
    let four = TrainConfig {
        epochs: 4,
        ..cfg.clone()
    };
    let report = train_resumable(
        &mut resumed,
        train_set,
        val_set,
        &four,
        &noop,
        Some(&ckpt),
        None,
    )
    .expect("resume");
    render_run(&mut out, "train_resumable_resumed", &report, &resumed);

    // --- train_stream from memory, capped by max_batches_per_epoch ---
    let capped = TrainConfig {
        max_batches_per_epoch: 3,
        ..cfg.clone()
    };
    let scfg = StreamConfig {
        window: 16,
        ..Default::default()
    };
    let mut streamed = small_gnn();
    let report =
        train_stream(&mut streamed, train_set, val_set, &capped, &scfg).expect("in-memory source");
    render_run(&mut out, "train_stream_memory_capped", &report, &streamed);

    // --- train_stream from a tpu-ds.v1 file, with graphs over segment_nodes ---
    let path = std::env::temp_dir().join(format!("tpu_model_golden_{}.tpuds", std::process::id()));
    let mut writer = DatasetWriter::create(&path).expect("create dataset file");
    let summary = stream_corpus(
        &corpus,
        &StreamGenConfig {
            fusion: fusion_cfg,
            whole_graph_nodes: 60,
        },
        &mut writer,
    )
    .expect("stream the tiny corpus");
    writer.finish().expect("finish dataset file");
    assert!(
        summary.whole_graph_examples > 0,
        "no whole-graph record to segment"
    );
    let reader = DatasetReader::open(&path).expect("open dataset file");
    let seg_cfg = StreamConfig {
        window: 16,
        segment_nodes: 24,
    };
    assert!(
        (0..reader.num_examples()).any(|i| reader.meta(i).num_nodes > seg_cfg.segment_nodes),
        "no streamed graph exceeds segment_nodes"
    );
    let mut from_file = small_gnn();
    let report =
        train_stream(&mut from_file, &reader, val_set, &cfg, &seg_cfg).expect("file source");
    render_run(&mut out, "train_stream_file_segmented", &report, &from_file);
    let _ = std::fs::remove_file(&path);

    // --- freeze: the trained models ---
    let frozen = |m: &GnnModel, c: &[Kernel]| FrozenModel::Gnn(freeze_gnn(m, c).expect("freezes"));
    let frozen_lstm =
        |c: &[Kernel]| FrozenModel::Lstm(freeze_lstm(&lstm, c).expect("lstm freezes"));
    // The `calib` argument must not reach the result: one row per model.
    assert_eq!(
        frozen(&gnn, &calib).to_bytes(),
        frozen(&gnn, &[]).to_bytes()
    );
    assert_eq!(frozen_lstm(&calib).to_bytes(), frozen_lstm(&[]).to_bytes());
    render_frozen(&mut out, "freeze_gnn", &frozen(&gnn, &[]), false);
    render_frozen(&mut out, "freeze_lstm", &frozen_lstm(&[]), false);

    // --- freeze: every reduction x pool combo x hop count, briefly trained ---
    let brief = TrainConfig {
        epochs: 1,
        max_batches_per_epoch: 6,
        ..cfg.clone()
    };
    let reductions = [Reduction::Sum, Reduction::Mean, Reduction::Max];
    let pools = [
        (
            "sum",
            PoolCombo {
                sum: true,
                mean: false,
                max: false,
            },
        ),
        (
            "mean+max",
            PoolCombo {
                sum: false,
                mean: true,
                max: true,
            },
        ),
        ("all", PoolCombo::all()),
    ];
    for (ri, reduction) in reductions.iter().enumerate() {
        for (pi, (pool_name, pooling)) in pools.iter().enumerate() {
            for (hi, hops) in [0usize, 2].into_iter().enumerate() {
                let mut m = GnnModel::new(GnnConfig {
                    hidden: 16,
                    opcode_embed_dim: 8,
                    hops,
                    reduction: *reduction,
                    pooling: *pooling,
                    ..Default::default()
                });
                train(&mut m, train_set, val_set, &brief);
                let label = format!("freeze_gnn_{reduction:?}_{pool_name}_{hops}hops");
                let last = (ri, pi, hi) == (reductions.len() - 1, pools.len() - 1, 1);
                render_frozen(&mut out, &label, &frozen(&m, &[]), last);
            }
        }
    }
    out.push_str("}\n");
    out
}

#[test]
fn training_and_freezing_match_golden_snapshot() {
    let rendered = render();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("model_golden.json");

    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, &rendered).expect("write model golden");
        println!("regenerated {}", path.display());
        return;
    }

    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run REGEN_GOLDEN=1 cargo test --test model_golden",
            path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "training or freeze results drifted from tests/model_golden.json; if intentional, \
         regenerate with REGEN_GOLDEN=1 and commit the diff"
    );
}
