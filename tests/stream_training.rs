//! Determinism pins for the streaming training path:
//!
//! 1. Training from a `tpu-ds.v1` file on disk must be bit-identical to
//!    training from the same examples held in memory — the reader is a
//!    transport, never a transform.
//! 2. Graph-segment training must repeat bit for bit: segment seeds are
//!    mixed from (seed, epoch, example index) and nothing else, and
//!    gradient reduction is shard-ordered.
//! 3. A non-finite epoch loss rolls back under `TrainConfig::max_rollbacks`
//!    exactly as in-memory training does. (That the loop keeps one batch
//!    resident at a time is pinned in `stream_residency.rs`.)

use std::sync::atomic::{AtomicUsize, Ordering};
use tpu_repro::dataset::{
    stream_corpus, Corpus, CorpusScale, DatasetReader, DatasetWriter, FusionDatasetConfig,
    StreamGenConfig,
};
use tpu_repro::hlo::{DType, GraphBuilder, Kernel, Shape};
use tpu_repro::learned::{
    stream_epoch_plan, train_stream, BatchSource, ExampleMeta, GnnConfig, GnnModel, KernelModel,
    Prepared, Sample, StreamConfig, TrainConfig,
};
use tpu_repro::sim::{kernel_time_ns, TpuConfig};

fn small_model() -> GnnModel {
    GnnModel::new(GnnConfig {
        hidden: 8,
        opcode_embed_dim: 4,
        hops: 1,
        ..Default::default()
    })
}

#[test]
fn streamed_file_training_matches_in_memory_training() {
    let path = std::env::temp_dir().join(format!("tpu_stream_train_{}.tpuds", std::process::id()));
    let corpus = Corpus::build(CorpusScale::Tiny);
    let cfg = StreamGenConfig {
        fusion: FusionDatasetConfig {
            configs_per_program: 2,
            runs: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut writer = DatasetWriter::create(&path).unwrap();
    stream_corpus(&corpus, &cfg, &mut writer).unwrap();
    writer.finish().unwrap();

    let reader = DatasetReader::open(&path).unwrap();
    let all_idx: Vec<usize> = (0..reader.len()).collect();
    let in_memory: Vec<Prepared> = reader.load(&all_idx).unwrap();
    assert!(in_memory.len() >= 20, "corpus too small to be meaningful");
    let val_set: Vec<Prepared> = in_memory[in_memory.len() - 4..].to_vec();

    let train_cfg = TrainConfig {
        epochs: 3,
        batch_size: 8,
        shards: 4,
        ..Default::default()
    };
    // Small segment cap so the segment sampler is exercised on both paths.
    let scfg = StreamConfig {
        window: 16,
        segment_nodes: 24,
    };

    let mut from_file = small_model();
    let report_file = train_stream(&mut from_file, &reader, &val_set, &train_cfg, &scfg).unwrap();

    let mut from_memory = small_model();
    let report_memory = train_stream(
        &mut from_memory,
        &in_memory[..],
        &val_set,
        &train_cfg,
        &scfg,
    )
    .unwrap();

    assert_eq!(report_file.train_loss.len(), report_memory.train_loss.len());
    for (epoch, (a, b)) in report_file
        .train_loss
        .iter()
        .zip(&report_memory.train_loss)
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "epoch {epoch} train loss diverged: file {a} vs memory {b}"
        );
    }
    assert_eq!(
        from_file.params().to_json(),
        from_memory.params().to_json(),
        "final parameters differ between streamed-file and in-memory training"
    );
    let _ = std::fs::remove_file(path);
}

fn chain_kernel(len: usize, cols: usize) -> Kernel {
    let mut b = GraphBuilder::new("chain");
    let x = b.parameter("x", Shape::matrix(8, cols), DType::F32);
    let mut h = x;
    for _ in 0..len {
        h = b.tanh(h);
    }
    Kernel::new(b.finish(h))
}

/// Mixed workload: most graphs are small, a few are far over the segment
/// cap so every epoch takes the BFS-segment path for them.
fn segment_workload() -> Vec<Prepared> {
    let hw = TpuConfig::default();
    let mut out = Vec::new();
    for i in 0..10 {
        let k = chain_kernel(3 + i % 4, 32 + 16 * i);
        let t = kernel_time_ns(&k, &hw);
        out.push(Prepared::from_sample(&Sample::new(k, t)));
    }
    for i in 0..4 {
        let k = chain_kernel(150, 64 + 32 * i);
        let t = kernel_time_ns(&k, &hw);
        out.push(Prepared::from_sample(&Sample::new(k, t)));
    }
    out
}

#[test]
fn segment_training_is_bit_identical_across_runs() {
    let prepared = segment_workload();
    let (train_set, val_set) = prepared.split_at(11);
    let train_cfg = TrainConfig {
        epochs: 3,
        batch_size: 4,
        shards: 4,
        ..Default::default()
    };
    let scfg = StreamConfig {
        segment_nodes: 32,
        ..Default::default()
    };

    let run = || {
        let mut model = small_model();
        let report = train_stream(&mut model, train_set, val_set, &train_cfg, &scfg).unwrap();
        (report.train_loss, model.params().to_json())
    };

    let (base_losses, base_params) = run();
    let (losses, params) = run();
    for (epoch, (a, b)) in base_losses.iter().zip(&losses).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "epoch {epoch} loss differs between runs"
        );
    }
    assert_eq!(base_params, params, "final parameters differ between runs");
}

/// An in-memory source that counts the `load` calls it serves.
struct CountingSource<'a> {
    examples: &'a [Prepared],
    loads: AtomicUsize,
}

impl BatchSource for CountingSource<'_> {
    fn num_examples(&self) -> usize {
        self.examples.len()
    }
    fn meta(&self, i: usize) -> ExampleMeta {
        self.examples.meta(i)
    }
    fn load(&self, idxs: &[usize]) -> Result<Vec<Prepared>, String> {
        self.loads.fetch_add(1, Ordering::SeqCst);
        self.examples.load(idxs)
    }
}

/// `TrainConfig::max_rollbacks` guards the streaming loop too: an infinite
/// target (a NaN one is clamped to 1 ns by `log_targets`) makes the loss
/// of every attempt at epoch 0 non-finite, so training retries exactly
/// `max_rollbacks` times, then stops on the untouched initial weights.
#[test]
fn train_stream_rolls_back_a_non_finite_epoch() {
    let mut examples = segment_workload();
    examples[5].runtime_ns = f64::INFINITY;
    let (train_set, val_set) = examples.split_at(11);
    let source = CountingSource {
        examples: train_set,
        loads: AtomicUsize::new(0),
    };
    let train_cfg = TrainConfig {
        epochs: 3,
        batch_size: 4,
        shards: 2,
        max_rollbacks: 2,
        ..Default::default()
    };
    let scfg = StreamConfig::default();
    let mut model = small_model();
    let report = train_stream(&mut model, &source, val_set, &train_cfg, &scfg).unwrap();

    assert!(
        report.train_loss.is_empty(),
        "a poisoned epoch was recorded"
    );
    assert_eq!(
        model.params().to_json(),
        small_model().params().to_json(),
        "training did not stop at the last healthy weights"
    );
    let per_attempt = stream_epoch_plan(&source, &train_cfg, &scfg, 0).len();
    assert_eq!(
        source.loads.load(Ordering::SeqCst),
        (train_cfg.max_rollbacks + 1) * per_attempt,
        "one first attempt plus max_rollbacks retries of epoch 0"
    );
}
