//! Training must repeat bit for bit: the shard split is fixed by
//! `TrainConfig::shards`, shards run and their gradients are reduced in
//! shard order, and nothing else (hash order, addresses, time) may reach
//! the arithmetic.

use tpu_repro::hlo::{DType, GraphBuilder, Kernel, Shape};
use tpu_repro::learned::{prepare, train, GnnConfig, GnnModel, KernelModel, Sample, TrainConfig};
use tpu_repro::sim::{kernel_time_ns, TpuConfig};

fn ew_kernel(rows: usize, cols: usize) -> Kernel {
    let mut b = GraphBuilder::new("k");
    let x = b.parameter("x", Shape::matrix(rows, cols), DType::F32);
    let t = b.tanh(x);
    let e = b.exp(t);
    Kernel::new(b.finish(e))
}

/// Run a short training job from a fixed init and return the per-epoch
/// losses plus the final serialized parameters.
fn run_once() -> (Vec<f64>, String) {
    let hw = TpuConfig::default();
    let sizes = [
        (64, 128),
        (128, 256),
        (256, 256),
        (512, 512),
        (1024, 512),
        (1024, 1024),
        (2048, 1024),
        (32, 2048),
    ];
    let samples: Vec<Sample> = sizes
        .iter()
        .map(|&(r, c)| {
            let k = ew_kernel(r, c);
            let t = kernel_time_ns(&k, &hw);
            Sample::new(k, t)
        })
        .collect();
    let prepared = prepare(&samples);
    let (train_set, val_set) = prepared.split_at(6);

    let mut model = GnnModel::new(GnnConfig {
        hidden: 16,
        opcode_embed_dim: 8,
        hops: 1,
        ..Default::default()
    });
    let cfg = TrainConfig {
        epochs: 4,
        batch_size: 4,
        lr: 5e-3,
        shards: 4,
        ..Default::default()
    };
    let report = train(&mut model, train_set, val_set, &cfg);
    (report.train_loss, model.params().to_json())
}

#[test]
fn training_is_bit_identical_across_runs() {
    let (losses_first, params_first) = run_once();
    let (losses, params) = run_once();
    assert_eq!(losses_first.len(), losses.len(), "epoch count differs");
    for (epoch, (a, b)) in losses_first.iter().zip(&losses).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "epoch {epoch} loss differs between runs: {a} vs {b}"
        );
    }
    assert_eq!(params_first, params, "final parameters differ between runs");
}
