//! Training must repeat bit for bit: the shard split is fixed by
//! `TrainConfig::shards`, shards run and their gradients are reduced in
//! shard order, and nothing else (hash order, addresses, time) may reach
//! the arithmetic.

use tpu_repro::hlo::{DType, GraphBuilder, Kernel, Shape};
use tpu_repro::learned::{
    prepare, train, train_step, GnnConfig, GnnModel, KernelModel, LstmConfig, LstmModel, Prepared,
    Sample, TrainConfig,
};
use tpu_repro::nn::Adam;
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

fn chain_kernel(len: usize, cols: usize) -> Kernel {
    let mut b = GraphBuilder::new("chain");
    let x = b.parameter("x", Shape::matrix(8, cols), DType::F32);
    let mut h = x;
    for i in 0..len {
        h = if i % 2 == 0 { b.tanh(h) } else { b.exp(h) };
    }
    Kernel::new(b.finish(h))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Recorded LSTM training bits. The LSTM reads every cell parameter once
/// per time step, so each shard's gradient for it is a sum of many terms;
/// these bits pin how that sum is grouped — within a shard first, then
/// across the four shards in shard order — step after step.
#[test]
fn lstm_sharded_train_steps_keep_recorded_bits() {
    let hw = TpuConfig::default();
    let prepared: Vec<Prepared> = (0..24)
        .map(|i| {
            let k = chain_kernel(2 + i % 7, 16 + 8 * i);
            let t = kernel_time_ns(&k, &hw);
            Prepared::from_sample(&Sample::new(k, t))
        })
        .collect();
    let mut model = LstmModel::new(LstmConfig {
        opcode_embed_dim: 8,
        node_dim: 16,
        hidden: 16,
        ..Default::default()
    });
    let cfg = TrainConfig {
        lr: 5e-3,
        shards: 4,
        ..Default::default()
    };
    let mut opt = Adam::new(cfg.lr);
    let mut tapes = Vec::new();
    let mut loss_bits = Vec::new();
    for step in 0..6 {
        let idxs: Vec<usize> = (0..16).map(|j| (step * 5 + j * 3) % 24).collect();
        let loss = train_step(&mut model, &prepared, &idxs, &cfg, &mut opt, &mut tapes)
            .expect("an MSE batch always yields a loss");
        loss_bits.push(loss.to_bits());
    }
    let weights = fnv1a(model.params().to_json().as_bytes());
    assert_eq!(loss_bits, RECORDED_LSTM_LOSS_BITS, "LSTM step losses moved");
    assert_eq!(weights, RECORDED_LSTM_WEIGHTS_FNV, "LSTM weights moved");
}

const RECORDED_LSTM_LOSS_BITS: [u64; 6] = [
    4586461523026640896,
    4590825410589097984,
    4585468528466853888,
    4564318207233490944,
    4581502970935377920,
    4584527171761995776,
];
const RECORDED_LSTM_WEIGHTS_FNV: u64 = 18414758634354098276;
