//! The set-up every workload shares: build the corpus and its fusion
//! dataset, train the GNN on the training programs, freeze it, and render the
//! held-out kernels as request lines. The served / searched model is this
//! trained, frozen GNN — never an untrained one.

use crate::sizes::Sizes;
use std::time::Instant;
use tpu_dataset::{build_fusion_dataset, Corpus, CorpusScale, FusionDatasetConfig, Split};
use tpu_hlo::Kernel;
use tpu_infer::{freeze_gnn, FrozenModel};
use tpu_learned_cost::metrics::{kendall_tau, mape};
use tpu_learned_cost::{
    prepare, train, CostModel, GnnConfig, GnnModel, Sample, SimOracle, TrainConfig,
};
use tpu_serve::protocol::predict_request_line;
use tpu_sim::TpuConfig;

/// Kendall τ and MAPE (%) of a model against the simulator oracle.
#[derive(Debug, Clone, Copy)]
pub struct Accuracy {
    pub tau: f64,
    pub mape: f64,
}

pub struct Setup {
    pub corpus: Corpus,
    pub split: Split,
    /// The trained f32 model.
    pub gnn: GnnModel,
    /// Its frozen int16 form: what is served and searched with.
    pub frozen: FrozenModel,
    /// Kernels of the held-out Table-2 programs (never seen in training).
    pub pool: Vec<Kernel>,
    /// `pool[i]` as a predict request line with id `i` and a newline.
    pub lines: Vec<Vec<u8>>,
    /// `frozen.predict_kernel_ns(&pool[i])`, computed here and not through
    /// the daemon: the reference every reply is checked against.
    pub reference_ns: Vec<f64>,
    /// Noiseless simulator time of `pool[i]`.
    pub oracle_ns: Vec<f64>,
    pub accuracy: Accuracy,
    /// Training kernels used to calibrate every freeze.
    pub calibration: Vec<Kernel>,
    pub seconds: f64,
    /// `seconds` by part: corpus + dataset, split + featurize, training,
    /// freeze + pool + references.
    pub parts_s: [f64; 4],
}

/// Score `predict` against the oracle times of the pool.
pub fn accuracy_vs_oracle(predicted_ns: &[f64], oracle_ns: &[f64]) -> Accuracy {
    Accuracy {
        tau: kendall_tau(predicted_ns, oracle_ns),
        mape: mape(predicted_ns, oracle_ns),
    }
}

/// Seed of everything that shapes a model: dataset generation, the
/// train/validation split, weight initialisation and batch order. It is a
/// constant, not `--seed`, so that accuracy is a property of the code under
/// test and repeats exactly: with these sizes the model is far from
/// converged, and across seeds 1..3 its tau ranged 0.69..0.80 and its MAPE
/// 8..17 %, which would drown any real accuracy change. `--seed` drives the
/// load instead: request order, annealer and device seeds.
pub const MODEL_SEED: u64 = 2;

pub fn gnn_config(sizes: &Sizes) -> GnnConfig {
    GnnConfig {
        hidden: sizes.hidden,
        seed: MODEL_SEED,
        ..Default::default()
    }
}

pub fn train_config(sizes: &Sizes, epochs: usize, batches: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: sizes.batch_size,
        lr: 2e-3,
        max_batches_per_epoch: batches,
        shards: 4,
        seed: MODEL_SEED,
        ..Default::default()
    }
}

impl Setup {
    pub fn build(sizes: &Sizes) -> Setup {
        let started = Instant::now();
        let corpus = Corpus::build(CorpusScale::Full);
        let dataset = build_fusion_dataset(
            &corpus,
            &FusionDatasetConfig {
                configs_per_program: sizes.setup_configs_per_program,
                seed: MODEL_SEED,
                ..Default::default()
            },
        );
        let dataset_built = Instant::now();
        let split = corpus.random_split(MODEL_SEED);
        let (train_ex, val_ex, test_ex) = dataset.split(&split);
        let samples = |exs: &[&tpu_dataset::KernelExample]| -> Vec<Sample> {
            exs.iter()
                .map(|ex| Sample::new(ex.kernel.clone(), ex.runtime_ns))
                .collect()
        };
        let train_set = prepare(&samples(&train_ex));
        let val_set = prepare(&samples(&val_ex));

        let prepared = Instant::now();
        let mut gnn = GnnModel::new(gnn_config(sizes));
        train(
            &mut gnn,
            &train_set,
            &val_set,
            &train_config(sizes, sizes.setup_epochs, sizes.setup_batches),
        );
        let trained = Instant::now();
        let calibration: Vec<Kernel> = train_ex
            .iter()
            .take(256)
            .map(|ex| ex.kernel.clone())
            .collect();
        let frozen = FrozenModel::Gnn(
            freeze_gnn(&gnn, &calibration).expect("the default GraphSAGE config freezes"),
        );

        let pool: Vec<Kernel> = test_ex.iter().map(|ex| ex.kernel.clone()).collect();
        let lines: Vec<Vec<u8>> = pool
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let mut line = predict_request_line(i as u64, k).into_bytes();
                line.push(b'\n');
                line
            })
            .collect();
        let reference_ns: Vec<f64> = pool
            .iter()
            .map(|k| {
                frozen
                    .predict_kernel_ns(k)
                    .expect("frozen GNN scores any kernel")
            })
            .collect();
        let oracle = SimOracle::new(TpuConfig::default());
        let oracle_ns: Vec<f64> = pool
            .iter()
            .map(|k| {
                oracle
                    .predict_kernel_ns(k)
                    .expect("oracle scores any kernel")
            })
            .collect();
        let accuracy = accuracy_vs_oracle(&reference_ns, &oracle_ns);
        let ended = Instant::now();
        let between = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
        Setup {
            corpus,
            split,
            gnn,
            frozen,
            pool,
            lines,
            reference_ns,
            oracle_ns,
            accuracy,
            calibration,
            seconds: between(started, ended),
            parts_s: [
                between(started, dataset_built),
                between(dataset_built, prepared),
                between(prepared, trained),
                between(trained, ended),
            ],
        }
    }
}
