//! What every training experiment sets up before it trains: one learning
//! task on one corpus split.

use crate::{cap_prepared, train_checkpointed, Args};
use tpu_dataset::{
    build_fusion_dataset, Corpus, Dataset, FusionDatasetConfig, KernelExample, Split,
};
use tpu_learned_cost::{prepare, KernelModel, Prepared, Sample, TrainConfig, TrainReport};
use tpu_sim::TpuConfig;

/// A dataset divided by a corpus split: the capped, prepared (featurized)
/// training and validation sets, and the test examples.
pub struct Task<'a> {
    /// The corpus the dataset was generated from.
    pub corpus: &'a Corpus,
    /// Its programs, divided into train, validation and test.
    pub split: Split,
    /// The training set, subsampled to the training cap.
    pub train: Vec<Prepared>,
    /// The validation set, subsampled to the validation cap.
    pub val: Vec<Prepared>,
    /// How many examples the train, validation and test programs have,
    /// before the caps.
    pub sizes: [usize; 3],
    /// Every example of the test programs, in dataset order.
    pub test: Vec<Sample>,
    /// The corpus index of each test example's program.
    test_program: Vec<usize>,
}

impl<'a> Task<'a> {
    /// The task of `dataset` under `split`: the fusion task (§6.1) of a
    /// fusion dataset, the tile-size task (§6.2) of a tile dataset.
    pub fn new(
        corpus: &'a Corpus,
        dataset: &Dataset,
        split: Split,
        (train_cap, val_cap): (usize, usize),
    ) -> Task<'a> {
        let (train, val, test) = dataset.split(&split);
        let samples =
            |exs: &[&KernelExample]| -> Vec<Sample> { exs.iter().map(|ex| ex.sample()).collect() };
        let (train, val) = (samples(&train), samples(&val));
        Task {
            corpus,
            split,
            train: cap_prepared(prepare(&train), train_cap, 1),
            val: cap_prepared(prepare(&val), val_cap, 2),
            sizes: [train.len(), val.len(), test.len()],
            test_program: test.iter().map(|ex| ex.program_idx).collect(),
            test: samples(&test),
        }
    }

    /// The fusion task measured on `machine`, under the random split — all
    /// an experiment that trains on one machine and one split sets up.
    pub(crate) fn random_fusion(corpus: &'a Corpus, args: &Args, machine: &TpuConfig) -> Task<'a> {
        let cfg = FusionDatasetConfig {
            machine: machine.clone(),
            ..args.scale.fusion_cfg()
        };
        let dataset = build_fusion_dataset(corpus, &cfg);
        Task::new(corpus, &dataset, corpus.random_split(0), args.caps())
    }

    /// Per test program, in split order: its name and those of its test
    /// examples that measured `min_ns` or more (`0.0` keeps them all).
    pub(crate) fn test_by_program(&self, min_ns: f64) -> Vec<(&'a str, Vec<Sample>)> {
        let examples_of = |pi: usize| {
            let of_program = self.test.iter().zip(&self.test_program);
            of_program
                .filter(|(sample, &program)| program == pi && sample.runtime_ns >= min_ns)
                .map(|(sample, _)| sample.clone())
                .collect()
        };
        let name_of = |pi: usize| self.corpus.entries[pi].program.name.as_str();
        self.split
            .test
            .iter()
            .map(|&pi| (name_of(pi), examples_of(pi)))
            .collect()
    }
}

/// Train every candidate — a checkpoint tag and a fresh model — on `task`,
/// show each trained model and its report to `trained` (with the
/// candidate's position), and return the one with the lowest validation
/// metric, the first among equals, behind that metric.
pub(crate) fn train_best<M: KernelModel>(
    task: &Task,
    cfg: &TrainConfig,
    args: &Args,
    candidates: impl IntoIterator<Item = (String, M)>,
    mut trained: impl FnMut(usize, &M, &TrainReport),
) -> (f64, M) {
    let mut best: Option<(f64, M)> = None;
    for (i, (tag, mut model)) in candidates.into_iter().enumerate() {
        let checkpoint = args.checkpoint_for(&tag);
        let report = train_checkpointed(
            &mut model,
            &task.train,
            &task.val,
            cfg,
            &args.registry,
            checkpoint.as_deref(),
        );
        trained(i, &model, &report);
        if best
            .as_ref()
            .is_none_or(|(val, _)| report.best_val.total_cmp(val).is_lt())
        {
            best = Some((report.best_val, model));
        }
    }
    best.expect("at least one candidate")
}
