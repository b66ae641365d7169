//! Training loops for the two tasks (§4.2) and the hyperparameter search
//! (§6: "for all the learned models, we did a hyperparameter search and
//! selected the best-performing models on the validation split").

use crate::batch::{GraphBatch, Prepared, Sample};
use crate::checkpoint::{decode_f64, encode_f64, CheckpointError, TrainCheckpoint, SCHEMA};
use crate::lstm_model::LstmModel;
use crate::metrics::{kendall_tau, mape, mean};
use crate::model::GnnModel;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use tpu_nn::{
    clip_grad_norm, grouped_pairwise_rank_loss, mse_loss, Adam, GradBuffer, ParamStore, RankPhi,
    Tape, Tensor, Var,
};
use tpu_obs::{Counter, Gauge, Histogram, Registry, Series};

/// Training objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskLoss {
    /// Fusion task: squared error on log-transformed targets (§4.2).
    FusionLogMse,
    /// Tile-size task: pairwise rank loss within kernel groups (Eq. 2).
    TileRank(RankPhi),
    /// Tile-size task MSE alternative, per-kernel weighted (§4.2).
    TileMse,
}

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Kernels per batch.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Gradient clipping norm.
    pub clip: f32,
    /// Shuffling seed.
    pub seed: u64,
    /// The objective.
    pub loss: TaskLoss,
    /// Cap on batches per epoch (subsampling very large datasets the way
    /// the paper's 207M-example corpus must be subsampled per epoch).
    pub max_batches_per_epoch: usize,
    /// Number of shards each minibatch is split into. Not a parallelism
    /// setting: shards run one after the other and their gradients are
    /// summed in shard order, so this is the grouping of that float sum —
    /// changing it moves losses and weights by rounding, which is why the
    /// goldens pin the default. `1` is one packed batch.
    pub shards: usize,
    /// Bound on non-finite-loss rollbacks per epoch: each rollback
    /// restores the epoch-start weights/optimizer/RNG, halves the learning
    /// rate, and retries the epoch; when the bound is exhausted training
    /// stops at the last healthy state. The guard only fires on a
    /// non-finite epoch loss, so finite-loss runs are unaffected.
    pub max_rollbacks: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 25,
            batch_size: 24,
            lr: 1e-3,
            clip: 5.0,
            seed: 5,
            loss: TaskLoss::FusionLogMse,
            max_batches_per_epoch: 400,
            shards: 4,
            max_rollbacks: 8,
        }
    }
}

/// Per-epoch training trace and the best validation metric observed.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f64>,
    /// Validation metric per epoch (MAPE for fusion — lower better; mean
    /// per-kernel Kendall τ for tile — higher better).
    pub val_metric: Vec<f64>,
    /// Best validation metric.
    pub best_val: f64,
    /// Epoch index of the best metric.
    pub best_epoch: usize,
}

/// `tpu-obs` handles for the training loop (`core.train.*`), resolved
/// once per [`train_resumable`] call. `Default` is all no-op handles and
/// registers no names, so the uninstrumented [`train_step`] wrapper stays
/// free of per-step overhead.
#[derive(Default)]
struct TrainObs {
    epochs: Counter,
    steps: Counter,
    steps_skipped: Counter,
    rollbacks: Counter,
    epoch_ns: Histogram,
    step_ns: Histogram,
    grad_reduce_ns: Histogram,
    val_ns: Histogram,
    epoch_loss: Series,
    val_metric: Series,
    best_val: Gauge,
    best_epoch: Gauge,
}

impl TrainObs {
    fn new(registry: &Registry) -> TrainObs {
        TrainObs {
            epochs: registry.counter("core.train.epochs"),
            steps: registry.counter("core.train.steps"),
            steps_skipped: registry.counter("core.train.steps_skipped"),
            rollbacks: registry.counter("core.train.rollbacks"),
            epoch_ns: registry.histogram("core.train.epoch_ns"),
            step_ns: registry.histogram("core.train.step_ns"),
            grad_reduce_ns: registry.histogram("core.train.grad_reduce_ns"),
            val_ns: registry.histogram("core.train.val_ns"),
            epoch_loss: registry.series("core.train.epoch_loss"),
            val_metric: registry.series("core.train.val_metric"),
            best_val: registry.gauge("core.train.best_val"),
            best_epoch: registry.gauge("core.train.best_epoch"),
        }
    }
}

/// A model trainable on kernel batches: implemented by [`GnnModel`] and
/// [`LstmModel`] so both share one training loop.
pub trait KernelModel {
    /// Forward pass producing `[B×1]` log-runtime predictions.
    fn forward_batch(&self, tape: &mut Tape, batch: &GraphBatch) -> Var;
    /// Parameter store.
    fn params(&self) -> &ParamStore;
    /// Mutable parameter store.
    fn params_mut(&mut self) -> &mut ParamStore;
    /// Human-readable name for reports.
    fn model_name(&self) -> &'static str;
}

impl KernelModel for GnnModel {
    fn forward_batch(&self, tape: &mut Tape, batch: &GraphBatch) -> Var {
        self.forward(tape, batch)
    }
    fn params(&self) -> &ParamStore {
        self.store()
    }
    fn params_mut(&mut self) -> &mut ParamStore {
        self.store_mut()
    }
    fn model_name(&self) -> &'static str {
        "gnn"
    }
}

impl KernelModel for LstmModel {
    fn forward_batch(&self, tape: &mut Tape, batch: &GraphBatch) -> Var {
        self.forward(tape, batch)
    }
    fn params(&self) -> &ParamStore {
        self.store()
    }
    fn params_mut(&mut self) -> &mut ParamStore {
        self.store_mut()
    }
    fn model_name(&self) -> &'static str {
        "lstm"
    }
}

/// Featurize samples once before training ([`Prepared::from_samples`]).
pub fn prepare(samples: &[Sample]) -> Vec<Prepared> {
    Prepared::from_samples(samples)
}

/// Batched log-runtime prediction over prepared samples (one packed
/// forward pass per 64 kernels, via [`crate::forward_log_ns_chunked`]).
pub fn predict_log_ns<M: KernelModel>(model: &M, prepared: &[Prepared]) -> Vec<f64> {
    let refs: Vec<&Prepared> = prepared.iter().collect();
    crate::engine::forward_log_ns_chunked(model, &refs, 64)
}

/// Validation metric: fusion → MAPE on ns (lower better); tile → mean
/// per-group Kendall τ (higher better).
pub fn validation_metric<M: KernelModel>(model: &M, val: &[Prepared], loss: TaskLoss) -> f64 {
    if val.is_empty() {
        return f64::NAN;
    }
    let preds = predict_log_ns(model, val);
    match loss {
        TaskLoss::FusionLogMse => {
            let pred_ns: Vec<f64> = preds.iter().map(|&p| p.exp()).collect();
            let targets: Vec<f64> = val.iter().map(|p| p.runtime_ns).collect();
            mape(&pred_ns, &targets)
        }
        TaskLoss::TileRank(_) | TaskLoss::TileMse => {
            mean(&per_group_kendall(&preds, val))
        }
    }
}

/// Kendall τ between predictions and targets within each group of at
/// least two samples, in ascending group-id order: callers average the
/// result, and an f64 sum taken in a `HashMap`'s process-random order
/// would differ in its last bits between identical runs.
pub fn per_group_kendall(preds: &[f64], prepared: &[Prepared]) -> Vec<f64> {
    let mut by_group: BTreeMap<usize, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (p, item) in preds.iter().zip(prepared) {
        let e = by_group.entry(item.group).or_default();
        e.0.push(*p);
        e.1.push(item.runtime_ns);
    }
    by_group
        .values()
        .filter(|(a, _)| a.len() >= 2)
        .map(|(a, b)| kendall_tau(a, b))
        .collect()
}

/// Tile-task batches: whole rank groups packed greedily up to
/// `batch_size`, so in-batch pairs exist (§4.2's batching modification).
/// `groups` yields each example's group id in example order. Groups are
/// collected in sorted-id order before the shuffle: iterating a `HashMap`
/// here would order the shuffle's input by the process-random hash seed,
/// making batch composition differ between identical runs.
fn pack_rank_groups(
    groups: impl Iterator<Item = usize>,
    batch_size: usize,
    rng: &mut ChaCha8Rng,
) -> Vec<Vec<usize>> {
    let mut by_group: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, group) in groups.enumerate() {
        by_group.entry(group).or_default().push(i);
    }
    let mut group_list: Vec<Vec<usize>> = by_group.into_values().collect();
    group_list.shuffle(rng);
    let mut batches = Vec::new();
    let mut cur: Vec<usize> = Vec::new();
    for g in group_list {
        if !cur.is_empty() && cur.len() + g.len() > batch_size {
            batches.push(std::mem::take(&mut cur));
        }
        cur.extend(g);
    }
    if !cur.is_empty() {
        batches.push(cur);
    }
    batches
}

/// The in-memory planner: one whole-dataset shuffle per epoch, drawn from
/// the run's single running RNG stream.
fn batch_indices(
    prepared: &[Prepared],
    cfg: &TrainConfig,
    rng: &mut ChaCha8Rng,
) -> Vec<Vec<usize>> {
    match cfg.loss {
        TaskLoss::FusionLogMse => {
            let mut idx: Vec<usize> = (0..prepared.len()).collect();
            idx.shuffle(rng);
            idx.chunks(cfg.batch_size).map(<[usize]>::to_vec).collect()
        }
        TaskLoss::TileRank(_) | TaskLoss::TileMse => {
            pack_rank_groups(prepared.iter().map(|p| p.group), cfg.batch_size, rng)
        }
    }
}

/// Split a batch's sample indices into at most `shards` non-empty shards.
///
/// Fusion batches split contiguously; tile batches split only at
/// group-run boundaries, so every group's samples stay in one shard and
/// the in-shard pair sets / per-group weights match the unsharded batch.
/// The split depends only on the batch and `shards`.
fn shard_batch(
    prepared: &[Prepared],
    idxs: &[usize],
    loss: TaskLoss,
    shards: usize,
) -> Vec<Vec<usize>> {
    if shards <= 1 || idxs.len() < 2 {
        return vec![idxs.to_vec()];
    }
    match loss {
        TaskLoss::FusionLogMse => {
            let chunk = idxs.len().div_ceil(shards);
            idxs.chunks(chunk).map(<[usize]>::to_vec).collect()
        }
        TaskLoss::TileRank(_) | TaskLoss::TileMse => {
            let mut runs: Vec<&[usize]> = Vec::new();
            let mut start = 0;
            for i in 1..=idxs.len() {
                if i == idxs.len() || prepared[idxs[i]].group != prepared[idxs[start]].group {
                    runs.push(&idxs[start..i]);
                    start = i;
                }
            }
            let target = idxs.len().div_ceil(shards);
            let mut out: Vec<Vec<usize>> = Vec::new();
            let mut cur: Vec<usize> = Vec::new();
            for run in runs {
                if !cur.is_empty() && cur.len() + run.len() > target && out.len() + 1 < shards {
                    out.push(std::mem::take(&mut cur));
                }
                cur.extend_from_slice(run);
            }
            if !cur.is_empty() {
                out.push(cur);
            }
            out
        }
    }
}

/// Ordered rank-loss pairs `(i, j)` with `t_i > t_j` within a group —
/// the count the rank loss normalizes by.
fn count_rank_pairs(prepared: &[Prepared], idxs: &[usize]) -> usize {
    let mut count = 0;
    for &i in idxs {
        for &j in idxs {
            if prepared[i].group == prepared[j].group
                && prepared[i].runtime_ns > prepared[j].runtime_ns
            {
                count += 1;
            }
        }
    }
    count
}

fn batch_loss<M: KernelModel>(
    model: &M,
    tape: &mut Tape,
    batch: &GraphBatch,
    loss: TaskLoss,
) -> Option<Var> {
    let pred = model.forward_batch(tape, batch);
    match loss {
        TaskLoss::FusionLogMse => {
            let target = tape.input(batch.log_targets());
            Some(mse_loss(tape, pred, target))
        }
        TaskLoss::TileRank(phi) => {
            grouped_pairwise_rank_loss(tape, pred, &batch.targets_ns, &batch.groups, phi)
        }
        TaskLoss::TileMse => {
            // Weight each sample by 1/group-size so every kernel counts
            // equally (§4.2).
            let mut counts: HashMap<usize, usize> = HashMap::new();
            for &g in &batch.groups {
                *counts.entry(g).or_default() += 1;
            }
            let weights: Vec<f32> = batch
                .groups
                .iter()
                .map(|g| 1.0 / counts[g] as f32)
                .collect();
            let w = Arc::new(Tensor::from_vec(weights.len(), 1, weights));
            let target = tape.input(batch.log_targets());
            Some(tpu_nn::weighted_mse_loss(tape, pred, target, w))
        }
    }
}

/// One training step over the batch `idxs`.
///
/// The batch is split into [`TrainConfig::shards`] shards, run one after
/// the other in shard order. Each shard's forward/backward pass fills its
/// own [`GradBuffer`], its in-tape loss scaled by the shard's share of the
/// batch (samples for MSE losses, ordered pairs for the rank loss).
/// Gradients are then reduced into the model's [`ParamStore`] in the same
/// shard order — the grouping of the float sum that every golden pins.
///
/// `tapes` carries the tape arena across steps so buffers are recycled;
/// pass the same `Vec` every step. Every shard runs on its first tape (one
/// is pushed when the `Vec` is empty), so a run holds one arena, not one
/// per shard; further tapes in the `Vec` are left untouched.
///
/// Returns the batch loss (the weighted sum of shard losses, equal to the
/// unsharded batch loss), or `None` when the batch yields no loss (e.g. a
/// rank batch without ordered pairs) — no optimizer step happens then.
pub fn train_step<M: KernelModel>(
    model: &mut M,
    train_set: &[Prepared],
    idxs: &[usize],
    cfg: &TrainConfig,
    opt: &mut Adam,
    tapes: &mut Vec<Tape>,
) -> Option<f64> {
    train_step_inner(model, train_set, idxs, cfg, opt, tapes, &TrainObs::default())
}

fn train_step_inner<M: KernelModel>(
    model: &mut M,
    train_set: &[Prepared],
    idxs: &[usize],
    cfg: &TrainConfig,
    opt: &mut Adam,
    tapes: &mut Vec<Tape>,
    obs: &TrainObs,
) -> Option<f64> {
    let shard_idxs = shard_batch(train_set, idxs, cfg.loss, cfg.shards);
    let total_n = idxs.len();
    let is_rank = matches!(cfg.loss, TaskLoss::TileRank(_));
    let total_pairs = if is_rank {
        count_rank_pairs(train_set, idxs)
    } else {
        0
    };
    if is_rank && total_pairs == 0 {
        return None;
    }
    if tapes.is_empty() {
        tapes.push(Tape::new());
    }
    let tape = &mut tapes[0];

    let results: Vec<(Option<f32>, GradBuffer)> = shard_idxs
        .iter()
        .map(|sidx| {
            let w = if is_rank {
                count_rank_pairs(train_set, sidx) as f32 / total_pairs as f32
            } else {
                sidx.len() as f32 / total_n as f32
            };
            tape.reset();
            let refs: Vec<&Prepared> = sidx.iter().map(|&i| &train_set[i]).collect();
            let batch = GraphBatch::pack(&refs).expect("shards are non-empty");
            let mut gb = GradBuffer::new();
            let val = batch_loss(&*model, tape, &batch, cfg.loss).map(|loss| {
                let scaled = tape.scale(loss, w);
                tape.backward_with(scaled, &mut gb);
                tape.value(scaled).item()
            });
            (val, gb)
        })
        .collect();

    // Records on drop, covering the reduce + clip + optimizer update.
    let _reduce_timer = obs.grad_reduce_ns.start_timer();
    model.params_mut().zero_grads();
    let mut loss_sum = 0.0f64;
    let mut any = false;
    for (val, gb) in results {
        if let Some(v) = val {
            loss_sum += v as f64;
            any = true;
        }
        gb.apply_to(model.params_mut());
    }
    if !any {
        return None;
    }
    clip_grad_norm(model.params_mut(), cfg.clip);
    opt.step(model.params_mut());
    Some(loss_sum)
}

/// Run one epoch under the non-finite-loss rollback guard. `attempt`
/// steps the model through the epoch's batches and returns the step
/// losses; when their mean is non-finite the epoch-start weights and
/// optimizer are restored, the learning rate is halved, and `attempt`
/// runs again — at most `max_rollbacks` retries. `attempt` must replay
/// the same batches on every call.
///
/// Returns the epoch's mean loss, or `None` when the bound is exhausted:
/// the model is then back at its epoch-start (last healthy) state and the
/// caller must stop training.
fn guarded_epoch<M: KernelModel, E>(
    model: &mut M,
    opt: &mut Adam,
    max_rollbacks: usize,
    rollbacks: &mut u64,
    obs: &TrainObs,
    mut attempt: impl FnMut(&mut M, &mut Adam) -> Result<Vec<f64>, E>,
) -> Result<Option<f64>, E> {
    // Cheap relative to an epoch of forward/backward.
    let snap_params = model.params().clone();
    let snap_opt = opt.state();
    let mut attempts = 0usize;
    loop {
        let losses = attempt(model, opt)?;
        let epoch_loss = mean(&losses);
        // `mean` of zero steps is NaN by construction, not divergence —
        // only a non-finite loss from real steps triggers the guard.
        if losses.is_empty() || epoch_loss.is_finite() {
            return Ok(Some(epoch_loss));
        }
        *rollbacks += 1;
        obs.rollbacks.inc();
        *model.params_mut() = snap_params.clone();
        let mut backed_off = snap_opt.clone();
        backed_off.lr *= 0.5f32.powi(attempts as i32 + 1);
        *opt = Adam::from_state(backed_off);
        attempts += 1;
        if attempts > max_rollbacks {
            return Ok(None);
        }
    }
}

/// Everything a run carries from one epoch to the next — what a
/// [`TrainCheckpoint`] snapshots and a resume restores — plus the run's
/// metric handles.
struct RunState {
    obs: TrainObs,
    /// The next epoch to run.
    epoch: usize,
    /// The in-memory planner's running shuffle stream (the streaming
    /// planner reseeds per epoch and leaves it untouched).
    rng: ChaCha8Rng,
    opt: Adam,
    rollbacks: u64,
    /// The per-epoch trace and the best validation epoch so far…
    report: TrainReport,
    /// …and that epoch's weights: the early-stopping selection.
    best_weights: Option<String>,
}

impl RunState {
    fn fresh(cfg: &TrainConfig, obs: TrainObs) -> RunState {
        RunState {
            obs,
            epoch: 0,
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            opt: Adam::new(cfg.lr),
            rollbacks: 0,
            report: TrainReport {
                train_loss: Vec::new(),
                val_metric: Vec::new(),
                best_val: f64::NAN,
                best_epoch: 0,
            },
            best_weights: None,
        }
    }

    /// Validate `ckpt` against `model`, load its weights into the model,
    /// and continue from its state.
    fn resume<M: KernelModel>(
        ckpt: &TrainCheckpoint,
        model: &mut M,
        obs: TrainObs,
    ) -> Result<RunState, CheckpointError> {
        if ckpt.model_kind != model.model_name() {
            return Err(CheckpointError::WrongModel {
                expected: model.model_name().to_string(),
                found: ckpt.model_kind.clone(),
            });
        }
        let arch = model.params();
        if ckpt.params.num_params() != arch.num_params()
            || ckpt.params.num_scalars() != arch.num_scalars()
        {
            return Err(CheckpointError::WeightMismatch {
                expected: arch.num_scalars(),
                found: ckpt.params.num_scalars(),
            });
        }
        let words: [u32; 33] = ckpt.rng.as_slice().try_into().map_err(|_| {
            CheckpointError::Corrupt(format!(
                "rng snapshot must be 33 words, got {}",
                ckpt.rng.len()
            ))
        })?;
        *model.params_mut() = ckpt.params.clone();
        Ok(RunState {
            obs,
            epoch: ckpt.epoch,
            rng: ChaCha8Rng::from_state_words(&words),
            opt: Adam::from_state(ckpt.opt.clone()),
            rollbacks: ckpt.rollbacks,
            report: TrainReport {
                train_loss: ckpt.train_loss.iter().map(|&v| decode_f64(v)).collect(),
                val_metric: ckpt.val_metric.iter().map(|&v| decode_f64(v)).collect(),
                best_val: decode_f64(ckpt.best_val),
                best_epoch: ckpt.best_epoch,
            },
            best_weights: ckpt.best_weights.clone(),
        })
    }

    /// The snapshot that resumes after `self.epoch` completed epochs.
    fn checkpoint<M: KernelModel>(&self, model: &M) -> TrainCheckpoint {
        let report = &self.report;
        TrainCheckpoint {
            schema: SCHEMA.to_string(),
            model_kind: model.model_name().to_string(),
            epoch: self.epoch,
            lr: self.opt.lr(),
            rollbacks: self.rollbacks,
            rng: self.rng.state_words().to_vec(),
            params: model.params().clone(),
            opt: self.opt.state(),
            best_weights: self.best_weights.clone(),
            best_val: encode_f64(report.best_val),
            best_epoch: report.best_epoch,
            train_loss: report.train_loss.iter().map(|&v| encode_f64(v)).collect(),
            val_metric: report.val_metric.iter().map(|&v| encode_f64(v)).collect(),
        }
    }

    /// Record `epoch`'s validation metric; the first finite metric and
    /// every strict improvement after it snapshot the model's weights.
    fn record_validation<M: KernelModel>(
        &mut self,
        model: &M,
        epoch: usize,
        vm: f64,
        loss: TaskLoss,
    ) {
        let higher_better = matches!(loss, TaskLoss::TileRank(_) | TaskLoss::TileMse);
        let report = &mut self.report;
        report.val_metric.push(vm);
        let improved = report.best_val.is_nan()
            || (higher_better && vm > report.best_val)
            || (!higher_better && vm < report.best_val);
        if improved && vm.is_finite() {
            report.best_val = vm;
            report.best_epoch = epoch;
            self.best_weights = Some(model.params().to_json());
        }
    }

    /// Restore the best-validation weights and hand back the trace.
    fn finish<M: KernelModel>(self, model: &mut M) -> TrainReport {
        if let Some(w) = self.best_weights {
            if let Ok(store) = ParamStore::from_json(&w) {
                *model.params_mut() = store;
            }
        }
        self.report
    }
}

/// A batch's examples and the positions of its members among them.
type Batch<'a, 'i> = (Cow<'a, [Prepared]>, Cow<'i, [usize]>);

/// The epoch loop every training entry point runs: plan the epoch's
/// batches, step through them under the non-finite-loss rollback guard,
/// record the loss, validate, record the metric (snapshotting the best
/// weights), hand the checkpoint sink its snapshot; at the end restore
/// the best-validation weights. Callers differ only in what they hand it:
///
/// - `plan(epoch, rng)`: the epoch's batches as example indices, already
///   capped. Planned once per epoch, so a rolled-back epoch replays the
///   same batches.
/// - `batch(epoch, idxs)`: the examples of one planned batch.
fn run_epochs<'a, M: KernelModel, E>(
    model: &mut M,
    val_set: &[Prepared],
    cfg: &TrainConfig,
    mut run: RunState,
    mut plan: impl FnMut(usize, &mut ChaCha8Rng) -> Vec<Vec<usize>>,
    mut batch: impl for<'i> FnMut(usize, &'i [usize]) -> Result<Batch<'a, 'i>, E>,
    mut on_checkpoint: Option<&mut dyn FnMut(&TrainCheckpoint)>,
) -> Result<TrainReport, E> {
    let mut tapes: Vec<Tape> = Vec::new();
    for epoch in run.epoch..cfg.epochs {
        let epoch_timer = run.obs.epoch_ns.start_timer();
        let batches = plan(epoch, &mut run.rng);
        let obs = &run.obs;
        let outcome = guarded_epoch(
            model,
            &mut run.opt,
            cfg.max_rollbacks,
            &mut run.rollbacks,
            obs,
            |model, opt| {
                let mut losses = Vec::new();
                for idxs in &batches {
                    let step_timer = obs.step_ns.start_timer();
                    let (examples, members) = batch(epoch, idxs)?;
                    let loss =
                        train_step_inner(model, &examples, &members, cfg, opt, &mut tapes, obs);
                    step_timer.stop();
                    if let Some(l) = loss {
                        losses.push(l);
                        obs.steps.inc();
                    } else {
                        obs.steps_skipped.inc();
                    }
                }
                Ok(losses)
            },
        )?;
        let Some(epoch_loss) = outcome else {
            // Give up: the model is already restored to the last healthy
            // state; stop before poisoning it again.
            epoch_timer.stop();
            break;
        };
        run.report.train_loss.push(epoch_loss);
        run.obs.epoch_loss.push(epoch_loss);

        let val_timer = run.obs.val_ns.start_timer();
        let vm = validation_metric(model, val_set, cfg.loss);
        val_timer.stop();
        run.obs.val_metric.push(vm);
        run.record_validation(model, epoch, vm, cfg.loss);
        epoch_timer.stop();
        run.obs.epochs.inc();

        run.epoch = epoch + 1;
        if let Some(sink) = on_checkpoint.as_deref_mut() {
            sink(&run.checkpoint(model));
        }
    }
    run.obs.best_val.set(run.report.best_val);
    run.obs.best_epoch.set(run.report.best_epoch as f64);
    Ok(run.finish(model))
}

/// Train a model, tracking the validation metric per epoch and restoring
/// the best-validation weights at the end (early-stopping selection).
///
/// This is [`train_resumable`] with a no-op registry, no resume and no
/// checkpoint sink; call that to record `core.train.*` metrics.
pub fn train<M: KernelModel>(
    model: &mut M,
    train_set: &[Prepared],
    val_set: &[Prepared],
    cfg: &TrainConfig,
) -> TrainReport {
    // INVARIANT: with `resume: None` every error arm in `train_resumable`
    // is unreachable (they all validate the resume checkpoint).
    train_resumable(model, train_set, val_set, cfg, &Registry::noop(), None, None)
        .expect("fresh training cannot fail checkpoint validation")
}

/// The one full in-memory training entry: [`train`] plus `core.train.*`
/// metrics, checkpointing, resume, and a non-finite-loss rollback guard.
///
/// - `registry`: per-step and per-epoch wall time, grad-reduce latency,
///   the loss and validation trajectories as series, and the best-epoch
///   outcome are recorded under `core.train.*`. Training has no
///   long-lived resource to carry a registry (unlike a device or a
///   predictor session), so it is passed here. Instrumentation is
///   read-only: the report and final weights are bit-identical whether
///   or not the registry is enabled.
/// - `resume`: continue a run from a [`TrainCheckpoint`] (weights,
///   optimizer, RNG stream, and per-epoch trace are all restored); the
///   resumed run is **bit-identical** to the uninterrupted one. `None`
///   trains from scratch and reproduces [`train`] exactly.
/// - `on_checkpoint`: called after every completed epoch with a snapshot
///   that resumes from that point. `None` skips snapshot assembly
///   entirely, so plain training pays nothing for this feature.
/// - Rollback guard: when an epoch produces a non-finite mean loss
///   (diverged weights, poisoned gradients), the epoch-start weights and
///   optimizer are restored, the learning rate is halved, and the epoch
///   retries on the same batches — at most [`TrainConfig::max_rollbacks`]
///   times, after which training stops at the last healthy state. Each
///   rollback bumps `core.train.rollbacks`.
///
/// # Errors
///
/// Only from `resume` validation: [`CheckpointError::WrongModel`] when the
/// checkpoint is for a different model family,
/// [`CheckpointError::WeightMismatch`] when its weights do not fit this
/// architecture, and [`CheckpointError::Corrupt`] when the RNG snapshot is
/// not 33 words.
pub fn train_resumable<M: KernelModel>(
    model: &mut M,
    train_set: &[Prepared],
    val_set: &[Prepared],
    cfg: &TrainConfig,
    registry: &Registry,
    resume: Option<&TrainCheckpoint>,
    on_checkpoint: Option<&mut dyn FnMut(&TrainCheckpoint)>,
) -> Result<TrainReport, CheckpointError> {
    let obs = TrainObs::new(registry);
    let run = match resume {
        None => RunState::fresh(cfg, obs),
        Some(ckpt) => RunState::resume(ckpt, model, obs)?,
    };
    run_epochs(
        model,
        val_set,
        cfg,
        run,
        |_, rng| {
            let mut batches = batch_indices(train_set, cfg, rng);
            batches.truncate(cfg.max_batches_per_epoch);
            batches
        },
        // The slice is indexed in place: no example is copied per batch.
        |_, idxs| Ok((Cow::Borrowed(train_set), Cow::Borrowed(idxs))),
        on_checkpoint,
    )
}

/// Index-planning metadata for one training example: everything the epoch
/// planner needs without loading the example payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExampleMeta {
    /// Rank-loss group id (see [`Sample::group`]).
    pub group: usize,
    /// Graph node count (segment-training decisions).
    pub num_nodes: usize,
}

/// A source of training examples the streaming epoch loop can pull
/// batches from: the in-memory `[Prepared]` slice and the on-disk
/// `DatasetReader` (tpu-dataset) both implement it, so
/// [`train_stream`] is bit-identical whichever backs it.
pub trait BatchSource {
    /// Number of examples.
    fn num_examples(&self) -> usize;
    /// Planning metadata for example `i` (must not require payload I/O).
    fn meta(&self, i: usize) -> ExampleMeta;
    /// Materialize the examples at `idxs`, in order.
    ///
    /// # Errors
    ///
    /// A human-readable description of the failure (I/O error, corrupt
    /// record, …); in-memory sources never fail.
    fn load(&self, idxs: &[usize]) -> Result<Vec<Prepared>, String>;
}

impl BatchSource for [Prepared] {
    fn num_examples(&self) -> usize {
        self.len()
    }
    fn meta(&self, i: usize) -> ExampleMeta {
        ExampleMeta {
            group: self[i].group,
            num_nodes: self[i].num_nodes(),
        }
    }
    fn load(&self, idxs: &[usize]) -> Result<Vec<Prepared>, String> {
        Ok(idxs.iter().map(|&i| self[i].clone()).collect())
    }
}

/// Streaming/segment-training parameters layered on [`TrainConfig`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Shuffled-window size in examples (fusion task): an epoch visits
    /// windows of consecutive example indices in shuffled order, shuffled
    /// within each window — near-sequential reads from a streamed file
    /// with enough mixing for SGD.
    pub window: usize,
    /// Graphs above this node count train on a contiguous BFS segment of
    /// at most this many nodes per step (TpuGraphs-style), resampled with
    /// a fresh seed every epoch.
    pub segment_nodes: usize,
    /// Base seed of the segment sampler.
    pub segment_seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window: 4096,
            segment_nodes: 256,
            segment_seed: 17,
        }
    }
}

/// splitmix64-style mix of (seed, epoch, example id) → segment seed: a
/// segment choice depends on nothing else.
fn mix_seed(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        ^ b.rotate_left(20)
        ^ c.rotate_left(41);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic batch plan of one streaming epoch.
///
/// Seeded from `(cfg.seed, epoch)`, so under
/// [`TrainConfig::max_batches_per_epoch`] every epoch subsamples a
/// **freshly reshuffled** subset — never a fixed prefix of a one-time
/// shuffle. Fusion epochs use shuffled-window order (windows of
/// consecutive indices visited in shuffled order, shuffled within each
/// window) so a streamed file is read near-sequentially; tile epochs keep
/// rank groups intact exactly like the in-memory batcher.
pub fn stream_epoch_plan<S: BatchSource + ?Sized>(
    source: &S,
    cfg: &TrainConfig,
    scfg: &StreamConfig,
    epoch: usize,
) -> Vec<Vec<usize>> {
    let mut rng = ChaCha8Rng::seed_from_u64(
        cfg.seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let n = source.num_examples();
    let batch = cfg.batch_size.max(1);
    let mut batches: Vec<Vec<usize>> = match cfg.loss {
        TaskLoss::FusionLogMse => {
            let window = scfg.window.max(batch);
            let all: Vec<usize> = (0..n).collect();
            let mut windows: Vec<Vec<usize>> =
                all.chunks(window).map(<[usize]>::to_vec).collect();
            windows.shuffle(&mut rng);
            for w in &mut windows {
                w.shuffle(&mut rng);
            }
            let order: Vec<usize> = windows.concat();
            order.chunks(batch).map(<[usize]>::to_vec).collect()
        }
        TaskLoss::TileRank(_) | TaskLoss::TileMse => {
            pack_rank_groups((0..n).map(|i| source.meta(i).group), batch, &mut rng)
        }
    };
    batches.truncate(cfg.max_batches_per_epoch);
    batches
}

/// Train from a [`BatchSource`], one batch in memory at a time.
///
/// Runs the epoch loop [`train_resumable`] runs — validation tracking,
/// best-weight restoration and the non-finite-loss rollback guard
/// ([`TrainConfig::max_rollbacks`]) are that loop's — with a different
/// planner and a different way to obtain a batch: batches follow
/// [`stream_epoch_plan`]'s per-epoch reshuffled order, and each batch is
/// loaded, (if oversized) segment-sampled, stepped, and dropped, so peak
/// RSS is the model plus one batch, independent of corpus size (a retried
/// epoch reloads its batches). Graphs above
/// [`StreamConfig::segment_nodes`] train on a [`crate::bfs_segment`]
/// resampled per epoch with a seed mixed from
/// `(segment_seed, epoch, example id)`, so results are identical whether
/// `source` is the in-memory slice or a streamed dataset file.
///
/// # Errors
///
/// Propagates the first [`BatchSource::load`] failure verbatim.
pub fn train_stream<M: KernelModel, S: BatchSource + ?Sized>(
    model: &mut M,
    source: &S,
    val_set: &[Prepared],
    cfg: &TrainConfig,
    scfg: &StreamConfig,
) -> Result<TrainReport, String> {
    run_epochs(
        model,
        val_set,
        cfg,
        RunState::fresh(cfg, TrainObs::default()),
        |epoch, _| stream_epoch_plan(source, cfg, scfg, epoch),
        |epoch, idxs| {
            let mut prepared = source.load(idxs)?;
            for (p, &gi) in prepared.iter_mut().zip(idxs) {
                if scfg.segment_nodes > 0 && p.num_nodes() > scfg.segment_nodes {
                    *p = crate::batch::bfs_segment(
                        p,
                        scfg.segment_nodes,
                        mix_seed(scfg.segment_seed, epoch as u64, gi as u64),
                    );
                }
            }
            let local: Vec<usize> = (0..prepared.len()).collect();
            Ok((Cow::Owned(prepared), Cow::Owned(local)))
        },
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GnnConfig;
    use tpu_hlo::{DType, GraphBuilder, Kernel, Shape, TileSize};
    use tpu_sim::{kernel_time_ns, TpuConfig};

    fn ew_kernel(rows: usize, cols: usize) -> Kernel {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(rows, cols), DType::F32);
        let t = b.tanh(x);
        let e = b.exp(t);
        Kernel::new(b.finish(e))
    }

    fn fusion_dataset() -> (Vec<Prepared>, Vec<Prepared>) {
        let cfg = TpuConfig::default();
        let sizes = [
            (64, 128),
            (128, 256),
            (256, 256),
            (512, 512),
            (1024, 512),
            (1024, 1024),
            (2048, 1024),
            (128, 4096),
            (32, 2048),
            (2048, 2048),
        ];
        let mut samples = Vec::new();
        for &(r, c) in &sizes {
            let k = ew_kernel(r, c);
            let t = kernel_time_ns(&k, &cfg);
            samples.push(Sample::new(k, t));
        }
        let prepared = prepare(&samples);
        let val = prepared[7..].to_vec();
        let train = prepared[..7].to_vec();
        (train, val)
    }

    #[test]
    fn gnn_learns_size_scaling() {
        let (train_set, val_set) = fusion_dataset();
        let mut model = GnnModel::new(GnnConfig {
            hidden: 24,
            opcode_embed_dim: 8,
            hops: 1,
            ..Default::default()
        });
        let cfg = TrainConfig {
            epochs: 150,
            batch_size: 4,
            lr: 5e-3,
            ..Default::default()
        };
        let report = train(&mut model, &train_set, &val_set, &cfg);
        assert!(
            report.best_val < 60.0,
            "val MAPE should drop below 60%: {:?}",
            report.best_val
        );
        // Loss should broadly decrease.
        let first = report.train_loss[0];
        let last = *report.train_loss.last().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn lstm_also_trains() {
        let (train_set, val_set) = fusion_dataset();
        let mut model = LstmModel::new(crate::lstm_model::LstmConfig {
            node_dim: 24,
            hidden: 24,
            opcode_embed_dim: 8,
            ..Default::default()
        });
        let cfg = TrainConfig {
            epochs: 40,
            batch_size: 8,
            lr: 3e-3,
            ..Default::default()
        };
        let report = train(&mut model, &train_set, &val_set, &cfg);
        assert!(report.best_val.is_finite());
        assert!(report.train_loss.last().unwrap() < &report.train_loss[0]);
    }

    #[test]
    fn tile_rank_training_improves_tau() {
        // One kernel family, several tile sizes; the model must learn to
        // rank tiles within each kernel.
        let cfg_hw = TpuConfig::default();
        let mut samples = Vec::new();
        for (group, &(r, c)) in [(512usize, 1024usize), (1024, 1024), (2048, 512)]
            .iter()
            .enumerate()
        {
            let k = ew_kernel(r, c);
            for tile in tpu_tile::valid_tile_sizes(&k, &cfg_hw, 12) {
                let kt = k.clone().with_tile(tile);
                let t = kernel_time_ns(&kt, &cfg_hw);
                samples.push(Sample::grouped(kt, t, group));
            }
        }
        let prepared = prepare(&samples);
        let (train_set, val_set) = (prepared.clone(), prepared.clone());

        let mut model = GnnModel::new(GnnConfig {
            hidden: 24,
            opcode_embed_dim: 8,
            hops: 1,
            ..Default::default()
        });
        let before = validation_metric(&model, &val_set, TaskLoss::TileRank(RankPhi::Logistic));
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 16,
            lr: 3e-3,
            loss: TaskLoss::TileRank(RankPhi::Logistic),
            ..Default::default()
        };
        let report = train(&mut model, &train_set, &val_set, &cfg);
        assert!(
            report.best_val > before.max(0.2),
            "tau should improve: before={before} after={}",
            report.best_val
        );
    }

    #[test]
    fn batching_keeps_groups_intact_for_tile_task() {
        let k = ew_kernel(256, 256);
        let samples: Vec<Sample> = (0..10)
            .map(|i| Sample::grouped(k.clone(), 100.0 + i as f64, i / 5))
            .collect();
        let prepared = prepare(&samples);
        let cfg = TrainConfig {
            batch_size: 5,
            loss: TaskLoss::TileRank(RankPhi::Hinge),
            ..Default::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let batches = batch_indices(&prepared, &cfg, &mut rng);
        for b in &batches {
            let groups: std::collections::HashSet<usize> =
                b.iter().map(|&i| prepared[i].group).collect();
            // Each batch contains whole groups (5 samples per group).
            assert_eq!(b.len() % 5, 0, "group split across batches: {b:?}");
            let _ = groups;
        }
    }

    #[test]
    fn per_group_kendall_respects_groups() {
        let k = ew_kernel(256, 256);
        let mut prepared = Vec::new();
        for (g, t) in [(0usize, 1.0f64), (0, 2.0), (1, 5.0), (1, 3.0)] {
            prepared.push(Prepared::from_sample(&Sample::grouped(k.clone(), t, g)));
        }
        // Predictions perfectly ordered within group 0, inverted in 1.
        let preds = [0.1, 0.2, 0.3, 0.9];
        let taus = per_group_kendall(&preds, &prepared);
        assert_eq!(taus.len(), 2);
        let mut sorted = taus.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(sorted, vec![-1.0, 1.0]);
    }

    /// The taus come back in ascending group-id order, whatever order the
    /// samples arrive in: `validation_metric` averages them, and a sum
    /// taken in hash order differs in its last bits between identical
    /// runs.
    #[test]
    fn per_group_kendall_orders_by_group_id() {
        let k = ew_kernel(64, 64);
        let mut prepared = Vec::new();
        let mut preds = Vec::new();
        // 80 groups, visited in a scattered order; group g is ranked
        // correctly iff g is even.
        for g in (0..80usize).map(|i| (i * 37) % 80) {
            for (t, pred) in [(1.0, 0.1), (2.0, 0.2), (3.0, 0.3)] {
                prepared.push(Prepared::from_sample(&Sample::grouped(k.clone(), t, g)));
                preds.push(if g % 2 == 0 { pred } else { -pred });
            }
        }
        let taus = per_group_kendall(&preds, &prepared);
        assert_eq!(taus.len(), 80);
        for (g, tau) in taus.iter().enumerate() {
            assert_eq!(*tau, if g % 2 == 0 { 1.0 } else { -1.0 }, "group {g}");
        }
    }

    #[test]
    fn tile_size_feature_changes_prediction() {
        // The tile sub-vector must flow through the model: same kernel,
        // different tile, different prediction.
        let model = GnnModel::new(GnnConfig::default());
        let k = ew_kernel(1024, 1024);
        let a = model.predict_log_ns(&k.clone().with_tile(TileSize(vec![128, 64])));
        let b = model.predict_log_ns(&k.clone().with_tile(TileSize(vec![1024, 8])));
        assert_ne!(a, b);
    }
}

#[cfg(test)]
mod obs_tests {
    use super::*;
    use crate::model::GnnConfig;
    use tpu_hlo::{DType, GraphBuilder, Kernel, Shape};
    use tpu_sim::{kernel_time_ns, TpuConfig};

    fn tiny_dataset() -> (Vec<Prepared>, Vec<Prepared>) {
        let cfg = TpuConfig::default();
        let mut samples = Vec::new();
        for &(r, c) in &[(64usize, 128usize), (256, 256), (512, 512), (1024, 1024)] {
            let mut b = GraphBuilder::new("k");
            let x = b.parameter("x", Shape::matrix(r, c), DType::F32);
            let t = b.tanh(x);
            let k = Kernel::new(b.finish(t));
            let t_ns = kernel_time_ns(&k, &cfg);
            samples.push(Sample::new(k, t_ns));
        }
        let prepared = prepare(&samples);
        (prepared[..3].to_vec(), prepared[3..].to_vec())
    }

    fn tiny_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 3,
            batch_size: 2,
            ..Default::default()
        }
    }

    #[test]
    fn enabled_registry_records_trajectory_and_counts() {
        let (train_set, val_set) = tiny_dataset();
        let mut model = GnnModel::new(GnnConfig {
            hidden: 8,
            opcode_embed_dim: 4,
            hops: 1,
            ..Default::default()
        });
        let registry = Registry::enabled();
        let cfg = tiny_cfg();
        let report =
            train_resumable(&mut model, &train_set, &val_set, &cfg, &registry, None, None).unwrap();

        let snap = registry.snapshot();
        assert_eq!(snap.counter("core.train.epochs"), Some(3));
        // 3 samples in batches of 2 → 2 batches per epoch × 3 epochs.
        assert_eq!(snap.counter("core.train.steps"), Some(6));
        assert_eq!(snap.counter("core.train.steps_skipped"), Some(0));
        let steps = snap.histogram("core.train.step_ns").expect("step histogram");
        assert_eq!(steps.count, 6);
        let epochs = snap.histogram("core.train.epoch_ns").expect("epoch histogram");
        assert_eq!(epochs.count, 3);
        assert_eq!(
            snap.histogram("core.train.grad_reduce_ns").map(|h| h.count),
            Some(6)
        );
        assert_eq!(snap.histogram("core.train.val_ns").map(|h| h.count), Some(3));
        assert_eq!(snap.series("core.train.epoch_loss"), Some(&report.train_loss[..]));
        assert_eq!(snap.series("core.train.val_metric"), Some(&report.val_metric[..]));
        assert_eq!(snap.gauge("core.train.best_val"), Some(report.best_val));
        assert_eq!(
            snap.gauge("core.train.best_epoch"),
            Some(report.best_epoch as f64)
        );
    }

    #[test]
    fn observed_training_is_bit_identical_to_plain() {
        let (train_set, val_set) = tiny_dataset();
        let gcfg = GnnConfig {
            hidden: 8,
            opcode_embed_dim: 4,
            hops: 1,
            ..Default::default()
        };
        let cfg = tiny_cfg();

        let mut plain = GnnModel::new(gcfg.clone());
        let plain_report = train(&mut plain, &train_set, &val_set, &cfg);

        let mut observed = GnnModel::new(gcfg);
        let registry = Registry::enabled();
        let obs_report =
            train_resumable(&mut observed, &train_set, &val_set, &cfg, &registry, None, None)
                .unwrap();

        assert_eq!(plain_report.train_loss, obs_report.train_loss);
        assert_eq!(
            plain_report.val_metric.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            obs_report.val_metric.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        assert_eq!(plain.params().to_json(), observed.params().to_json());
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;
    use crate::model::GnnConfig;
    use tpu_hlo::{DType, GraphBuilder, Kernel, Shape};
    use tpu_sim::{kernel_time_ns, TpuConfig};

    fn dataset() -> (Vec<Prepared>, Vec<Prepared>) {
        let cfg = TpuConfig::default();
        let sizes = [
            (64usize, 128usize),
            (128, 256),
            (256, 256),
            (512, 512),
            (1024, 512),
            (1024, 1024),
        ];
        let mut samples = Vec::new();
        for &(r, c) in &sizes {
            let mut b = GraphBuilder::new("k");
            let x = b.parameter("x", Shape::matrix(r, c), DType::F32);
            let t = b.tanh(x);
            let k = Kernel::new(b.finish(t));
            let t_ns = kernel_time_ns(&k, &cfg);
            samples.push(Sample::new(k, t_ns));
        }
        let prepared = prepare(&samples);
        (prepared[..4].to_vec(), prepared[4..].to_vec())
    }

    fn small_gnn() -> GnnModel {
        GnnModel::new(GnnConfig {
            hidden: 8,
            opcode_embed_dim: 4,
            hops: 1,
            ..Default::default()
        })
    }

    fn cfg(epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            batch_size: 2,
            lr: 3e-3,
            ..Default::default()
        }
    }

    #[test]
    fn resumed_training_is_bit_identical_to_uninterrupted() {
        let (train_set, val_set) = dataset();
        let noop = Registry::noop();

        // Uninterrupted: 6 straight epochs.
        let mut straight = small_gnn();
        let straight_report = train(&mut straight, &train_set, &val_set, &cfg(6));

        // Interrupted: 3 epochs, checkpoint to JSON, resume for 3 more.
        // Epoch iterations don't depend on cfg.epochs, so a 3-epoch run's
        // final checkpoint equals a 6-epoch run's epoch-3 checkpoint.
        let mut interrupted = small_gnn();
        let mut last_json: Option<String> = None;
        let mut sink = |c: &TrainCheckpoint| last_json = Some(c.to_json());
        train_resumable(
            &mut interrupted,
            &train_set,
            &val_set,
            &cfg(3),
            &noop,
            None,
            Some(&mut sink),
        )
        .unwrap();
        let ckpt = TrainCheckpoint::from_json(&last_json.expect("3 checkpoints taken")).unwrap();
        assert_eq!(ckpt.epoch, 3);
        assert_eq!(ckpt.model_kind, "gnn");

        let mut resumed = small_gnn();
        let resumed_report = train_resumable(
            &mut resumed,
            &train_set,
            &val_set,
            &cfg(6),
            &noop,
            Some(&ckpt),
            None,
        )
        .unwrap();

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&straight_report.train_loss), bits(&resumed_report.train_loss));
        assert_eq!(bits(&straight_report.val_metric), bits(&resumed_report.val_metric));
        assert_eq!(
            straight_report.best_val.to_bits(),
            resumed_report.best_val.to_bits()
        );
        assert_eq!(straight_report.best_epoch, resumed_report.best_epoch);
        assert_eq!(straight.params().to_json(), resumed.params().to_json());
    }

    #[test]
    fn resume_past_the_end_restores_best_weights_without_training() {
        let (train_set, val_set) = dataset();
        let noop = Registry::noop();
        let mut model = small_gnn();
        let mut last: Option<TrainCheckpoint> = None;
        let mut sink = |c: &TrainCheckpoint| last = Some(c.clone());
        let report = train_resumable(
            &mut model,
            &train_set,
            &val_set,
            &cfg(3),
            &noop,
            None,
            Some(&mut sink),
        )
        .unwrap();

        // Resuming with epochs == ckpt.epoch runs zero epochs and must
        // reproduce the original report and final (best) weights.
        let ckpt = last.unwrap();
        let mut fresh = small_gnn();
        let resumed = train_resumable(
            &mut fresh,
            &train_set,
            &val_set,
            &cfg(3),
            &noop,
            Some(&ckpt),
            None,
        )
        .unwrap();
        assert_eq!(report.train_loss, resumed.train_loss);
        assert_eq!(report.best_epoch, resumed.best_epoch);
        assert_eq!(model.params().to_json(), fresh.params().to_json());
    }

    #[test]
    fn resume_validation_rejects_mismatches() {
        let (train_set, val_set) = dataset();
        let noop = Registry::noop();
        let mut model = small_gnn();
        let mut last: Option<TrainCheckpoint> = None;
        let mut sink = |c: &TrainCheckpoint| last = Some(c.clone());
        train_resumable(
            &mut model,
            &train_set,
            &val_set,
            &cfg(1),
            &noop,
            None,
            Some(&mut sink),
        )
        .unwrap();
        let ckpt = last.unwrap();

        // Wrong family.
        let mut lstm = LstmModel::new(crate::lstm_model::LstmConfig {
            node_dim: 8,
            hidden: 8,
            opcode_embed_dim: 4,
            ..Default::default()
        });
        assert!(matches!(
            train_resumable(&mut lstm, &train_set, &val_set, &cfg(2), &noop, Some(&ckpt), None),
            Err(CheckpointError::WrongModel { .. })
        ));

        // Wrong architecture width.
        let mut wide = GnnModel::new(GnnConfig {
            hidden: 16,
            opcode_embed_dim: 4,
            hops: 1,
            ..Default::default()
        });
        assert!(matches!(
            train_resumable(&mut wide, &train_set, &val_set, &cfg(2), &noop, Some(&ckpt), None),
            Err(CheckpointError::WeightMismatch { .. })
        ));

        // Corrupt RNG snapshot.
        let mut bad = ckpt.clone();
        bad.rng = vec![0; 5];
        let mut m = small_gnn();
        assert!(matches!(
            train_resumable(&mut m, &train_set, &val_set, &cfg(2), &noop, Some(&bad), None),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn non_finite_loss_rolls_back_and_stops_at_healthy_state() {
        let (train_set, val_set) = dataset();
        let registry = Registry::enabled();
        let mut model = small_gnn();
        // An infinite learning rate poisons the weights on the first
        // optimizer step, so every retry diverges too: the guard must
        // roll back, back off, exhaust its bound, and stop without
        // panicking or returning NaN weights.
        let cfg = TrainConfig {
            epochs: 5,
            batch_size: 2,
            lr: f32::INFINITY,
            max_rollbacks: 3,
            ..Default::default()
        };
        let report =
            train_resumable(&mut model, &train_set, &val_set, &cfg, &registry, None, None)
                .unwrap();

        let snap = registry.snapshot();
        let rollbacks = snap.counter("core.train.rollbacks").unwrap_or(0);
        assert!(rollbacks > 0, "guard never fired");
        assert!(
            rollbacks <= cfg.max_rollbacks as u64 + 1,
            "rollbacks unbounded: {rollbacks}"
        );
        // Training stopped early instead of recording poisoned epochs.
        assert!(report.train_loss.len() < cfg.epochs);
        // The model was restored to its last healthy (epoch-start) state.
        for id in model.params().ids() {
            assert!(
                model.params().value(id).data().iter().all(|v| v.is_finite()),
                "non-finite weights survived rollback"
            );
        }
    }

    #[test]
    fn finite_runs_never_roll_back_and_match_plain_train() {
        let (train_set, val_set) = dataset();
        let registry = Registry::enabled();
        let mut a = small_gnn();
        let ra = train_resumable(&mut a, &train_set, &val_set, &cfg(3), &registry, None, None)
            .unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("core.train.rollbacks"), Some(0));

        let mut b = small_gnn();
        let rb = train(&mut b, &train_set, &val_set, &cfg(3));
        assert_eq!(ra.train_loss, rb.train_loss);
        assert_eq!(a.params().to_json(), b.params().to_json());
    }
}

#[cfg(test)]
mod stream_tests {
    use super::*;
    use crate::model::GnnConfig;
    use tpu_hlo::{DType, GraphBuilder, Kernel, Shape};
    use tpu_sim::{kernel_time_ns, TpuConfig};

    fn make_prepared(n: usize) -> Vec<Prepared> {
        let cfg = TpuConfig::default();
        (0..n)
            .map(|i| {
                let mut b = GraphBuilder::new("k");
                let x = b.parameter("x", Shape::matrix(8 + i, 64), DType::F32);
                let t = b.tanh(x);
                let k = Kernel::new(b.finish(t));
                let t_ns = kernel_time_ns(&k, &cfg);
                Prepared::from_sample(&Sample::new(k, t_ns))
            })
            .collect()
    }

    /// Satellite fix pin: subsampling under `max_batches_per_epoch` must
    /// be a fresh seeded reshuffle every epoch. A fixed prefix after one
    /// shuffle would (a) visit identical index sets each epoch and (b)
    /// starve the never-chosen tail forever.
    #[test]
    fn capped_epochs_reshuffle_and_cover_the_dataset() {
        let prepared = make_prepared(60);
        let cfg = TrainConfig {
            batch_size: 5,
            max_batches_per_epoch: 3, // 15 of 60 examples per epoch
            ..Default::default()
        };
        let scfg = StreamConfig {
            window: 10,
            ..Default::default()
        };
        let epoch_sets: Vec<std::collections::BTreeSet<usize>> = (0..20)
            .map(|e| {
                stream_epoch_plan(&prepared[..], &cfg, &scfg, e)
                    .into_iter()
                    .flatten()
                    .collect()
            })
            .collect();
        for s in &epoch_sets {
            assert_eq!(s.len(), 15, "cap not applied");
        }
        // Consecutive epochs draw different subsets…
        assert_ne!(epoch_sets[0], epoch_sets[1], "epoch subsets never reshuffled");
        // …and across epochs the whole dataset is visited.
        let union: std::collections::BTreeSet<usize> =
            epoch_sets.iter().flatten().copied().collect();
        assert_eq!(union.len(), 60, "subsampling starves part of the dataset");
        // Same epoch, same plan: the subsample is seeded, not ambient.
        assert_eq!(
            stream_epoch_plan(&prepared[..], &cfg, &scfg, 7),
            stream_epoch_plan(&prepared[..], &cfg, &scfg, 7)
        );
    }

    #[test]
    fn uncapped_epoch_plan_covers_everything_once() {
        let prepared = make_prepared(23);
        let cfg = TrainConfig {
            batch_size: 4,
            max_batches_per_epoch: usize::MAX,
            ..Default::default()
        };
        let scfg = StreamConfig {
            window: 8,
            ..Default::default()
        };
        let mut seen: Vec<usize> = stream_epoch_plan(&prepared[..], &cfg, &scfg, 0)
            .into_iter()
            .flatten()
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn tile_epoch_plan_keeps_groups_intact() {
        let k = {
            let mut b = GraphBuilder::new("k");
            let x = b.parameter("x", Shape::matrix(64, 64), DType::F32);
            let t = b.tanh(x);
            Kernel::new(b.finish(t))
        };
        let prepared: Vec<Prepared> = (0..12)
            .map(|i| Prepared::from_sample(&Sample::grouped(k.clone(), 100.0 + i as f64, i / 4)))
            .collect();
        let cfg = TrainConfig {
            batch_size: 4,
            loss: TaskLoss::TileRank(RankPhi::Logistic),
            ..Default::default()
        };
        let batches = stream_epoch_plan(&prepared[..], &cfg, &StreamConfig::default(), 1);
        for b in &batches {
            assert_eq!(b.len() % 4, 0, "group split across batches: {b:?}");
        }
    }

    #[test]
    fn train_stream_from_memory_trains_and_restores_best() {
        let prepared = make_prepared(12);
        let (train_set, val_set) = (prepared[..9].to_vec(), prepared[9..].to_vec());
        let mut model = GnnModel::new(GnnConfig {
            hidden: 8,
            opcode_embed_dim: 4,
            hops: 1,
            ..Default::default()
        });
        let cfg = TrainConfig {
            epochs: 4,
            batch_size: 4,
            ..Default::default()
        };
        let report = train_stream(
            &mut model,
            &train_set[..],
            &val_set,
            &cfg,
            &StreamConfig::default(),
        )
        .unwrap();
        assert_eq!(report.train_loss.len(), 4);
        assert!(report.best_val.is_finite());
    }

    #[test]
    fn segment_training_handles_oversized_graphs() {
        // A graph far above segment_nodes must still train (via segments)
        // without packing the full graph into any batch.
        let cfg_hw = TpuConfig::default();
        let mut samples = make_prepared(6);
        let big = {
            let mut b = GraphBuilder::new("big");
            let mut h = b.parameter("x", Shape::matrix(8, 64), DType::F32);
            for _ in 0..200 {
                h = b.tanh(h);
            }
            let k = Kernel::new(b.finish(h));
            let t = kernel_time_ns(&k, &cfg_hw);
            Prepared::from_sample(&Sample::new(k, t))
        };
        samples.push(big);
        let mut model = GnnModel::new(GnnConfig {
            hidden: 8,
            opcode_embed_dim: 4,
            hops: 1,
            ..Default::default()
        });
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 4,
            ..Default::default()
        };
        let scfg = StreamConfig {
            segment_nodes: 32,
            ..Default::default()
        };
        let report =
            train_stream(&mut model, &samples[..], &samples, &cfg, &scfg).unwrap();
        assert_eq!(report.train_loss.len(), 2);
        assert!(report.train_loss.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn mix_seed_spreads_inputs() {
        let a = mix_seed(17, 0, 0);
        let b = mix_seed(17, 0, 1);
        let c = mix_seed(17, 1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        assert_eq!(mix_seed(17, 3, 9), mix_seed(17, 3, 9));
    }
}
