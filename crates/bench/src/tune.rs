//! Hyperparameter sweep for the fusion task (the paper's "we did a
//! hyperparameter search and selected the best-performing models on the
//! validation split", §6): trains GNN variants and the LSTM baseline on
//! the random split and reports validation + test-program medians. The
//! winning GNN is then driven through the batch-first autotuner (§6.3) as
//! an end-to-end smoke of the serving path: multi-chain SA, prediction
//! cache, packed forwards, hardware-budget metering.
//!
//! ```text
//! cargo run -p tpu-bench --release -- tune [--quick] \
//!     [--search sa|beam] [--faults <seed>] [--checkpoint <path>] \
//!     [--report <path>]
//! ```
//!
//! `--search beam` drives the demo with the transposition-table-backed
//! beam search instead of SA (same model-eval budget, same metered
//! hardware re-rank); `--faults <seed>` runs the autotuning demo on a
//! device carrying `FaultPlan::chaos(seed)`, exercising the retrying
//! measurement harness; `--checkpoint <path>` checkpoints every model's
//! training to `<stem>.<tag>.json` files next to `path` and resumes them
//! on rerun (bit-identical to an uninterrupted run).

use crate::{corpus, predict_ns_prepared, print_table, train_best, Args, Scale, SearchAlgo, Task};
use std::sync::Arc;
use std::time::Instant;
use tpu_autotuner::{
    autotune_beam_with_cost_model, autotune_with_cost_model, speedup_over_default, Budgets,
    SearchParams, StartMode,
};
use tpu_learned_cost::metrics::{kendall_tau, mape, median};
use tpu_learned_cost::{
    prepare, AtomicCache, CostModel, GnnConfig, GnnModel, KernelModel, LstmModel, Prepared,
    Reduction, TaskLoss, TrainConfig, TrainReport,
};
use tpu_sim::{FaultPlan, TpuConfig, TpuDevice};

/// Median MAPE and median τ of `model` over the test programs' prepared
/// evaluation sets.
fn test_medians<M: KernelModel>(model: &M, by_program: &[Vec<Prepared>]) -> (f64, f64) {
    let (mapes, taus): (Vec<f64>, Vec<f64>) = by_program
        .iter()
        .map(|prepared| {
            let preds = predict_ns_prepared(model, prepared);
            let targets: Vec<f64> = prepared.iter().map(|p| p.runtime_ns).collect();
            (mape(&preds, &targets), kendall_tau(&preds, &targets))
        })
        .unzip();
    (median(&mapes), median(&taus))
}

/// The sweep-table row of one trained variant; says how long the variant
/// took `since` the last one and restarts that clock.
fn sweep_row<M: KernelModel>(
    name: &str,
    model: &M,
    rep: &TrainReport,
    by_program: &[Vec<Prepared>],
    since: &mut Instant,
) -> Vec<String> {
    let (test_mape, test_tau) = test_medians(model, by_program);
    println!("{name}: done in {:?}", since.elapsed());
    *since = Instant::now();
    vec![
        name.to_string(),
        format!("{:.1}", rep.best_val),
        format!("{test_mape:.1}"),
        format!("{test_tau:.2}"),
    ]
}

/// Run the experiment.
pub fn run(args: &Args) {
    let (scale, search) = (args.scale, args.search);
    println!("Fusion-task hyperparameter sweep (scale: {scale:?}, search: {search:?})");
    if let Some(seed) = args.faults {
        println!("fault injection: FaultPlan::chaos({seed}) on the autotuning device");
    }
    let corpus = corpus(scale);
    let task = Task::random_fusion(&corpus, args, &TpuConfig::default());

    // Per-test-program prepared sets: >=5us kernels only, like Table 2's
    // headline rows.
    let by_program: Vec<Vec<Prepared>> = task
        .test_by_program(5_000.0)
        .iter()
        .filter(|(_, samples)| samples.len() >= 2)
        .map(|(_, samples)| prepare(samples))
        .collect();

    let epochs = match scale {
        Scale::Quick => 10,
        Scale::Full => 40,
    };
    let tcfg = TrainConfig {
        epochs,
        batch_size: 24,
        lr: 2e-3,
        loss: TaskLoss::FusionLogMse,
        max_batches_per_epoch: 600,
        ..Default::default()
    };

    let variants: [(&str, GnnConfig); 7] = [
        ("gnn h48 k2 sum", GnnConfig::default()),
        (
            "gnn h64 k2 sum",
            GnnConfig {
                hidden: 64,
                ..Default::default()
            },
        ),
        (
            "gnn h64 k3 sum",
            GnnConfig {
                hidden: 64,
                hops: 3,
                ..Default::default()
            },
        ),
        (
            "gnn h96 k2 sum",
            GnnConfig {
                hidden: 96,
                ..Default::default()
            },
        ),
        (
            "gnn h64 k2 max",
            GnnConfig {
                hidden: 64,
                reduction: Reduction::Max,
                ..Default::default()
            },
        ),
        (
            "gnn h64 k2 mean",
            GnnConfig {
                hidden: 64,
                reduction: Reduction::Mean,
                ..Default::default()
            },
        ),
        (
            "gnn h64 k1 sum",
            GnnConfig {
                hidden: 64,
                hops: 1,
                ..Default::default()
            },
        ),
    ];
    // With `--checkpoint`, each model trains against its own resumable
    // file `<stem>.<tag>.json`: `v<i>` for the GNN variants, `lstm`.
    let mut rows = Vec::new();
    let mut clock = Instant::now();
    let gnns = variants
        .iter()
        .enumerate()
        .map(|(i, (_, gcfg))| (format!("v{i}"), GnnModel::new(gcfg.clone())));
    let (val, gnn) = train_best(&task, &tcfg, args, gnns, |i, m, rep| {
        rows.push(sweep_row(variants[i].0, m, rep, &by_program, &mut clock))
    });
    let lstm = [("lstm".to_string(), LstmModel::new(scale.lstm_cfg()))];
    train_best(&task, &tcfg, args, lstm, |_, m, rep| {
        rows.push(sweep_row("lstm h48", m, rep, &by_program, &mut clock))
    });

    print_table(
        "Sweep results (random split; test = >=5us kernels)",
        &["Variant", "Val MAPE", "Test median MAPE", "Test median tau"],
        &rows,
    );

    // Drive the sweep winner through the batch-first autotuner — the full
    // serving stack in one pass: multi-chain SA, miss-batched packed
    // forwards, prediction cache, hardware-budget metering.
    let target = task
        .split
        .test
        .iter()
        .map(|&pi| &corpus.entries[pi].program)
        .filter(|p| p.num_nodes() <= tpu_dataset::FUSION_NODE_LIMIT)
        .min_by_key(|p| p.num_nodes())
        .expect("a tunable test program");
    println!(
        "\nAutotuning `{}` with the sweep winner (val MAPE {val:.1}%)...",
        target.name
    );
    let budgets = Budgets {
        hardware_ns: 30e9,
        model_steps: match scale {
            Scale::Quick => 200,
            Scale::Full => 1_000,
        },
        top_k: 8,
        chains: 4,
    };
    let cache = Arc::new(AtomicCache::serving_default());
    let device = match args.faults {
        Some(seed) => TpuDevice::new(42).with_faults(FaultPlan::chaos(seed)),
        None => TpuDevice::new(42),
    }
    .observed(&args.registry);
    let tuned = match search {
        SearchAlgo::Sa => autotune_with_cost_model(
            target,
            &device,
            &gnn,
            &cache,
            StartMode::Default,
            &budgets,
            0,
        ),
        SearchAlgo::Beam => autotune_beam_with_cost_model(
            target,
            &device,
            &gnn,
            &cache,
            StartMode::Default,
            &budgets,
            &SearchParams {
                seed: 0,
                ..Default::default()
            },
        ),
    };
    println!(
        "tuned: speedup {:.3}x over default | {} hw evals | {} fresh model evals in {} packed forwards | {} cache hits",
        speedup_over_default(target, &device, &tuned),
        tuned.hw_evals,
        tuned.model_evals,
        tuned.model_batches,
        tuned.cache_hits,
    );
    if args.faults.is_some() {
        let f = &tuned.faults;
        let r = &tuned.retry_stats;
        println!(
            "chaos: {} faults ({} transient, {} preempted, {} spikes) | {} retries | {} outliers rejected | {} candidates exhausted",
            f.total(), f.transients, f.preemptions, f.spikes,
            r.retries, r.outliers_rejected, r.exhausted_candidates,
        );
    }

    let context = [
        ("target_program", target.name.clone()),
        ("model_steps", budgets.model_steps.to_string()),
        ("search", format!("{search:?}")),
        ("core.engine.backend", CostModel::name(&gnn).to_string()),
    ];
    args.write_report(&context);
}
