//! Hyperparameter sweep for the fusion task (the paper's "we did a
//! hyperparameter search and selected the best-performing models on the
//! validation split", §6): trains GNN variants and the LSTM baseline on
//! the random split and reports validation + test-program medians. The
//! winning GNN is then driven through the batch-first autotuner (§6.3) as
//! an end-to-end smoke of the serving path: multi-chain SA, prediction
//! cache, packed forwards, hardware-budget metering.
//!
//! ```text
//! cargo run -p tpu-bench --release --bin tune [-- --quick] \
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

use std::sync::Arc;
use tpu_autotuner::{
    autotune_beam_with_cost_model, autotune_with_cost_model, speedup_over_default, Budgets,
    SearchParams, StartMode,
};
use tpu_bench::{
    checkpoint_path_from_args, checkpoint_variant_path, corpus, fault_seed_from_args,
    fusion_train_val, predict_ns_prepared, print_table, registry_for_report,
    report_path_from_args, search_from_args, train_checkpointed, write_report, Scale, SearchAlgo,
};
use tpu_dataset::build_fusion_dataset;
use tpu_learned_cost::metrics::{kendall_tau, mape, median};
use tpu_learned_cost::{
    prepare, AtomicCache, GnnConfig, GnnModel, KernelModel, LstmModel, Prepared, Reduction,
    TaskLoss, TrainConfig,
};
use tpu_obs::RunReport;
use tpu_sim::{FaultPlan, TpuDevice};

fn test_medians<M: KernelModel>(
    model: &M,
    by_program: &[(String, Vec<Prepared>, Vec<f64>)],
) -> (f64, f64) {
    let mut mapes = Vec::new();
    let mut taus = Vec::new();
    for (_, prepared, targets) in by_program {
        let preds = predict_ns_prepared(model, prepared);
        // >=5us kernels only, like Table 2's headline rows.
        let idx: Vec<usize> = (0..targets.len())
            .filter(|&i| targets[i] >= 5_000.0)
            .collect();
        if idx.len() < 2 {
            continue;
        }
        let p: Vec<f64> = idx.iter().map(|&i| preds[i]).collect();
        let t: Vec<f64> = idx.iter().map(|&i| targets[i]).collect();
        mapes.push(mape(&p, &t));
        taus.push(kendall_tau(&p, &t));
    }
    (median(&mapes), median(&taus))
}

fn main() {
    let scale = Scale::from_args();
    let report_path = report_path_from_args();
    let fault_seed = fault_seed_from_args();
    let checkpoint_stem = checkpoint_path_from_args();
    let search = search_from_args();
    let registry = registry_for_report(&report_path);
    println!("Fusion-task hyperparameter sweep (scale: {scale:?}, search: {search:?})");
    if let Some(seed) = fault_seed {
        println!("fault injection: FaultPlan::chaos({seed}) on the autotuning device");
    }
    let corpus = corpus(scale);
    let dataset = build_fusion_dataset(&corpus, &scale.fusion_cfg());
    let split = corpus.random_split(0);
    let (_, _, test_ex) = dataset.split(&split);

    let (train_cap, val_cap) = match scale {
        Scale::Quick => (800, 300),
        Scale::Full => (14_000, 2_500),
    };
    let (train_prep, val_prep) = fusion_train_val(&dataset, &split, train_cap, val_cap);

    // Per-test-program prepared sets.
    let mut by_program = Vec::new();
    for &pi in &split.test {
        let exs: Vec<&tpu_dataset::KernelExample> = test_ex
            .iter()
            .copied()
            .filter(|e| e.program_idx == pi)
            .collect();
        if exs.len() < 2 {
            continue;
        }
        let targets: Vec<f64> = exs.iter().map(|e| e.runtime_ns).collect();
        by_program.push((
            corpus.entries[pi].program.name.clone(),
            prepare(&tpu_bench::fusion_samples(&exs)),
            targets,
        ));
    }

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

    let mut rows = Vec::new();
    let variants: Vec<(String, GnnConfig)> = vec![
        ("gnn h48 k2 sum".into(), GnnConfig::default()),
        (
            "gnn h64 k2 sum".into(),
            GnnConfig {
                hidden: 64,
                ..Default::default()
            },
        ),
        (
            "gnn h64 k3 sum".into(),
            GnnConfig {
                hidden: 64,
                hops: 3,
                ..Default::default()
            },
        ),
        (
            "gnn h96 k2 sum".into(),
            GnnConfig {
                hidden: 96,
                ..Default::default()
            },
        ),
        (
            "gnn h64 k2 max".into(),
            GnnConfig {
                hidden: 64,
                reduction: Reduction::Max,
                ..Default::default()
            },
        ),
        (
            "gnn h64 k2 mean".into(),
            GnnConfig {
                hidden: 64,
                reduction: Reduction::Mean,
                ..Default::default()
            },
        ),
        (
            "gnn h64 k1 sum".into(),
            GnnConfig {
                hidden: 64,
                hops: 1,
                ..Default::default()
            },
        ),
    ];
    // With `--checkpoint`, each model trains against its own resumable
    // file `<stem>.<tag>.json`.
    let checkpoint = |tag: &str| {
        checkpoint_stem
            .as_deref()
            .map(|stem| checkpoint_variant_path(stem, tag))
    };
    let mut winner: Option<(f64, GnnModel)> = None;
    for (i, (name, gcfg)) in variants.into_iter().enumerate() {
        let t0 = std::time::Instant::now();
        let mut m = GnnModel::new(gcfg);
        let rep = train_checkpointed(
            &mut m,
            &train_prep,
            &val_prep,
            &tcfg,
            &registry,
            checkpoint(&format!("v{i}")).as_deref(),
        );
        let (test_mape, test_tau) = test_medians(&m, &by_program);
        println!("{name}: done in {:?}", t0.elapsed());
        rows.push(vec![
            name,
            format!("{:.1}", rep.best_val),
            format!("{test_mape:.1}"),
            format!("{test_tau:.2}"),
        ]);
        if winner.as_ref().is_none_or(|(v, _)| rep.best_val < *v) {
            winner = Some((rep.best_val, m));
        }
    }
    {
        let t0 = std::time::Instant::now();
        let mut m = LstmModel::new(scale.lstm_cfg());
        let rep = train_checkpointed(
            &mut m,
            &train_prep,
            &val_prep,
            &tcfg,
            &registry,
            checkpoint("lstm").as_deref(),
        );
        let (test_mape, test_tau) = test_medians(&m, &by_program);
        println!("lstm h48: done in {:?}", t0.elapsed());
        rows.push(vec![
            "lstm h48".into(),
            format!("{:.1}", rep.best_val),
            format!("{test_mape:.1}"),
            format!("{test_tau:.2}"),
        ]);
    }

    print_table(
        "Sweep results (random split; test = >=5us kernels)",
        &["Variant", "Val MAPE", "Test median MAPE", "Test median tau"],
        &rows,
    );

    // Drive the sweep winner through the batch-first autotuner — the full
    // serving stack in one pass: multi-chain SA, miss-batched packed
    // forwards, prediction cache, hardware-budget metering.
    let (val, gnn) = winner.expect("at least one GNN variant");
    let target = split
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
    let device = match fault_seed {
        Some(seed) => TpuDevice::new(42).with_faults(FaultPlan::chaos(seed)),
        None => TpuDevice::new(42),
    }
    .observed(&registry);
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
    if fault_seed.is_some() {
        let f = &tuned.faults;
        let r = &tuned.retry_stats;
        println!(
            "chaos: {} faults ({} transient, {} preempted, {} spikes) | {} retries | {} outliers rejected | {} candidates exhausted",
            f.total(), f.transients, f.preemptions, f.spikes,
            r.retries, r.outliers_rejected, r.exhausted_candidates,
        );
    }

    if let Some(path) = report_path {
        let mut report = RunReport::new("tune", &registry)
            .with_context("scale", format!("{scale:?}"))
            .with_context("target_program", &target.name)
            .with_context("model_steps", budgets.model_steps)
            .with_context("search", format!("{search:?}"))
            .with_context("core.engine.backend", tpu_learned_cost::CostModel::name(&gnn));
        if let Some(seed) = fault_seed {
            report = report.with_context("fault_seed", seed);
        }
        write_report(&report, &path);
    }
}
