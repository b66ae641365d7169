//! Regenerates **Table 2**: fusion-task accuracy. Per test program, the
//! MAPE and Kendall's τ of the learned GNN, the LSTM baseline, and the
//! calibrated analytical model on kernels with ≥5 µs true runtime
//! (random split), plus the paper's in-text numbers: <5 µs medians and
//! manual-split medians.
//!
//! ```text
//! cargo run -p tpu-bench --release -- table2 [--quick] \
//!     [--checkpoint <path>] [--report <path>]
//! ```
//!
//! `--checkpoint <path>` checkpoints every model's training to
//! `<stem>.<tag>.json` files next to `path` and resumes them on rerun
//! (bit-identical to an uninterrupted run).

use crate::{corpus, fit_analytical, print_table, train_best, Args, Scale, Task};
use std::sync::Arc;
use std::time::Instant;
use tpu_dataset::{
    build_fusion_dataset, whole_graph_example, Corpus, CorpusScale, FusionDatasetConfig,
    FUSION_NODE_LIMIT,
};
use tpu_hlo::Kernel;
use tpu_learned_cost::metrics::{Score, Scorecard};
use tpu_learned_cost::{
    predict_log_ns, prepare, AtomicCache, GnnConfig, GnnModel, KernelModel, LstmConfig, LstmModel,
    Predictor, Prepared,
};
use tpu_sim::{TpuConfig, TpuDevice};

/// (test program, measured runtime, [ours, LSTM, analytical]) of a kernel.
type Row = (usize, f64, [Option<f64>; 3]);

/// The columns of every per-program accuracy table.
const HEADER: [&str; 7] = [
    "Program",
    "MAPE Ours",
    "MAPE LSTM",
    "MAPE Analytical",
    "tau Ours",
    "tau LSTM",
    "tau Analytical",
];

/// `label`, then one cell per MAPE (one decimal) and per τ (two).
fn score_row<const N: usize>(label: &str, score: &Score<N>) -> Vec<String> {
    let mape = score.mape.iter().map(|v| format!("{v:.1}"));
    let tau = score.tau.iter().map(|v| format!("{v:.2}"));
    std::iter::once(label.to_string())
        .chain(mape)
        .chain(tau)
        .collect()
}

/// Print `card` under `title`, one row per scored program of `programs`
/// (MAPE of ours / LSTM / analytical, then their τ) and a row of column
/// medians, and then the paper's medians; returns the medians.
fn print_card(title: &str, card: Scorecard<3>, programs: &[&str], paper: &str) -> Score<3> {
    let mut table: Vec<Vec<String>> = card
        .groups
        .iter()
        .map(|g| score_row(programs[g.id], &g.score))
        .collect();
    table.push(score_row("Median", &card.median));
    print_table(title, &HEADER, &table);
    println!("\nPaper medians {paper}");
    card.median
}

/// Train one model of `family` per seed (like the paper's hyperparameter
/// search) and keep the best on validation. With `--checkpoint`, each
/// trains against its own resumable file `<stem>.<split>.<family><seed>.json`.
fn select_by_seed<M: KernelModel>(
    args: &Args,
    task: &Task,
    split_name: &str,
    family: &str,
    with_seed: impl Fn(u64) -> M,
) -> M {
    let seeds: &[u64] = match args.scale {
        Scale::Quick => &[17],
        Scale::Full => &[17, 43],
    };
    let t0 = Instant::now();
    let candidates = seeds
        .iter()
        .map(|&seed| (format!("{split_name}.{family}{seed}"), with_seed(seed)));
    let tcfg = args.scale.train_cfg();
    let (_, best) = train_best(task, &tcfg, args, candidates, |i, _, rep| {
        println!(
            "[{split_name}] {family} seed {}: val MAPE {:.1}% (epoch {})",
            seeds[i], rep.best_val, rep.best_epoch
        )
    });
    println!("[{split_name}] {family} selected [{:?}]", t0.elapsed());
    best
}

/// The split's test kernels as rows, the test programs' names, and the
/// two learned models.
fn run_split<'a>(
    args: &Args,
    task: &Task<'a>,
    split_name: &str,
) -> (Vec<Row>, Vec<&'a str>, GnnModel, LstmModel) {
    let scale = args.scale;
    let machine = TpuConfig::default();
    let [train, val, test] = task.sizes;
    println!("[{split_name}] examples: train={train} val={val} test={test}");

    let gnn = select_by_seed(args, task, split_name, "gnn", |seed| {
        GnnModel::new(GnnConfig {
            seed,
            ..scale.gnn_cfg()
        })
    });
    let lstm = select_by_seed(args, task, split_name, "lstm", |seed| {
        LstmModel::new(LstmConfig {
            seed,
            ..scale.lstm_cfg()
        })
    });

    // Calibrate the analytical model on the test programs (§6.1).
    let device = TpuDevice::with_config(machine.clone(), 99);
    let analytical = fit_analytical(task.corpus, &task.split.test, &machine, &device);

    // Evaluate per test program. Kernels the analytical model cannot score
    // (no tile-size options — ~1% in the paper) leave every column, per
    // footnote 3: the scorecard drops a row any column did not predict.
    // Scoring goes through an observed [`Predictor`] session so a
    // `--report` run captures the cache and model-eval metrics of the
    // serving path (predictions are identical to calling the analytical
    // model per kernel).
    let predictor = Predictor::with_cache(&analytical, Arc::new(AtomicCache::serving_default()))
        .observed(&args.registry);
    let mut programs = Vec::new();
    let mut rows = Vec::new();
    for (program, (name, samples)) in task.test_by_program(0.0).into_iter().enumerate() {
        programs.push(name);
        let kernels: Vec<&Kernel> = samples.iter().map(|s| &s.kernel).collect();
        let analytical = predictor.predict_ns_refs(&kernels).0;
        let prepared = prepare(&samples);
        let learned = predict_log_ns(&gnn, &prepared).zip(predict_log_ns(&lstm, &prepared));
        for ((sample, (ours, lstm)), analytical) in samples.iter().zip(learned).zip(analytical) {
            let predictions = [Some(ours.exp()), Some(lstm.exp()), analytical];
            rows.push((program, sample.runtime_ns, predictions));
        }
    }
    predictor.record_cache_stats();
    (rows, programs, gnn, lstm)
}

/// Run the experiment.
pub fn run(args: &Args) {
    let scale = args.scale;
    println!("Table 2 reproduction (scale: {scale:?})");
    let corpus = corpus(scale);
    let dataset = build_fusion_dataset(&corpus, &scale.fusion_cfg());
    println!("fusion dataset: {} unique kernels", dataset.examples.len());

    // Large-graph holdout: fused multi-kernel programs from the Large
    // corpus, emitted as single whole-program graphs. None of them (nor
    // any graph remotely this size) appears in the fusion training set,
    // which only contains kernels under FUSION_NODE_LIMIT nodes.
    let holdout_cap = match scale {
        Scale::Quick => 4,
        Scale::Full => 12,
    };
    let wg_cfg = FusionDatasetConfig::default();
    let large_corpus = Corpus::build(CorpusScale::Large);
    let holdout: Vec<Prepared> = large_corpus
        .entries
        .iter()
        .filter(|e| e.program.num_nodes() > FUSION_NODE_LIMIT)
        .take(holdout_cap)
        .map(|e| whole_graph_example(&e.program, &wg_cfg))
        .collect();
    drop(large_corpus);
    let nodes = holdout.iter().map(|p| p.opcode_ids.len());
    let (fewest, most) = (nodes.clone().min().unwrap_or(0), nodes.max().unwrap_or(0));
    println!(
        "large-graph holdout: {} whole-program graphs ({fewest}..{most} nodes)",
        holdout.len()
    );

    // --- Random split (Table 2 proper) ---
    let random = Task::new(&corpus, &dataset, corpus.random_split(0), args.caps());
    let (rows, programs, gnn, lstm) = run_split(args, &random, "random");
    let med_big = print_card(
        "Table 2: fusion task, >=5us kernels, random split",
        rows.iter().filter(|r| r.1 >= 5_000.0).copied().collect(),
        &programs,
        "(>=5us, random): MAPE 13.9 / 26.6 / 23.9; tau 0.90 / 0.81 / 0.81",
    );

    // Large-graph holdout: whole-program graphs far past FUSION_NODE_LIMIT,
    // a scale regime the per-kernel training distribution never contains.
    // The analytical baseline is per-kernel (tile-driven) and cannot score
    // a whole multi-kernel program, so only the learned models appear.
    let targets: Vec<f64> = holdout.iter().map(|p| p.runtime_ns).collect();
    let ours_ns: Vec<f64> = predict_log_ns(&gnn, &holdout).map(f64::exp).collect();
    let lstm_ns: Vec<f64> = predict_log_ns(&lstm, &holdout).map(f64::exp).collect();
    let score = Score::of(&[ours_ns, lstm_ns], &targets);
    let row = score_row(&format!("{} graphs", holdout.len()), &score);
    print_table(
        "Table 2 addendum: large-graph holdout (whole fused programs, random-split models)",
        &["Holdout", "MAPE Ours", "MAPE LSTM", "tau Ours", "tau LSTM"],
        &[row],
    );
    println!(
        "\n(whole-program graphs exceed FUSION_NODE_LIMIT = {FUSION_NODE_LIMIT} nodes; \
         the per-kernel analytical baseline cannot score them)"
    );

    let med_small = print_card(
        "In-text: fusion task, <5us kernels, random split",
        rows.iter().filter(|r| r.1 < 5_000.0).copied().collect(),
        &programs,
        "(<5us, random): MAPE 8.4 / 12.1 / 21.0; tau 0.82 / 0.82 / 0.71",
    );

    // --- Manual split (in-text "harder task") ---
    let manual = Task::new(&corpus, &dataset, corpus.manual_split(), args.caps());
    let (manual_rows, manual_programs, ..) = run_split(args, &manual, "manual");
    let med_manual = print_card(
        "In-text: fusion task, >=5us kernels, manual split",
        manual_rows.into_iter().filter(|r| r.1 >= 5_000.0).collect(),
        &manual_programs,
        "(>=5us, manual): MAPE 31.8 / 40.0 / 12.6; tau 0.71 / 0.70 / 0.92",
    );

    let [ours, lstm, analytical] = med_big.mape;
    println!("\nShape checks:");
    println!(
        "  random >=5us: ours-vs-lstm MAPE {ours:.1} vs {lstm:.1} ({})",
        if ours <= lstm {
            "OK: ours <= lstm"
        } else {
            "MISS"
        }
    );
    println!(
        "  random >=5us: ours-vs-analytical MAPE {ours:.1} vs {analytical:.1} ({})",
        if ours <= analytical {
            "OK: ours <= analytical"
        } else {
            "MISS"
        }
    );
    let manual = med_manual.mape[0];
    println!(
        "  manual harder than random for ours: {manual:.1} vs {ours:.1} ({})",
        if manual >= ours { "OK" } else { "MISS" }
    );
    let [ours, lstm, analytical] = med_small.mape;
    println!("  <5us medians: ours {ours:.1} lstm {lstm:.1} analytical {analytical:.1}");

    // The "Ours" column's serving backend (the per-split models are dropped
    // by now; the name is a per-type constant).
    let context = [
        ("splits", "random,manual".to_string()),
        ("core.engine.backend", "learned-gnn".to_string()),
    ];
    args.write_report(&context);
}
