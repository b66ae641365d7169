//! Regenerates **Table 3**: tile-size task. Mean per-kernel Kendall's τ
//! between predictions and measured tile runtimes, per random-split test
//! program, for Our Model (rank loss), Our Model (MSE loss), and the
//! analytical model; plus the manual-split medians quoted in §6.2.
//!
//! ```text
//! cargo run -p tpu-bench --release -- table3 [--quick]
//! ```

use crate::{corpus, print_table, rows_with_summary, Args, CalibratedAnalytical, Task};
use std::time::Instant;
use tpu_dataset::build_tile_dataset;
use tpu_learned_cost::metrics::{mean, median};
use tpu_learned_cost::{
    per_group_kendall, predict_log_ns, prepare, train, GnnModel, TaskLoss, TrainConfig,
};
use tpu_nn::RankPhi;
use tpu_sim::TpuConfig;

const HEADER: [&str; 4] = [
    "Program",
    "Ours (Rank Loss)",
    "Ours (MSE Loss)",
    "Analytical",
];

/// The table rows (rank loss, MSE loss, analytical) of one split, and the
/// column medians.
fn run_split(args: &Args, task: &Task, name: &str) -> (Vec<Vec<String>>, [f64; 3]) {
    let scale = args.scale;
    let [train_len, val_len, test_len] = task.sizes;
    println!("[{name}] tile examples: train={train_len} val={val_len} test={test_len}");

    // Train with the rank loss (Eq. 2) and with the MSE alternative.
    let train_with = |label: &str, loss: TaskLoss| {
        let mut model = GnnModel::new(scale.gnn_cfg());
        let cfg = TrainConfig {
            loss,
            ..scale.train_cfg()
        };
        let t0 = Instant::now();
        let rep = train(&mut model, &task.train, &task.val, &cfg);
        println!(
            "[{name}] {label} model: best val tau {:.3} [{:?}]",
            rep.best_val,
            t0.elapsed()
        );
        model
    };
    let rank_model = train_with("rank-loss", TaskLoss::TileRank(RankPhi::Logistic));
    let mse_model = train_with("mse", TaskLoss::TileMse);

    // The analytical model needs no calibration here: ranking within a
    // kernel is scale-invariant (§6.2).
    let analytical = CalibratedAnalytical::identity(&TpuConfig::default());

    let mut rows = Vec::new();
    for (program, samples) in task.test_by_program(0.0) {
        if samples.is_empty() {
            continue;
        }
        let prepared = prepare(&samples);
        // Kernels the analytical model cannot score count against its own
        // column only (it is "developed specifically for this task" and
        // supports all tiled kernels by construction here).
        let ana_preds: Vec<f64> = samples
            .iter()
            .map(|s| analytical.predict_ns(&s.kernel).unwrap_or(f64::NAN))
            .collect();
        // Mean per-kernel τ (`prepared` carries each example's kernel
        // group and measured runtime).
        let program_tau = |preds: &[f64]| mean(&per_group_kendall(preds, &prepared));
        let taus = [
            program_tau(&predict_log_ns(&rank_model, &prepared)),
            program_tau(&predict_log_ns(&mse_model, &prepared)),
            program_tau(&ana_preds),
        ];
        rows.push((program.to_string(), taus));
    }
    rows_with_summary(&rows, "Median", median, |_, tau| format!("{tau:.2}"))
}

/// Run the experiment.
pub fn run(args: &Args) {
    let scale = args.scale;
    println!("Table 3 reproduction (scale: {scale:?})");
    let corpus = corpus(scale);
    let dataset = build_tile_dataset(&corpus, &scale.tile_cfg());
    println!(
        "tile dataset: {} examples over {} kernels",
        dataset.examples.len(),
        dataset.num_kernels
    );

    let random = Task::tile(&corpus, &dataset, corpus.random_split(0), args.caps());
    let (rows, r) = run_split(args, &random, "random");
    print_table(
        "Table 3: tile-size task, mean per-kernel Kendall tau, random split",
        &HEADER,
        &rows,
    );
    println!("\nPaper medians (random): 0.68 / 0.64 / 0.75");

    let manual = Task::tile(&corpus, &dataset, corpus.manual_split(), args.caps());
    let (rows, m) = run_split(args, &manual, "manual");
    print_table("In-text: tile-size task, manual split", &HEADER, &rows);
    println!("\nPaper (manual split): analytical leads the rank-loss model by ~0.16 tau;");
    println!("rank loss beats MSE by ~0.13 tau.");

    println!("\nShape checks:");
    println!(
        "  analytical >= rank-loss (random): {:.2} vs {:.2} ({})",
        r[2],
        r[0],
        if r[2] >= r[0] - 0.02 { "OK" } else { "MISS" }
    );
    println!(
        "  rank-loss >= mse (random): {:.2} vs {:.2} ({})",
        r[0],
        r[1],
        if r[0] >= r[1] - 0.02 { "OK" } else { "MISS" }
    );
    println!(
        "  manual split harder for learned model: {:.2} (manual) vs {:.2} (random) ({})",
        m[0],
        r[0],
        if m[0] <= r[0] + 0.05 { "OK" } else { "MISS" }
    );
}
