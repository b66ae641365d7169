//! Regenerates **Table 3**: tile-size task. Mean per-kernel Kendall's τ
//! between predictions and measured tile runtimes, per random-split test
//! program, for Our Model (rank loss), Our Model (MSE loss), and the
//! analytical model; plus the manual-split medians quoted in §6.2.
//!
//! ```text
//! cargo run -p tpu-bench --release --bin table3 [-- --quick]
//! ```

use tpu_bench::{cap_prepared, corpus, print_table, tile_samples, CalibratedAnalytical, Scale};
use tpu_dataset::{build_tile_dataset, Corpus, Split, TileDataset, TileExample};
use tpu_learned_cost::metrics::{mean, median};
use tpu_learned_cost::{
    per_group_kendall, predict_log_ns, prepare, train, GnnModel, TaskLoss, TrainConfig,
};
use tpu_nn::RankPhi;
use tpu_sim::TpuConfig;

struct SplitOutcome {
    rows: Vec<Vec<String>>,
    medians: [f64; 3],
}

fn run_split(
    scale: Scale,
    corpus: &Corpus,
    dataset: &TileDataset,
    split: &Split,
    name: &str,
) -> SplitOutcome {
    let machine = TpuConfig::default();
    let (train_ex, val_ex, test_ex) = dataset.split(split);
    println!(
        "[{name}] tile examples: train={} val={} test={}",
        train_ex.len(),
        val_ex.len(),
        test_ex.len()
    );

    let (train_cap, val_cap) = match scale {
        Scale::Quick => (700, 250),
        Scale::Full => (12_000, 2_000),
    };
    let train_prep = cap_prepared(prepare(&tile_samples(&train_ex)), train_cap, 3);
    let val_prep = cap_prepared(prepare(&tile_samples(&val_ex)), val_cap, 4);

    // Train with the rank loss (Eq. 2) and with the MSE alternative.
    let base = scale.train_cfg();
    let mut rank_model = GnnModel::new(scale.gnn_cfg());
    let rank_cfg = TrainConfig {
        loss: TaskLoss::TileRank(RankPhi::Logistic),
        ..base.clone()
    };
    let t0 = std::time::Instant::now();
    let rep = train(&mut rank_model, &train_prep, &val_prep, &rank_cfg);
    println!(
        "[{name}] rank-loss model: best val tau {:.3} [{:?}]",
        rep.best_val,
        t0.elapsed()
    );

    let mut mse_model = GnnModel::new(scale.gnn_cfg());
    let mse_cfg = TrainConfig {
        loss: TaskLoss::TileMse,
        ..base
    };
    let t0 = std::time::Instant::now();
    let rep = train(&mut mse_model, &train_prep, &val_prep, &mse_cfg);
    println!(
        "[{name}] mse model: best val tau {:.3} [{:?}]",
        rep.best_val,
        t0.elapsed()
    );

    // The analytical model needs no calibration here: ranking within a
    // kernel is scale-invariant (§6.2).
    let analytical = CalibratedAnalytical::identity(&machine);

    let mut rows = Vec::new();
    let mut cols: [Vec<f64>; 3] = Default::default();
    for &pi in &split.test {
        let prog_name = corpus.entries[pi].program.name.clone();
        let examples: Vec<&TileExample> = test_ex
            .iter()
            .copied()
            .filter(|ex| ex.program_idx == pi)
            .collect();
        if examples.is_empty() {
            continue;
        }
        let prepared = prepare(&tile_samples(&examples));
        let rank_preds = predict_log_ns(&rank_model, &prepared);
        let mse_preds = predict_log_ns(&mse_model, &prepared);
        let ana_preds: Vec<f64> = examples
            .iter()
            .map(|ex| analytical.predict_ns(&ex.kernel).unwrap_or(f64::NAN))
            .collect();
        // Drop kernels the analytical model cannot score from its own
        // column only (it is "developed specifically for this task" and
        // supports all tiled kernels by construction here).
        // Mean per-kernel τ (`prepared` carries each example's kernel
        // group and measured runtime).
        let program_tau = |preds: &[f64]| mean(&per_group_kendall(preds, &prepared));
        let t_rank = program_tau(&rank_preds);
        let t_mse = program_tau(&mse_preds);
        let t_ana = program_tau(&ana_preds);
        cols[0].push(t_rank);
        cols[1].push(t_mse);
        cols[2].push(t_ana);
        rows.push(vec![
            prog_name,
            format!("{t_rank:.2}"),
            format!("{t_mse:.2}"),
            format!("{t_ana:.2}"),
        ]);
    }
    let medians = [median(&cols[0]), median(&cols[1]), median(&cols[2])];
    rows.push(vec![
        "Median".into(),
        format!("{:.2}", medians[0]),
        format!("{:.2}", medians[1]),
        format!("{:.2}", medians[2]),
    ]);
    SplitOutcome { rows, medians }
}

fn main() {
    let scale = Scale::from_args();
    println!("Table 3 reproduction (scale: {scale:?})");
    let corpus = corpus(scale);
    let dataset = build_tile_dataset(&corpus, &scale.tile_cfg());
    println!(
        "tile dataset: {} examples over {} kernels",
        dataset.examples.len(),
        dataset.num_kernels
    );

    let random = corpus.random_split(0);
    let r = run_split(scale, &corpus, &dataset, &random, "random");
    print_table(
        "Table 3: tile-size task, mean per-kernel Kendall tau, random split",
        &["Program", "Ours (Rank Loss)", "Ours (MSE Loss)", "Analytical"],
        &r.rows,
    );
    println!("\nPaper medians (random): 0.68 / 0.64 / 0.75");

    let manual = corpus.manual_split();
    let m = run_split(scale, &corpus, &dataset, &manual, "manual");
    print_table(
        "In-text: tile-size task, manual split",
        &["Program", "Ours (Rank Loss)", "Ours (MSE Loss)", "Analytical"],
        &m.rows,
    );
    println!("\nPaper (manual split): analytical leads the rank-loss model by ~0.16 tau;");
    println!("rank loss beats MSE by ~0.13 tau.");

    println!("\nShape checks:");
    println!(
        "  analytical >= rank-loss (random): {:.2} vs {:.2} ({})",
        r.medians[2],
        r.medians[0],
        if r.medians[2] >= r.medians[0] - 0.02 { "OK" } else { "MISS" }
    );
    println!(
        "  rank-loss >= mse (random): {:.2} vs {:.2} ({})",
        r.medians[0],
        r.medians[1],
        if r.medians[0] >= r.medians[1] - 0.02 { "OK" } else { "MISS" }
    );
    println!(
        "  manual split harder for learned model: {:.2} (manual) vs {:.2} (random) ({})",
        m.medians[0],
        r.medians[0],
        if m.medians[0] <= r.medians[0] + 0.05 { "OK" } else { "MISS" }
    );
}
