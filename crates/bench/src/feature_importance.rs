//! Permutation feature importance for the trained model: shuffle one
//! group of the §4.1 feature vector across the evaluation set and measure
//! how much the fusion-task MAPE degrades. Quantifies which of the
//! IR-extracted features the learned model actually leans on (the paper
//! asserts the tile-size product is "crucial"; this measures that).
//!
//! ```text
//! cargo run -p tpu-bench --release -- feature_importance [--quick]
//! ```

use crate::{cap_prepared, corpus, predict_ns_prepared, print_table, Args, Scale, Task};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tpu_hlo::MAX_RANK;
use tpu_learned_cost::metrics::mape;
use tpu_learned_cost::{prepare, train, GnnModel, Prepared};
use tpu_sim::TpuConfig;

/// The fixed feature regions of `tpu_learned_cost::features` (§4.1: "an
/// op's features occupy a fixed region of the Xᶠᵢ vector").
fn feature_groups() -> Vec<(&'static str, std::ops::Range<usize>)> {
    let r = MAX_RANK;
    let mut at = 0usize;
    let mut take = |n: usize| {
        let range = at..at + n;
        at += n;
        range
    };
    vec![
        ("output shape dims", take(r)),
        ("elem count + bytes", take(2)),
        ("dtype one-hot", take(5)),
        ("layout", take(1 + r)),
        ("strides", take(r)),
        ("op category one-hot", take(10)),
        ("flags (output/param/arity)", take(3)),
        ("convolution window", take(6)),
        ("dot M/K/N", take(3)),
        ("tile sub-vector (sizes+sum+product)", take(r + 2)),
    ]
}

/// Shuffle the given columns across all nodes of all prepared samples.
fn permute_columns(
    prepared: &[Prepared],
    cols: &std::ops::Range<usize>,
    seed: u64,
) -> Vec<Prepared> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Collect every (sample, row) coordinate, then redistribute the
    // column block among them.
    let mut blocks: Vec<Vec<f32>> = Vec::new();
    for p in prepared {
        for row in 0..p.features.rows() {
            blocks.push(p.features.row(row)[cols.clone()].to_vec());
        }
    }
    blocks.shuffle(&mut rng);
    let mut out = prepared.to_vec();
    let mut i = 0usize;
    for p in &mut out {
        for row in 0..p.features.rows() {
            p.features.row_mut(row)[cols.clone()].copy_from_slice(&blocks[i]);
            i += 1;
        }
    }
    out
}

/// Run the experiment.
pub fn run(args: &Args) {
    let scale = args.scale;
    println!("Permutation feature importance (scale: {scale:?})");
    let corpus = corpus(scale);
    let task = Task::random_fusion(&corpus, args, &TpuConfig::default());
    let eval_cap = match scale {
        Scale::Quick => 300,
        Scale::Full => 1_500,
    };
    let eval_prep = cap_prepared(prepare(&task.test), eval_cap, 3);

    let mut model = GnnModel::new(scale.gnn_cfg());
    let rep = train(&mut model, &task.train, &task.val, &scale.train_cfg());
    println!("trained: best val MAPE {:.1}%", rep.best_val);

    let targets: Vec<f64> = eval_prep.iter().map(|p| p.runtime_ns).collect();
    let eval_mape = |prepared: &[Prepared]| mape(&predict_ns_prepared(&model, prepared), &targets);
    let baseline = eval_mape(&eval_prep);
    println!("baseline test MAPE: {baseline:.1}%\n");

    let mut rows = Vec::new();
    let mut scored: Vec<(String, f64)> = feature_groups()
        .into_iter()
        .map(|(name, cols)| {
            let permuted = permute_columns(&eval_prep, &cols, 9);
            let degraded = eval_mape(&permuted);
            (name.to_string(), degraded - baseline)
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, delta) in &scored {
        rows.push(vec![name.clone(), format!("{delta:+.1}")]);
    }
    print_table(
        "Permutation importance (MAPE increase when group is shuffled)",
        &["Feature group", "ΔMAPE (pts)"],
        &rows,
    );
    println!("\nExpected shape: shape/size features dominate; the tile sub-vector matters");
    println!("for tiled kernels (§4.2 calls the tile volume feature 'crucial').");
}
