//! Regenerates **Table 1**: the number of unique programs and kernels in
//! the fusion and tile-size datasets, under the manual and random splits.
//!
//! ```text
//! cargo run -p tpu-bench --release -- table1 [--quick]
//! ```

use crate::{corpus, print_table, Args};
use tpu_dataset::{build_fusion_dataset, build_tile_dataset, fraction_below_5us, split_stats};

/// Run the experiment.
pub fn run(args: &Args) {
    let scale = args.scale;
    println!("Table 1 reproduction (scale: {scale:?})");
    println!("Paper: 104 programs; 207M fusion kernels; 23M tile examples.");
    println!("This reproduction scales the pipelines down; shapes, not magnitudes, transfer.\n");

    let corpus = corpus(scale);
    println!(
        "corpus: {} programs, {} fusion-eligible",
        corpus.len(),
        corpus.fusion_eligible().len()
    );

    let t0 = std::time::Instant::now();
    let fusion = build_fusion_dataset(&corpus, &scale.fusion_cfg());
    println!(
        "fusion dataset: {} unique kernels ({:.1}% below 5us)  [{:?}]",
        fusion.examples.len(),
        100.0 * fraction_below_5us(&fusion),
        t0.elapsed()
    );

    let t0 = std::time::Instant::now();
    let tile = build_tile_dataset(&corpus, &scale.tile_cfg());
    println!(
        "tile dataset: {} examples over {} kernels  [{:?}]",
        tile.examples.len(),
        tile.kernels,
        t0.elapsed()
    );

    let manual = corpus.manual_split();
    let random = corpus.random_split(0);

    let mut rows = Vec::new();
    for (split_name, split) in [("Manual", &manual), ("Random", &random)] {
        let fs = split_stats(&fusion, split);
        let ts = split_stats(&tile, split);
        for (row_name, progs, kernels) in [
            (
                "Train",
                (fs.programs.0, ts.programs.0),
                (fs.examples.0, ts.examples.0),
            ),
            (
                "Val.",
                (fs.programs.1, ts.programs.1),
                (fs.examples.1, ts.examples.1),
            ),
            (
                "Test",
                (fs.programs.2, ts.programs.2),
                (fs.examples.2, ts.examples.2),
            ),
        ] {
            rows.push(vec![
                format!("{split_name}/{row_name}"),
                progs.0.to_string(),
                progs.1.to_string(),
                kernels.0.to_string(),
                kernels.1.to_string(),
            ]);
        }
    }
    print_table(
        "Table 1: programs and examples per split",
        &[
            "Split",
            "Programs(Fusion)",
            "Programs(Tile)",
            "Examples(Fusion)",
            "Examples(Tile)",
        ],
        &rows,
    );

    println!("\nPaper reference (manual split): fusion programs 79/6/6, tile programs 92/6/6;");
    println!("(random split): fusion programs 78/8/8. Example counts are compute-budget-scaled.");
}
