//! Rank the valid tile sizes of a matmul kernel with three different cost
//! models and compare their orderings against ground truth — a miniature
//! of §6.2 / Table 3.
//!
//! ```text
//! cargo run --release --example tile_ranking
//! ```

use tpu_repro::analytical::AnalyticalCost;
use tpu_repro::hlo::{DType, GraphBuilder, Kernel, Shape};
use tpu_repro::learned::metrics::kendall_tau;
use tpu_repro::learned::{CostModel, GnnConfig, GnnModel};
use tpu_repro::sim::{kernel_time_ns, TpuConfig};
use tpu_repro::tile::{rank_tiles, valid_tile_sizes};

fn main() {
    // A large matmul kernel: the classic tile-selection problem.
    let mut b = GraphBuilder::new("k");
    let x = b.parameter("x", Shape::matrix(2048, 1024), DType::F32);
    let w = b.parameter("w", Shape::matrix(1024, 2048), DType::F32);
    let d = b.dot(x, w);
    let kernel = Kernel::new(b.finish(d));

    let machine = TpuConfig::default();
    let tiles = valid_tile_sizes(&kernel, &machine, 200);
    println!("kernel has {} valid tile sizes", tiles.len());

    // Ground truth runtimes from the simulator.
    let truth: Vec<f64> = tiles
        .iter()
        .map(|t| kernel_time_ns(&kernel.clone().with_tile(t.clone()), &machine))
        .collect();

    // Model 1: the analytical model (no calibration needed for ranking).
    let analytical = AnalyticalCost::new(machine.clone());
    let ana: Vec<f64> = tiles
        .iter()
        .map(|t| {
            analytical
                .predict_kernel_ns(&kernel.clone().with_tile(t.clone()))
                .unwrap_or(f64::INFINITY)
        })
        .collect();

    // Model 2: an untrained GNN (chance-level ranking).
    let gnn = GnnModel::new(GnnConfig::default());
    let learned: Vec<f64> = tiles
        .iter()
        .map(|t| {
            gnn.predict_kernel_ns(&kernel.clone().with_tile(t.clone()))
                .unwrap_or(f64::INFINITY)
        })
        .collect();

    println!("\nKendall tau vs ground truth:");
    println!("  analytical model : {:.3}", kendall_tau(&ana, &truth));
    println!("  untrained GNN    : {:.3}", kendall_tau(&learned, &truth));
    println!("(the table3 binary trains the GNN with the pairwise rank loss of Eq. 2)");

    // Best tile under the analytical model vs the true best.
    let ranked = rank_tiles(&kernel, &machine, 200, |k| {
        analytical.predict_kernel_ns(k).unwrap_or(f64::INFINITY)
    });
    let (ana_best, _) = &ranked[0];
    let true_best = tiles
        .iter()
        .zip(&truth)
        .min_by(|a, b| a.1.total_cmp(b.1))
        .unwrap();
    let ana_best_ns = kernel_time_ns(&kernel.clone().with_tile(ana_best.clone()), &machine);
    println!(
        "\nanalytical picks {} -> {:.1} us; true best {} -> {:.1} us ({:.1}% off optimal)",
        ana_best,
        ana_best_ns / 1000.0,
        true_best.0,
        true_best.1 / 1000.0,
        100.0 * (ana_best_ns / true_best.1 - 1.0)
    );
}
