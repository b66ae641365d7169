//! Ablation study over the design choices the paper tunes by
//! hyperparameter search (§4.1–4.2): GraphSAGE hop count, neighborhood
//! reduction, kernel-pooling combination, and the rank-loss φ; plus the
//! GNN-vs-LSTM representation comparison at equal budget.
//!
//! ```text
//! cargo run -p tpu-bench --release -- ablations [--quick]
//! ```

use crate::{corpus, print_table, Args, Scale, Task};
use tpu_autotuner::{hill_climb, random_search, simulated_annealing, SaConfig};
use tpu_dataset::build_tile_dataset;
use tpu_fusion::apply_fusion;
use tpu_learned_cost::{
    train, GnnArch, GnnConfig, GnnModel, LstmModel, PoolCombo, Reduction, TaskLoss, TrainConfig,
};
use tpu_nn::RankPhi;
use tpu_sim::TpuConfig;

/// Run the experiment.
pub fn run(args: &Args) {
    let scale = args.scale;
    println!("Ablations (scale: {scale:?})");
    let machine = TpuConfig::default();
    let corpus = corpus(scale);

    // --- Fusion-task ablations (metric: val MAPE, lower is better) ---
    let fusion = Task::random_fusion(&corpus, args, &machine);
    let tcfg = TrainConfig {
        epochs: scale.train_cfg().epochs.min(15),
        ..scale.train_cfg()
    };

    let mut rows = Vec::new();
    // Each GNN variant is the scale's configuration with one choice changed.
    let mut gnn_row = |label: String, ablate: &dyn Fn(&mut GnnConfig)| {
        let mut cfg = scale.gnn_cfg();
        ablate(&mut cfg);
        let rep = train(&mut GnnModel::new(cfg), &fusion.train, &fusion.val, &tcfg);
        rows.push(vec![label, format!("{:.1}", rep.best_val)]);
    };
    // Hop count (k of Eq. 1). k = 0 degenerates to a DeepSets-style model.
    for hops in [0usize, 1, 2, 3] {
        gnn_row(format!("hops={hops}"), &|cfg| cfg.hops = hops);
    }
    // Neighborhood reduction.
    for reduction in [Reduction::Sum, Reduction::Mean, Reduction::Max] {
        gnn_row(format!("reduction={reduction:?}"), &|cfg| {
            cfg.reduction = reduction
        });
    }
    // Pooling combination.
    for (label, pooling) in [
        (
            "pool=sum",
            PoolCombo {
                sum: true,
                mean: false,
                max: false,
            },
        ),
        (
            "pool=mean",
            PoolCombo {
                sum: false,
                mean: true,
                max: false,
            },
        ),
        (
            "pool=max",
            PoolCombo {
                sum: false,
                mean: false,
                max: true,
            },
        ),
        ("pool=all", PoolCombo::all()),
    ] {
        gnn_row(label.to_string(), &|cfg| cfg.pooling = pooling);
    }
    // Message-passing architecture: GraphSAGE vs a GCN-style mean-field.
    gnn_row("arch=gcn-mean".to_string(), &|cfg| {
        cfg.arch = GnnArch::GcnMean
    });
    // Representation: GNN vs LSTM at the same budget.
    {
        let mut m = LstmModel::new(scale.lstm_cfg());
        let rep = train(&mut m, &fusion.train, &fusion.val, &tcfg);
        rows.push(vec!["model=lstm".into(), format!("{:.1}", rep.best_val)]);
    }
    print_table(
        "Fusion-task ablations (validation MAPE %, lower is better)",
        &["Variant", "Val MAPE"],
        &rows,
    );

    // --- Tile-task ablation: phi of the rank loss (Eq. 2) ---
    let tile_dataset = build_tile_dataset(&corpus, &scale.tile_cfg());
    let tile = Task::tile(&corpus, &tile_dataset, corpus.random_split(0), args.caps());
    let mut rows = Vec::new();
    for (label, loss) in [
        ("phi=hinge", TaskLoss::TileRank(RankPhi::Hinge)),
        ("phi=logistic", TaskLoss::TileRank(RankPhi::Logistic)),
        ("loss=weighted-mse", TaskLoss::TileMse),
    ] {
        let mut m = GnnModel::new(scale.gnn_cfg());
        let cfg = TrainConfig {
            loss,
            ..tcfg.clone()
        };
        let rep = train(&mut m, &tile.train, &tile.val, &cfg);
        rows.push(vec![label.to_string(), format!("{:.3}", rep.best_val)]);
    }
    print_table(
        "Tile-task ablations (validation mean per-kernel tau, higher is better)",
        &["Variant", "Val tau"],
        &rows,
    );

    // --- Search-strategy ablation: SA vs hill climbing vs random search
    // under an identical evaluation budget with the oracle objective.
    let steps = match scale {
        Scale::Quick => 400,
        Scale::Full => 2_000,
    };
    let mut rows = Vec::new();
    for name in ["WaveRNN", "NMT Model", "Transformer", "ResNet v1"] {
        let Some(pi) = corpus.index_of(name) else {
            continue;
        };
        let program = &corpus.entries[pi].program;
        if program.num_nodes() > tpu_dataset::FUSION_NODE_LIMIT {
            continue;
        }
        let (space, default_cfg) = tpu_fusion::default_space_and_config(&program.computation);
        let objective = |cfg: &tpu_fusion::FusionConfig| -> f64 {
            apply_fusion(program, &space, cfg)
                .kernels
                .iter()
                .map(|k| tpu_sim::kernel_time_ns(k, &machine))
                .sum()
        };
        let base = objective(&default_cfg);
        let sa = simulated_annealing(
            &space,
            default_cfg.clone(),
            objective,
            &SaConfig {
                steps,
                seed: 3,
                ..Default::default()
            },
        );
        let hc = hill_climb(&space, default_cfg.clone(), objective, steps, 3);
        let rs = random_search(&space, default_cfg.clone(), objective, steps, 3);
        rows.push(vec![
            name.to_string(),
            format!("{:.3}x", base / sa.best_cost),
            format!("{:.3}x", base / hc.best_cost),
            format!("{:.3}x", base / rs.best_cost),
        ]);
    }
    print_table(
        "Search-strategy ablation (speedup over default at equal budget)",
        &[
            "Program",
            "Simulated annealing",
            "Hill climbing",
            "Random search",
        ],
        &rows,
    );
}
