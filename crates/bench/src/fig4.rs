//! Regenerates **Figure 4**: runtime speedup found by autotuning with and
//! without the learned performance model, over the default heuristic
//! configuration, starting from (a) the default config and (b) a random
//! config.
//!
//! Protocol (§6.3): the baseline autotuner evaluates configs on hardware
//! only, within a 5-minute device budget. The model-guided autotuner runs
//! simulated annealing against the learned model on the CPU, then measures
//! its top-ranked configs on hardware within the same budget. "Best known"
//! is the best configuration any run of this program found — a long
//! (paper: 4-hour) hardware-only run and every budgeted run beside it.
//! Each program is autotuned several times and the best speedup is
//! reported.
//!
//! ```text
//! cargo run -p tpu-bench --release -- fig4 [default|random] [--quick] [--report <path>]
//! ```

use crate::{corpus, print_table, rows_with_summary, train_checkpointed, Args, Scale, Task};
use std::sync::Arc;
use tpu_autotuner::{
    autotune_hardware_only, autotune_with_cost_model, Budgets, StartMode, TunedConfig,
};
use tpu_fusion::{apply_fusion, default_space_and_config};
use tpu_hlo::Program;
use tpu_learned_cost::metrics::mean;
use tpu_learned_cost::{AtomicCache, CostModel, GnnModel};
use tpu_sim::{TpuConfig, TpuDevice};

/// Programs autotuned in Figure 4: "a set of programs that gain
/// significant speedup from autotuning according to our prior data",
/// including some training-set programs (Transformer, Char2Feats,
/// ResNet-parallel).
const FIG4_PROGRAMS: [&str; 8] = [
    "ResNet v1",
    "ResNet v2",
    "Translate",
    "Transformer",
    "Char2Feats",
    "ResNet-parallel",
    "WaveRNN",
    "NMT Model",
];

struct ProgramRow {
    name: String,
    /// Best speedup over the default configuration: hardware only, hardware
    /// and learned model, best known.
    speedups: [f64; 3],
    model_evals: u64,
    cache_hits: u64,
}

fn best_speedup(program: &Program, device: &TpuDevice, runs: &[TunedConfig]) -> f64 {
    let (space, default_cfg) = default_space_and_config(&program.computation);
    let default_ns = device.true_program_time(&apply_fusion(program, &space, &default_cfg));
    runs.iter()
        .map(|t| default_ns / t.true_ns)
        .fold(0.0f64, f64::max)
}

/// Run the experiment.
pub fn run(args: &Args) {
    let (scale, mode) = (args.scale, args.start);
    let registry = &args.registry;
    println!(
        "Figure 4{} reproduction (scale: {scale:?}, start: {mode:?})",
        if mode == StartMode::Random { "b" } else { "a" }
    );

    let machine = TpuConfig::default();
    let corpus = corpus(scale);

    // Train the learned model on the fusion dataset (the "best learned
    // performance model from Section 6.1").
    let task = Task::random_fusion(&corpus, args, &machine);
    let mut gnn = GnnModel::new(scale.gnn_cfg());
    let t0 = std::time::Instant::now();
    let tcfg = scale.train_cfg();
    let rep = train_checkpointed(&mut gnn, &task.train, &task.val, &tcfg, registry, None);
    println!(
        "learned model trained: best val MAPE {:.1}% [{:?}]",
        rep.best_val,
        t0.elapsed()
    );

    // `long_run_ns`: hardware time of the long reference run (paper: 4 h).
    let (reps, long_run_ns, budgets) = match scale {
        Scale::Quick => (
            3usize,
            600e9,
            Budgets {
                hardware_ns: 60e9,
                model_steps: 500,
                top_k: 10,
                chains: 4,
            },
        ),
        Scale::Full => (
            10usize,
            7_200e9,
            Budgets {
                hardware_ns: 300e9,
                model_steps: 2_500,
                top_k: 16,
                chains: 4,
            },
        ),
    };

    let targets: Vec<usize> = FIG4_PROGRAMS
        .iter()
        .filter_map(|n| corpus.index_of(n))
        .filter(|&i| corpus.entries[i].program.num_nodes() <= tpu_dataset::FUSION_NODE_LIMIT)
        .collect();

    let rows: Vec<ProgramRow> = targets
        .iter()
        .map(|&pi| {
            let program = &corpus.entries[pi].program;
            // The observed device carries the report's registry into every
            // run below.
            let device =
                TpuDevice::with_config(machine.clone(), 1000 + pi as u64).observed(registry);

            let long_run =
                autotune_hardware_only(program, &device, StartMode::Default, long_run_ns, 999);

            // One prediction cache per program, shared across repetitions:
            // later repetitions revisit mostly-cached kernels.
            let cache = Arc::new(AtomicCache::serving_default());
            let mut hw_runs = Vec::new();
            let mut model_runs = Vec::new();
            for rep_i in 0..reps {
                let seed = rep_i as u64;
                hw_runs.push(autotune_hardware_only(
                    program,
                    &device,
                    mode,
                    budgets.hardware_ns,
                    seed,
                ));
                model_runs.push(autotune_with_cost_model(
                    program, &device, &gnn, &cache, mode, &budgets, seed,
                ));
            }
            let hw_only = best_speedup(program, &device, &hw_runs);
            let with_model = best_speedup(program, &device, &model_runs);
            // Best known is the best anything found: the long run and every
            // budgeted run, so it can never sit below a column beside it.
            let best_known = best_speedup(program, &device, &[long_run])
                .max(hw_only)
                .max(with_model);
            ProgramRow {
                name: program.name.clone(),
                speedups: [hw_only, with_model, best_known],
                model_evals: model_runs.iter().map(|r| r.model_evals).sum(),
                cache_hits: model_runs.iter().map(|r| r.cache_hits).sum(),
            }
        })
        .collect();

    let speedups: Vec<(String, [f64; 3])> =
        rows.iter().map(|r| (r.name.clone(), r.speedups)).collect();
    let (all, [m_hw, m_model, m_best]) =
        rows_with_summary(&speedups, "Mean", mean, |_, speedup| {
            format!("{speedup:.3}x")
        });
    let title = match mode {
        StartMode::Default => "Figure 4a: autotuning from the default configuration",
        StartMode::Random => "Figure 4b: autotuning from a random configuration",
    };
    print_table(
        title,
        &[
            "Program",
            "Hardware only",
            "Hardware + learned model",
            "Best known (any run)",
        ],
        &all,
    );

    let (total_hits, total_evals): (u64, u64) = rows
        .iter()
        .fold((0, 0), |(h, e), r| (h + r.cache_hits, e + r.model_evals));
    println!(
        "\nPrediction cache: {} fresh model evals, {} cached lookups ({:.1}% hit rate)",
        total_evals,
        total_hits,
        100.0 * total_hits as f64 / (total_hits + total_evals).max(1) as f64
    );

    println!("\nPaper: (a) model-assisted configs average ~2% faster than hardware-only and");
    println!("~1% below best-known; (b) from a random start the model advantage grows to ~8%.");
    println!("\nShape checks:");
    println!(
        "  model >= hardware-only on average: {:.3} vs {:.3} ({})",
        m_model,
        m_hw,
        if m_model >= m_hw - 0.005 {
            "OK"
        } else {
            "MISS"
        }
    );
    println!(
        "  best-known >= model: {:.3} vs {:.3} ({})",
        m_best,
        m_model,
        if m_best >= m_model - 0.01 {
            "OK"
        } else {
            "MISS"
        }
    );

    let context = [
        ("start_mode", format!("{mode:?}")),
        ("programs", rows.len().to_string()),
        ("reps", reps.to_string()),
        ("core.engine.backend", CostModel::name(&gnn).to_string()),
    ];
    args.write_report(&context);
}
