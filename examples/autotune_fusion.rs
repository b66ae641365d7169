//! Autotune the fusion configuration of a ResNet block under a limited
//! hardware budget, with and without a cost model in the loop — a
//! miniature of §6.3 / Figure 4.
//!
//! The "model" here is the simulator oracle, the upper bound on what a
//! learned model can deliver; the fig4 binary runs the real trained model.
//!
//! ```text
//! cargo run --release --example autotune_fusion
//! ```

use std::sync::Arc;
use tpu_repro::autotuner::{
    autotune_hardware_only, autotune_with_cost_model, speedup_over_default, Budgets, StartMode,
};
use tpu_repro::dataset::models;
use tpu_repro::fusion::default_space_and_config;
use tpu_repro::learned::{AtomicCache, SimOracle};
use tpu_repro::sim::{TpuConfig, TpuDevice};

fn main() {
    let program = models::resnet_v1("resnet_tune", 4, 14, 32, 3);
    let (space, _) = default_space_and_config(&program.computation);
    println!(
        "program `{}`: {} ops, {} fusible edges (2^{} configurations)",
        program.name,
        program.num_nodes(),
        space.num_edges(),
        space.num_edges()
    );

    let machine = TpuConfig::default();
    let device = TpuDevice::with_config(machine.clone(), 7);
    let budgets = Budgets {
        hardware_ns: 60e9,  // one minute of device time
        model_steps: 1_500, // CPU-side search steps, shared across chains
        top_k: 12,
        chains: 4, // parallel annealing chains, batched per step
    };

    let oracle = SimOracle::new(machine);

    for mode in [StartMode::Default, StartMode::Random] {
        println!("\n--- starting from {mode:?} configuration ---");

        let hw = autotune_hardware_only(&program, &device, mode, budgets.hardware_ns, 1);
        println!(
            "hardware-only:   {:>6.2} ms after {} hardware evals (speedup {:.3}x)",
            hw.true_ns / 1e6,
            hw.hw_evals,
            speedup_over_default(&program, &device, &hw)
        );

        // A fresh prediction cache per run.
        let cache = Arc::new(AtomicCache::serving_default());
        let tuned = autotune_with_cost_model(&program, &device, &oracle, &cache, mode, &budgets, 1);
        println!(
            "with cost model: {:>6.2} ms after {} hardware evals (speedup {:.3}x)",
            tuned.true_ns / 1e6,
            tuned.hw_evals,
            speedup_over_default(&program, &device, &tuned)
        );
    }

    println!("\nThe model-guided search explores thousands of configurations on the CPU");
    println!("and spends its scarce hardware budget only on the most promising ones.");
}
