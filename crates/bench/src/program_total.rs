//! Whole-program runtime prediction (§3.3/§4's premise: "we can compute
//! the program's total runtime by summing the runtimes of its kernel
//! executions"). Trains the learned model on the fusion dataset, then
//! predicts each test program's *total* default-config runtime by summing
//! per-kernel predictions, against the device-measured total.
//!
//! ```text
//! cargo run -p tpu-bench --release -- program_total [--quick]
//! ```

use crate::{corpus, print_table, Args, CalibratedAnalytical, Task};
use tpu_fusion::{apply_fusion, default_space_and_config};
use tpu_learned_cost::metrics::{mape, median};
use tpu_learned_cost::{train, CostModel, GnnModel};
use tpu_sim::{TpuConfig, TpuDevice};

/// Run the experiment.
pub fn run(args: &Args) {
    let scale = args.scale;
    println!("Program-total runtime prediction (scale: {scale:?})");
    let machine = TpuConfig::default();
    let corpus = corpus(scale);
    let task = Task::random_fusion(&corpus, args, &machine);
    let mut gnn = GnnModel::new(scale.gnn_cfg());
    let rep = train(&mut gnn, &task.train, &task.val, &scale.train_cfg());
    println!("learned model: best val MAPE {:.1}%", rep.best_val);

    let analytical = CalibratedAnalytical::fit(&corpus, &task.split.test, &machine);
    let device = TpuDevice::with_config(machine.clone(), 77);

    let mut rows = Vec::new();
    let mut ape_gnn = Vec::new();
    let mut ape_ana = Vec::new();
    for &pi in &task.split.test {
        let program = &corpus.entries[pi].program;
        let (space, cfg) = default_space_and_config(&program.computation);
        let fused = apply_fusion(program, &space, &cfg);

        let actual = device.measure_program(&fused, 3);
        let predicted = gnn
            .predict_program_ns(&fused)
            .expect("gnn scores all kernels");
        // Analytical: skip unsupported kernels (biases it optimistic).
        let mut ana = 0.0;
        let mut unsupported = 0usize;
        for k in &fused.kernels {
            match analytical.predict_ns(k) {
                Some(v) => ana += v,
                None => unsupported += 1,
            }
        }
        let g = mape(&[predicted], &[actual]);
        let a = mape(&[ana], &[actual]);
        ape_gnn.push(g);
        ape_ana.push(a);
        rows.push(vec![
            program.name.clone(),
            format!("{:.2}", actual / 1e6),
            format!("{:.2} ({g:.0}%)", predicted / 1e6),
            format!("{:.2} ({a:.0}%, {unsupported} skipped)", ana / 1e6),
        ]);
    }
    rows.push(vec![
        "Median APE".into(),
        String::new(),
        format!("{:.1}%", median(&ape_gnn)),
        format!("{:.1}%", median(&ape_ana)),
    ]);
    print_table(
        "Whole-program totals: measured vs predicted (default config, ms)",
        &[
            "Program",
            "Measured",
            "Learned (sum of kernels)",
            "Analytical (calibrated)",
        ],
        &rows,
    );
    println!("\nThe kernel-sum decomposition (§4) transfers kernel-level accuracy to whole");
    println!("programs; the learned model needs no per-kernel-type scaling to do so.");
}
