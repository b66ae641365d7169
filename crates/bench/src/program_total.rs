//! Whole-program runtime prediction (§3.3/§4's premise: "we can compute
//! the program's total runtime by summing the runtimes of its kernel
//! executions"). Trains the learned model on the fusion dataset, then
//! predicts each test program's *total* default-config runtime by summing
//! per-kernel predictions, against the device-measured total.
//!
//! ```text
//! cargo run -p tpu-bench --release -- program_total [--quick]
//! ```

use crate::{corpus, fit_analytical, print_table, Args, Task};
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

    let calibration_device = TpuDevice::with_config(machine.clone(), 99);
    let analytical = fit_analytical(&corpus, &task.split.test, &machine, &calibration_device);
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
            match analytical.predict_kernel_ns(k) {
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
    let (med_gnn, med_ana) = (median(&ape_gnn), median(&ape_ana));
    rows.push(vec![
        "Median APE".into(),
        String::new(),
        format!("{med_gnn:.1}%"),
        format!("{med_ana:.1}%"),
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
    println!("\n{}", verdict(med_gnn, med_ana));
}

/// The conclusion the median APEs of the two models support, with the gap
/// taken between the medians as the table prints them (one decimal).
fn verdict(learned: f64, analytical: f64) -> String {
    let tenths = |x: f64| (x * 10.0).round();
    let gap = (tenths(learned) - tenths(analytical)).abs() / 10.0;
    if gap == 0.0 {
        return format!(
            "Summed over kernels (§4), the two models tie on whole programs: median APE {learned:.1}%."
        );
    }
    let (ahead, behind, best, worst) = if learned < analytical {
        ("learned", "analytical", learned, analytical)
    } else {
        ("analytical", "learned", analytical, learned)
    };
    format!(
        "Summed over kernels (§4), the {ahead} model is ahead on whole programs: median APE\n\
         {best:.1}% against {worst:.1}% for the {behind} model, {gap:.1} points lower."
    )
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn the_verdict_names_the_model_with_the_lower_median() {
        let v = verdict(96.9, 25.0);
        assert!(v.contains("the analytical model is ahead"), "{v}");
        assert!(
            v.contains("25.0% against 96.9% for the learned model, 71.9 points"),
            "{v}"
        );
        assert!(verdict(9.9, 11.9).contains("the learned model is ahead"));
        assert!(verdict(96.95, 24.99).contains("97.0% for the learned model, 72.0 points"));
        assert!(verdict(10.0, 10.04).contains("tie"));
    }
}
