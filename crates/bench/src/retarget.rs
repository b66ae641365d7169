//! Retargeting experiment (beyond the paper's tables; motivated by its
//! conclusion): when the hardware changes — here TPU-v2-like → TPU-v3-like
//! — the learned model adapts by *retraining on new measurements*, while
//! the hand-written analytical model, whose constants encode the old
//! machine, silently degrades. "While the learned cost model is less
//! accurate, it requires much less effort to develop."
//!
//! ```text
//! cargo run -p tpu-bench --release -- retarget [--quick]
//! ```

use crate::{corpus, fit_analytical, print_table, Args, Task};
use tpu_dataset::Corpus;
use tpu_learned_cost::metrics::Scorecard;
use tpu_learned_cost::{predict_log_ns, prepare, train, CostModel, GnnModel};
use tpu_sim::{TpuConfig, TpuDevice};

/// The median test MAPE on `machine` of the retrained learned model, the
/// re-tuned analytical model and the stale one built for `stale_machine`.
fn run_target(
    args: &Args,
    corpus: &Corpus,
    machine: &TpuConfig,
    stale_machine: &TpuConfig,
) -> [f64; 3] {
    let task = Task::random_fusion(corpus, args, machine);

    // Retrain the learned model on the new machine's measurements — the
    // only "porting" work it needs.
    let mut gnn = GnnModel::new(args.scale.gnn_cfg());
    train(&mut gnn, &task.train, &task.val, &args.scale.train_cfg());

    // The analytical model properly re-tuned for the machine, and a stale
    // one still carrying the previous machine's constants. Either way its
    // calibration coefficients are fit against the real target hardware
    // (calibration is cheap; re-deriving the model is not).
    let analytical_for = |model_machine: &TpuConfig| {
        let device = TpuDevice::with_config(machine.clone(), 99);
        fit_analytical(corpus, &task.split.test, model_machine, &device)
    };
    let fresh = analytical_for(machine);
    let stale = analytical_for(stale_machine);

    // One group per test program. The learned model scores every kernel;
    // the two analytical models share one card, so both are scored on the
    // kernels they can both predict.
    let mut learned = Vec::new();
    let mut analytical = Vec::new();
    for (program, (_, samples)) in task.test_by_program(5_000.0).into_iter().enumerate() {
        let prepared = prepare(&samples);
        for (sample, log_ns) in samples.iter().zip(predict_log_ns(&gnn, &prepared)) {
            let (kernel, target) = (&sample.kernel, sample.runtime_ns);
            learned.push((program, target, [Some(log_ns.exp())]));
            let pair = [&fresh, &stale].map(|model| model.predict_kernel_ns(kernel));
            analytical.push((program, target, pair));
        }
    }
    let learned: Scorecard<1> = learned.into_iter().collect();
    let analytical: Scorecard<2> = analytical.into_iter().collect();

    let [fresh, stale] = analytical.median.mape;
    [learned.median.mape[0], fresh, stale]
}

/// Run the experiment.
pub fn run(args: &Args) {
    let scale = args.scale;
    println!("Retargeting experiment (scale: {scale:?})");
    let corpus = corpus(scale);
    let v2 = TpuConfig::default();
    let v3 = TpuConfig::v3_like();

    println!("\ntarget = TPU-v2-like (both models built for it):");
    let on_v2 = run_target(args, &corpus, &v2, &v2);
    println!("\ntarget = TPU-v3-like (learned retrains; stale analytical keeps v2 constants):");
    let on_v3 = run_target(args, &corpus, &v3, &v2);

    let row = |target: &str, mapes: [f64; 3]| {
        let cells = mapes.map(|v| format!("{v:.1}"));
        std::iter::once(target.to_string()).chain(cells).collect()
    };
    print_table(
        "Retargeting: median test MAPE (>=5us kernels)",
        &[
            "Target",
            "Learned (retrained)",
            "Analytical (re-tuned)",
            "Analytical (stale)",
        ],
        &[row("TPU-v2-like", on_v2), row("TPU-v3-like", on_v3)],
    );
    let [learned, _, stale] = on_v3;
    println!("\nShape check: on the new target, the retrained learned model should beat the");
    println!(
        "stale analytical model: {learned:.1} vs {stale:.1} ({})",
        if learned <= stale { "OK" } else { "MISS" }
    );
}
