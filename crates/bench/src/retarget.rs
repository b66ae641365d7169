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

use crate::{corpus, predict_ns_prepared, print_table, Args, CalibratedAnalytical, Task};
use tpu_dataset::Corpus;
use tpu_learned_cost::metrics::{mape, median};
use tpu_learned_cost::{prepare, train, GnnModel};
use tpu_sim::TpuConfig;

struct TargetResult {
    learned_mape: f64,
    analytical_mape: f64,
    stale_analytical_mape: f64,
}

fn run_target(
    args: &Args,
    corpus: &Corpus,
    machine: &TpuConfig,
    stale_machine: &TpuConfig,
) -> TargetResult {
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
        CalibratedAnalytical::fit_with_machines(corpus, &task.split.test, model_machine, machine)
    };
    let fresh = analytical_for(machine);
    let stale = analytical_for(stale_machine);

    let mut learned_mapes = Vec::new();
    let mut fresh_mapes = Vec::new();
    let mut stale_mapes = Vec::new();
    for (_, samples) in task.test_by_program(5_000.0) {
        if samples.len() < 2 {
            continue;
        }
        let targets: Vec<f64> = samples.iter().map(|s| s.runtime_ns).collect();
        let learned = predict_ns_prepared(&gnn, &prepare(&samples));
        learned_mapes.push(mape(&learned, &targets));

        let mut f_pred = Vec::new();
        let mut s_pred = Vec::new();
        let mut t_kept = Vec::new();
        for (sample, &t) in samples.iter().zip(&targets) {
            let kernel = &sample.kernel;
            if let (Some(f), Some(s)) = (fresh.predict_ns(kernel), stale.predict_ns(kernel)) {
                f_pred.push(f);
                s_pred.push(s);
                t_kept.push(t);
            }
        }
        if t_kept.len() >= 2 {
            fresh_mapes.push(mape(&f_pred, &t_kept));
            stale_mapes.push(mape(&s_pred, &t_kept));
        }
    }

    TargetResult {
        learned_mape: median(&learned_mapes),
        analytical_mape: median(&fresh_mapes),
        stale_analytical_mape: median(&stale_mapes),
    }
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

    print_table(
        "Retargeting: median test MAPE (>=5us kernels)",
        &[
            "Target",
            "Learned (retrained)",
            "Analytical (re-tuned)",
            "Analytical (stale)",
        ],
        &[
            vec![
                "TPU-v2-like".into(),
                format!("{:.1}", on_v2.learned_mape),
                format!("{:.1}", on_v2.analytical_mape),
                format!("{:.1}", on_v2.stale_analytical_mape),
            ],
            vec![
                "TPU-v3-like".into(),
                format!("{:.1}", on_v3.learned_mape),
                format!("{:.1}", on_v3.analytical_mape),
                format!("{:.1}", on_v3.stale_analytical_mape),
            ],
        ],
    );
    println!("\nShape check: on the new target, the retrained learned model should beat the");
    println!(
        "stale analytical model: {:.1} vs {:.1} ({})",
        on_v3.learned_mape,
        on_v3.stale_analytical_mape,
        if on_v3.learned_mape <= on_v3.stale_analytical_mape {
            "OK"
        } else {
            "MISS"
        }
    );
}
