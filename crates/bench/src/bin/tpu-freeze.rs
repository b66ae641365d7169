//! Freeze a trained cost model into a `tpu-frozen.v2` blob.
//!
//! The bridge between the training stack and the frozen serving path:
//! trains a model in-process, freezes it
//! ([`tpu_infer::freeze_gnn`] / [`tpu_infer::freeze_lstm`]), verifies the
//! frozen forward *is* its tape source — every probe prediction
//! bit-identical to the tape's, or no blob is written — and writes the
//! blob that `tpu-serve --model frozen --bundle <blob>` loads.
//!
//! ```text
//! cargo run -p tpu-bench --release --bin tpu-freeze -- \
//!     [--quick] [--lstm] [--out PATH]
//! ```
//!
//! The model is trained on the fusion dataset (`--quick` for the small
//! corpus, `--lstm` for the LSTM baseline instead of the GNN) and probed
//! on the dataset's own kernels. Any other argument, or `--out` given last
//! without its path, is a usage error (exit code 2).

use std::process::ExitCode;
use tpu_bench::{corpus, Scale, Task};
use tpu_dataset::build_fusion_dataset;
use tpu_hlo::Kernel;
use tpu_infer::{freeze_gnn, freeze_lstm, FrozenModel};
use tpu_learned_cost::{
    forward_log_ns, train, CostModel, GnnModel, KernelModel, LstmModel, Prepared,
};

const USAGE: &str = "usage: tpu-freeze [--quick] [--lstm] [--out PATH]";

fn die(msg: &str) -> ! {
    eprintln!("tpu-freeze: {msg}");
    std::process::exit(2);
}

/// The tape's predictions (ns) of `probes`: one packed forward, as in
/// training.
fn tape_ns<M: KernelModel>(model: &M, probes: &[Kernel]) -> Vec<f64> {
    let prepared: Vec<Prepared> = probes.iter().map(Prepared::from_kernel).collect();
    let refs: Vec<&Prepared> = prepared.iter().collect();
    forward_log_ns(model, &refs)
        .into_iter()
        .map(f64::exp)
        .collect()
}

/// Train a model on the fusion dataset and freeze it: the trained model's
/// name, its frozen copy, the dataset's kernels (the probe set: real
/// serving traffic, not generators) and the tape's predictions of them.
fn train_and_freeze(scale: Scale, lstm: bool) -> (String, FrozenModel, Vec<Kernel>, Vec<f64>) {
    let corpus = corpus(scale);
    let dataset = build_fusion_dataset(&corpus, &scale.fusion_cfg());
    let task = Task::new(&corpus, &dataset, corpus.random_split(0), (2_000, 500));
    println!(
        "training on {} kernels ({} validation)",
        task.train.len(),
        task.val.len()
    );
    let probes: Vec<Kernel> = dataset
        .examples
        .iter()
        .take(64)
        .map(|e| e.kernel.clone())
        .collect();
    if lstm {
        let mut model = LstmModel::new(scale.lstm_cfg());
        let report = train(&mut model, &task.train, &task.val, &scale.train_cfg());
        println!("trained LSTM: best val metric {:.4}", report.best_val);
        let frozen = freeze_lstm(&model, &[]).unwrap_or_else(|e| die(&format!("freeze: {e}")));
        let tape = tape_ns(&model, &probes);
        (model.name().into(), FrozenModel::Lstm(frozen), probes, tape)
    } else {
        let mut model = GnnModel::new(scale.gnn_cfg());
        let report = train(&mut model, &task.train, &task.val, &scale.train_cfg());
        println!("trained GNN: best val metric {:.4}", report.best_val);
        let frozen = freeze_gnn(&model, &[]).unwrap_or_else(|e| die(&format!("freeze: {e}")));
        let tape = tape_ns(&model, &probes);
        (model.name().into(), FrozenModel::Gnn(frozen), probes, tape)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let mut out = "frozen.blob".to_string();
    let (mut scale, mut lstm) = (Scale::Full, false);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--lstm" => lstm = true,
            "--out" => match args.next() {
                Some(path) => out = path.clone(),
                None => die(&format!("--out requires a value\n{USAGE}")),
            },
            other => die(&format!("unknown argument {other:?}\n{USAGE}")),
        }
    }

    let (trained, frozen, probes, tape_ns) = train_and_freeze(scale, lstm);

    // The frozen model runs the trained model's own forward without a
    // tape, every op's arithmetic shared with the tape's: any difference
    // at all means the two are not the same model.
    for (i, (k, &tape)) in probes.iter().zip(&tape_ns).enumerate() {
        let got = frozen.predict_kernel_ns(k).expect("frozen scores kernel");
        if got.to_bits() != tape.to_bits() {
            eprintln!(
                "tpu-freeze: probe kernel {i}: frozen {got} ns vs tape {tape} ns, \
                 not bit-identical; no blob written"
            );
            return ExitCode::FAILURE;
        }
    }

    let bytes = frozen.to_bytes();
    std::fs::write(&out, &bytes).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
    println!(
        "froze {} -> {} ({} bytes, backend {}, {} probe predictions bit-identical to the tape)",
        trained,
        out,
        bytes.len(),
        frozen.name(),
        probes.len()
    );
    ExitCode::SUCCESS
}
