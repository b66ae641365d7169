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
use tpu_learned_cost::{train, CostModel, GnnModel, LstmModel};

const USAGE: &str = "usage: tpu-freeze [--quick] [--lstm] [--out PATH]";

fn die(msg: &str) -> ! {
    eprintln!("tpu-freeze: {msg}");
    std::process::exit(2);
}

/// Train a model on the fusion dataset and freeze it: the tape model, its
/// frozen copy, and the dataset's kernels (the probe set: real serving
/// traffic, not generators).
fn train_and_freeze(scale: Scale, lstm: bool) -> (Box<dyn CostModel>, FrozenModel, Vec<Kernel>) {
    let corpus = corpus(scale);
    let dataset = build_fusion_dataset(&corpus, &scale.fusion_cfg());
    let task = Task::fusion(&corpus, &dataset, corpus.random_split(0), (2_000, 500));
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
        (Box::new(model), FrozenModel::Lstm(frozen), probes)
    } else {
        let mut model = GnnModel::new(scale.gnn_cfg());
        let report = train(&mut model, &task.train, &task.val, &scale.train_cfg());
        println!("trained GNN: best val metric {:.4}", report.best_val);
        let frozen = freeze_gnn(&model, &[]).unwrap_or_else(|e| die(&format!("freeze: {e}")));
        (Box::new(model), FrozenModel::Gnn(frozen), probes)
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

    let (trained, frozen, probes) = train_and_freeze(scale, lstm);

    // The frozen forward runs the tape's f32 operations in the tape's
    // order, through the same matmul kernel: any difference at all means
    // the two are not the same model.
    for (i, k) in probes.iter().enumerate() {
        let tape = trained.predict_kernel_ns(k).expect("tape scores kernel");
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
        trained.name(),
        out,
        bytes.len(),
        frozen.name(),
        probes.len()
    );
    ExitCode::SUCCESS
}
