//! Freeze a trained cost model into a `tpu-frozen.v1` int16 blob.
//!
//! The bridge between the training stack and the frozen serving path:
//! either trains a model in-process or loads a JSON bundle, runs
//! post-training quantization ([`tpu_infer::freeze_gnn`] /
//! [`tpu_infer::freeze_lstm`]), verifies the quantized model still ranks
//! like its f32 source, and writes the blob that
//! `tpu-serve --model frozen --bundle <blob>` loads.
//!
//! ```text
//! cargo run -p tpu-bench --release --bin tpu-quantize -- \
//!     [--quick] [--lstm] [--bundle PATH] [--out PATH]
//! ```
//!
//! With `--bundle PATH` the JSON bundle at `PATH` (from `save_gnn` /
//! `save_lstm`) is frozen directly; otherwise a model is trained on the
//! fusion dataset first (`--quick` for the small corpus, `--lstm` for
//! the LSTM baseline instead of the GNN). The dataset's own kernels are
//! used for activation-scale calibration, falling back to the generator
//! kernels when freezing from a bundle.

use std::process::ExitCode;
use tpu_bench::{corpus, fusion_train_val, Scale};
use tpu_dataset::build_fusion_dataset;
use tpu_hlo::Kernel;
use tpu_infer::{calibration_kernels, freeze_gnn, freeze_lstm, FrozenModel};
use tpu_learned_cost::metrics::kendall_tau;
use tpu_learned_cost::{load_gnn, load_lstm, train, CostModel, GnnModel, LstmModel};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn die(msg: &str) -> ! {
    eprintln!("tpu-quantize: {msg}");
    std::process::exit(2);
}

/// Train a model on the fusion dataset and return it with the dataset's
/// kernels (the calibration set: real serving traffic, not generators).
fn train_source(scale: Scale, lstm: bool) -> (FrozenTrained, Vec<Kernel>) {
    let corpus = corpus(scale);
    let dataset = build_fusion_dataset(&corpus, &scale.fusion_cfg());
    let split = corpus.random_split(0);
    let (train_prep, val_prep) = fusion_train_val(&dataset, &split, 2_000, 500);
    println!(
        "training on {} kernels ({} validation)",
        train_prep.len(),
        val_prep.len()
    );
    let calib: Vec<Kernel> = dataset
        .examples
        .iter()
        .take(64)
        .map(|e| e.kernel.clone())
        .collect();
    if lstm {
        let mut model = LstmModel::new(scale.lstm_cfg());
        let report = train(&mut model, &train_prep, &val_prep, &scale.train_cfg());
        println!("trained LSTM: best val metric {:.4}", report.best_val);
        (FrozenTrained::Lstm(model), calib)
    } else {
        let mut model = GnnModel::new(scale.gnn_cfg());
        let report = train(&mut model, &train_prep, &val_prep, &scale.train_cfg());
        println!("trained GNN: best val metric {:.4}", report.best_val);
        (FrozenTrained::Gnn(model), calib)
    }
}

enum FrozenTrained {
    Gnn(GnnModel),
    Lstm(LstmModel),
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: tpu-quantize [--quick] [--lstm] [--bundle PATH] [--out PATH]"
        );
        return ExitCode::SUCCESS;
    }
    let out = arg_value("--out").unwrap_or_else(|| "frozen.blob".to_string());
    let lstm = args.iter().any(|a| a == "--lstm");

    let (trained, calib) = match arg_value("--bundle") {
        Some(path) => {
            let json = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| die(&format!("read {path}: {e}")));
            // A bundle is either family; try the GNN schema first.
            let trained = match load_gnn(&json) {
                Ok(m) => FrozenTrained::Gnn(m),
                Err(_) => match load_lstm(&json) {
                    Ok(m) => FrozenTrained::Lstm(m),
                    Err(e) => die(&format!("{path} is neither a GNN nor an LSTM bundle: {e:?}")),
                },
            };
            (trained, calibration_kernels(32))
        }
        None => train_source(Scale::from_args(), lstm),
    };

    let (frozen, source_name): (FrozenModel, &str) = match &trained {
        FrozenTrained::Gnn(m) => (
            freeze_gnn(m, &calib)
                .map(FrozenModel::Gnn)
                .unwrap_or_else(|e| die(&format!("freeze: {e}"))),
            "learned-gnn",
        ),
        FrozenTrained::Lstm(m) => (
            freeze_lstm(m, &calib)
                .map(FrozenModel::Lstm)
                .unwrap_or_else(|e| die(&format!("freeze: {e}"))),
            "lstm-baseline",
        ),
    };

    // Sanity: the quantized model must rank like its f32 source over the
    // calibration set before we let it near a serving loop.
    let f32_log: Vec<f64> = calib
        .iter()
        .map(|k| match &trained {
            FrozenTrained::Gnn(m) => m.predict_kernel_ns(k).expect("scored").ln(),
            FrozenTrained::Lstm(m) => m.predict_kernel_ns(k).expect("scored").ln(),
        })
        .collect();
    let frozen_log: Vec<f64> = calib
        .iter()
        .map(|k| frozen.predict_kernel_ns(k).expect("scored").ln())
        .collect();
    let tau = kendall_tau(&f32_log, &frozen_log);

    let bytes = frozen.to_bytes();
    std::fs::write(&out, &bytes).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
    println!(
        "froze {source_name} -> {} ({} bytes, backend {}, tau vs f32 {tau:.4})",
        out,
        bytes.len(),
        frozen.name()
    );
    if tau < 0.99 {
        eprintln!("tpu-quantize: quantized ranking drifted (tau {tau:.4} < 0.99)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
