//! Freeze a trained cost model into a `tpu-frozen.v2` blob.
//!
//! The bridge between the training stack and the frozen serving path:
//! either trains a model in-process or loads a JSON bundle, freezes it
//! ([`tpu_infer::freeze_gnn`] / [`tpu_infer::freeze_lstm`]), verifies the
//! frozen forward *is* its tape source — every probe prediction within
//! [`MAX_LOG_DRIFT`] log-ns, or no blob is written — and writes the blob
//! that `tpu-serve --model frozen --bundle <blob>` loads.
//!
//! ```text
//! cargo run -p tpu-bench --release --bin tpu-freeze -- \
//!     [--quick] [--lstm] [--bundle PATH] [--out PATH]
//! ```
//!
//! With `--bundle PATH` the JSON bundle at `PATH` (from `save_gnn` /
//! `save_lstm`) is frozen directly; otherwise a model is trained on the
//! fusion dataset first (`--quick` for the small corpus, `--lstm` for
//! the LSTM baseline instead of the GNN). The probe kernels are the
//! dataset's own, or the generator kernels when freezing from a bundle.

use std::process::ExitCode;
use tpu_bench::{corpus, fusion_train_val, Scale};
use tpu_dataset::build_fusion_dataset;
use tpu_hlo::Kernel;
use tpu_infer::{freeze_gnn, freeze_lstm, probe_kernels, FrozenModel};
use tpu_learned_cost::{load_gnn, load_lstm, train, CostModel, GnnModel, LstmModel};

/// Largest |frozen − tape| log-ns difference a freeze may show on its
/// probe kernels. The two run the same f32 arithmetic in different
/// summation orders (about 1e-6 apart on a `--quick` model); past this
/// they are not the same model.
const MAX_LOG_DRIFT: f64 = 1e-4;

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn die(msg: &str) -> ! {
    eprintln!("tpu-freeze: {msg}");
    std::process::exit(2);
}

/// Train a model on the fusion dataset and return it with the dataset's
/// kernels (the probe set: real serving traffic, not generators).
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
    let probes: Vec<Kernel> = dataset
        .examples
        .iter()
        .take(64)
        .map(|e| e.kernel.clone())
        .collect();
    if lstm {
        let mut model = LstmModel::new(scale.lstm_cfg());
        let report = train(&mut model, &train_prep, &val_prep, &scale.train_cfg());
        println!("trained LSTM: best val metric {:.4}", report.best_val);
        (FrozenTrained::Lstm(model), probes)
    } else {
        let mut model = GnnModel::new(scale.gnn_cfg());
        let report = train(&mut model, &train_prep, &val_prep, &scale.train_cfg());
        println!("trained GNN: best val metric {:.4}", report.best_val);
        (FrozenTrained::Gnn(model), probes)
    }
}

enum FrozenTrained {
    Gnn(GnnModel),
    Lstm(LstmModel),
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: tpu-freeze [--quick] [--lstm] [--bundle PATH] [--out PATH]");
        return ExitCode::SUCCESS;
    }
    let out = arg_value("--out").unwrap_or_else(|| "frozen.blob".to_string());
    let lstm = args.iter().any(|a| a == "--lstm");

    let (trained, probes) = match arg_value("--bundle") {
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
            (trained, probe_kernels(32))
        }
        None => train_source(Scale::from_args(), lstm),
    };

    let (frozen, source_name): (FrozenModel, &str) = match &trained {
        FrozenTrained::Gnn(m) => (
            freeze_gnn(m, &[])
                .map(FrozenModel::Gnn)
                .unwrap_or_else(|e| die(&format!("freeze: {e}"))),
            "learned-gnn",
        ),
        FrozenTrained::Lstm(m) => (
            freeze_lstm(m, &[])
                .map(FrozenModel::Lstm)
                .unwrap_or_else(|e| die(&format!("freeze: {e}"))),
            "lstm-baseline",
        ),
    };

    let mut drift = 0.0f64;
    for (i, k) in probes.iter().enumerate() {
        let tape = match &trained {
            FrozenTrained::Gnn(m) => m.predict_kernel_ns(k),
            FrozenTrained::Lstm(m) => m.predict_kernel_ns(k),
        };
        let tape = tape.expect("tape scores kernel").ln();
        let got = frozen.predict_kernel_ns(k).expect("frozen scores kernel").ln();
        let d = (got - tape).abs();
        if d.is_nan() || d > MAX_LOG_DRIFT {
            eprintln!(
                "tpu-freeze: probe kernel {i}: frozen {got} vs tape {tape} log-ns, \
                 apart by more than {MAX_LOG_DRIFT:e}; no blob written"
            );
            return ExitCode::FAILURE;
        }
        drift = drift.max(d);
    }

    let bytes = frozen.to_bytes();
    std::fs::write(&out, &bytes).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
    println!(
        "froze {source_name} -> {} ({} bytes, backend {}, max |frozen - tape| {drift:.1e} log-ns)",
        out,
        bytes.len(),
        frozen.name()
    );
    ExitCode::SUCCESS
}
