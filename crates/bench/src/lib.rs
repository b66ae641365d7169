//! Every paper table and figure, and the extensions beside them, as one
//! library of experiments behind one driver. Speed is measured by
//! `tpu-perf` (`benchmark/`), not here.
//!
//! ```text
//! cargo run -p tpu-bench --release -- <experiment> [--quick] [flags]
//! ```
//!
//! - [`table1`] — dataset statistics (Table 1),
//! - [`table2`] — fusion-task accuracy: MAPE and Kendall's τ per test
//!   program for Our Model / LSTM / Analytical (Table 2 + the in-text
//!   <5 µs and manual-split numbers),
//! - [`table3`] — tile-size task: mean per-kernel Kendall's τ for rank-loss
//!   and MSE variants vs. the analytical model (Table 3),
//! - [`fig4`] `[default|random]` — autotuner speedups with and without the
//!   learned model (Figure 4a/4b),
//! - [`ablations`] — hop count / reduction / pooling / φ ablations,
//! - [`tune`] — the §6 hyperparameter sweep and an autotuning demo,
//! - [`retarget`], [`program_total`], [`feature_importance`] — extensions.
//!
//! Each is a module with a `run(&Args)`; [`EXPERIMENTS`] lists them with
//! the flags each reads and its training-set caps, and [`Args::parse`]
//! rejects anything else with [`USAGE`]. Every experiment accepts
//! `--quick` for a reduced-scale smoke run. The crate's other binary,
//! `tpu-freeze`, trains a model and freezes it for `tpu-serve`.

pub mod ablations;
mod args;
pub mod feature_importance;
pub mod fig4;
pub mod program_total;
pub mod retarget;
pub mod table1;
pub mod table2;
pub mod table3;
mod task;
pub mod tune;

pub use args::{Args, Experiment, SearchAlgo, EXPERIMENTS, USAGE};
pub(crate) use task::train_best;
pub use task::Task;

use tpu_analytical::{AnalyticalModel, Calibration};
use tpu_dataset::{Corpus, CorpusScale, FusionDatasetConfig, TileDatasetConfig};
use tpu_hlo::Kernel;
use tpu_learned_cost::{
    train_resumable, CostModel, GnnConfig, KernelModel, LstmConfig, Prepared, Sample,
    TrainCheckpoint, TrainConfig, TrainReport,
};
use tpu_sim::TpuConfig;

/// Experiment scale, selected by the `--quick` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small corpus, short training: finishes in seconds to a minute.
    Quick,
    /// The full 104-program corpus and longer training.
    Full,
}

impl Scale {
    /// Corpus scale for this experiment scale.
    pub fn corpus(self) -> CorpusScale {
        match self {
            Scale::Quick => CorpusScale::Tiny,
            Scale::Full => CorpusScale::Full,
        }
    }

    /// Fusion-dataset pipeline parameters.
    pub fn fusion_cfg(self) -> FusionDatasetConfig {
        match self {
            Scale::Quick => FusionDatasetConfig {
                configs_per_program: 8,
                ..Default::default()
            },
            Scale::Full => FusionDatasetConfig {
                configs_per_program: 40,
                ..Default::default()
            },
        }
    }

    /// Tile-dataset pipeline parameters.
    pub fn tile_cfg(self) -> TileDatasetConfig {
        match self {
            Scale::Quick => TileDatasetConfig {
                max_tiles_per_kernel: 8,
                ..Default::default()
            },
            Scale::Full => TileDatasetConfig {
                max_tiles_per_kernel: 40,
                ..Default::default()
            },
        }
    }

    /// Model hyperparameters.
    pub fn gnn_cfg(self) -> GnnConfig {
        match self {
            Scale::Quick => GnnConfig {
                hidden: 24,
                opcode_embed_dim: 8,
                hops: 1,
                ..Default::default()
            },
            // The sweep's winner (see the `tune` binary): hidden 64,
            // 2 hops, sum reduction, all three pools.
            Scale::Full => GnnConfig {
                hidden: 64,
                ..Default::default()
            },
        }
    }

    /// LSTM baseline hyperparameters.
    pub fn lstm_cfg(self) -> LstmConfig {
        match self {
            Scale::Quick => LstmConfig {
                node_dim: 24,
                hidden: 24,
                opcode_embed_dim: 8,
                ..Default::default()
            },
            Scale::Full => LstmConfig::default(),
        }
    }

    /// Training parameters.
    pub fn train_cfg(self) -> TrainConfig {
        match self {
            Scale::Quick => TrainConfig {
                epochs: 8,
                batch_size: 16,
                lr: 3e-3,
                max_batches_per_epoch: 60,
                ..Default::default()
            },
            Scale::Full => TrainConfig {
                epochs: 40,
                batch_size: 24,
                lr: 2e-3,
                max_batches_per_epoch: 600,
                ..Default::default()
            },
        }
    }
}

/// Build the corpus for a scale.
pub fn corpus(scale: Scale) -> Corpus {
    Corpus::build(scale.corpus())
}

/// Train one model of an experiment, recording `core.train.*` into
/// `registry`. With a checkpoint `path`: resumes from it when it holds a
/// checkpoint that fits `model` (anything else — missing file, corrupt
/// JSON, wrong model family or shape — is reported and training starts
/// fresh), and rewrites it after every completed epoch. A resumed run is
/// bit-identical to an uninterrupted one
/// (`tpu_learned_cost::train_resumable`'s contract), so the sweep results
/// do not depend on where a run was interrupted. Without a path: the
/// checkpoint-free but numerically identical run.
pub(crate) fn train_checkpointed<M: KernelModel>(
    model: &mut M,
    train_prep: &[Prepared],
    val_prep: &[Prepared],
    cfg: &TrainConfig,
    registry: &tpu_obs::Registry,
    path: Option<&std::path::Path>,
) -> TrainReport {
    let Some(path) = path else {
        return train_resumable(model, train_prep, val_prep, cfg, registry, None, None)
            .expect("fresh training cannot fail checkpoint validation");
    };
    let resume = match std::fs::read_to_string(path) {
        Ok(json) => match TrainCheckpoint::from_json(&json) {
            Ok(ckpt) => {
                println!(
                    "  resuming from {} (epoch {}/{})",
                    path.display(),
                    ckpt.epoch,
                    cfg.epochs
                );
                Some(ckpt)
            }
            Err(e) => {
                eprintln!("  ignoring checkpoint {}: {e}", path.display());
                None
            }
        },
        Err(_) => None,
    };
    let mut sink = |ckpt: &TrainCheckpoint| {
        if let Err(e) = std::fs::write(path, ckpt.to_json()) {
            eprintln!("  failed to write checkpoint {}: {e}", path.display());
        }
    };
    let mut run = |resume: Option<&TrainCheckpoint>| {
        train_resumable(
            model,
            train_prep,
            val_prep,
            cfg,
            registry,
            resume,
            Some(&mut sink),
        )
    };
    run(resume.as_ref()).unwrap_or_else(|e| {
        // The checkpoint parsed but does not fit this model (wrong family
        // or weight shape). Resume validation happens before any state is
        // touched, so the model is still fresh: report the mismatch and
        // train from scratch, overwriting the file.
        eprintln!(
            "  checkpoint {} does not fit this model: {e}; training fresh",
            path.display()
        );
        run(None).expect("fresh training cannot fail checkpoint validation")
    })
}

/// A calibrated analytical model bundled as a kernel-cost closure.
pub(crate) struct CalibratedAnalytical {
    model: AnalyticalModel,
    calibration: Calibration,
}

impl CalibratedAnalytical {
    /// Calibrate per-kind coefficients "by executing each program in the
    /// test set … with a default fusion configuration" (§6.1).
    pub(crate) fn fit(corpus: &Corpus, test_programs: &[usize], machine: &TpuConfig) -> Self {
        let device = tpu_sim::TpuDevice::with_config(machine.clone(), 99);
        Self::fit_with_device(corpus, test_programs, machine, &device)
    }

    /// [`CalibratedAnalytical::fit`] against a caller-supplied device —
    /// the hook for calibrating on a fault-injecting device (`--faults`):
    /// `Calibration::fit` retries faulted measurements and drops kernels
    /// it cannot measure, and is bit-identical to [`Self::fit`] when
    /// `device` is `TpuDevice::with_config(machine, 99)` with no faults.
    pub(crate) fn fit_with_device(
        corpus: &Corpus,
        test_programs: &[usize],
        machine: &TpuConfig,
        device: &tpu_sim::TpuDevice,
    ) -> Self {
        let model = AnalyticalModel::new(machine.clone());
        let fused: Vec<tpu_hlo::FusedProgram> = test_programs
            .iter()
            .map(|&i| {
                let p = &corpus.entries[i].program;
                let (space, cfg) = tpu_fusion::default_space_and_config(&p.computation);
                tpu_fusion::apply_fusion(p, &space, &cfg)
            })
            .collect();
        let calibration = Calibration::fit(&model, &fused, device);
        CalibratedAnalytical { model, calibration }
    }

    /// Calibrate with distinct machines: the model's *internal constants*
    /// come from `model_machine` (possibly stale), while the calibration
    /// coefficients are fit against measurements on `real_machine`. Used
    /// by the retargeting experiment.
    pub(crate) fn fit_with_machines(
        corpus: &Corpus,
        test_programs: &[usize],
        model_machine: &TpuConfig,
        real_machine: &TpuConfig,
    ) -> Self {
        let device = tpu_sim::TpuDevice::with_config(real_machine.clone(), 99);
        Self::fit_with_device(corpus, test_programs, model_machine, &device)
    }

    /// Uncalibrated (identity coefficients) — for within-kernel ranking
    /// tasks where scales cancel (§6.2).
    pub(crate) fn identity(machine: &TpuConfig) -> Self {
        CalibratedAnalytical {
            model: AnalyticalModel::new(machine.clone()),
            calibration: Calibration::identity(),
        }
    }

    /// Predicted runtime in ns, or `None` for unsupported kernels.
    pub(crate) fn predict_ns(&self, k: &Kernel) -> Option<f64> {
        self.calibration.predict_ns(&self.model, k)
    }
}

/// The calibrated analytical baseline behind the common [`CostModel`]
/// interface, so experiment harnesses (the autotuner, the [`Predictor`]
/// cache) treat it interchangeably with the learned models.
///
/// [`Predictor`]: tpu_learned_cost::Predictor
impl CostModel for CalibratedAnalytical {
    fn predict_kernel_ns(&self, kernel: &Kernel) -> Option<f64> {
        self.predict_ns(kernel)
    }

    fn name(&self) -> &str {
        "analytical-calibrated"
    }
}

/// Model predictions in nanoseconds for a prepared evaluation set
/// ([`tpu_learned_cost::predict_log_ns`], exponentiated).
pub(crate) fn predict_ns_prepared<M: KernelModel>(model: &M, prepared: &[Prepared]) -> Vec<f64> {
    let log_ns = tpu_learned_cost::predict_log_ns(model, prepared);
    log_ns.into_iter().map(f64::exp).collect()
}

/// Render an aligned text table.
pub(crate) fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", c, width = widths[i]));
        }
        line
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1)))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// One table row per `(label, values)` and a closing row, labelled
/// `summary`, of `summarise` over each column — every value rendered by
/// `cell(column, value)`; the summaries come back beside the rows.
pub(crate) fn rows_with_summary<const N: usize>(
    rows: &[(String, [f64; N])],
    summary: &str,
    summarise: fn(&[f64]) -> f64,
    cell: impl Fn(usize, f64) -> String,
) -> (Vec<Vec<String>>, [f64; N]) {
    let column = |c: usize| {
        rows.iter()
            .map(|(_, values)| values[c])
            .collect::<Vec<f64>>()
    };
    let summaries: [f64; N] = std::array::from_fn(|c| summarise(&column(c)));
    let render = |label: &str, values: &[f64; N]| {
        let cells = values.iter().enumerate().map(|(c, &v)| cell(c, v));
        std::iter::once(label.to_string())
            .chain(cells)
            .collect::<Vec<String>>()
    };
    let mut table: Vec<Vec<String>> = rows.iter().map(|(label, v)| render(label, v)).collect();
    table.push(render(summary, &summaries));
    (table, summaries)
}

/// Convert fusion-dataset example refs into training samples.
pub(crate) fn fusion_samples(examples: &[&tpu_dataset::KernelExample]) -> Vec<Sample> {
    examples
        .iter()
        .map(|ex| Sample::new(ex.kernel.clone(), ex.runtime_ns))
        .collect()
}

/// Convert tile-dataset example refs into grouped training samples.
pub(crate) fn tile_samples(examples: &[&tpu_dataset::TileExample]) -> Vec<Sample> {
    examples
        .iter()
        .map(|ex| Sample::grouped(ex.kernel.clone(), ex.runtime_ns, ex.kernel_group))
        .collect()
}

/// Subsample a prepared set to at most `cap` items, deterministically.
pub(crate) fn cap_prepared(mut prepared: Vec<Prepared>, cap: usize, seed: u64) -> Vec<Prepared> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    if prepared.len() > cap {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        prepared.shuffle(&mut rng);
        prepared.truncate(cap);
    }
    prepared
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_pipeline_end_to_end() {
        let scale = Scale::Quick;
        let c = corpus(scale);
        assert!(c.len() >= 10);
        let split = c.random_split(0);
        let analytical = CalibratedAnalytical::fit(&c, &split.test, &TpuConfig::default());
        // Score one real program's kernels.
        let p = &c.entries[split.test[0]].program;
        let (space, cfg) = tpu_fusion::default_space_and_config(&p.computation);
        let fused = tpu_fusion::apply_fusion(p, &space, &cfg);
        let scored = fused
            .kernels
            .iter()
            .filter_map(|k| analytical.predict_ns(k))
            .count();
        assert!(scored > 0, "analytical model scored no kernels");
    }

    #[test]
    fn calibrated_analytical_serves_as_cost_model() {
        let c = corpus(Scale::Quick);
        let split = c.random_split(0);
        let analytical = CalibratedAnalytical::fit(&c, &split.test, &TpuConfig::default());
        let p = &c.entries[split.test[0]].program;
        let (space, cfg) = tpu_fusion::default_space_and_config(&p.computation);
        let fused = tpu_fusion::apply_fusion(p, &space, &cfg);
        let batch = analytical.predict_batch_ns(&fused.kernels);
        for (k, b) in fused.kernels.iter().zip(&batch) {
            assert_eq!(*b, analytical.predict_ns(k), "batch must match per-kernel");
        }
        assert_eq!(CostModel::name(&analytical), "analytical-calibrated");
    }

    #[test]
    fn predict_ns_prepared_matches_per_kernel_predictions() {
        use tpu_hlo::{DType, GraphBuilder, Shape};
        let model = tpu_learned_cost::GnnModel::new(GnnConfig {
            hidden: 8,
            opcode_embed_dim: 4,
            hops: 1,
            ..Default::default()
        });
        let kernels: Vec<Kernel> = [32usize, 64, 96]
            .iter()
            .map(|&n| {
                let mut b = GraphBuilder::new("k");
                let x = b.parameter("x", Shape::matrix(n, n), DType::F32);
                let t = b.tanh(x);
                Kernel::new(b.finish(t))
            })
            .collect();
        let prepared: Vec<Prepared> = kernels.iter().map(Prepared::from_kernel).collect();
        let batch = predict_ns_prepared(&model, &prepared);
        for (k, b) in kernels.iter().zip(&batch) {
            assert_eq!(*b, model.predict_ns(k));
        }
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            "demo",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    fn cap_prepared_caps() {
        let c = corpus(Scale::Quick);
        let ds = tpu_dataset::build_fusion_dataset(
            &Corpus {
                entries: c.entries[..2].to_vec(),
            },
            &FusionDatasetConfig {
                configs_per_program: 4,
                ..Default::default()
            },
        );
        let refs: Vec<&tpu_dataset::KernelExample> = ds.examples.iter().collect();
        let samples = fusion_samples(&refs);
        let prepared = tpu_learned_cost::prepare(&samples);
        let capped = cap_prepared(prepared, 5, 0);
        assert_eq!(capped.len(), 5);
    }
}
