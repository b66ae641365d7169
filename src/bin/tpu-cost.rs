//! `tpu-cost`: estimate the runtime of a tensor program from the command
//! line.
//!
//! ```text
//! tpu-cost <program.hlo> [--backend sim|analytical|frozen:BLOB] [--fuse] [--dot out.dot]
//! tpu-cost --demo        # run on a built-in demo program
//! ```
//!
//! The input file uses the text format of `tpu_hlo::dump_computation`
//! (see `cargo run --release --example dump_ir`). With `--fuse`, the
//! default fusion heuristic runs first and per-kernel costs are printed;
//! otherwise every op is its own kernel. `frozen:BLOB` scores with the
//! `tpu-frozen.v2` blob at `BLOB` (what `tpu-freeze` writes); a path that
//! is missing, unreadable or not such a blob is an error.
//!
//! The `analytical` backend is the uncalibrated roofline baseline: it
//! answers in per-kernel-kind abstract units (0.55 to 3.1 times a roofline
//! estimate in ns, depending on the kernel kind). Its column is labelled
//! "units": they rank tiles of one kernel but are not a runtime, and
//! kernels of different kinds do not add up, so it prints no total.

use std::process::ExitCode;
use tpu_repro::fusion::{apply_fusion, default_space_and_config, unfused};
use tpu_repro::hlo::{parse_computation, FusedProgram, Program};
use tpu_repro::infer::FrozenModel;
use tpu_repro::learned::{CostModel, SimOracle};
use tpu_repro::serve::AnalyticalCost;
use tpu_repro::sim::TpuConfig;

struct Args {
    input: Option<String>,
    backend: String,
    fuse: bool,
    dot_out: Option<String>,
    demo: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        input: None,
        backend: "sim".into(),
        fuse: false,
        dot_out: None,
        demo: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--backend" => {
                args.backend = it.next().ok_or("--backend needs a value")?;
            }
            "--fuse" => args.fuse = true,
            "--demo" => args.demo = true,
            "--dot" => args.dot_out = Some(it.next().ok_or("--dot needs a path")?),
            "--help" | "-h" => {
                return Err("usage: tpu-cost <program.hlo> [--backend sim|analytical|frozen:BLOB] [--fuse] [--dot out.dot] | --demo\n(analytical answers in uncalibrated per-kernel-kind units, 0.55-3.1x a roofline ns estimate, and prints no total)".into());
            }
            other if args.input.is_none() && !other.starts_with('-') => {
                args.input = Some(other.to_string());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The `tpu-frozen.v2` model a `frozen:BLOB` backend names.
fn load_frozen(backend: &str) -> Result<FrozenModel, String> {
    let path = match backend.split_once(':') {
        Some((_, path)) if !path.is_empty() => path,
        _ => return Err("the frozen backend needs a blob: --backend frozen:BLOB".into()),
    };
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read blob {path}: {e}"))?;
    FrozenModel::from_bytes(&bytes).map_err(|e| format!("cannot load blob {path}: {e}"))
}

fn demo_program() -> Program {
    tpu_repro::dataset::models::transformer("demo", 1, 32, 64, 2)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let program = if args.demo {
        demo_program()
    } else {
        let Some(path) = &args.input else {
            eprintln!("no input file; try --demo or --help");
            return ExitCode::FAILURE;
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match parse_computation(&text) {
            Ok(c) => Program::new(path.clone(), c),
            Err(e) => {
                eprintln!("parse error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let machine = TpuConfig::default();
    let fused: FusedProgram = if args.fuse {
        let (space, cfg) = default_space_and_config(&program.computation);
        apply_fusion(&program, &space, &cfg)
    } else {
        unfused(&program)
    };

    if let Some(dot_path) = &args.dot_out {
        let dot = tpu_repro::hlo::viz::fused_to_dot(&fused);
        if let Err(e) = std::fs::write(dot_path, dot) {
            eprintln!("cannot write {dot_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {dot_path}");
    }

    let model: Box<dyn CostModel> = match args.backend.split(':').next().unwrap_or("sim") {
        "sim" => Box::new(SimOracle::new(machine.clone())),
        "analytical" => Box::new(AnalyticalCost::new(machine.clone())),
        "frozen" => match load_frozen(&args.backend) {
            Ok(model) => Box::new(model),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!("unknown backend `{other}` (sim|analytical|frozen:BLOB)");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "program `{}`: {} ops -> {} kernels ({})",
        program.name,
        program.num_nodes(),
        fused.num_kernels(),
        if args.fuse {
            "default fusion"
        } else {
            "unfused"
        }
    );
    // Per-kind units print as they are; nanoseconds print as us.
    let per_kind_units = args.backend == "analytical";
    let (label, scale) = if per_kind_units {
        ("units", 1.0)
    } else {
        ("us", 1e-3)
    };
    let mut total = 0.0;
    let mut unsupported = 0usize;
    for (i, k) in fused.kernels.iter().enumerate() {
        match model.predict_kernel_ns(k) {
            Some(ns) => {
                total += ns;
                println!(
                    "  kernel {i:>3}  {:?}  ops={:<3}  {:>12.2} {label}",
                    k.kind,
                    k.num_ops(),
                    ns * scale
                );
            }
            None => {
                unsupported += 1;
                println!(
                    "  kernel {i:>3}  {:?}  ops={:<3}  unsupported",
                    k.kind,
                    k.num_ops()
                );
            }
        }
    }
    let excluded = if unsupported > 0 {
        format!(" ({unsupported} unsupported kernels excluded)")
    } else {
        String::new()
    };
    if per_kind_units {
        println!(
            "no total ({} backend): units of different kernel kinds do not add{excluded}",
            args.backend
        );
    } else {
        println!(
            "total ({} backend): {:.3} ms{excluded}",
            args.backend,
            total / 1e6
        );
    }

    if args.backend == "sim" {
        let report = tpu_repro::sim::analyze_program(&fused, &machine);
        println!(
            "
{}",
            report.render()
        );
    }
    ExitCode::SUCCESS
}
