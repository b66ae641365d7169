//! `tpu-perf`: the repo's benchmark. One command runs one workload in its own
//! process, prints every metric by name with its unit, checks the program's
//! outputs and exits non-zero on a failed check. See `benchmark/README.md`.
//!
//! ```text
//! tpu-perf run --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! tpu-perf aa [--seed N]      every workload twice; fails on a difference beyond a bound
//! tpu-perf smoke              all workloads at 1/50 size; checks names against BENCHMARK.json
//! ```

mod declared;
mod io;
mod metrics;
mod micro;
mod pin;
mod report;
mod seams;
mod search;
mod serve;
mod setup;
mod sizes;
mod stats;
mod steal;
mod trace;
mod train;

use report::{Outcome, Values};
use setup::Setup;
use sizes::Sizes;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use trace::Tracer;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => out.workload = Some(value.clone()),
            "--seed" => out.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

/// `[profile.release]` of a manifest as sorted `key = value` lines.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| {
            l.split('#')
                .next()
                .unwrap_or("")
                .split_whitespace()
                .collect::<String>()
        })
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort();
    lines
}

/// The build must be the root manifest's release profile: a benchmark built
/// otherwise measures another program.
fn check_profile() -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |p: std::path::PathBuf| {
        std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()))
    };
    let root = release_profile(&read(dir.join("../Cargo.toml"))?);
    let own = release_profile(&read(dir.join("Cargo.toml"))?);
    let effective = format!(
        "profile={} opt-level={} [profile.release]={{{}}} rustflags=[{}]",
        env!("TPU_PERF_PROFILE"),
        env!("TPU_PERF_OPT_LEVEL"),
        own.join(", "),
        env!("TPU_PERF_RUSTFLAGS"),
    );
    if own != root {
        return Err(format!(
            "benchmark/Cargo.toml [profile.release] {own:?} differs from the root manifest's {root:?}"
        ));
    }
    if env!("TPU_PERF_PROFILE") != "release" {
        return Err(format!("built with {effective}; build with --release"));
    }
    let want = root
        .iter()
        .find_map(|l| l.strip_prefix("opt-level="))
        .unwrap_or("3");
    if env!("TPU_PERF_OPT_LEVEL") != want {
        return Err(format!(
            "built with {effective}; the root manifest asks for opt-level {want}"
        ));
    }
    Ok(effective)
}

fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| head.to_string()),
        None if head.is_empty() => "none (not a git checkout)".to_string(),
        None => head.to_string(),
    }
}

/// Run everything on one CPU: `RAYON_NUM_THREADS=1`, and this thread and
/// every thread started after it pinned to the first CPU the process may use.
/// Returns (nproc, that CPU or `None` where pinning is not possible).
///
/// The machine gives the benchmark two vCPUs of a shared host. Every parallel
/// section there ends with a wake-up across CPUs, whose cost is bimodal for
/// minutes at a time (`src/pin.rs`): with two rayon threads ten runs of one
/// build spread 9-15 % here and 21-36 % on the acceptance driver, which
/// admits 25 % at most.
fn one_cpu_one_thread() -> (usize, Option<usize>) {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    std::env::set_var("RAYON_NUM_THREADS", "1");
    (nproc, pin::to_one_cpu())
}

/// Confine the run to one CPU and echo the machine context.
fn print_context(profile: &str, workload: &str, args: &Args, sizes: &Sizes) {
    let (nproc, cpu) = one_cpu_one_thread();
    println!(
        "tpu-perf {workload} trace={} seed={} seconds={}",
        u8::from(args.trace),
        args.seed,
        args.seconds
    );
    println!(
        "context: nproc={nproc} RAYON_NUM_THREADS=1 pinned_to_cpu={} rustc=\"{}\" target={} commit={}",
        cpu.map_or("none (could not pin)".to_string(), |c| c.to_string()),
        env!("TPU_PERF_RUSTC"),
        env!("TPU_PERF_TARGET"),
        git_commit()
    );
    println!("context: {profile}");
    println!(
        "context: load = closed loop, 1 client thread (+ the serve worker thread), all on one CPU"
    );
    println!("context: {sizes:?}");
}

/// Where the benchmark writes: `benchmark/out/` of the checkout it was
/// built in.
fn out_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The pool kernels a workload sends: its own lines for the micro-timings.
fn workload_kernels(workload: &str, setup: &Setup, sizes: &Sizes) -> Vec<u32> {
    let n = match workload {
        "serve_warm" => sizes.warm_kernels.min(setup.pool.len()),
        _ => setup.pool.len(),
    };
    (0..n as u32).collect()
}

fn run_phase(
    workload: &str,
    setup: &Setup,
    sizes: &Sizes,
    args: &Args,
    tracer: Option<&Arc<Tracer>>,
) -> Outcome {
    match workload {
        "serve_warm" => serve::run(
            serve::Regime::Warm,
            setup,
            sizes,
            args.seed,
            args.seconds,
            tracer,
        ),
        "serve_cold" => serve::run(
            serve::Regime::Cold,
            setup,
            sizes,
            args.seed,
            args.seconds,
            tracer,
        ),
        "search_tune" => search::run(setup, sizes, args.seed, args.seconds, tracer),
        "train_stream" => train::run(setup, sizes, args.seconds, tracer),
        other => unreachable!("run_workload admits no workload {other}"),
    }
}

/// Everything a traced run adds to the workload's own per-layer numbers.
fn traced_layers(
    workload: &str,
    setup: &Setup,
    sizes: &Sizes,
    args: &Args,
    tracer: &Tracer,
    out: &mut Outcome,
) -> BTreeMap<&'static str, f64> {
    let spans = tracer.snapshot();
    let path = out_dir().join(format!("trace-{workload}.json"));
    match trace::write_trace(&path, workload, &spans) {
        Ok(()) => out.note(format!(
            "trace: {} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out.note(format!("trace: could not write {}: {e}", path.display())),
    }
    let micro = micro::run(
        setup,
        sizes,
        &workload_kernels(workload, setup, sizes),
        args.seed,
    );
    let mut layer = std::mem::take(&mut out.layer);
    layer.extend(micro.layer);
    out.notes.extend(micro.notes);

    // Time inside the benchmark's `CostModel` and `BatchSource` wrappers.
    let rounds = out.wall_s.len().max(1) as f64;
    let totals = trace::totals_by_name(&spans);
    let busy_s = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e9 / rounds)
    };
    layer.insert("infer.predict_batch_busy_s", busy_s("infer.predict_batch"));
    layer.insert("dataset.load_wait_s", busy_s("dataset.load"));

    if workload.starts_with("serve_") {
        let submit = if workload == "serve_warm" {
            "serve.submit_rtt_warm_us"
        } else {
            "serve.submit_rtt_cold_us"
        };
        let named = layer["serve.parse_request_us"]
            + layer["serve.to_kernel_us"]
            + layer[submit]
            + layer["serve.render_reply_us"];
        layer.insert("serve.line_io_us", out.mean_request_us - named);
        layer.insert("serve.explained_share", named / out.mean_request_us);
    }
    if out.model_config_s > 0.0 {
        let device_s = layer["sim.hw_eval_device_s"];
        layer.insert(
            "autotuner.hw_over_model_cost_ratio",
            device_s / out.model_config_s,
        );
        out.note(format!(
            "autotuner.hw_over_model_cost_ratio: {device_s:.4} simulated device s per hardware evaluation / {:.3e} host s per model-scored configuration",
            out.model_config_s
        ));
    }
    let baseline = stats::low(&out.baseline_wall_s);
    layer.insert(
        "trace.overhead_share",
        (stats::low(&out.wall_s) - baseline) / baseline,
    );
    layer.insert("trace.spans", spans.len() as f64 / rounds);
    out.note(format!(
        "trace.overhead_share: traced rounds {} against untraced rounds {}",
        stats::describe(&out.wall_s),
        stats::describe(&out.baseline_wall_s)
    ));
    layer
}

/// One run of one workload: set-up, the timed phase, the checks, and for a
/// traced run the micro-timings. Returns the outcome and the metric values.
fn run_workload(workload: &str, sizes: &Sizes, args: &Args) -> Result<(Outcome, Values), String> {
    if !metrics::WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            metrics::WORKLOADS.join(", ")
        ));
    }
    // An untraced run sets up several times. The set-ups do the same work,
    // so each of their parts is reported at its fastest and `setup_s` is the
    // sum, like every other timing (`stats::low`): the median of three whole
    // set-ups differed by up to 36 % between two runs of one build.
    let repeats = if args.trace { 1 } else { sizes.setup_repeats };
    let mut setup = Setup::build(sizes);
    let (mut whole_s, mut parts_s) = (vec![setup.seconds], vec![setup.parts_s]);
    for _ in 1..repeats {
        drop(setup);
        setup = Setup::build(sizes);
        whole_s.push(setup.seconds);
        parts_s.push(setup.parts_s);
    }
    let setup_s: f64 = (0..setup.parts_s.len())
        .map(|k| stats::low(&parts_s.iter().map(|p| p[k]).collect::<Vec<f64>>()))
        .sum();
    println!(
        "setup: {setup_s:.6} s from the parts of {} | pool {} kernels, set-up model tau {:.4} mape {:.2} %",
        stats::describe(&whole_s),
        setup.pool.len(),
        setup.accuracy.tau,
        setup.accuracy.mape
    );

    let tracer = args.trace.then(|| Arc::new(Tracer::new()));
    let (stolen, started) = (steal::stolen_seconds(), std::time::Instant::now());
    let mut out = run_phase(workload, &setup, sizes, args, tracer.as_ref());
    out.note(format!(
        "steal: the hypervisor took {:.2} CPU-seconds away during the {:.1} s timed phase",
        steal::stolen_seconds() - stolen,
        started.elapsed().as_secs_f64()
    ));
    let tau = out.accuracy.tau;
    out.check.that(tau >= sizes.tau_floor, || {
        format!("tau_vs_oracle {tau} is below the floor {}", sizes.tau_floor)
    });
    let values = match &tracer {
        None => report::end_to_end(&out, setup_s, peak_rss_mib()),
        Some(t) => {
            let layer = traced_layers(workload, &setup, sizes, args, t, &mut out);
            report::per_layer(&layer)
        }
    };
    Ok((out, values))
}

fn print_outcome(out: &Outcome, values: &Values) {
    println!("rounds: {}", out.wall_s.len());
    println!(
        "  wall_s per round:         {}",
        stats::describe(&out.wall_s)
    );
    println!(
        "  ops_per_s per round:      {}",
        stats::describe(&out.ops_per_s)
    );
    println!(
        "  latency_p50_us per round: {}",
        stats::describe(&out.latency_p50_us)
    );
    println!(
        "  latency_p99_us per round: {}",
        stats::describe(&out.latency_p99_us)
    );
    for note in &out.notes {
        println!("note: {note}");
    }
    println!("metrics:");
    report::print_values(values);
    println!(
        "checks: attempted {} failed {} failed_share {}",
        out.check.attempted,
        out.check.failed,
        out.check.failed as f64 / out.check.attempted.max(1) as f64
    );
    for msg in &out.check.messages {
        println!("FAILED: {msg}");
    }
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    let workload = args
        .workload
        .as_deref()
        .ok_or("run needs --workload <name>")?;
    let sizes = Sizes::full();
    let profile = check_profile()?;
    print_context(&profile, workload, args, &sizes);
    let (out, values) = run_workload(workload, &sizes, args)?;
    print_outcome(&out, &values);
    println!("{}", report::driver_line(&out, &values));
    Ok(out.check.failed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("", &argv[..]),
    };
    let result = parse_args(rest).and_then(|args| match command {
        "run" => cmd_run(&args),
        "aa" => declared::cmd_aa(&args),
        "smoke" => declared::cmd_smoke(),
        _ => Err("usage: tpu-perf run --workload <name> [--seed N] [--seconds S] [--trace 0|1] | aa [--seed N] | smoke".to_string()),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("tpu-perf: {msg}");
            ExitCode::from(2)
        }
    }
}
