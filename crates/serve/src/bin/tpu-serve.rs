//! The `tpu-serve` daemon and its load generator.
//!
//! Serve mode (default): answer newline-delimited JSON requests over
//! stdin/stdout, or over TCP with `--tcp ADDR`.
//!
//! ```text
//! tpu-serve [--tcp ADDR] [--model sim|analytical|frozen] [--bundle BLOB]
//!           [--cache-slots N] [--max-pending N] [--eval-budget N]
//!           [--deadline-ms N] [--no-breaker] [--breaker-trip N]
//!           [--breaker-cooldown N]
//! ```
//!
//! `--model analytical` serves the uncalibrated roofline baseline: its
//! `ns` are per-kernel-kind abstract units (0.55 to 3.1 times a roofline
//! estimate in ns, depending on the kernel kind), fit for ranking tiles of
//! one kernel, not for comparing kernels of different kinds.
//!
//! The served model always has the simulator oracle as its fallback, so a
//! primary that cannot score a kernel (the analytical model on a kernel
//! without tile-size options, say) still answers every request with a
//! finite prediction. A circuit breaker routes between the two by default
//! (`--no-breaker` removes it): consecutive unusable primary answers divert
//! requests to the oracle for a request-count cool-down. `--deadline-ms`
//! sets the default per-request deadline. The `reload` NDJSON op hot-swaps
//! a `tpu-frozen.v2` blob in as the primary after an admission check
//! (finite predictions + Kendall-τ ≥ 0.99 against the incumbent on the
//! probe panel); the fallback and the breaker stay.
//!
//! An argument that is not one of the mode's flags, or a flag given last
//! without its value, is a usage error (exit code 2).
//!
//! Drive mode: a load generator for CI smoke.
//!
//! ```text
//! tpu-serve drive ADDR [--clients N] [--requests N] [--distinct K]
//!                      [--deadline-ms N] [--shutdown]
//! ```
//!
//! Drives `--requests` total predict requests from `--clients` concurrent
//! TCP connections over a pool of `--distinct` kernels, then prints a
//! one-line JSON summary (p50/p99 latency in microseconds, throughput in
//! requests/s, plus degraded / deadline-expired / gracefully-denied reply
//! counts). Exits nonzero only on protocol-level failures (io errors,
//! parse/bad_request replies) — graceful degradations (deadline, budget,
//! overloaded, backend_panic) are reported but are not failures.
//!
//! Reload mode: one-shot hot-reload client for CI and operators.
//!
//! ```text
//! tpu-serve reload ADDR PATH
//! ```
//!
//! Sends `{"op":"reload","path":PATH}` and prints the daemon's reply;
//! exits nonzero only if no reply arrived (a `reload_rejected` reply is a
//! successful round trip).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use tpu_infer::FrozenModel;
use tpu_learned_cost::{AtomicCache, CostModel, SimOracle};
use tpu_obs::Registry;
use tpu_serve::{
    demo_kernels, percentile, probe_panel, protocol, serve_ndjson, serve_tcp, AnalyticalCost,
    BreakerConfig, Fallback, ReloadPolicy, ServeConfig, ServeEngine, ServeOptions,
};
use tpu_sim::TpuConfig;

const USAGE: &str = "\
usage: tpu-serve [--tcp ADDR] [--model sim|analytical|frozen] [--bundle BLOB]
                 [--cache-slots N] [--max-pending N] [--eval-budget N]
                 [--deadline-ms MS] [--no-breaker] [--breaker-trip N]
                 [--breaker-cooldown N]
       tpu-serve drive ADDR [--clients N] [--requests N] [--distinct K]
                 [--deadline-ms MS] [--shutdown]
       tpu-serve reload ADDR PATH";

/// Flags of serve mode that take a value, and those that do not.
const SERVE_VALUED: [&str; 9] = [
    "--tcp",
    "--model",
    "--bundle",
    "--cache-slots",
    "--max-pending",
    "--eval-budget",
    "--deadline-ms",
    "--breaker-trip",
    "--breaker-cooldown",
];
const SERVE_SWITCHES: [&str; 1] = ["--no-breaker"];
const DRIVE_VALUED: [&str; 4] = ["--clients", "--requests", "--distinct", "--deadline-ms"];
const DRIVE_SWITCHES: [&str; 1] = ["--shutdown"];

/// Reject what [`flag_value`] would skip in silence: an argument that is
/// none of the mode's flags, and a valued flag with nothing after it.
fn check_flags(args: &[String], valued: &[&str], switches: &[&str]) {
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if valued.contains(&arg.as_str()) {
            if args.next().is_none() {
                die(&format!("{arg} requires a value\n{USAGE}"));
            }
        } else if !switches.contains(&arg.as_str()) {
            die(&format!("unknown argument {arg:?}\n{USAGE}"));
        }
    }
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag_parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag_value(args, name) {
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| die(&format!("invalid value for {name}: {v:?}"))),
        None => default,
    }
}

fn die(msg: &str) -> ! {
    eprintln!("tpu-serve: {msg}");
    std::process::exit(2);
}

/// Build the primary model from flags.
fn build_model(args: &[String]) -> Box<dyn CostModel + Send> {
    let cfg = TpuConfig::default();
    match flag_value(args, "--model").as_deref().unwrap_or("sim") {
        "sim" => Box::new(SimOracle::new(cfg)),
        "analytical" => Box::new(AnalyticalCost::new(cfg)),
        "frozen" => {
            let path = flag_value(args, "--bundle")
                .unwrap_or_else(|| die("--model frozen requires --bundle BLOB"));
            let bytes = std::fs::read(&path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
            Box::new(
                FrozenModel::from_bytes(&bytes)
                    .unwrap_or_else(|e| die(&format!("load {path}: {e}"))),
            )
        }
        other => die(&format!(
            "unknown model {other:?} (sim|analytical|frozen)\n{USAGE}"
        )),
    }
}

fn run_serve(args: &[String]) -> ExitCode {
    check_flags(args, &SERVE_VALUED, &SERVE_SWITCHES);
    let cfg = ServeConfig {
        max_pending: flag_parse(args, "--max-pending", 1024),
        eval_budget: flag_value(args, "--eval-budget").map(|v| {
            v.parse()
                .unwrap_or_else(|_| die("--eval-budget takes an integer"))
        }),
        deadline_ms: flag_value(args, "--deadline-ms").map(|v| {
            v.parse()
                .unwrap_or_else(|_| die("--deadline-ms takes an integer"))
        }),
    };
    let registry = Registry::enabled();
    // The oracle fallback and the breaker belong to the engine: an accepted
    // reload replaces only the primary, so the daemon keeps its safety net.
    let breaker = (!args.iter().any(|a| a == "--no-breaker")).then(|| BreakerConfig {
        trip_after: flag_parse(args, "--breaker-trip", 4),
        cooldown: flag_parse(args, "--breaker-cooldown", 64),
    });
    let opts = ServeOptions {
        fallback: Some(Fallback {
            model: Box::new(SimOracle::new(TpuConfig::default())),
            breaker,
        }),
        reload: Some(ReloadPolicy {
            min_tau: 0.99,
            panel: probe_panel(),
        }),
        ..ServeOptions::default()
    };
    let engine = Arc::new(ServeEngine::start_with(
        build_model(args),
        Arc::new(AtomicCache::with_capacity(flag_parse(
            args,
            "--cache-slots",
            1usize << 16,
        ))),
        cfg,
        opts,
        &registry,
    ));
    let result = match flag_value(args, "--tcp") {
        Some(addr) => {
            let listener =
                TcpListener::bind(&addr).unwrap_or_else(|e| die(&format!("bind {addr}: {e}")));
            // Report the bound address (useful with port 0) before serving.
            if let Ok(local) = listener.local_addr() {
                eprintln!("tpu-serve: listening on {local}");
            }
            serve_tcp(&engine, listener)
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            serve_ndjson(&engine, stdin.lock(), stdout.lock()).map(|_| ())
        }
    };
    engine.shutdown();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tpu-serve: io error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[derive(Default)]
struct ClientOutcome {
    latencies_us: Vec<f64>,
    /// Protocol-level failures: io errors plus parse/bad_request-class
    /// replies. These (and only these) make drive exit nonzero.
    errors: usize,
    /// `ok:true` replies marked degraded (breaker-open fallback service).
    degraded: usize,
    /// `deadline` error replies.
    deadline_expired: usize,
    /// Other graceful denials: budget / overloaded / backend_panic /
    /// shutdown.
    graceful: usize,
}

/// Graceful degradation codes: the daemon answered honestly that it
/// would not score this request. Anything else in an error reply is a
/// protocol failure from the driver's point of view.
const GRACEFUL_CODES: [&str; 4] = ["budget", "overloaded", "backend_panic", "shutdown"];

fn drive_client(
    addr: &str,
    kernels: &[tpu_hlo::Kernel],
    count: usize,
    deadline_ms: Option<u64>,
) -> ClientOutcome {
    let mut outcome = ClientOutcome {
        latencies_us: Vec::with_capacity(count),
        ..ClientOutcome::default()
    };
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => {
            outcome.errors = count;
            return outcome;
        }
    };
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            outcome.errors = count;
            return outcome;
        }
    });
    let mut writer = stream;
    let mut reply = String::new();
    for i in 0..count {
        let kernel = &kernels[i % kernels.len()];
        let line = protocol::predict_request_line_with_deadline(i as u64, kernel, deadline_ms);
        let started = Instant::now();
        let ok = writer
            .write_all(line.as_bytes())
            .and_then(|_| writer.write_all(b"\n"))
            .and_then(|_| writer.flush())
            .is_ok()
            && {
                reply.clear();
                reader.read_line(&mut reply).map(|n| n > 0).unwrap_or(false)
            };
        let elapsed_us = started.elapsed().as_secs_f64() * 1e6;
        if ok && reply.contains("\"ok\":true") {
            outcome.latencies_us.push(elapsed_us);
            if reply.contains("\"degraded\":true") {
                outcome.degraded += 1;
            }
        } else if ok && reply.contains("\"code\":\"deadline\"") {
            outcome.deadline_expired += 1;
        } else if ok
            && GRACEFUL_CODES
                .iter()
                .any(|c| reply.contains(&format!("\"code\":\"{c}\"")))
        {
            outcome.graceful += 1;
        } else {
            outcome.errors += 1;
        }
    }
    outcome
}

/// Ask the daemon for `stats` and pull the `backend` field out of the
/// reply (the field the engine prints first in the stats body).
fn fetch_backend(addr: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    let line = protocol::simple_request_line("stats", u64::MAX - 1);
    stream.write_all(line.as_bytes()).ok()?;
    stream.write_all(b"\n").ok()?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).ok()?;
    let rest = reply.split("\"backend\":\"").nth(1)?;
    Some(rest.split('"').next()?.to_string())
}

fn run_drive(args: &[String]) -> ExitCode {
    let addr = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .unwrap_or_else(|| die("drive requires an ADDR argument"))
        .clone();
    check_flags(&args[1..], &DRIVE_VALUED, &DRIVE_SWITCHES);
    let clients = flag_parse(args, "--clients", 8usize).max(1);
    let total = flag_parse(args, "--requests", 100usize).max(1);
    let distinct = flag_parse(args, "--distinct", 16usize).max(1);
    let deadline_ms = flag_value(args, "--deadline-ms").map(|v| {
        v.parse::<u64>()
            .unwrap_or_else(|_| die("--deadline-ms must be an integer"))
    });
    let kernels = Arc::new(demo_kernels(distinct));

    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            // Split `total` across clients, front-loading the remainder.
            let share = total / clients + usize::from(c < total % clients);
            let addr = addr.clone();
            let kernels = Arc::clone(&kernels);
            std::thread::spawn(move || drive_client(&addr, &kernels, share, deadline_ms))
        })
        .collect();
    let mut latencies = Vec::with_capacity(total);
    let mut errors = 0;
    let mut degraded = 0;
    let mut deadline_expired = 0;
    let mut graceful = 0;
    for handle in handles {
        match handle.join() {
            Ok(outcome) => {
                latencies.extend(outcome.latencies_us);
                errors += outcome.errors;
                degraded += outcome.degraded;
                deadline_expired += outcome.deadline_expired;
                graceful += outcome.graceful;
            }
            Err(_) => errors += 1,
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    // One stats round trip so the summary names the serving backend.
    let backend = fetch_backend(&addr).unwrap_or_else(|| "unknown".to_string());

    if args.iter().any(|a| a == "--shutdown") {
        if let Ok(mut stream) = TcpStream::connect(&addr) {
            let line = protocol::simple_request_line("shutdown", u64::MAX);
            let _ = stream.write_all(line.as_bytes());
            let _ = stream.write_all(b"\n");
            let mut reply = String::new();
            let _ = BufReader::new(stream).read_line(&mut reply);
        }
    }

    let answered = latencies.len();
    let p50 = percentile(&latencies, 50.0);
    let p99 = percentile(&latencies, 99.0);
    let throughput = answered as f64 / elapsed.max(1e-9);
    println!(
        "{{\"backend\":\"{backend}\",\"clients\":{clients},\"requests\":{total},\
         \"answered\":{answered},\"degraded\":{degraded},\
         \"deadline_expired\":{deadline_expired},\"graceful\":{graceful},\
         \"errors\":{errors},\"p50_us\":{p50:.1},\
         \"p99_us\":{p99:.1},\"throughput_rps\":{throughput:.1}}}"
    );
    // Degraded service, expired deadlines, and honest denials are the
    // daemon doing its job under stress; only protocol failures (or a
    // fully unanswered run) fail the drive.
    let accounted = answered + deadline_expired + graceful;
    if errors == 0 && accounted == total && answered > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `tpu-serve reload ADDR PATH`: ask a running daemon to hot-swap its
/// model from a `tpu-frozen.v2` blob. Prints the daemon's reply line
/// verbatim; exits nonzero when the reload was rejected (so scripts can
/// assert both admission and rejection).
fn run_reload(args: &[String]) -> ExitCode {
    let addr = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .unwrap_or_else(|| die("reload requires an ADDR argument"));
    let path = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .unwrap_or_else(|| die("reload requires a PATH argument"));
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => die(&format!("connect {addr}: {e}")),
    };
    let line = protocol::reload_request_line(u64::MAX - 2, path);
    let sent = stream
        .write_all(line.as_bytes())
        .and_then(|_| stream.write_all(b"\n"))
        .is_ok();
    let mut reply = String::new();
    let got = sent
        && BufReader::new(stream)
            .read_line(&mut reply)
            .map(|n| n > 0)
            .unwrap_or(false);
    if !got {
        die("no reply from daemon");
    }
    print!("{reply}");
    if reply.contains("\"reloaded\":true") {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match args.first().map(String::as_str) {
        Some("drive") => run_drive(&args[1..]),
        Some("reload") => run_reload(&args[1..]),
        _ => run_serve(&args),
    }
}
