//! `tpu-serve`: a long-lived prediction daemon over the learned cost model.
//!
//! The paper's model only pays off if it can sit inside a compiler or
//! autotuner serving loop; this crate is that loop's server side. It
//! speaks newline-delimited JSON (see [`protocol`]) over stdin or TCP,
//! answers cache hits on the requesting thread, batches concurrent
//! clients' misses into single
//! [`Predictor`](tpu_learned_cost::Predictor) calls over the lock-free
//! [`AtomicCache`](tpu_learned_cost::AtomicCache), applies admission
//! control and an optional model-evaluation budget, and shuts down
//! gracefully (drain, then join).
//!
//! - [`ServeEngine`] — the caller-side cache probe and the batching worker,
//! - [`serve_ndjson`] — serial frontend over any reader/writer (stdin mode;
//!   deterministic, which the chaos-replay test relies on),
//! - [`serve_tcp`] — TCP frontend, one thread per client, all funneling
//!   into the shared engine so batches form across clients,
//! - [`demo_kernels`] / [`percentile`] — load-generator helpers shared by
//!   the `drive` subcommand and CI smoke.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tpu_analytical::{AnalyticalModel, Calibration};
use tpu_hlo::{DType, GraphBuilder, Kernel, Shape, TileSize};
use tpu_learned_cost::CostModel;
use tpu_sim::{FaultPlan, TpuConfig, TpuDevice};

mod engine;
pub mod protocol;

pub use engine::{
    MonotonicClock, Prediction, ReloadError, ReloadPolicy, ServeClock, ServeConfig, ServeEngine,
    ServeError, ServeOptions, ServeStats, TickClock,
};
pub use protocol::{parse_request, KernelSpec, Request, RequestRef, WireError};

/// How [`read_client_line`] left the line buffer.
enum ClientLine {
    /// A complete line within the cap is in the buffer (without the newline).
    Line,
    /// The line exceeded the cap; its bytes were drained, not buffered.
    TooLong,
    /// The stream ended.
    Eof,
}

/// Read one newline-terminated line into `buf` (cleared first; the
/// connection reuses it) without ever buffering more than `max` bytes:
/// once a line overflows, the rest of it is consumed and discarded
/// chunk-by-chunk so an adversarial client cannot make the daemon
/// allocate in proportion to what it sends.
fn read_client_line<R: BufRead>(
    input: &mut R,
    max: usize,
    buf: &mut Vec<u8>,
) -> io::Result<ClientLine> {
    buf.clear();
    let mut overflow = false;
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            // EOF: a final unterminated line still counts.
            if buf.is_empty() && !overflow {
                return Ok(ClientLine::Eof);
            }
            break;
        }
        let (line_part, consumed, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => (&chunk[..pos], pos + 1, true),
            None => (chunk, chunk.len(), false),
        };
        if !overflow {
            buf.extend_from_slice(line_part);
        }
        input.consume(consumed);
        if buf.len() > max {
            overflow = true;
            // Drop the oversized allocation, not just its contents.
            *buf = Vec::new();
        }
        if done {
            break;
        }
    }
    Ok(if overflow {
        ClientLine::TooLong
    } else {
        ClientLine::Line
    })
}

/// Answer one request line into `reply`; `true` if it asked for shutdown.
/// `text` is the connection's scratch for the unescaped kernel text.
fn answer(serve: &ServeEngine, line: &str, text: &mut String, reply: &mut String) -> bool {
    match protocol::scan_request(line) {
        Ok(RequestRef::Predict {
            id,
            spec,
            deadline_ms,
        }) => match spec.to_hashed(text) {
            Ok(kernel) => match serve.submit_hashed(kernel, deadline_ms) {
                Ok(p) => protocol::write_predict_reply(reply, id, p.ns, p.degraded),
                Err(e) => *reply = protocol::error_reply(Some(id), e.code(), e.message()),
            },
            Err(msg) => *reply = protocol::error_reply(Some(id), "hlo", &msg),
        },
        Ok(RequestRef::Stats { id }) => {
            *reply = protocol::stats_reply(id, &serve.stats(), &serve.backend());
        }
        Ok(RequestRef::Ping { id }) => *reply = protocol::ping_reply(id),
        Ok(RequestRef::Reload { id, path }) => {
            *reply = match serve.reload_from_path(&path) {
                Ok(epoch) => protocol::reload_reply(id, epoch),
                Err(e) => protocol::reload_rejected_reply(id, e.reason(), &e.message()),
            };
        }
        Ok(RequestRef::Shutdown { id }) => {
            *reply = protocol::shutdown_reply(id);
            return true;
        }
        Err(err) => *reply = protocol::error_reply(err.id, err.code, &err.message),
    }
    false
}

/// Serve one NDJSON stream serially: read a line, answer it, repeat.
///
/// Returns `Ok(true)` if the stream asked for shutdown, `Ok(false)` if it
/// simply ended. Blank lines are skipped; oversized or non-UTF-8 lines
/// get a `bad_request` error without unbounded buffering. This frontend
/// is what stdin mode uses; because it is serial, a given request stream
/// produces a byte-identical response stream run-to-run (the chaos-replay
/// and resilience tests pin this).
///
/// A predict line goes from the line buffer to the engine in one pass
/// (see [`protocol`]): scanned in place, its kernel text unescaped into
/// one scratch string, parsed, hashed here, and submitted as a
/// [`HashedKernel`](tpu_hlo::HashedKernel). The three buffers live as
/// long as the connection, and each reply leaves in one `write_all`.
pub fn serve_ndjson<R: BufRead, W: Write>(
    serve: &ServeEngine,
    mut input: R,
    mut output: W,
) -> io::Result<bool> {
    let (mut buf, mut text, mut reply) = (Vec::new(), String::new(), String::new());
    loop {
        reply.clear();
        let mut stop = false;
        match read_client_line(&mut input, protocol::MAX_LINE_BYTES, &mut buf)? {
            ClientLine::Eof => return Ok(false),
            ClientLine::TooLong => {
                reply = protocol::error_reply(
                    None,
                    "bad_request",
                    &format!("request line exceeds {} bytes", protocol::MAX_LINE_BYTES),
                );
            }
            ClientLine::Line => match std::str::from_utf8(&buf) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => stop = answer(serve, line, &mut text, &mut reply),
                Err(_) => {
                    reply = protocol::error_reply(
                        None,
                        "bad_request",
                        "request line is not valid UTF-8",
                    );
                }
            },
        }
        reply.push('\n');
        output.write_all(reply.as_bytes())?;
        output.flush()?;
        if stop {
            return Ok(true);
        }
    }
}

/// Serve TCP clients until one of them sends `shutdown`.
///
/// Each accepted connection gets its own thread running [`serve_ndjson`];
/// all threads submit into the shared engine, which answers a hit on the
/// connection's thread, so misses from concurrent clients coalesce into
/// shared predictor batches. After a shutdown
/// request the listener stops accepting, already-connected clients are
/// served until they disconnect, and the engine drains.
pub fn serve_tcp(serve: &Arc<ServeEngine>, listener: TcpListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                stream.set_nonblocking(false)?;
                // One-line request/reply exchanges: Nagle + delayed ACK
                // would add tens of ms per round trip.
                stream.set_nodelay(true)?;
                let serve = Arc::clone(serve);
                let stop = Arc::clone(&stop);
                clients.push(std::thread::spawn(move || {
                    let reader = BufReader::new(match stream.try_clone() {
                        Ok(s) => s,
                        Err(_) => return,
                    });
                    if let Ok(true) = serve_ndjson(&serve, reader, &stream) {
                        stop.store(true, Ordering::SeqCst);
                    }
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    }
    for client in clients {
        let _ = client.join();
    }
    serve.shutdown();
    Ok(())
}

/// The roofline baseline as a [`CostModel`]: identity calibration over
/// [`AnalyticalModel`]. Scores any kernel with tile-size options; returns
/// `None` for the rest (paper footnote 3), which is exactly what
/// [`FallbackChain`](tpu_learned_cost::FallbackChain) expects.
pub struct AnalyticalCost {
    model: AnalyticalModel,
    calibration: Calibration,
}

impl AnalyticalCost {
    /// Identity-calibrated analytical model over `cfg`.
    pub fn new(cfg: TpuConfig) -> AnalyticalCost {
        AnalyticalCost {
            model: AnalyticalModel::new(cfg),
            calibration: Calibration::identity(),
        }
    }
}

impl CostModel for AnalyticalCost {
    fn predict_kernel_ns(&self, kernel: &Kernel) -> Option<f64> {
        self.calibration.predict_ns(&self.model, kernel)
    }
    fn name(&self) -> &str {
        "analytical"
    }
}

/// A (possibly fault-injected) simulated device as a [`CostModel`]:
/// transient [`DeviceError`](tpu_sim::DeviceError)s become `None`, so a wrapping
/// [`FallbackChain`](tpu_learned_cost::FallbackChain) absorbs the faults.
/// Owns the device; `Send` but not `Sync`, which is why the serve worker
/// owns the model.
pub struct DeviceModel {
    device: TpuDevice,
    runs: usize,
}

impl DeviceModel {
    /// Wrap a device, measuring each kernel over `runs` repetitions.
    pub fn new(device: TpuDevice, runs: usize) -> DeviceModel {
        DeviceModel {
            device,
            runs: runs.max(1),
        }
    }

    /// A chaos device: every fault class enabled, seeded for replay.
    pub fn chaos(seed: u64) -> DeviceModel {
        DeviceModel::new(TpuDevice::new(seed).with_faults(FaultPlan::chaos(seed)), 2)
    }
}

impl CostModel for DeviceModel {
    fn predict_kernel_ns(&self, kernel: &Kernel) -> Option<f64> {
        self.device.try_measure_kernel(kernel, self.runs).ok()
    }
    fn name(&self) -> &str {
        "device"
    }
}

/// A deterministic family of distinct kernels for load generation:
/// elementwise chains and reductions over varying shapes, all carrying a
/// tile size so every backend (analytical included) can score them.
pub fn demo_kernels(n: usize) -> Vec<Kernel> {
    (0..n)
        .map(|i| {
            let rows = 32 + 16 * (i % 7);
            let cols = 128 * (1 + i % 5);
            let mut b = GraphBuilder::new(format!("serve_demo_{i}"));
            let x = b.parameter("x", Shape::matrix(rows, cols), DType::F32);
            let mut cur = x;
            for step in 0..(1 + i % 3) {
                cur = if (i + step) % 2 == 0 {
                    b.tanh(cur)
                } else {
                    b.exp(cur)
                };
            }
            let root = if i % 4 == 3 {
                b.reduce(cur, vec![0])
            } else {
                cur
            };
            let mut kernel = Kernel::new(b.finish(root));
            if i % 4 != 3 {
                kernel = kernel.with_tile(TileSize(vec![8, 128.min(cols)]));
            }
            kernel
        })
        .collect()
}

/// The fixed probe-kernel panel for reload admission checks: a
/// deterministic slice of the demo family, shared by the daemon, the
/// resilience tests, and CI so every reload is judged on the same
/// kernels.
pub fn probe_panel() -> Vec<Kernel> {
    demo_kernels(16)
}

/// Percentile (0–100) of an unsorted sample by nearest-rank on a sorted
/// copy; `0.0` for an empty sample (a no-traffic drive report prints
/// zeros, never `NaN`).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use tpu_learned_cost::{AtomicCache, FallbackChain, KernelCache, SimOracle};
    use tpu_obs::Registry;

    fn start_sim_engine(cfg: ServeConfig) -> ServeEngine {
        let model: Box<dyn CostModel + Send> = Box::new(SimOracle::new(TpuConfig::default()));
        let cache: Arc<dyn KernelCache> = Arc::new(AtomicCache::serving_default());
        ServeEngine::start(model, cache, cfg, &Registry::noop())
    }

    #[test]
    fn submit_matches_direct_prediction() {
        let serve = start_sim_engine(ServeConfig::default());
        let oracle = SimOracle::new(TpuConfig::default());
        for kernel in demo_kernels(10) {
            let direct = oracle.predict_kernel_ns(&kernel);
            let served = serve.submit(kernel).expect("accepted");
            assert_eq!(served, direct);
        }
        let stats = serve.stats();
        assert_eq!(stats.answered, 10);
        assert_eq!(stats.rejected, 0);
        serve.shutdown();
    }

    #[test]
    fn repeat_requests_hit_the_cache() {
        let serve = start_sim_engine(ServeConfig::default());
        let kernels = demo_kernels(4);
        for k in &kernels {
            serve.submit(k.clone()).expect("accepted");
        }
        for k in &kernels {
            serve.submit(k.clone()).expect("accepted");
        }
        let stats = serve.stats();
        assert_eq!(stats.predict.kernels, 8);
        assert_eq!(stats.predict.model_evals, 4);
        assert_eq!(stats.predict.cache_hits, 4);
        serve.shutdown();
    }

    #[test]
    fn budget_turns_the_daemon_cache_only() {
        let serve = start_sim_engine(ServeConfig {
            eval_budget: Some(1),
            ..ServeConfig::default()
        });
        let kernels = demo_kernels(3);
        // First kernel consumes the budget (serial submits: one per batch).
        assert!(serve.submit(kernels[0].clone()).is_ok());
        // The budget check reads this counter: it is already 1 when the
        // first reply has arrived.
        assert_eq!(serve.stats().predict.model_evals, 1);
        // A different kernel now misses the cache and is denied...
        assert_eq!(
            serve.submit(kernels[1].clone()),
            Err(ServeError::BudgetExhausted)
        );
        // ...but the cached kernel keeps being served.
        assert!(serve.submit(kernels[0].clone()).is_ok());
        let stats = serve.stats();
        assert_eq!(stats.budget_denied, 1);
        assert_eq!(stats.answered, 2);
        serve.shutdown();
    }

    #[test]
    fn ndjson_stream_is_served_in_order() {
        let serve = start_sim_engine(ServeConfig::default());
        let kernels = demo_kernels(2);
        let mut input = String::new();
        input.push_str(&protocol::simple_request_line("ping", 1));
        input.push('\n');
        input.push_str(&protocol::predict_request_line(2, &kernels[0]));
        input.push('\n');
        input.push_str("this is not json\n");
        input.push_str(&protocol::simple_request_line("shutdown", 3));
        input.push('\n');
        // After shutdown, further lines must not be served.
        input.push_str(&protocol::predict_request_line(4, &kernels[1]));
        input.push('\n');

        let mut output = Vec::new();
        let stopped = serve_ndjson(&serve, Cursor::new(input), &mut output).expect("io");
        assert!(stopped);
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"pong\":true"));
        assert!(lines[1].contains("\"ok\":true"));
        assert!(lines[2].contains("\"code\":\"parse\""));
        assert!(lines[3].contains("\"shutdown\":true"));
        serve.shutdown();
    }

    #[test]
    fn fallback_chain_covers_faulty_device() {
        let primary = DeviceModel::chaos(11);
        let secondary = SimOracle::new(TpuConfig::default());
        let model: Box<dyn CostModel + Send> = Box::new(FallbackChain::new(primary, secondary));
        let cache: Arc<dyn KernelCache> = Arc::new(AtomicCache::serving_default());
        let serve = ServeEngine::start(model, cache, ServeConfig::default(), &Registry::noop());
        for kernel in demo_kernels(12) {
            let ns = serve.submit(kernel).expect("accepted").expect("scored");
            assert!(ns.is_finite() && ns > 0.0);
        }
        serve.shutdown();
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 51.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        // Zero-request case: definite zeros, never NaN, so empty drive
        // reports stay JSON-representable.
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }
}
