//! `serve_warm` and `serve_cold`: predict lines through `serve_ndjson` over
//! an in-memory reader/writer, closed loop, one client.

use crate::io::{StampingReader, StampingWriter};
use crate::report::{Checker, Composed, Outcome};
use crate::seams::{TracedCache, TracedModel};
use crate::setup::Setup;
use crate::sizes::{Rounds, Sizes};
use crate::stats;
use crate::trace::Tracer;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{get_field, Value};
use std::sync::Arc;
use std::time::Instant;
use tpu_learned_cost::{AtomicCache, CostModel, KernelCache};
use tpu_obs::Registry;
use tpu_serve::{serve_ndjson, ServeConfig, ServeEngine};

/// Which of the two serve workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Every kernel resident: each request is a cache hit.
    Warm,
    /// Working set ≈ 16× the cache: each request is a miss, an insert and
    /// an eviction.
    Cold,
}

/// Start an engine over the set-up's frozen model. `tracer` wraps the model
/// and the cache in the span-recording seams.
pub fn start_engine(
    setup: &Setup,
    cache: AtomicCache,
    tracer: Option<&Arc<Tracer>>,
    registry: &Registry,
) -> ServeEngine {
    let (model, cache): (Box<dyn CostModel + Send>, Arc<dyn KernelCache>) = match tracer {
        Some(t) => (
            Box::new(TracedModel {
                inner: setup.frozen.clone(),
                tracer: Arc::clone(t),
            }),
            Arc::new(TracedCache {
                inner: cache,
                tracer: Arc::clone(t),
                span_lookups: true,
            }),
        ),
        None => (Box::new(setup.frozen.clone()), Arc::new(cache)),
    };
    ServeEngine::start(model, cache, ServeConfig::default(), registry)
}

/// One pass of `order` through `serve_ndjson`.
pub struct Pass {
    pub wall_s: f64,
    /// Line handed to `serve_ndjson` → reply flushed, per request.
    pub latency_us: Vec<f64>,
    /// Line handed out → next line handed out (the last: → end of the pass),
    /// per request: its share of the pass's wall time.
    pub cycle_us: Vec<f64>,
    pub replies: Vec<u8>,
}

pub fn drive(
    engine: &ServeEngine,
    lines: &[Vec<u8>],
    order: &[u32],
    tracer: Option<&Tracer>,
) -> Pass {
    let mut reader = StampingReader::new(lines, order, tracer);
    let mut writer = StampingWriter::new(order.len(), tracer);
    let started = Instant::now();
    let asked_to_stop =
        serve_ndjson(engine, &mut reader, &mut writer).expect("in-memory streams cannot fail");
    let ended = Instant::now();
    let wall_s = ended.duration_since(started).as_secs_f64();
    assert!(!asked_to_stop, "the load holds no shutdown request");
    let cycle_us = reader
        .sent
        .iter()
        .zip(reader.sent.iter().skip(1).chain(std::iter::once(&ended)))
        .map(|(sent, next)| next.duration_since(*sent).as_secs_f64() * 1e6)
        .collect();
    let latency_us = reader
        .sent
        .iter()
        .zip(&writer.flushed)
        .map(|(sent, flushed)| flushed.duration_since(*sent).as_secs_f64() * 1e6)
        .collect();
    Pass {
        wall_s,
        latency_us,
        cycle_us,
        replies: writer.bytes,
    }
}

/// Every reply parses, echoes its request's id and carries exactly the `ns`
/// the frozen model gives when called directly.
pub fn check_replies(replies: &[u8], order: &[u32], reference_ns: &[f64], check: &mut Checker) {
    let text = std::str::from_utf8(replies).unwrap_or("");
    let mut lines = text.lines();
    for &want in order {
        let verdict = match lines.next() {
            None => Err("reply missing".to_string()),
            Some(line) => check_reply(line, want, reference_ns[want as usize]),
        };
        check.op(verdict);
    }
    if lines.next().is_some() {
        check.fail("more replies than requests".to_string());
    }
}

fn check_reply(line: &str, id: u32, want_ns: f64) -> Result<(), String> {
    let value = serde_json::parse_value_str(line).map_err(|e| format!("reply {line:?}: {e}"))?;
    let fields = value
        .as_object()
        .ok_or_else(|| format!("reply {line:?} is not an object"))?;
    let got_id = get_field(fields, "id").and_then(Value::as_int);
    if got_id != Some(i128::from(id)) {
        return Err(format!("reply {line:?} does not echo id {id}"));
    }
    if !matches!(get_field(fields, "ok"), Some(Value::Bool(true))) {
        return Err(format!("reply {line:?} is not ok"));
    }
    let ns = get_field(fields, "ns").and_then(Value::as_f64);
    if ns.map(f64::to_bits) != Some(want_ns.to_bits()) {
        return Err(format!("reply {line:?}: direct prediction is {want_ns}"));
    }
    Ok(())
}

/// The request order of a round, the same in every round, so that request i
/// does the same work each time; the seed permutes it.
fn round_order(regime: Regime, kernels: usize, requests: usize, seed: u64) -> Vec<u32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match regime {
        Regime::Warm => {
            let mut order: Vec<u32> = (0..requests).map(|i| (i % kernels) as u32).collect();
            order.shuffle(&mut rng);
            order
        }
        // One seeded permutation of the pool, cycled whole: a kernel returns
        // only after every other one, within a round and from one round to
        // the next, so it never finds itself still resident.
        Regime::Cold => {
            let mut cycle: Vec<u32> = (0..kernels as u32).collect();
            cycle.shuffle(&mut rng);
            let cycles = (requests / kernels).max(1);
            (0..cycles).flat_map(|_| cycle.iter().copied()).collect()
        }
    }
}

/// Element-wise minimum of `low` and `sample`.
fn keep_fastest(low: &mut Vec<f64>, sample: &[f64]) {
    if low.is_empty() {
        low.extend_from_slice(sample);
    }
    for (l, x) in low.iter_mut().zip(sample) {
        *l = l.min(*x);
    }
}

pub fn run(
    regime: Regime,
    setup: &Setup,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    tracer: Option<&Arc<Tracer>>,
) -> Outcome {
    let kernels = match regime {
        Regime::Warm => sizes.warm_kernels.min(setup.pool.len()),
        Regime::Cold => setup.pool.len(),
    };
    let cache = match regime {
        Regime::Warm => AtomicCache::serving_default(),
        Regime::Cold => AtomicCache::with_capacity(sizes.cold_cache_slots),
    };
    let order = round_order(regime, kernels, sizes.serve_requests, seed);
    let requests = order.len();
    let mut out = Outcome::new(setup.accuracy);
    let engine = start_engine(setup, cache, tracer, &Registry::noop());
    // Warm-up, outside any root span: fills the cache (warm) and the
    // allocator and branch predictors (both). The cold warm-up is the pass
    // before round 0 of the same cycle, so that round 0 too finds nothing
    // resident.
    let everything: Vec<u32> = match regime {
        Regime::Warm => (0..kernels as u32).collect(),
        Regime::Cold => order[..kernels].to_vec(),
    };
    let warm_up = drive(&engine, &setup.lines, &everything, None);
    check_replies(
        &warm_up.replies,
        &everything,
        &setup.reference_ns,
        &mut out.check,
    );

    // In a baseline round no root span is open, and the seams pass calls
    // straight through.
    let mut rounds = Rounds::new(sizes, tracer.is_some(), seconds);
    let mut baseline_wall = Vec::new();
    let before = engine.stats();
    let mut bytes = 0usize;
    let mut all_latency: Vec<f64> = Vec::new();
    // Per chunk of `serve_chunk` requests, the fastest over rounds of its
    // wall time and of its median latency; and the fastest start of a pass
    // (before its first line is handed out).
    let (mut chunk_wall_low, mut chunk_p50_low) = (Vec::new(), Vec::new());
    let mut head_low_s = f64::INFINITY;
    while let Some(is_baseline) = rounds.next_is_baseline() {
        let pass = drive(
            &engine,
            &setup.lines,
            &order,
            if is_baseline {
                None
            } else {
                tracer.map(|t| &**t)
            },
        );
        check_replies(&pass.replies, &order, &setup.reference_ns, &mut out.check);
        if is_baseline {
            baseline_wall.push(pass.wall_s);
            continue;
        }
        bytes += order
            .iter()
            .map(|&i| setup.lines[i as usize].len())
            .sum::<usize>();
        out.push_round(pass.wall_s, requests as f64 / pass.wall_s, &pass.latency_us);
        let chunk_wall: Vec<f64> = pass
            .cycle_us
            .chunks(sizes.serve_chunk)
            .map(|c| c.iter().sum())
            .collect();
        let chunk_p50: Vec<f64> = pass
            .latency_us
            .chunks(sizes.serve_chunk)
            .map(|c| stats::percentile(c, 50.0))
            .collect();
        head_low_s = head_low_s.min(pass.wall_s - chunk_wall.iter().sum::<f64>() / 1e6);
        keep_fastest(&mut chunk_wall_low, &chunk_wall);
        keep_fastest(&mut chunk_p50_low, &chunk_p50);
        all_latency.extend(pass.latency_us);
    }
    // Every round sends the same requests in the same order, and the host's
    // slow phases come and go within a round: each chunk is reported at its
    // fastest over rounds, the round as their sum, and the latency as the
    // median chunk's median. (Single requests would be finer still, but a
    // hand-off jitters by tens of microseconds on a quiet host too, and the
    // fastest of 35 tries of each request reads 14 % below any round.)
    if !chunk_wall_low.is_empty() {
        let wall_s = head_low_s + chunk_wall_low.iter().sum::<f64>() / 1e6;
        out.composed = Some(Composed {
            wall_s,
            ops_per_s: requests as f64 / wall_s,
            latency_p50_us: stats::percentile(&chunk_p50_low, 50.0),
        });
    }
    let after = engine.stats();
    engine.shutdown();
    let round = rounds.handed_out() as u64;

    out.note(format!(
        "latency: {} rounds of {requests} requests in chunks of {}, each chunk reported at its fastest over rounds; {} samples beyond a round's p99; pooled over the rounds (n={}) p50 {:.3} us",
        out.wall_s.len(),
        sizes.serve_chunk,
        requests - (0.99 * requests as f64).ceil() as usize,
        all_latency.len(),
        stats::percentile(&all_latency, 50.0),
    ));

    let predict = after.predict.since(&before.predict);
    let (served, hits) = (predict.kernels, predict.cache_hits);
    let (evals, model_batches) = (predict.model_evals, predict.model_batches);
    let batches = after.batches - before.batches;
    let hit_rate = hits as f64 / served.max(1) as f64;
    let want_rate = match regime {
        Regime::Warm => 1.0,
        Regime::Cold => 0.0,
    };
    out.check.that(hit_rate == want_rate, || {
        format!(
            "ServeStats.predict hit rate {hit_rate} (hits {hits} of {served}), want {want_rate}"
        )
    });
    out.check.that(served == round * requests as u64, || {
        format!(
            "daemon served {served} kernels for {} requests",
            round * requests as u64
        )
    });

    // Counts are per round: rounds do equal work, so these repeat exactly
    // however many rounds fitted into the run.
    let per_round = |count: u64| count as f64 / round as f64;
    let layer = &mut out.layer;
    layer.insert("serve.batches", per_round(batches));
    layer.insert(
        "serve.mean_batch_size",
        served as f64 / batches.max(1) as f64,
    );
    layer.insert("core.cache_hit_rate", hit_rate);
    layer.insert(
        "core.cache_evictions",
        per_round(after.cache_evictions - before.cache_evictions),
    );
    layer.insert("core.model_evals", per_round(evals));
    layer.insert("core.model_batches", per_round(model_batches));
    layer.insert(
        "core.mean_miss_batch_size",
        if model_batches == 0 {
            0.0
        } else {
            evals as f64 / model_batches as f64
        },
    );
    layer.insert("serve.latency_p99_us", stats::low(&out.latency_p99_us));
    layer.insert(
        "serve.latency_p999_us",
        stats::percentile(&all_latency, 99.9),
    );
    layer.insert(
        "serve.request_bytes_mean",
        bytes as f64 / all_latency.len().max(1) as f64,
    );
    out.mean_request_us = stats::mean(&all_latency);
    out.baseline_wall_s = baseline_wall;
    out
}
