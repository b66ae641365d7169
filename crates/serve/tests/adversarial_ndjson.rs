//! Adversarial-input and differential suite for the NDJSON frontend.
//!
//! A request line is the daemon's outermost input: anyone who can reach
//! the socket (or stdin) chooses its bytes. Whatever they are, the reply
//! must be a prediction or a typed error — never a panic on the
//! connection thread (in stdin mode, the daemon), never a stack overflow
//! (which aborts the process past any `catch_unwind`), never a panic on
//! the worker (which trips the breaker for every other client), never an
//! allocation the line cannot back. Pinned here:
//!
//! - the lines that used to kill or degrade the daemon, through a live
//!   engine wired as `tpu-serve` wires its default one;
//! - every truncation, bit flip, byte deletion and byte insertion of
//!   every predict line of `serve_golden.json` and of 64 corpus kernels'
//!   lines, as pure parsing and through that live engine: afterwards
//!   `backend_panics == 0`, `breaker_trips == 0`, and a `ping` answers;
//! - `parse_request` against the function it replaced (`support`, the
//!   oracle): the same `Ok(Request)` or the same `WireError`, message
//!   included, on every one of those lines;
//! - for every kernel of the Full corpus, line → scan → `HashedKernel`
//!   gives back the kernel and its canonical hash;
//! - the directly written predict reply against the tree-rendered one.

mod support;

use proptest::prelude::*;
use serde::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;
use std::sync::Arc;
use support::mutations;
use tpu_dataset::{Corpus, CorpusScale};
use tpu_fusion::{apply_fusion, default_space_and_config};
use tpu_hlo::{canonical_kernel_hash, ConvAttrs, DType, GraphBuilder, Kernel, Shape};
use tpu_learned_cost::{
    AtomicCache, BreakerConfig, CircuitBreaker, CostModel, FallbackChain, KernelCache, SimOracle,
};
use tpu_obs::Registry;
use tpu_serve::protocol::{
    self, predict_reply, predict_request_line, scan_request, simple_request_line, MAX_LINE_BYTES,
    MAX_TILE_DIMS,
};
use tpu_serve::{
    parse_request, serve_ndjson, Request, RequestRef, ServeConfig, ServeEngine, ServeOptions,
};
use tpu_sim::TpuConfig;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// Counts the bytes each thread asks for, so a test can say what one
/// scan allocates.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// thread-local `Cell` with no destructor, touched by nothing else.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes this thread allocated while `f` ran.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// An engine wired as `tpu-serve` wires its default one: the simulator
/// behind a fallback chain, sharing a circuit breaker with the engine.
fn default_daemon() -> ServeEngine {
    let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
        trip_after: 4,
        cooldown: 64,
    }));
    let oracle = || SimOracle::new(TpuConfig::default());
    let model: Box<dyn CostModel + Send> =
        Box::new(FallbackChain::new(oracle(), oracle()).with_breaker(Arc::clone(&breaker)));
    let cache: Arc<dyn KernelCache> = Arc::new(AtomicCache::with_capacity(1 << 12));
    let opts = ServeOptions {
        breaker: Some(breaker),
        ..ServeOptions::default()
    };
    ServeEngine::start_with(
        model,
        cache,
        ServeConfig::default(),
        opts,
        &Registry::noop(),
    )
}

/// Serve `input` to its end and return the reply lines.
fn serve(engine: &ServeEngine, input: Vec<u8>) -> Vec<String> {
    let mut output = Vec::new();
    let stopped = serve_ndjson(engine, Cursor::new(input), &mut output).expect("in-memory io");
    assert!(!stopped, "no line of the corpus is a shutdown request");
    String::from_utf8(output)
        .expect("replies are UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

/// The `(ok, error code)` of a reply line, which must be a JSON object.
fn verdict(reply: &str) -> (bool, Option<String>) {
    let value = serde_json::parse_value_str(reply).expect("a reply is JSON");
    let fields = value.as_object().expect("a reply is an object");
    let ok = matches!(serde::get_field(fields, "ok"), Some(Value::Bool(true)));
    let code = serde::get_field(fields, "error")
        .and_then(Value::as_object)
        .and_then(|e| serde::get_field(e, "code"))
        .and_then(Value::as_str)
        .map(str::to_string);
    assert_eq!(ok, code.is_none(), "{reply}");
    (ok, code)
}

/// The predict request lines of `tests/serve_golden.json`.
fn golden_predict_lines() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/serve_golden.json");
    let golden = std::fs::read_to_string(path).expect("the serve golden");
    let golden = serde_json::parse_value_str(&golden).expect("the golden is JSON");
    let transcript = serde::get_field(golden.as_object().unwrap(), "transcript").unwrap();
    let lines: Vec<String> = transcript
        .as_array()
        .unwrap()
        .iter()
        .map(|pair| serde::get_field(pair.as_object().unwrap(), "request").unwrap())
        .map(|request| request.as_str().unwrap().to_string())
        .filter(|line| matches!(parse_request(line), Ok(Request::Predict { .. })))
        .collect();
    assert!(
        lines.len() >= 4,
        "the golden holds {} predict lines",
        lines.len()
    );
    lines
}

/// Every kernel the default fusion makes of the Full corpus's programs.
fn corpus_kernels() -> Vec<Kernel> {
    let corpus = Corpus::build(CorpusScale::Full);
    let mut out = Vec::new();
    for entry in &corpus.entries {
        let (space, config) = default_space_and_config(&entry.program.computation);
        out.extend(apply_fusion(&entry.program, &space, &config).kernels);
    }
    out
}

/// The lines of 64 corpus kernels spread over the whole corpus.
fn corpus_lines() -> Vec<String> {
    let kernels = corpus_kernels();
    let step = kernels.len() / 64;
    (0..64)
        .map(|i| predict_request_line(i as u64, &kernels[i * step]))
        .collect()
}

const INSERTS: [&[u8]; 10] = [
    b"\"", b"\\", b"[", b"{", b",", b":", b" ", b"\n", b"\x80", b"0",
];

/// Every damaged line of the suite: all edits of the golden lines, the
/// cuts and every 13th-byte edit of the corpus lines.
fn damaged_lines() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for line in golden_predict_lines() {
        out.extend(mutations(line.as_bytes(), 1, &INSERTS));
    }
    for line in corpus_lines() {
        out.extend(mutations(line.as_bytes(), 13, &INSERTS));
    }
    out
}

/// Hand-made lines around the edges of the envelope.
fn edge_lines() -> Vec<String> {
    let golden = golden_predict_lines();
    let line = &golden[0];
    let with_text =
        |text: &str| format!("{{\"op\":\"predict\",\"id\":7,\"kernel\":{{\"text\":\"{text}\"}}}}");
    let mut out = vec![
        // Duplicate keys: the first wins, wherever it is.
        line.replacen("\"id\":2", "\"id\":2,\"id\":\"x\"", 1),
        line.replacen("\"id\":2", "\"id\":\"x\",\"id\":2", 1),
        line.replacen(
            "\"op\":\"predict\"",
            "\"op\":\"predict\",\"op\":\"ping\"",
            1,
        ),
        line.replacen("\"kernel\":", "\"kernel\":null,\"kernel\":", 1),
        line.replacen("\"text\":", "\"text\":7,\"text\":", 1),
        line.replacen("\"kind\":", "\"kind\":null,\"kind\":", 1),
        line.replacen("\"tile\":", "\"tile\":[0],\"tile\":", 1),
        // Keys written with escapes are the keys they decode to.
        line.replacen("\"id\"", "\"\\u0069d\"", 1),
        line.replacen("\"text\"", "\"te\\u0078t\"", 1),
        // Ids and deadlines at the edges of their types; integral floats.
        line.replacen("\"id\":2", "\"id\":9223372036854775808", 1),
        line.replacen("\"id\":2", "\"id\":18446744073709551615", 1),
        line.replacen("\"id\":2", "\"id\":18446744073709551616", 1),
        line.replacen("\"id\":2", "\"id\":-1", 1),
        line.replacen("\"id\":2", "\"id\":2.0", 1),
        line.replacen("\"id\":2", "\"id\":2e3", 1),
        line.replacen("\"id\":2", "\"id\":2.5", 1),
        line.replacen("\"id\":2", "\"id\":2,\"deadline_ms\":86400000", 1),
        line.replacen("\"id\":2", "\"id\":2,\"deadline_ms\":86400001", 1),
        line.replacen("\"id\":2", "\"id\":2,\"deadline_ms\":null", 1),
        line.replacen("\"id\":2", "\"id\":2,\"deadline_ms\":\"soon\"", 1),
        // Tiles: the cap, one over, bad extents with and without too many.
        line.replacen(
            "[8,64]",
            &format!("[{}]", vec!["8"; MAX_TILE_DIMS].join(",")),
            1,
        ),
        line.replacen(
            "[8,64]",
            &format!("[{}]", vec!["8"; MAX_TILE_DIMS + 1].join(",")),
            1,
        ),
        line.replacen(
            "[8,64]",
            &format!("[{}]", vec!["0"; MAX_TILE_DIMS + 1].join(",")),
            1,
        ),
        line.replacen("[8,64]", "[8,0]", 1),
        line.replacen("[8,64]", "[8,\"x\"]", 1),
        line.replacen("[8,64]", "[8,[64]]", 1),
        line.replacen("[8,64]", "[18446744073709551615,2]", 1),
        line.replacen("[8,64]", "{}", 1),
        line.replacen("[8,64]", "null", 1),
        line.replacen("\"single\"", "\"\\u0073ingle\"", 1),
        line.replacen("\"single\"", "\"plural\"", 1),
        line.replacen("\"single\"", "7", 1),
        // Escapes inside the text: a newline by number, a surrogate pair
        // (in a name, where any character may stand), lone surrogates.
        line.replace("\\n", "\\u000a"),
        line.replacen("name=\\\"x\\\"", "name=\\\"\\ud83d\\ude00\\\"", 1),
        line.replacen("name=\\\"x\\\"", "name=\\\"\\ud83d\\\"", 1),
        line.replacen("name=\\\"x\\\"", "name=\\\"\\ude00\\\"", 1),
        line.replacen("name=\\\"x\\\"", "name=\\\"\\ud83d\\u0041\\\"", 1),
        // Not an object; empty; other ops; reload paths.
        "[1,2]".to_string(),
        "7".to_string(),
        "{}".to_string(),
        "{\"id\":1}".to_string(),
        "{\"op\":7,\"id\":1}".to_string(),
        "{\"op\":\"\\u0070ing\",\"id\":1}".to_string(),
        "{\"op\":\"reload\",\"id\":1,\"path\":7}".to_string(),
        format!(
            "{{\"op\":\"reload\",\"id\":1,\"path\":\"{}\"}}",
            "p".repeat(4097)
        ),
        "{\"op\":\"stats\",\"id\":1} trailing".to_string(),
    ];
    // The shape and layout inputs that used to panic, or to be served
    // with a size that had wrapped.
    for ty in [
        "f32[0]{0}",
        "f32[1,1,1,1,1,1,1,1,1,1,1,1]{11,10,9,8,7,6,5,4,3,2,1,0}",
        "f32[2,2]{5,7}",
        "f32[2,2]{0,0}",
        "f32[2,2]{0}",
        "f32[4294967296,4294967296,4294967296]",
        "f32[9223372036854775808]",
        "f32[18446744073709551616]",
    ] {
        out.push(with_text(&format!(
            "computation t root=%1 {{\\n  %0 = parameter {ty} name=\\\"x\\\"\\n  %1 = tanh {ty} %0\\n}}\\n"
        )));
    }
    // Operands: forward (valid), self and duplicate ids (not).
    for body in [
        "%0 = tanh f32[2]{0} %1\\n  %1 = parameter f32[2]{0}",
        "%0 = parameter f32[2]{0}\\n  %1 = tanh f32[2]{0} %1",
        "%0 = parameter f32[2]{0}\\n  %0 = tanh f32[2]{0} %0",
        "%0 = parameter f32[2]{0}\\n  %4294967296 = tanh f32[2]{0} %0",
    ] {
        out.push(with_text(&format!(
            "computation t root=%1 {{\\n  {body}\\n}}\\n"
        )));
    }
    // Attribute values the shapes cannot hold: a 3x3 filter over a 2x2
    // input, a 2^32 x 2^32 window over that 3x3 filter (its product
    // overflowed in `conv_as_dot`: `backend_panic` under overflow checks),
    // a 2^63 stride.
    let conv = |input: usize, edit: fn(&mut ConvAttrs)| {
        let mut b = GraphBuilder::new("conv");
        let x = b.parameter("x", Shape::new(vec![1, 8, 8, 4]), DType::F32);
        let w = b.parameter("w", Shape::new(vec![3, 3, 4, 8]), DType::F32);
        let y = b.convolution(x, w, ConvAttrs::valid(3));
        let mut c = b.finish(y);
        c.node_mut(x).shape = Shape::new(vec![1, input, input, 4]);
        edit(c.node_mut(y).attrs.conv.as_mut().unwrap());
        predict_request_line(7, &Kernel::new(c))
    };
    out.push(conv(2, |_| {}));
    out.push(conv(8, |a| (a.filter_h, a.filter_w) = (1 << 32, 1 << 32)));
    out.push(conv(8, |a| a.stride_h = 1 << 63));
    out
}

#[test]
fn one_line_cannot_kill_the_daemon() {
    // `[[[[…`: the tree parser recursed once per bracket, and 100,000 of
    // them — a tenth of the line cap — overflowed the stack.
    for depth in [129, 100_000, 1_000_000] {
        for open in ["[", "{\"a\":"] {
            let line = open.repeat(depth);
            if line.len() <= MAX_LINE_BYTES {
                let err = parse_request(&line).unwrap_err();
                assert_eq!((err.code, err.id), ("parse", None));
                assert_eq!(err.message, "invalid JSON: nesting deeper than 128");
            }
        }
    }
    // The same inside the kernel text, which the HLO reader hands to the
    // same lexer: `attrs=[[[[…` and `name=[[[[…`.
    let engine = default_daemon();
    let mut input = Vec::new();
    let mut want = Vec::new();
    for depth in [129, 1_000_000] {
        input.extend_from_slice("[".repeat(depth).as_bytes());
        input.push(b'\n');
        want.push("parse");
        for key in ["attrs", "name"] {
            let line = format!(
                "{{\"op\":\"predict\",\"id\":1,\"kernel\":{{\"text\":\"computation t root=%0 {{\\n  %0 = parameter f32[2]{{0}} {key}={}\\n}}\\n\"}}}}",
                "[".repeat(depth)
            );
            assert!(line.len() <= MAX_LINE_BYTES);
            input.extend_from_slice(line.as_bytes());
            input.push(b'\n');
            want.push("hlo");
        }
    }
    input.extend_from_slice(simple_request_line("ping", 9).as_bytes());
    input.push(b'\n');
    let replies = serve(&engine, input);
    assert_eq!(replies.len(), want.len() + 1);
    for (reply, want) in replies.iter().zip(&want) {
        assert_eq!(verdict(reply).1.as_deref(), Some(*want), "{reply}");
    }
    assert!(replies.last().unwrap().contains("\"pong\":true"));
    engine.shutdown();
}

#[test]
fn a_malformed_kernel_is_an_hlo_error_and_degrades_no_one() {
    // `f32[0]{0}`, 12 dims, `{5,7}` and `{0,0}` panicked on the connection
    // thread; `f32[2,2]{0}` panicked on the worker, which answered
    // `backend_panic` and force-tripped the breaker, so every other
    // client's replies were marked degraded; the 2^96-element shape was
    // served with a size that had wrapped; the convolution whose window
    // overflowed panicked on the worker too.
    let engine = default_daemon();
    let healthy = golden_predict_lines().remove(0);
    let mut input = Vec::new();
    let hostile: Vec<String> = edge_lines()
        .into_iter()
        .filter(|l| l.contains("\"id\":7"))
        .collect();
    assert!(hostile.len() >= 12);
    for line in &hostile {
        input.extend_from_slice(line.as_bytes());
        input.push(b'\n');
        input.extend_from_slice(healthy.as_bytes());
        input.push(b'\n');
    }
    let replies = serve(&engine, input);
    assert_eq!(replies.len(), 2 * hostile.len());
    let mut refused = 0;
    for (pair, line) in replies.chunks(2).zip(&hostile) {
        match verdict(&pair[0]) {
            // The forward-operand graph is valid and is scored.
            (true, _) => assert!(line.contains("%0 = tanh f32[2]{0} %1"), "{line}"),
            (false, code) => {
                assert_eq!(code.as_deref(), Some("hlo"), "{line}: {}", pair[0]);
                refused += 1;
            }
        }
        assert!(verdict(&pair[1]).0, "{}", pair[1]);
        assert!(!pair[1].contains("degraded"), "after {line}: {}", pair[1]);
    }
    assert_eq!(refused, hostile.len() - 1);
    let stats = engine.stats();
    assert_eq!((stats.backend_panics, stats.breaker_trips), (0, 0));
    engine.shutdown();
}

/// `parse_request` and the oracle on one line: the same request, or the
/// same error to the byte.
fn assert_same_as_oracle(line: &str) {
    let (new, old) = (parse_request(line), support::parse_request(line));
    assert_eq!(new, old, "{line:?}");
}

#[test]
fn parse_request_is_the_function_it_replaced_on_every_damaged_line() {
    let mut lines: Vec<String> = damaged_lines()
        .into_iter()
        .filter_map(|bytes| String::from_utf8(bytes).ok())
        .collect();
    lines.extend(edge_lines());
    lines.extend(golden_predict_lines());
    lines.extend(corpus_lines());
    let (mut ok, mut parse, mut bad) = (0usize, 0usize, 0usize);
    for line in &lines {
        // An inserted or flipped-in newline splits a line in two on the
        // wire; both parsers are also asked about the unsplit text.
        assert_same_as_oracle(line);
        match parse_request(line) {
            // A kernel that parses is a kernel or a typed error, and the
            // borrowed path reaches the same verdict as the owning one.
            Ok(Request::Predict { spec, .. }) => {
                ok += 1;
                let owned = spec.to_kernel();
                let Ok(RequestRef::Predict { spec: kernel, .. }) = scan_request(line) else {
                    panic!("scan_request disagrees with parse_request on {line:?}");
                };
                let hashed = kernel.to_hashed(&mut String::from("stale"));
                assert_eq!(
                    hashed.as_ref().map(|h| h.kernel()),
                    owned.as_ref(),
                    "{line:?}"
                );
                if let Ok(h) = hashed {
                    assert_eq!(h.hash(), canonical_kernel_hash(h.kernel()));
                }
            }
            Ok(_) => ok += 1,
            Err(e) if e.code == "parse" => parse += 1,
            Err(_) => bad += 1,
        }
    }
    assert!(
        ok > 1000 && parse > 1000 && bad > 100,
        "{ok} ok, {parse} parse errors, {bad} bad requests"
    );
}

#[test]
fn the_line_cap_is_exact_and_non_utf8_is_refused() {
    let engine = default_daemon();
    let ping = simple_request_line("ping", 1);
    let padded = |len: usize| format!("{}{ping}", " ".repeat(len - ping.len()));
    assert!(parse_request(&padded(MAX_LINE_BYTES)).is_ok());
    assert_same_as_oracle(&padded(MAX_LINE_BYTES));
    assert_same_as_oracle(&padded(MAX_LINE_BYTES + 1));
    let mut input = Vec::new();
    for line in [padded(MAX_LINE_BYTES), padded(MAX_LINE_BYTES + 1)] {
        input.extend_from_slice(line.as_bytes());
        input.push(b'\n');
    }
    input.extend_from_slice(b"{\"op\":\"ping\",\"id\":\xff}\n");
    input.extend_from_slice(ping.as_bytes());
    let replies = serve(&engine, input);
    assert_eq!(replies.len(), 4);
    assert!(replies[0].contains("\"pong\":true"));
    assert_eq!(verdict(&replies[1]).1.as_deref(), Some("bad_request"));
    assert!(replies[1].contains("exceeds 1048576 bytes"));
    assert_eq!(verdict(&replies[2]).1.as_deref(), Some("bad_request"));
    assert!(replies[2].contains("not valid UTF-8"));
    assert!(replies[3].contains("\"pong\":true"));
    engine.shutdown();
}

#[test]
fn the_whole_corpus_through_a_live_daemon_panics_nothing() {
    let engine = default_daemon();
    let mut lines = damaged_lines();
    lines.extend(edge_lines().into_iter().map(String::into_bytes));
    let mut input = Vec::new();
    for line in &lines {
        input.extend_from_slice(line);
        input.push(b'\n');
    }
    // One reply per line that is not blank (an edit may have put a
    // newline in, so split as the daemon will).
    let answered: Vec<Vec<u8>> = input
        .split(|&b| b == b'\n')
        .filter(|l| std::str::from_utf8(l).map_or(true, |s| !s.trim().is_empty()))
        .map(<[u8]>::to_vec)
        .collect();
    input.extend_from_slice(simple_request_line("ping", 1).as_bytes());
    input.push(b'\n');
    let replies = serve(&engine, input);
    assert_eq!(replies.len(), answered.len() + 1);
    let mut by_code = std::collections::BTreeMap::<String, usize>::new();
    for (reply, line) in replies.iter().zip(&answered) {
        let code = verdict(reply).1.unwrap_or_else(|| "ok".to_string());
        // The one verdict a hostile line must not be able to cause.
        assert_ne!(code, "backend_panic", "{}", String::from_utf8_lossy(line));
        *by_code.entry(code).or_default() += 1;
    }
    // Every verdict the frontend can reach on its own is reached.
    for code in ["ok", "parse", "bad_request", "hlo"] {
        assert!(by_code.get(code).is_some_and(|&n| n > 100), "{by_code:?}");
    }
    assert!(replies.iter().all(|r| !r.contains("degraded")));
    let stats = engine.stats();
    assert_eq!((stats.backend_panics, stats.breaker_trips), (0, 0));
    assert!(replies[answered.len()].contains("\"pong\":true"));
    engine.shutdown();
}

#[test]
fn every_corpus_kernel_comes_back_from_its_line_with_its_hash() {
    let mut scratch = String::new();
    for (i, kernel) in corpus_kernels().iter().enumerate() {
        let line = predict_request_line(i as u64, kernel);
        let Ok(RequestRef::Predict {
            id,
            spec: scanned,
            deadline_ms: None,
        }) = scan_request(&line)
        else {
            panic!("{line} does not scan as a predict request");
        };
        assert_eq!(id, i as u64);
        let hashed = scanned
            .to_hashed(&mut scratch)
            .expect("a corpus kernel parses");
        assert_eq!(hashed.hash(), canonical_kernel_hash(kernel), "{line}");
        assert_eq!(hashed.kernel().kind, kernel.kind);
        assert_eq!(hashed.kernel().tile, kernel.tile);
        // Names are sanitised on the way out and `source_root` does not
        // travel: equal to what the owning path gives, which the dump
        // round-trip tests pin against the original.
        let Ok(Request::Predict { spec, .. }) = parse_request(&line) else {
            panic!("{line} does not parse as a predict request");
        };
        assert_eq!(hashed.kernel(), &spec.to_kernel().unwrap());
        assert_eq!(
            hashed.kernel().computation.num_nodes(),
            kernel.computation.num_nodes()
        );
    }
}

/// The predict reply as it was rendered before: a three-key `Value` tree.
fn tree_rendered_reply(id: u64, ns: Option<f64>, degraded: bool) -> String {
    let mut fields = vec![
        ("id".to_string(), Value::UInt(id)),
        ("ok".to_string(), Value::Bool(true)),
        ("ns".to_string(), ns.map_or(Value::Null, Value::Float)),
    ];
    if degraded {
        fields.push(("degraded".to_string(), Value::Bool(true)));
    }
    serde_json::value_to_string(&Value::Object(fields))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn the_written_reply_is_the_rendered_reply(
        id in any::<u64>(),
        bits in any::<u64>(),
        shift in 0u32..64,
        shape in 0u32..4,
    ) {
        // Ids of every length; floats of every class: any bit pattern
        // (NaNs and infinities included), integral values, and none.
        let id = id >> shift;
        let ns = match shape {
            0 => None,
            1 => Some((bits >> shift) as f64),
            2 => Some(f64::from_bits(bits) % 1e6),
            _ => Some(f64::from_bits(bits)),
        };
        for degraded in [false, true] {
            prop_assert_eq!(predict_reply(id, ns, degraded), tree_rendered_reply(id, ns, degraded));
        }
    }
}

#[test]
fn scanning_allocates_nothing_and_refusing_allocates_a_message() {
    for line in golden_predict_lines().iter().chain(&corpus_lines()) {
        let (request, bytes) = allocated_by(|| scan_request(line));
        assert!(matches!(request, Ok(RequestRef::Predict { .. })));
        assert_eq!(bytes, 0, "scanning {line}");
    }
    // What is refused for its size is refused before it is stored: a tile
    // of a hundred thousand extents, a megabyte of brackets.
    let tile = vec!["8"; 100_000].join(",");
    let too_long =
        format!("{{\"op\":\"predict\",\"id\":1,\"kernel\":{{\"text\":\"x\",\"tile\":[{tile}]}}}}");
    for line in [too_long, "[".repeat(1_000_000)] {
        let (request, bytes) = allocated_by(|| scan_request(&line));
        assert!(request.is_err());
        assert!(bytes < 512, "{bytes} bytes allocated to refuse a line");
    }
    // And the reply writer appends to the buffer it is given.
    let mut out = String::with_capacity(64);
    out.push_str("kept");
    let ((), bytes) = allocated_by(|| protocol::write_predict_reply(&mut out, 1, Some(2.5), false));
    assert_eq!(out, "kept{\"id\":1,\"ok\":true,\"ns\":2.5}");
    assert_eq!(bytes, 0);
}
