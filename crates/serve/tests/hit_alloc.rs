//! How many heap allocations a warm hit makes on the calling thread,
//! counted — not estimated — by a global allocator that tallies the
//! calling thread's `alloc` calls. Its own test binary, so the counter
//! sees nothing else. Pinned for a hit submitted as a hashed kernel, and
//! for a warm request line through `serve_ndjson`, which is answered from
//! its text key: no unescape and no parse, each of which allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;
use std::sync::Arc;
use tpu_hlo::HashedKernel;
use tpu_learned_cost::{AtomicCache, SimOracle};
use tpu_obs::Registry;
use tpu_serve::protocol::predict_request_line;
use tpu_serve::{
    demo_kernels, serve_ndjson, BreakerConfig, Fallback, ServeConfig, ServeEngine, ServeOptions,
};
use tpu_sim::TpuConfig;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the tally is a
// const-initialized `Cell<usize>` thread-local, which neither allocates
// nor runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = std::hint::black_box(f());
    (out, ALLOCS.with(Cell::get) - before)
}

/// Wired as the daemon wires its default engine: a breaker the hit path
/// reads, a fallback behind it.
fn default_daemon() -> ServeEngine {
    let oracle = || Box::new(SimOracle::new(TpuConfig::default()));
    ServeEngine::start_with(
        oracle(),
        Arc::new(AtomicCache::serving_default()),
        ServeConfig::default(),
        ServeOptions {
            fallback: Some(Fallback {
                model: oracle(),
                breaker: Some(BreakerConfig::default()),
            }),
            ..ServeOptions::default()
        },
        &Registry::noop(),
    )
}

/// A lower bound on the allocations of unescaping and parsing one demo
/// kernel's text (8 when measured, the text scratch's growth included).
const PARSE_ALLOCS: usize = 6;

/// Allocations of one `serve_ndjson` call over `rounds` copies of
/// `lines`, into a writer grown beforehand.
fn serve_allocations(engine: &ServeEngine, lines: &str, rounds: usize) -> usize {
    let input = lines.repeat(rounds);
    let mut output = Vec::with_capacity(4 * input.len());
    let (stopped, allocs) =
        allocations_of(|| serve_ndjson(engine, Cursor::new(input.as_bytes()), &mut output));
    assert!(!stopped.unwrap());
    allocs
}

#[test]
fn a_warm_hit_allocates_nothing_and_a_miss_does() {
    let engine = default_daemon();
    let kernels = demo_kernels(5);
    for kernel in &kernels[..4] {
        engine.submit(kernel.clone()).unwrap();
    }
    for kernel in &kernels[..4] {
        let hashed = HashedKernel::new(kernel.clone());
        let (result, allocs) = allocations_of(|| engine.submit_hashed(hashed, None));
        assert!(result.is_ok_and(|p| p.ns.is_some()));
        assert_eq!(allocs, 0, "{}", kernel.computation.name());
    }
    // The miss is scored on this thread, and the forward allocates: the
    // counter sees it.
    let hashed = HashedKernel::new(kernels[4].clone());
    let (result, allocs) = allocations_of(|| engine.submit_hashed(hashed, None));
    assert!(result.is_ok());
    assert!(allocs > 0);
    assert_eq!(engine.stats().predict.cache_hits, 4);
    engine.shutdown();
}

#[test]
fn a_warm_line_is_answered_from_its_text_without_allocating() {
    let engine = default_daemon();
    let kernels = demo_kernels(8);
    let lines = |range: std::ops::Range<usize>| -> String {
        range
            .map(|i| predict_request_line(i as u64, &kernels[i]) + "\n")
            .collect()
    };
    let warm = lines(0..4);
    // The cold pass parses each text, scores it and stores its answer
    // under both keys.
    serve_allocations(&engine, &warm, 1);
    assert_eq!(engine.stats().predict.model_evals, 4);
    // A call's buffers grow on its first lines; the 36 warm text hits
    // after them must add no allocation to the call.
    let once = serve_allocations(&engine, &warm, 1);
    assert_eq!(serve_allocations(&engine, &warm, 10), once);
    let stats = engine.stats();
    assert_eq!(
        (stats.predict.cache_hits, stats.predict.model_evals),
        (44, 4)
    );

    // The counter sees a parse: the same four kernels in another escaping
    // are canonical hits, but each text is unescaped and parsed first.
    let fresh = lines(4..8);
    serve_allocations(&engine, &fresh, 1);
    let warm_again = serve_allocations(&engine, &fresh, 1);
    let parsed = serve_allocations(&engine, &fresh.replace("\\n", "\\u000a"), 1);
    assert!(
        parsed >= warm_again + 4 * PARSE_ALLOCS,
        "4 parses allocated {parsed} against {warm_again} for 4 text hits"
    );
    engine.shutdown();
}
