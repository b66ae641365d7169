//! How many heap allocations a warm hit makes on the calling thread,
//! counted — not estimated — by a global allocator that tallies the
//! calling thread's `alloc` calls. Its own test binary, so the counter
//! sees nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use tpu_hlo::HashedKernel;
use tpu_learned_cost::{
    AtomicCache, BreakerConfig, CircuitBreaker, CostModel, FallbackChain, SimOracle,
};
use tpu_obs::Registry;
use tpu_serve::{demo_kernels, ServeConfig, ServeEngine, ServeOptions};
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

#[test]
fn a_warm_hit_allocates_nothing_and_a_miss_does() {
    // Wired as the daemon wires its default engine: a breaker the hit
    // path reads, a fallback chain behind it.
    let breaker = Arc::new(CircuitBreaker::new(BreakerConfig::default()));
    let oracle = || SimOracle::new(TpuConfig::default());
    let model: Box<dyn CostModel + Send> =
        Box::new(FallbackChain::new(oracle(), oracle()).with_breaker(Arc::clone(&breaker)));
    let engine = ServeEngine::start_with(
        model,
        Arc::new(AtomicCache::serving_default()),
        ServeConfig::default(),
        ServeOptions {
            breaker: Some(breaker),
            ..ServeOptions::default()
        },
        &Registry::noop(),
    );
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
    // The miss builds its job and reply channel: the counter sees them.
    let hashed = HashedKernel::new(kernels[4].clone());
    let (result, allocs) = allocations_of(|| engine.submit_hashed(hashed, None));
    assert!(result.is_ok());
    assert!(allocs > 0);
    assert_eq!(engine.stats().predict.cache_hits, 4);
    engine.shutdown();
}
