//! How many heap allocations one parse of the text format makes, counted
//! — not estimated — by a global allocator that tallies the calling
//! thread's `alloc` and `realloc` calls. Its own test binary, so the
//! counter sees nothing else.
//!
//! A node's shape and layout, and the index list of a reduce, transpose or
//! broadcast, are stored inline and the reader reads integers where they
//! stand, so a parse allocates the node list, the computation's name, and
//! per node what it owns on the heap: its operand list, its name and the
//! lists of its attributes, when it has them.

mod support;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use support::full_text::dump_full;
use tpu_dataset::{build_fusion_dataset, Corpus, CorpusScale, FusionDatasetConfig};
use tpu_fusion::{apply_fusion, default_space_and_config};
use tpu_hlo::{dump_computation, parse_computation, Computation, Node};

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
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = std::hint::black_box(f());
    (out, ALLOCS.with(Cell::get) - before)
}

/// The most one parse of a text that reads as `c` may allocate: the node
/// list and the name, then per node one for its operands, one for its
/// name and what its attributes own — one for each of their lists that is
/// not empty, as cloning them counts it.
fn allowance(c: &Computation) -> usize {
    let owned = |n: &Node| {
        let attrs = allocations_of(|| n.attrs.clone()).1;
        usize::from(!n.operands.is_empty()) + usize::from(!n.name.is_empty()) + attrs
    };
    2 + c.nodes().iter().map(owned).sum::<usize>()
}

#[test]
fn a_parse_allocates_its_node_list_its_name_and_what_each_node_owns() {
    let corpus = Corpus::build(CorpusScale::Full);
    let mut kernels = 0;
    for entry in &corpus.entries {
        let (space, config) = default_space_and_config(&entry.program.computation);
        for kernel in apply_fusion(&entry.program, &space, &config).kernels {
            let c = &kernel.computation;
            for text in [dump_computation(c), dump_full(c)] {
                let (parsed, allocs) = allocations_of(|| parse_computation(&text));
                assert_eq!(&parsed.expect("a corpus kernel parses"), c);
                let allowed = allowance(c);
                assert!(
                    allocs <= allowed,
                    "{allocs} > {allowed} allocations: {text}"
                );
            }
            kernels += 1;
        }
    }
    assert!(kernels > 1000, "only {kernels} corpus kernels");
}

#[test]
fn the_warm_pool_parses_in_at_most_8_1_allocations_a_kernel() {
    // The benchmark's `serve_warm` pool: the first 256 test-split kernels
    // of the Full corpus's fusion dataset (8 configurations a program,
    // seed 2), sent as `dump_computation` writes them.
    let corpus = Corpus::build(CorpusScale::Full);
    let config = FusionDatasetConfig {
        configs_per_program: 8,
        seed: 2,
        ..Default::default()
    };
    let dataset = build_fusion_dataset(&corpus, &config);
    let (_, _, test) = dataset.split(&corpus.random_split(2));
    let texts: Vec<String> = test
        .iter()
        .take(256)
        .map(|ex| dump_computation(&ex.kernel.computation))
        .collect();
    assert_eq!(texts.len(), 256);
    let total: usize = texts
        .iter()
        .map(|text| allocations_of(|| parse_computation(text).expect("parses")).1)
        .sum();
    let mean = total as f64 / texts.len() as f64;
    eprintln!("warm pool: {mean:.2} allocations a parse");
    // 8.07 with the reduce, transpose and broadcast lists stored inline;
    // 8.52 while they were vectors.
    assert!(mean <= 8.1, "{mean:.2} allocations a parse");
}
