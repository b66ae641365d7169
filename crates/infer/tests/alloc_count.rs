//! How many heap allocations one frozen forward makes, counted — not
//! estimated — by a global allocator that tallies the calling thread's
//! `alloc` calls. Its own test binary, so the counter sees nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tpu_infer::{freeze_gnn, freeze_lstm, probe_kernels, FrozenModel};
use tpu_learned_cost::{GnnConfig, GnnModel, LstmConfig, LstmModel, Prepared, Reduction};

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

fn allocations_of(frozen: &FrozenModel, p: &Prepared) -> usize {
    let before = ALLOCS.with(Cell::get);
    std::hint::black_box(frozen.predict_log_ns(std::hint::black_box(p)));
    ALLOCS.with(Cell::get) - before
}

#[test]
fn a_forward_allocates_its_few_buffers_and_nothing_else() {
    let prepared: Vec<Prepared> = probe_kernels(6).iter().map(Prepared::from_kernel).collect();
    // Node states, messages / next states, aggregates, pooled embedding;
    // a mean reduction adds its neighbor counts in each of the two hops.
    for (reduction, want) in [
        (Reduction::Sum, 4),
        (Reduction::Mean, 6),
        (Reduction::Max, 4),
    ] {
        let model = GnnModel::new(GnnConfig {
            reduction,
            ..GnnConfig::default()
        });
        let frozen = FrozenModel::Gnn(freeze_gnn(&model, &[]).unwrap());
        for p in &prepared {
            assert_eq!(allocations_of(&frozen, p), want, "{reduction:?} GNN");
        }
    }
    let lstm = LstmModel::new(LstmConfig::default());
    let frozen = FrozenModel::Lstm(freeze_lstm(&lstm, &[]).unwrap());
    for p in &prepared {
        assert_eq!(allocations_of(&frozen, p), 4, "LSTM");
    }
}
