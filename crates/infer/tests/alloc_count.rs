//! How many heap allocations one frozen forward makes, counted — not
//! estimated — by a global allocator that tallies the calling thread's
//! `alloc` calls. Its own test binary, so the counter sees nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tpu_infer::{freeze_gnn, freeze_lstm, probe_kernels, FrozenModel};
use tpu_learned_cost::{
    CostModel, GnnConfig, GnnModel, LstmConfig, LstmModel, Prepared, Reduction,
};

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

fn allocations_of<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCS.with(Cell::get);
    std::hint::black_box(f());
    ALLOCS.with(Cell::get) - before
}

/// The default GNN per reduction, then the default LSTM.
fn models() -> Vec<FrozenModel> {
    let mut models: Vec<FrozenModel> = [Reduction::Sum, Reduction::Mean, Reduction::Max]
        .into_iter()
        .map(|reduction| {
            let model = GnnModel::new(GnnConfig {
                reduction,
                ..GnnConfig::default()
            });
            FrozenModel::Gnn(freeze_gnn(&model, &[]).unwrap())
        })
        .collect();
    let lstm = LstmModel::new(LstmConfig::default());
    models.push(FrozenModel::Lstm(freeze_lstm(&lstm, &[]).unwrap()));
    models
}

#[test]
fn a_forward_allocates_its_one_scratch_and_nothing_else() {
    let prepared: Vec<Prepared> = probe_kernels(6).iter().map(Prepared::from_kernel).collect();
    for frozen in models() {
        for p in &prepared {
            let allocs = allocations_of(|| frozen.predict_log_ns(std::hint::black_box(p)));
            assert_eq!(allocs, 1, "{}", frozen.name());
        }
    }
}

#[test]
fn a_serial_batch_shares_one_scratch_between_its_forwards() {
    let kernels = probe_kernels(6);
    let featurize: usize = kernels
        .iter()
        .map(|k| allocations_of(|| Prepared::from_kernel(k)))
        .sum();
    for frozen in models() {
        // Beyond featurizing each kernel: the scratch and the result Vec.
        let allocs = allocations_of(|| frozen.predict_batch_ns(std::hint::black_box(&kernels)));
        assert_eq!(allocs, featurize + 2, "{}", frozen.name());
    }
}
