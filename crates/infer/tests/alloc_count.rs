//! How many heap allocations one frozen forward makes, counted — not
//! estimated — by a global allocator that tallies the calling thread's
//! `alloc` calls. Its own test binary, so the counter sees nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tpu_hlo::{DType, GraphBuilder, HashedKernel, Kernel, Shape};
use tpu_infer::{freeze_gnn, freeze_lstm, probe_kernels, FrozenModel};
use tpu_learned_cost::{
    CostModel, GnnConfig, GnnModel, LstmConfig, LstmModel, Predictor, Prepared, Reduction,
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
    let refs: Vec<&Kernel> = kernels.iter().collect();
    let featurize: usize = kernels
        .iter()
        .map(|k| allocations_of(|| Prepared::from_kernel(k)))
        .sum();
    for frozen in models() {
        // Beyond featurizing each kernel: the scratch and the result Vec,
        // whether the kernels are owned or lent.
        let owned = allocations_of(|| frozen.predict_batch_ns(std::hint::black_box(&kernels)));
        let lent = allocations_of(|| frozen.predict_refs_ns(std::hint::black_box(&refs)));
        assert_eq!(owned, featurize + 2, "{}", frozen.name());
        assert_eq!(lent, featurize + 2, "{}", frozen.name());
    }
}

#[test]
fn a_predictor_miss_lends_the_kernel_instead_of_copying_it() {
    // Beyond its featurize, a one-kernel miss allocates the same count for
    // a 2-node kernel as for the largest probe kernel; a copy of the
    // kernel would allocate per node.
    let mut b = GraphBuilder::new("two");
    let x = b.parameter("x", Shape::matrix(8, 8), DType::F32);
    let y = b.tanh(x);
    let small = HashedKernel::new(Kernel::new(b.finish(y)));
    let largest = probe_kernels(40)
        .into_iter()
        .max_by_key(|k| k.computation.num_nodes())
        .map(HashedKernel::new)
        .unwrap();
    assert!(largest.kernel().computation.num_nodes() > 2);
    for frozen in models() {
        let predictor = Predictor::uncached(&frozen);
        let beyond_featurize = |k: &HashedKernel| {
            let miss = allocations_of(|| {
                predictor.predict_keyed(std::hint::black_box(&[k.hash()]), |_| k.kernel())
            });
            miss - allocations_of(|| Prepared::from_kernel(k.kernel()))
        };
        assert_eq!(
            beyond_featurize(&small),
            beyond_featurize(&largest),
            "{}",
            frozen.name()
        );
    }
}
