//! Training memory does not scale with the dataset: `train_stream` keeps
//! exactly one batch of loaded examples alive at a time.
//!
//! Liveness of a loaded `Prepared` is observed through a tagging global
//! allocator, so this test is the only one in its binary: the allocator
//! and its process-global counter must not see any other test's batches.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tpu_repro::hlo::{DType, GraphBuilder, Kernel, Shape};
use tpu_repro::learned::{
    stream_epoch_plan, train_stream, BatchSource, ExampleMeta, GnnConfig, GnnModel, Prepared,
    Sample, StreamConfig, TrainConfig,
};
use tpu_repro::sim::{kernel_time_ns, TpuConfig};

/// Byte size no allocation in this binary has except the tag buffers
/// [`CountingSource::load`] attaches (8 × a prime well above any tensor
/// here), so [`TagCounter`] can tell whether a loaded example is alive.
const TAG_BYTES: usize = 8 * 12_347;

static LIVE_TAGS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live `TAG_BYTES`-sized blocks.
struct TagCounter;

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// bookkeeping on the side.
unsafe impl GlobalAlloc for TagCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() == TAG_BYTES {
            LIVE_TAGS.fetch_add(1, Ordering::SeqCst);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout.size() == TAG_BYTES {
            LIVE_TAGS.fetch_sub(1, Ordering::SeqCst);
        }
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: TagCounter = TagCounter;

/// An in-memory source that counts what the training loop asks of it.
/// Every example it hands out carries a `TAG_BYTES` buffer (the spare
/// capacity of `opcode_ids`), freed only when that example is dropped.
struct CountingSource<'a> {
    examples: &'a [Prepared],
    loads: AtomicUsize,
    largest_request: AtomicUsize,
    /// Examples from earlier batches still alive when a `load` began.
    stale: AtomicUsize,
}

impl BatchSource for CountingSource<'_> {
    fn num_examples(&self) -> usize {
        self.examples.len()
    }
    fn meta(&self, i: usize) -> ExampleMeta {
        self.examples.meta(i)
    }
    fn load(&self, idxs: &[usize]) -> Result<Vec<Prepared>, String> {
        self.stale.fetch_add(LIVE_TAGS.load(Ordering::SeqCst), Ordering::SeqCst);
        self.loads.fetch_add(1, Ordering::SeqCst);
        self.largest_request.fetch_max(idxs.len(), Ordering::SeqCst);
        let mut batch = self.examples.load(idxs)?;
        for p in &mut batch {
            let mut tagged = Vec::with_capacity(TAG_BYTES / std::mem::size_of::<usize>());
            tagged.extend_from_slice(&p.opcode_ids);
            p.opcode_ids = tagged;
        }
        assert_eq!(LIVE_TAGS.load(Ordering::SeqCst), batch.len(), "tag buffers are not unique");
        Ok(batch)
    }
}

fn chain_kernel(len: usize, cols: usize) -> Kernel {
    let mut b = GraphBuilder::new("chain");
    let x = b.parameter("x", Shape::matrix(8, cols), DType::F32);
    let mut h = x;
    for _ in 0..len {
        h = b.tanh(h);
    }
    Kernel::new(b.finish(h))
}

/// Mostly small graphs plus a few far over the segment cap, so the loop
/// also replaces loaded examples by BFS segments.
fn workload() -> Vec<Prepared> {
    let hw = TpuConfig::default();
    let lens = (0..10).map(|i| (3 + i % 4, 32 + 16 * i));
    let long = (0..4).map(|i| (150, 64 + 32 * i));
    lens.chain(long)
        .map(|(len, cols)| {
            let k = chain_kernel(len, cols);
            let t = kernel_time_ns(&k, &hw);
            Prepared::from_sample(&Sample::new(k, t))
        })
        .collect()
}

/// The loop issues one `load` per planned batch, never asks for more than
/// a batch, and has dropped every example of batch `k` before it loads
/// batch `k + 1`.
#[test]
fn train_stream_holds_one_batch_at_a_time() {
    let examples = workload();
    let (train_set, val_set) = examples.split_at(11);
    let source = CountingSource {
        examples: train_set,
        loads: AtomicUsize::new(0),
        largest_request: AtomicUsize::new(0),
        stale: AtomicUsize::new(0),
    };
    let train_cfg = TrainConfig {
        epochs: 2,
        batch_size: 4,
        shards: 2,
        ..Default::default()
    };
    // Small enough that the oversized chains are replaced by segments.
    let scfg = StreamConfig {
        segment_nodes: 32,
        ..Default::default()
    };
    let mut model = GnnModel::new(GnnConfig {
        hidden: 8,
        opcode_embed_dim: 4,
        hops: 1,
        ..Default::default()
    });
    let report = train_stream(&mut model, &source, val_set, &train_cfg, &scfg).unwrap();
    assert_eq!(report.train_loss.len(), train_cfg.epochs);

    let planned: usize = (0..train_cfg.epochs)
        .map(|epoch| stream_epoch_plan(&source, &train_cfg, &scfg, epoch).len())
        .sum();
    assert!(planned > train_cfg.epochs, "plan too short to be meaningful");
    assert_eq!(source.loads.load(Ordering::SeqCst), planned, "one load per planned batch");
    assert!(source.largest_request.load(Ordering::SeqCst) <= train_cfg.batch_size);
    assert_eq!(
        source.stale.load(Ordering::SeqCst),
        0,
        "examples of an earlier batch were still alive at a later load"
    );
    assert_eq!(LIVE_TAGS.load(Ordering::SeqCst), 0, "the last batch outlived training");
}
