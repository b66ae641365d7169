//! Wrappers around the public trait seams (`CostModel`, `KernelCache`,
//! `BatchSource`). A traced run passes these in place of the bare objects,
//! so every crossing of a layer boundary becomes a span under the current
//! root — without a line of the program changing.

use crate::trace::Tracer;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tpu_hlo::Kernel;
use tpu_learned_cost::{BatchSource, CacheStats, CostModel, ExampleMeta, KernelCache, Prepared};

/// A cost model whose every call is a span.
pub struct TracedModel<M> {
    pub inner: M,
    pub tracer: Arc<Tracer>,
}

impl<M: CostModel> CostModel for TracedModel<M> {
    fn predict_kernel_ns(&self, kernel: &Kernel) -> Option<f64> {
        self.tracer.child("infer.predict_kernel", || {
            self.inner.predict_kernel_ns(kernel)
        })
    }
    fn predict_batch_ns(&self, kernels: &[Kernel]) -> Vec<Option<f64>> {
        self.tracer.child("infer.predict_batch", || {
            self.inner.predict_batch_ns(kernels)
        })
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A kernel cache whose inserts are spans, and whose lookups are spans too
/// unless a root makes ~10^5 of them (search): two clock reads around a 20 ns
/// probe would measure the clock, so there they pass straight through and the
/// program's own hit counters say how many there were.
pub struct TracedCache<C> {
    pub inner: C,
    pub tracer: Arc<Tracer>,
    pub span_lookups: bool,
}

impl<C: KernelCache> KernelCache for TracedCache<C> {
    fn lookup_hash(&self, hash: u64) -> Option<Option<f64>> {
        if self.span_lookups {
            self.tracer
                .child("core.cache_lookup", || self.inner.lookup_hash(hash))
        } else {
            self.inner.lookup_hash(hash)
        }
    }
    fn insert_hash(&self, hash: u64, prediction: Option<f64>) {
        self.tracer.child("core.cache_insert", || {
            self.inner.insert_hash(hash, prediction)
        });
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn clear(&self) {
        self.inner.clear();
    }
    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
    fn eviction_count(&self) -> u64 {
        self.inner.eviction_count()
    }
}

/// A view of a batch source restricted to the examples in `keep`, which
/// stamps every `load` (a training step starts by loading its batch, so the
/// gaps between stamps are step latencies) and, when traced, records the
/// load itself as a span: the time a step waits for data.
pub struct SourceSeam<'a, S: ?Sized> {
    inner: &'a S,
    keep: Vec<usize>,
    tracer: Option<Arc<Tracer>>,
    /// When each `load` was called, and for how many examples.
    pub loads: Mutex<Vec<(Instant, usize)>>,
}

impl<'a, S: BatchSource + ?Sized> SourceSeam<'a, S> {
    pub fn new(inner: &'a S, keep: Vec<usize>, tracer: Option<Arc<Tracer>>) -> SourceSeam<'a, S> {
        SourceSeam {
            inner,
            keep,
            tracer,
            loads: Mutex::new(Vec::new()),
        }
    }
}

impl<S: BatchSource + ?Sized> BatchSource for SourceSeam<'_, S> {
    fn num_examples(&self) -> usize {
        self.keep.len()
    }
    fn meta(&self, i: usize) -> ExampleMeta {
        self.inner.meta(self.keep[i])
    }
    fn load(&self, idxs: &[usize]) -> Result<Vec<Prepared>, String> {
        self.loads
            .lock()
            .expect("only the training thread loads")
            .push((Instant::now(), idxs.len()));
        let mapped: Vec<usize> = idxs.iter().map(|&i| self.keep[i]).collect();
        match &self.tracer {
            Some(t) => t.child("dataset.load", || self.inner.load(&mapped)),
            None => self.inner.load(&mapped),
        }
    }
}
