//! Batch-vs-single parity for the cost-model backends.
//!
//! The serving engine funnels every cache-miss batch through one
//! `predict_batch_ns` call, so any drift between the batched and the
//! per-kernel path silently changes served predictions. For the LSTM that
//! drift would come from masked packing (variable-length sequences run in
//! lockstep with per-row masks); the analytical model takes the trait's
//! default loop. Both must be **bit-identical** to the per-kernel path — not
//! approximately equal — across ragged batch shapes, including kernels
//! the analytical model cannot score (`None`) and batches that are empty
//! after cache dedup.

use std::sync::Arc;
use tpu_repro::hlo::{DType, GraphBuilder, Kernel, Shape};
use tpu_repro::analytical::AnalyticalModel;
use tpu_repro::learned::{AtomicCache, CostModel, LstmConfig, LstmModel, Predictor};
use tpu_repro::sim::TpuConfig;

/// An elementwise chain of `len` ops over a `rows x cols` matrix: `len`
/// controls the LSTM sequence length, the shape varies the features.
fn chain(len: usize, rows: usize, cols: usize) -> Kernel {
    let mut b = GraphBuilder::new("chain");
    let mut v = b.parameter("x", Shape::matrix(rows, cols), DType::F32);
    for i in 0..len {
        v = if i % 2 == 0 { b.tanh(v) } else { b.exp(v) };
    }
    Kernel::new(b.finish(v))
}

/// A ragged corpus of `n` kernels with sequence lengths cycling 1..=9 and
/// varying shapes — no two alike, so packing masks are exercised hard.
fn ragged(n: usize) -> Vec<Kernel> {
    (0..n)
        .map(|i| chain(1 + i % 9, 16 + 8 * i, 32 + 16 * (i % 5)))
        .collect()
}

fn bits(v: &[Option<f64>]) -> Vec<Option<u64>> {
    v.iter().map(|p| p.map(f64::to_bits)).collect()
}

#[test]
fn lstm_masked_batch_bit_identical_across_ragged_batches() {
    let model = LstmModel::new(LstmConfig::default());
    for n in [1usize, 2, 7, 64] {
        let kernels = ragged(n);
        let batch = model.predict_batch_ns(&kernels);
        let single: Vec<Option<f64>> =
            kernels.iter().map(|k| model.predict_kernel_ns(k)).collect();
        assert_eq!(
            bits(&batch),
            bits(&single),
            "masked batch of {n} drifted from per-kernel predictions"
        );
    }
}

#[test]
fn lstm_prediction_independent_of_batch_neighbors() {
    // The same kernel must predict identically alone, first-in-batch, and
    // padded among much longer sequences — masking must not leak.
    let model = LstmModel::new(LstmConfig::default());
    let probe = chain(2, 64, 64);
    let alone = model.predict_kernel_ns(&probe);
    for companions in [ragged(1), ragged(6), ragged(63)] {
        let mut batch_kernels = vec![probe.clone()];
        batch_kernels.extend(companions);
        let batch = model.predict_batch_ns(&batch_kernels);
        assert_eq!(
            batch[0].map(f64::to_bits),
            alone.map(f64::to_bits),
            "batch of {} changed the probe kernel's prediction",
            batch_kernels.len()
        );
    }
}

#[test]
fn analytical_batch_bit_identical_including_unsupported_kernels() {
    let model = AnalyticalModel::new(TpuConfig::default());
    for n in [1usize, 2, 7, 64] {
        // Interleave supported kernels with tiny ones that have no
        // tile-size options — the analytical model scores those as `None`
        // (paper footnote 3) and batching must preserve the positions.
        let kernels: Vec<Kernel> = (0..n)
            .map(|i| {
                if i % 3 == 2 {
                    chain(1, 4, 4)
                } else {
                    chain(1 + i % 4, 64 + 32 * i, 128)
                }
            })
            .collect();
        let batch = model.predict_batch_ns(&kernels);
        let single: Vec<Option<f64>> =
            kernels.iter().map(|k| model.predict_kernel_ns(k)).collect();
        assert_eq!(
            bits(&batch),
            bits(&single),
            "analytical batch of {n} drifted from per-kernel predictions"
        );
        if n >= 3 {
            assert!(batch[2].is_none(), "tiny kernel must be unsupported");
            assert!(batch[0].is_some(), "large kernel must be supported");
        }
    }
}

#[test]
fn empty_after_dedup_batch_runs_no_forward() {
    let model = LstmModel::new(LstmConfig::default());
    let predictor = Predictor::with_cache(model, Arc::new(AtomicCache::serving_default()));
    let kernels = ragged(7);
    let refs: Vec<&Kernel> = kernels.iter().collect();

    // Cold: one packed forward for all seven distinct misses.
    let (cold_preds, cold) = predictor.predict_ns_refs(&refs);
    assert_eq!(cold.model_batches, 1);
    assert_eq!(cold.model_evals, 7);

    // Warm: every kernel cached, so the miss batch is empty after dedup
    // and no forward runs at all.
    let (warm_preds, warm) = predictor.predict_ns_refs(&refs);
    assert_eq!(warm.model_batches, 0);
    assert_eq!(warm.model_evals, 0);
    assert_eq!(warm.cache_hits, 7);
    assert_eq!(bits(&cold_preds), bits(&warm_preds));

    // Duplicates of one *new* kernel collapse to a single fresh eval in a
    // single batch; every position still gets the same answer.
    let novel = chain(5, 500, 96);
    let dup_refs: Vec<&Kernel> = vec![&novel; 5];
    let (dup_preds, dup) = predictor.predict_ns_refs(&dup_refs);
    assert_eq!(dup.model_batches, 1);
    assert_eq!(dup.model_evals, 1);
    assert_eq!(dup.kernels, 5);
    let first = dup_preds[0].map(f64::to_bits);
    assert!(dup_preds.iter().all(|p| p.map(f64::to_bits) == first));
}
