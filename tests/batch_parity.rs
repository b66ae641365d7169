//! Batch-vs-single parity for the cost-model backends.
//!
//! The serving engine funnels every cache-miss batch through one
//! `predict_batch_ns` call, so any drift between the batched and the
//! per-kernel path silently changes served predictions. The LSTM serves
//! one tape-free forward per kernel, but trains on masked packing
//! (variable-length sequences run in lockstep with per-row masks), so its
//! served predictions must also be the packed tape forward's; the
//! analytical model and the simulator take the trait's default loop. All
//! must be **bit-identical** — not approximately equal — across ragged
//! batch shapes, including kernels the analytical model cannot score
//! (`None`) and batches that are empty after cache dedup.

use std::sync::Arc;
use tpu_repro::analytical::AnalyticalCost;
use tpu_repro::hlo::{DType, FusedProgram, GraphBuilder, Kernel, Shape};
use tpu_repro::infer::{freeze_gnn, freeze_lstm, FrozenModel};
use tpu_repro::learned::{
    forward_log_ns, predict_log_ns, AtomicCache, CostModel, GnnConfig, GnnModel, LstmConfig,
    LstmModel, Predictor, Prepared, SimOracle,
};
use tpu_repro::sim::{TpuConfig, TpuDevice};

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
        let single: Vec<Option<f64>> = kernels.iter().map(|k| model.predict_kernel_ns(k)).collect();
        assert_eq!(
            bits(&batch),
            bits(&single),
            "masked batch of {n} drifted from per-kernel predictions"
        );
        let prepared: Vec<Prepared> = kernels.iter().map(Prepared::from_kernel).collect();
        let refs: Vec<&Prepared> = prepared.iter().collect();
        let packed: Vec<Option<f64>> = forward_log_ns(&model, &refs)
            .into_iter()
            .map(|l| Some(l.exp()))
            .collect();
        assert_eq!(
            bits(&batch),
            bits(&packed),
            "served batch of {n} drifted from the masked packed tape forward"
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

/// `n` kernels: supported ones interleaved with tiny ones that have no
/// tile-size options, which the analytical model scores as `None` (paper
/// footnote 3) and batching must keep in place.
fn with_unsupported(n: usize) -> Vec<Kernel> {
    (0..n)
        .map(|i| {
            if i % 3 == 2 {
                chain(1, 4, 4)
            } else {
                chain(1 + i % 4, 64 + 32 * i, 128)
            }
        })
        .collect()
}

/// `model`'s per-kernel answers, after checking that its batch methods
/// give the same bits and its program method their in-order sum (`None`
/// when any kernel is unsupported).
fn one_answer(label: &str, model: &dyn CostModel, kernels: &[Kernel]) -> Vec<Option<u64>> {
    let single: Vec<Option<f64>> = kernels.iter().map(|k| model.predict_kernel_ns(k)).collect();
    let refs: Vec<&Kernel> = kernels.iter().collect();
    let n = kernels.len();
    assert_eq!(
        bits(&model.predict_batch_ns(kernels)),
        bits(&single),
        "{label}: predict_batch_ns of {n}"
    );
    assert_eq!(
        bits(&model.predict_refs_ns(&refs)),
        bits(&single),
        "{label}: predict_refs_ns of {n}"
    );
    let sum = single
        .iter()
        .try_fold(0.0, |total, ns| ns.map(|v| total + v));
    let program = FusedProgram::new("p", kernels.to_vec());
    assert_eq!(
        model.predict_program_ns(&program).map(f64::to_bits),
        sum.map(f64::to_bits),
        "{label}: predict_program_ns of {n}"
    );
    bits(&single)
}

/// Every backend in the workspace answers one way: its three kernel
/// methods agree bit for bit and its program method is their sum, and a
/// `Predictor` over it answers exactly what it does. The neural backends'
/// answers are also the one tape-free function over featurized kernels,
/// exponentiated.
#[test]
fn every_backend_answers_one_way_including_unsupported_kernels() {
    let cfg = TpuConfig::default();
    let gnn = GnnModel::new(GnnConfig::default());
    let lstm = LstmModel::new(LstmConfig::default());
    let frozen_gnn = FrozenModel::Gnn(freeze_gnn(&gnn, &[]).expect("finite weights"));
    let frozen_lstm = FrozenModel::Lstm(freeze_lstm(&lstm, &[]).expect("finite weights"));
    let calibration = [FusedProgram::new("cal", with_unsupported(12))];
    let fitted = AnalyticalCost::fit(cfg.clone(), &calibration, &TpuDevice::new(3));
    let backends: [(&str, &dyn CostModel); 7] = [
        ("gnn", &gnn),
        ("lstm", &lstm),
        ("frozen gnn", &frozen_gnn),
        ("frozen lstm", &frozen_lstm),
        ("simulator", &SimOracle::new(cfg.clone())),
        ("analytical", &AnalyticalCost::new(cfg)),
        ("fitted analytical", &fitted),
    ];
    for n in [1usize, 2, 7, 64] {
        let kernels = with_unsupported(n);
        let prepared: Vec<Prepared> = kernels.iter().map(Prepared::from_kernel).collect();
        for (label, model) in backends {
            let answers = one_answer(label, model, &kernels);
            let cached = Predictor::new(model);
            assert_eq!(
                one_answer(&format!("cached {label}"), &cached, &kernels),
                answers,
                "a predictor over {label} answers what {label} does"
            );
            let unsupported = answers.iter().filter(|a| a.is_none()).count();
            let analytical = label.ends_with("analytical");
            assert_eq!(unsupported, if analytical { n / 3 } else { 0 }, "{label}");
            let log_ns: Option<Vec<f64>> = match label {
                "gnn" => Some(predict_log_ns(&gnn, &prepared).collect()),
                "lstm" => Some(predict_log_ns(&lstm, &prepared).collect()),
                "frozen gnn" => Some(
                    prepared
                        .iter()
                        .map(|p| frozen_gnn.predict_log_ns(p))
                        .collect(),
                ),
                "frozen lstm" => Some(
                    prepared
                        .iter()
                        .map(|p| frozen_lstm.predict_log_ns(p))
                        .collect(),
                ),
                _ => None,
            };
            if let Some(log_ns) = log_ns {
                let ns: Vec<Option<f64>> = log_ns.into_iter().map(|l| Some(l.exp())).collect();
                assert_eq!(bits(&ns), answers, "{label}: log-domain path of {n}");
            }
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
