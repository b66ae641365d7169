//! Integration tests for the batch-first serving engine: cache correctness
//! (bit-identical to the uncached serial path, no hash collisions between
//! structurally distinct kernels, zero fresh model evaluations on
//! revisits) and bit-identity of the batch path with the per-kernel one.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tpu_repro::autotuner::{autotune_with_cost_model, Budgets, StartMode};
use tpu_repro::hlo::{
    canonical_kernel_hash, DType, GraphBuilder, HashedKernel, Kernel, Program, Shape, TileSize,
};
use tpu_repro::learned::{
    AtomicCache, CostModel, FnCostModel, GnnConfig, GnnModel, Predictor,
};
use tpu_repro::sim::{kernel_time_ns, TpuConfig, TpuDevice};

/// A varied kernel corpus: elementwise chains, dots, reductions, mixed
/// dtypes, and tiled variants — all built deterministically.
fn kernel_corpus() -> Vec<Kernel> {
    let mut kernels = Vec::new();
    for (i, &cols) in [32usize, 64, 128, 256, 384].iter().enumerate() {
        let mut b = GraphBuilder::new("chain");
        let x = b.parameter("x", Shape::matrix(16 + 8 * i, cols), DType::F32);
        let t = b.tanh(x);
        let e = b.exp(t);
        kernels.push(Kernel::new(b.finish(e)));
    }
    for &n in &[64usize, 128, 192] {
        let mut b = GraphBuilder::new("matmul");
        let x = b.parameter("x", Shape::matrix(n, n), DType::F32);
        let w = b.parameter("w", Shape::matrix(n, n), DType::F32);
        let d = b.dot(x, w);
        let r = b.relu(d);
        kernels.push(Kernel::new(b.finish(r)));
    }
    for &dt in &[DType::F32, DType::BF16] {
        let mut b = GraphBuilder::new("reduce");
        let x = b.parameter("x", Shape::matrix(128, 128), dt);
        let s = b.reduce(x, vec![1]);
        kernels.push(Kernel::new(b.finish(s)));
    }
    // The same structure at different tile sizes must be distinct examples.
    for &tile in &[8usize, 16, 32] {
        let mut b = GraphBuilder::new("tiled");
        let x = b.parameter("x", Shape::matrix(256, 256), DType::F32);
        let t = b.tanh(x);
        kernels.push(Kernel::new(b.finish(t)).with_tile(TileSize(vec![tile, 32])));
    }
    kernels
}

#[test]
fn cached_predictions_bit_identical_to_uncached_serial() {
    let model = GnnModel::new(GnnConfig::default());
    let kernels = kernel_corpus();

    // Reference: the serial, uncached, one-kernel-at-a-time path.
    let serial: Vec<Option<f64>> = kernels.iter().map(|k| Some(model.predict_ns(k))).collect();

    let predictor = Predictor::new(&model);
    let cold = predictor.predict_ns(&kernels);
    let warm = predictor.predict_ns(&kernels);

    assert_eq!(serial, cold, "cold cached path must be bit-identical");
    assert_eq!(serial, warm, "warm cached path must be bit-identical");

    let stats = predictor.stats();
    assert_eq!(stats.kernels, 2 * kernels.len() as u64);
    assert_eq!(stats.model_evals, kernels.len() as u64, "one eval per distinct kernel");
    assert_eq!(stats.cache_hits, kernels.len() as u64, "warm pass all hits");

    // And through the CostModel trait surface as well.
    for (k, expect) in kernels.iter().zip(&serial) {
        assert_eq!(predictor.predict_kernel_ns(k), *expect);
    }
}

#[test]
fn miss_batch_is_one_backend_call() {
    // The acceptance property of the batch-first engine: a cold batch of
    // N kernels costs exactly one backend batch (for the GNN, one packed
    // forward); a warm batch costs zero.
    let model = GnnModel::new(GnnConfig::default());
    let kernels = kernel_corpus();
    let predictor = Predictor::new(&model);

    let _ = predictor.predict_ns(&kernels);
    let cold = predictor.stats();
    assert_eq!(cold.model_batches, 1, "one packed forward for the cold batch");
    assert_eq!(cold.model_evals, kernels.len() as u64);

    let _ = predictor.predict_ns(&kernels);
    let warm = predictor.stats().since(&cold);
    assert_eq!(warm.model_batches, 0, "warm batch needs no forward at all");
    assert_eq!(warm.model_evals, 0);
    assert_eq!(warm.cache_hits, kernels.len() as u64);
}

#[test]
fn keyed_prediction_is_the_unkeyed_one_minus_the_hashing() {
    // `predict_hashed` and `predict_ns_refs` share one body: on a batch
    // mixing cache hits, fresh misses and duplicates of both, they must
    // return bit-equal predictions, equal per-call and cumulative stats,
    // and ask the backend for the same kernels in the same order.
    let kernels = kernel_corpus();
    let hashed: Vec<HashedKernel> = kernels.iter().cloned().map(HashedKernel::new).collect();
    for (k, h) in kernels.iter().zip(&hashed) {
        assert_eq!(h.hash(), canonical_kernel_hash(k));
    }
    // Warm 0..4; then ask for hits (1, 3), misses (6, 9), a duplicate hit
    // (1) and duplicate misses (9, 6), interleaved.
    let warm: Vec<usize> = (0..4).collect();
    let mixed = [1usize, 6, 3, 9, 1, 9, 6, 12];

    let run = |keyed: bool| {
        let asked = std::sync::Mutex::new(Vec::<u64>::new());
        let model = FnCostModel::new("recording", |k: &Kernel| {
            asked.lock().unwrap().push(canonical_kernel_hash(k));
            Some(kernel_time_ns(k, &TpuConfig::default()))
        });
        let predictor = Predictor::with_cache(&model, Arc::new(AtomicCache::serving_default()));
        let mut out = Vec::new();
        for batch in [&warm[..], &mixed[..]] {
            out.push(if keyed {
                let refs: Vec<&HashedKernel> = batch.iter().map(|&i| &hashed[i]).collect();
                predictor.predict_hashed(&refs)
            } else {
                let refs: Vec<&Kernel> = batch.iter().map(|&i| &kernels[i]).collect();
                predictor.predict_ns_refs(&refs)
            });
        }
        let total = predictor.stats();
        drop(predictor);
        (out, total, asked.into_inner().unwrap())
    };
    let (plain, plain_total, plain_asked) = run(false);
    let (keyed, keyed_total, keyed_asked) = run(true);

    for ((pp, ps), (kp, ks)) in plain.iter().zip(&keyed) {
        let bits = |v: &[Option<f64>]| -> Vec<Option<u64>> {
            v.iter().map(|p| p.map(f64::to_bits)).collect()
        };
        assert_eq!(bits(pp), bits(kp));
        assert_eq!(ps, ks, "per-call PredictStats differ");
    }
    assert_eq!(plain_total, keyed_total);
    assert_eq!(plain_asked, keyed_asked, "the backend saw different miss batches");
    let (_, mixed_stats) = &keyed[1];
    assert_eq!(
        (mixed_stats.kernels, mixed_stats.cache_hits, mixed_stats.model_evals, mixed_stats.model_batches),
        (8, 3, 3, 1),
        "3 hit positions, 3 distinct misses in one batch"
    );
}

#[test]
fn structurally_distinct_kernels_never_share_a_hash() {
    let kernels = kernel_corpus();
    let hashes: Vec<u64> = kernels.iter().map(canonical_kernel_hash).collect();
    for i in 0..hashes.len() {
        for j in (i + 1)..hashes.len() {
            assert_ne!(
                hashes[i], hashes[j],
                "kernels {i} and {j} are structurally distinct but collide"
            );
        }
    }

    // Renaming nodes must NOT change the hash: caching is structural.
    let build = |pname: &str| {
        let mut b = GraphBuilder::new(pname);
        let x = b.parameter(pname, Shape::matrix(64, 64), DType::F32);
        let t = b.tanh(x);
        Kernel::new(b.finish(t))
    };
    assert_eq!(
        canonical_kernel_hash(&build("alpha")),
        canonical_kernel_hash(&build("beta"))
    );
}

#[test]
fn revisiting_a_configuration_costs_zero_fresh_model_evals() {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("x", Shape::matrix(256, 256), DType::F32);
    let w = b.parameter("w", Shape::matrix(256, 256), DType::F32);
    let mut v = x;
    for i in 0..2 {
        let t = b.tanh(v);
        let e = b.exp(t);
        let s = b.add(t, e);
        v = if i == 0 { b.dot(s, w) } else { s };
    }
    let program = Program::new("revisit", b.finish(v));

    let machine = TpuConfig::default();
    let evals = AtomicUsize::new(0);
    let model = FnCostModel::new("counting-sim", |k: &Kernel| {
        evals.fetch_add(1, Ordering::SeqCst);
        Some(kernel_time_ns(k, &machine))
    });
    let cache = Arc::new(AtomicCache::serving_default());
    let device = TpuDevice::new(7);
    let budgets = Budgets {
        hardware_ns: 30e9,
        model_steps: 200,
        top_k: 4,
        chains: 4,
    };

    let first = autotune_with_cost_model(
        &program, &device, &model, &cache, StartMode::Default, &budgets, 3,
    );
    let evals_after_first = evals.load(Ordering::SeqCst);
    assert!(evals_after_first > 0, "first run must evaluate the model");
    assert_eq!(first.model_evals as usize, evals_after_first);
    assert!(
        first.model_batches < first.model_evals,
        "misses must be batched: {} batches for {} evals",
        first.model_batches,
        first.model_evals
    );

    // Same program, same search, same cache: every kernel the search can
    // reach was already scored, so the model is never invoked again.
    let second = autotune_with_cost_model(
        &program, &device, &model, &cache, StartMode::Default, &budgets, 3,
    );
    assert_eq!(
        evals.load(Ordering::SeqCst),
        evals_after_first,
        "revisited configurations must be served from the cache"
    );
    assert_eq!(second.model_evals, 0);
    assert_eq!(second.model_batches, 0);
    assert!(second.cache_hits > 0);
    assert_eq!(first.config, second.config, "same seed, same outcome");
}

#[test]
fn parallel_paths_match_serial_for_any_thread_count() {
    let kernels = kernel_corpus();
    let model = GnnModel::new(GnnConfig::default());

    // Per-kernel references: one featurization and one forward each.
    let serial_ns: Vec<Option<f64>> =
        kernels.iter().map(|k| Some(model.predict_ns(k))).collect();

    // The uncached predictor exercises the batch path (featurize the
    // slice, one packed forward) with every kernel treated as a fresh miss.
    for run in 0..2 {
        let ns = Predictor::uncached(&model).predict_ns(&kernels);
        assert_eq!(ns, serial_ns, "run {run}: predictions differ");
    }
}
