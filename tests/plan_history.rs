//! The searchers' planner is an optimisation with a memory, so what it
//! remembers must never show in a result.
//!
//! A tuning run has one planner, which the model objective, the beam's
//! transposition keys and the hardware re-rank share; it plans each
//! configuration as a delta from the nearest configuration of the batch
//! before. These tests pin, on the `search_tune` programs, that this
//! history decides only how much work a plan costs: the same
//! configurations cost the same bits however they are batched and ordered,
//! the key the beam files a cost under is still the public
//! `fused_structure_hash`, a measurement is the measurement of
//! `apply_fusion`'s program, and the delta path is the one the searchers
//! actually take.

use std::sync::Arc;
use tpu_repro::autotuner::{
    autotune_beam_with_cost_model, beam_search_with_tt, fused_structure_hash, random_configs,
    BatchObjective, Budgets, HardwareObjective, ModelObjective, SearchParams, StartMode,
};
use tpu_repro::dataset::{Corpus, CorpusScale};
use tpu_repro::fusion::{apply_fusion, default_space_and_config, FusionConfig, FusionSpace};
use tpu_repro::hlo::{Kernel, Program};
use tpu_repro::learned::{AtomicCache, CostModel, FnCostModel, PredictStats, Predictor, SimOracle};
use tpu_repro::obs::Registry;
use tpu_repro::sim::{TpuConfig, TpuDevice};

/// The held-out programs with at least 100 fusion decisions (the
/// benchmark's `search_tune` set).
const PROGRAMS: [&str; 5] = ["ConvDRAW", "WaveRNN", "NMT Model", "RNN", "Translate"];

fn program<'a>(corpus: &'a Corpus, name: &str) -> &'a Program {
    let i = corpus
        .index_of(name)
        .unwrap_or_else(|| panic!("the full corpus holds {name}"));
    &corpus.entries[i].program
}

fn oracle() -> impl CostModel {
    let oracle = SimOracle::new(TpuConfig::default());
    FnCostModel::new("oracle", move |k: &Kernel| oracle.predict_kernel_ns(k))
}

fn fresh_cache() -> Arc<AtomicCache> {
    Arc::new(AtomicCache::serving_default())
}

/// What every batching of the configurations must agree on: each cost,
/// bit for bit, how many kernels the predictor was asked about and how
/// many distinct ones the model scored. (`cache_hits` is left out: a
/// repeat of a miss inside one batch is neither a hit nor an evaluation,
/// so the hit count depends on the batching with or without a planner.)
fn outcome(costs: &[f64], stats: PredictStats) -> (Vec<u64>, u64, u64) {
    (
        costs.iter().map(|c| c.to_bits()).collect(),
        stats.kernels,
        stats.model_evals,
    )
}

/// Configurations as a search presents them — each 1-4 flips from an
/// earlier one — plus what a search rarely does: a jump to an unrelated
/// configuration, and exact repeats.
fn walk(space: &FusionSpace, start: FusionConfig, seed: u64) -> Vec<FusionConfig> {
    let mut rng = proptest::TestRng::new(seed);
    let mut configs = vec![start];
    for step in 0..40 {
        let mut next = configs[rng.below(configs.len() as u64) as usize].clone();
        match step % 10 {
            8 => next = random_configs(space, 1, seed + step).remove(0),
            9 => {}
            _ => {
                for _ in 0..1 + rng.below(4) {
                    let i = rng.below(space.num_edges() as u64) as usize;
                    next.decisions[i] = !next.decisions[i];
                }
            }
        }
        configs.push(next);
    }
    configs
}

#[test]
fn costs_do_not_depend_on_how_configs_are_batched_or_ordered() {
    let corpus = Corpus::build(CorpusScale::Full);
    let model = oracle();
    for (pi, name) in PROGRAMS.iter().enumerate() {
        let program = program(&corpus, name);
        let (space, default) = default_space_and_config(&program.computation);
        let configs = walk(&space, default, pi as u64);

        // One batch, on a fresh cache.
        let predictor = Predictor::with_cache(&model, fresh_cache());
        let costs = ModelObjective::new(program, &space, &predictor).evaluate(&configs);
        let expected = outcome(&costs, predictor.stats());

        // Shuffled, in batches of 1, 4 and 8 through one objective.
        let mut rng = proptest::TestRng::new(99 + pi as u64);
        for batch in [1usize, 4, 8] {
            let mut order: Vec<usize> = (0..configs.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let predictor = Predictor::with_cache(&model, fresh_cache());
            let mut objective = ModelObjective::new(program, &space, &predictor);
            let mut costs = vec![f64::NAN; configs.len()];
            for chunk in order.chunks(batch) {
                let cands: Vec<FusionConfig> = chunk.iter().map(|&i| configs[i].clone()).collect();
                for (&i, cost) in chunk.iter().zip(objective.evaluate(&cands)) {
                    costs[i] = cost;
                }
            }
            assert_eq!(
                outcome(&costs, predictor.stats()),
                expected,
                "{name}: shuffled batches of {batch}"
            );
        }

        // A fresh objective per config: nothing remembered at all.
        let predictor = Predictor::with_cache(&model, fresh_cache());
        let costs: Vec<f64> = configs
            .iter()
            .map(|c| {
                ModelObjective::new(program, &space, &predictor).evaluate(std::slice::from_ref(c))
                    [0]
            })
            .collect();
        assert_eq!(
            outcome(&costs, predictor.stats()),
            expected,
            "{name}: a fresh objective per config"
        );
    }
}

/// `crates/autotuner/tests/beam_props.rs` pins on a toy program that the
/// key the beam files a cost under — folded from the kernels of a delta
/// plan, or inherited from the parent state — is the public
/// [`fused_structure_hash`]. Here the same holds along the beam's
/// trajectory over a `search_tune` program: every configuration it ranked
/// sits in the table under that key, with the bit-equal cost.
#[test]
fn the_beam_files_a_search_tune_trajectory_under_fused_structure_hash() {
    let corpus = Corpus::build(CorpusScale::Full);
    let program = program(&corpus, "WaveRNN");
    let (space, start) = default_space_and_config(&program.computation);
    let model = oracle();
    let predictor = Predictor::with_cache(&model, fresh_cache());
    let tt = AtomicCache::with_capacity(1 << 16);
    let params = SearchParams {
        max_evals: 400,
        top_k: 256,
        ..Default::default()
    };
    let objective = ModelObjective::new(program, &space, &predictor);
    let result = beam_search_with_tt(program, &space, start, objective, &params, &tt);
    assert!(
        result.top.len() > 100,
        "ranked {} configs",
        result.top.len()
    );
    for (config, cost) in &result.top {
        let filed = tt.lookup_hash(fused_structure_hash(program, &space, config));
        assert_eq!(
            filed.flatten().map(f64::to_bits),
            Some(cost.to_bits()),
            "a ranked configuration is not in the table under its public key"
        );
    }
}

/// The hardware objective measures the kernels its planner hands out. On
/// two `search_tune` programs, 20 random configurations measured through
/// it — by a fresh planner, then again once it has met every group — cost
/// the device what running `apply_fusion`'s program costs a device with
/// the same seed, bit for bit.
#[test]
fn measuring_through_the_planner_is_measuring_apply_fusion() {
    let corpus = Corpus::build(CorpusScale::Full);
    for name in ["ConvDRAW", "RNN"] {
        let program = program(&corpus, name);
        let (space, _) = default_space_and_config(&program.computation);
        let configs = random_configs(&space, 20, 3);
        let (reference, device) = (TpuDevice::new(5), TpuDevice::new(5));
        let mut hw = HardwareObjective::new(program, &space, &device, f64::INFINITY);
        for pass in 0..2 {
            for config in &configs {
                reference.charge_eval_overhead();
                let fused = apply_fusion(program, &space, config);
                let expected = reference.execute_kernels(&fused.kernels);
                assert_eq!(
                    hw.measure(config).unwrap().to_bits(),
                    expected.to_bits(),
                    "{name}, pass {pass}"
                );
            }
        }
        assert_eq!(
            device.device_time_used().to_bits(),
            reference.device_time_used().to_bits()
        );
    }
}

/// A silent fall-back to planning every candidate from scratch would cost
/// `search_tune` its speed and fail no other test: on NMT Model's beam run
/// the planner must plan nearly every candidate as a delta and hand most
/// of each plan's groups back untouched.
#[test]
fn the_beam_plans_nmt_model_by_delta_and_keeps_most_groups() {
    let corpus = Corpus::build(CorpusScale::Full);
    let program = program(&corpus, "NMT Model");
    let registry = Registry::enabled();
    let device = TpuDevice::new(1).observed(&registry);
    let budgets = Budgets {
        model_steps: 400,
        ..Default::default()
    };
    let tuned = autotune_beam_with_cost_model(
        program,
        &device,
        &oracle(),
        &fresh_cache(),
        StartMode::Default,
        &budgets,
        &SearchParams::default(),
    );
    let snap = registry.snapshot();
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    let (delta, full) = (count("autotuner.plan.delta"), count("autotuner.plan.full"));
    let (fresh, kept) = (
        count("autotuner.plan.groups_fresh"),
        count("autotuner.plan.groups_kept"),
    );
    // One planner serves the run. The search plans from scratch once: the
    // start, for its transposition key; the objective then finds every
    // configuration it scores planned a moment before. The re-rank's plans,
    // one per measurement and one for the tuned configuration, are counted
    // apart: each follows a single configuration, so a jump of more than a
    // few decisions is planned from scratch. On NMT Model there are two:
    // to the start, measured after the ranked configurations, and from it
    // back to the tuned one.
    let rerank = tuned.hw_evals as u64 + 1;
    assert_eq!(count("autotuner.hw.evals") + 1, rerank);
    assert_eq!(full, 1 + 2, "{delta} delta plans, {full} full plans");
    assert!(delta > 400, "{delta} delta plans");
    let share = fresh as f64 / (fresh + kept) as f64;
    assert!(
        share < 0.15,
        "{fresh} groups planned again, {kept} kept: fresh share {share:.3}"
    );
}
