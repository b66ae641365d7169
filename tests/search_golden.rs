//! Golden regression test for the model-guided searchers.
//!
//! The determinism suites compare a run with itself (across thread counts
//! and device seeds); nothing else pins what the searchers *return* across a
//! refactor of the code between a configuration and its predicted cost —
//! the fusion pass, kernel hashing, the prediction cache, the transposition
//! table. This snapshot does: for small corpus programs it records the
//! tuned configuration, its true runtime, every eval/hit/batch counter of
//! both §6.3 harnesses (beam and simulated annealing), and the phase-1
//! accounting of the bare searchers, under the simulator as the cost model.
//!
//! `search_golden.json` was generated by the code *before* the fusion pass
//! was split into plan + materialize and the searchers gained their kernel
//! memo, and must keep passing unchanged: that change is an optimisation,
//! so not one value may move. If a search-behaviour change is
//! *intentional*, regenerate with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test search_golden
//! ```
//!
//! and commit the updated `search_golden.json` together with the change.

use std::fmt::Write;
use std::sync::Arc;
use tpu_repro::autotuner::{
    autotune_beam_with_cost_model, autotune_with_cost_model, beam_search, simulated_annealing,
    Budgets, ModelObjective, SaConfig, SearchParams, StartMode, TunedConfig,
};
use tpu_repro::dataset::{Corpus, CorpusScale};
use tpu_repro::fusion::{default_space_and_config, FusionConfig};
use tpu_repro::hlo::{Kernel, Program};
use tpu_repro::learned::{AtomicCache, CostModel, FnCostModel, Predictor, SimOracle};
use tpu_repro::sim::{TpuConfig, TpuDevice};

/// The pinned (program, start mode) pairs, from the tiny corpus.
const CASES: [(&str, StartMode); 2] = [
    ("RNN", StartMode::Default),
    ("Translate", StartMode::Random),
];

const SEED: u64 = 5;

fn budgets() -> Budgets {
    Budgets {
        hardware_ns: 40e9,
        model_steps: 200,
        top_k: 6,
        chains: 4,
    }
}

fn decisions(config: &FusionConfig) -> String {
    config
        .decisions
        .iter()
        .map(|&d| if d { '1' } else { '0' })
        .collect()
}

fn render_tuned(out: &mut String, label: &str, t: &TunedConfig) {
    writeln!(
        out,
        "    \"{label}\": {{ \"decisions\": \"{}\", \"true_ns_bits\": {}, \"hw_evals\": {}, \
         \"model_evals\": {}, \"cache_hits\": {}, \"model_batches\": {} }},",
        decisions(&t.config),
        t.true_ns.to_bits(),
        t.hw_evals,
        t.model_evals,
        t.cache_hits,
        t.model_batches
    )
    .expect("write to string");
}

/// Everything pinned for one program, as JSON object members.
fn render_case(program: &Program, mode: StartMode) -> String {
    let oracle = SimOracle::new(TpuConfig::default());
    let model = FnCostModel::new("oracle", move |k: &Kernel| oracle.predict_kernel_ns(k));
    let budgets = budgets();
    let params = SearchParams {
        seed: SEED,
        ..Default::default()
    };
    let fresh_cache = || Arc::new(AtomicCache::serving_default());
    let mut out = String::new();

    let beam = autotune_beam_with_cost_model(
        program,
        &TpuDevice::new(SEED),
        &model,
        &fresh_cache(),
        mode,
        &budgets,
        &params,
    );
    render_tuned(&mut out, "autotune_beam", &beam);
    let sa = autotune_with_cost_model(
        program,
        &TpuDevice::new(SEED),
        &model,
        &fresh_cache(),
        mode,
        &budgets,
        SEED,
    );
    render_tuned(&mut out, "autotune_sa", &sa);

    // Phase 1 alone: the bare searchers over the model objective.
    let (space, start) = default_space_and_config(&program.computation);
    let predictor = Predictor::with_cache(&model, fresh_cache());
    let raw = beam_search(
        program,
        &space,
        start.clone(),
        ModelObjective::new(program, &space, &predictor),
        &SearchParams {
            max_evals: budgets.model_steps,
            top_k: budgets.top_k,
            ..params
        },
    );
    let s = raw.stats;
    writeln!(
        out,
        "    \"beam_search\": {{ \"best\": \"{}\", \"best_cost_bits\": {}, \"evals\": {}, \
         \"expanded\": {}, \"scored\": {}, \"tt_hits\": {}, \"tt_stores\": {}, \
         \"margin_pruned\": {}, \"width_pruned\": {}, \"batches\": {}, \"depths\": {}, \
         \"predict_stats\": {:?} }},",
        decisions(&raw.best_config),
        raw.best_cost.to_bits(),
        raw.evals,
        s.expanded,
        s.scored,
        s.tt_hits,
        s.tt_stores,
        s.margin_pruned,
        s.width_pruned,
        s.batches,
        s.depths,
        format!("{:?}", predictor.stats()),
    )
    .expect("write to string");
    let predictor = Predictor::with_cache(&model, fresh_cache());
    let raw = simulated_annealing(
        &space,
        start,
        ModelObjective::new(program, &space, &predictor),
        &SaConfig {
            steps: budgets.model_steps,
            seed: SEED,
            top_k: budgets.top_k,
            chains: budgets.chains,
            ..Default::default()
        },
    );
    writeln!(
        out,
        "    \"simulated_annealing\": {{ \"best\": \"{}\", \"best_cost_bits\": {}, \"evals\": {}, \
         \"predict_stats\": {:?} }}",
        decisions(&raw.best_config),
        raw.best_cost.to_bits(),
        raw.evals,
        format!("{:?}", predictor.stats()),
    )
    .expect("write to string");
    out
}

fn render() -> String {
    let corpus = Corpus::build(CorpusScale::Tiny);
    let mut out = String::from("{\n");
    for (i, (name, mode)) in CASES.iter().enumerate() {
        let idx = corpus
            .index_of(name)
            .unwrap_or_else(|| panic!("the tiny corpus holds {name}"));
        writeln!(out, "  \"{name}\": {{").expect("write to string");
        out.push_str(&render_case(&corpus.entries[idx].program, *mode));
        out.push_str(if i + 1 < CASES.len() {
            "  },\n"
        } else {
            "  }\n"
        });
    }
    out.push_str("}\n");
    out
}

#[test]
fn search_results_match_golden_snapshot() {
    let rendered = render();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("search_golden.json");

    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, &rendered).expect("write search golden");
        println!("regenerated {}", path.display());
        return;
    }

    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run REGEN_GOLDEN=1 cargo test --test search_golden",
            path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "search results drifted from tests/search_golden.json; if intentional, \
         regenerate with REGEN_GOLDEN=1 and commit the diff"
    );
}
