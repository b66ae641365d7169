//! `search_tune`: the Table-2 programs with ≥ 100 fusion decisions, each
//! tuned by the beam searcher and by simulated annealing through the §6.3
//! harness (model-guided search, then metered hardware re-rank).

use crate::report::{Composed, Outcome};
use crate::seams::{TracedCache, TracedModel};
use crate::setup::Setup;
use crate::sizes::{Rounds, Sizes};
use crate::stats;
use crate::trace::Tracer;
use std::sync::Arc;
use std::time::Instant;
use tpu_autotuner::{
    autotune_beam_with_cost_model, autotune_with_cost_model, beam_search, simulated_annealing,
    Budgets, ModelObjective, SaConfig, SearchParams, StartMode, TunedConfig,
};
use tpu_fusion::{apply_fusion, default_space_and_config};
use tpu_hlo::Program;
use tpu_learned_cost::{AtomicCache, CostModel, KernelCache, Predictor};
use tpu_sim::TpuDevice;

/// The held-out programs with at least 100 fusion decisions.
pub const PROGRAMS: [&str; 5] = ["ConvDRAW", "WaveRNN", "NMT Model", "RNN", "Translate"];

pub fn programs(setup: &Setup) -> Vec<&Program> {
    PROGRAMS
        .iter()
        .map(|name| {
            let i = setup
                .corpus
                .index_of(name)
                .unwrap_or_else(|| panic!("the full corpus holds {name}"));
            &setup.corpus.entries[i].program
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Searcher {
    Beam,
    Sa,
}

pub fn budgets(sizes: &Sizes) -> Budgets {
    Budgets {
        model_steps: sizes.model_steps,
        ..Default::default()
    }
}

fn device_for(seed: u64, program: usize) -> TpuDevice {
    TpuDevice::new(seed ^ (program as u64 + 1).wrapping_mul(0x9E37))
}

/// One tuning run, timed from outside.
struct Tuned {
    wall_s: f64,
    result: TunedConfig,
}

fn tune<M: CostModel + ?Sized, C: KernelCache>(
    searcher: Searcher,
    program: &Program,
    program_idx: usize,
    model: &M,
    cache: &Arc<C>,
    sizes: &Sizes,
    seed: u64,
) -> Tuned {
    let device = device_for(seed, program_idx);
    let budgets = budgets(sizes);
    let started = Instant::now();
    let result = match searcher {
        Searcher::Beam => autotune_beam_with_cost_model(
            program,
            &device,
            model,
            cache,
            StartMode::Default,
            &budgets,
            &SearchParams {
                seed,
                ..Default::default()
            },
        ),
        Searcher::Sa => autotune_with_cost_model(
            program,
            &device,
            model,
            cache,
            StartMode::Default,
            &budgets,
            seed,
        ),
    };
    Tuned {
        wall_s: started.elapsed().as_secs_f64(),
        result,
    }
}

/// The re-rank picks by *measured* time, and two measurements of one program
/// differ by up to 4 % (paper section 5), so a pick may truly be that much
/// worse than the start configuration it was measured against.
const MEASUREMENT_NOISE: f64 = 0.04;

/// `true_ns` equals a recomputed `true_program_time(apply_fusion(config))`
/// and is, within measurement noise, no worse than the default's.
fn check_tuned(
    program: &Program,
    program_idx: usize,
    seed: u64,
    t: &TunedConfig,
) -> Result<f64, String> {
    let device = device_for(seed, program_idx);
    let (space, default_cfg) = default_space_and_config(&program.computation);
    let recomputed = device.true_program_time(&apply_fusion(program, &space, &t.config));
    if recomputed.to_bits() != t.true_ns.to_bits() {
        return Err(format!(
            "{}: tuned true_ns {} but recomputed {recomputed}",
            program.name, t.true_ns
        ));
    }
    let default_ns = device.true_program_time(&apply_fusion(program, &space, &default_cfg));
    if t.true_ns > default_ns * (1.0 + MEASUREMENT_NOISE) {
        return Err(format!(
            "{}: tuned {} ns is worse than the default's {default_ns} ns",
            program.name, t.true_ns
        ));
    }
    Ok(default_ns / t.true_ns)
}

/// Everything one round produces, in (program, searcher) order.
struct Round {
    /// An untraced round of a traced run: not reported.
    baseline: bool,
    runs: Vec<(Searcher, Tuned)>,
}

impl Round {
    fn wall(&self, which: Searcher) -> f64 {
        self.runs
            .iter()
            .filter(|(s, _)| *s == which)
            .map(|(_, t)| t.wall_s)
            .sum()
    }
    fn sum(&self, which: Searcher, f: impl Fn(&TunedConfig) -> u64) -> u64 {
        self.runs
            .iter()
            .filter(|(s, _)| *s == which)
            .map(|(_, t)| f(&t.result))
            .sum()
    }
}

fn run_round(
    setup: &Setup,
    sizes: &Sizes,
    seed: u64,
    round: u64,
    tracer: Option<&Arc<Tracer>>,
) -> Vec<(Searcher, Tuned)> {
    let mut runs = Vec::new();
    for (pi, program) in programs(setup).into_iter().enumerate() {
        for (si, searcher) in [Searcher::Beam, Searcher::Sa].into_iter().enumerate() {
            // A fresh cache per run: the run pays for its own misses.
            let tuned = match tracer {
                None => tune(
                    searcher,
                    program,
                    pi,
                    &setup.frozen,
                    &Arc::new(AtomicCache::serving_default()),
                    sizes,
                    seed,
                ),
                Some(t) => {
                    let model = TracedModel {
                        inner: &setup.frozen,
                        tracer: Arc::clone(t),
                    };
                    let cache = Arc::new(TracedCache {
                        inner: AtomicCache::serving_default(),
                        tracer: Arc::clone(t),
                        span_lookups: false,
                    });
                    let name = match searcher {
                        Searcher::Beam => "autotuner.beam",
                        Searcher::Sa => "autotuner.sa",
                    };
                    t.begin_root(name, round * 10 + (pi * 2 + si) as u64);
                    let tuned = tune(searcher, program, pi, &model, &cache, sizes, seed);
                    t.end_root();
                    tuned
                }
            };
            runs.push((searcher, tuned));
        }
    }
    runs
}

/// Phase 1 of both harnesses alone (model-guided search, no re-rank), summed
/// over the programs: (beam seconds, SA seconds, configurations scored).
fn phase_one(setup: &Setup, sizes: &Sizes, seed: u64) -> (f64, f64, usize) {
    let budgets = budgets(sizes);
    let (mut beam_s, mut sa_s, mut scored) = (0.0, 0.0, 0usize);
    for program in programs(setup) {
        let (space, start) = default_space_and_config(&program.computation);
        let predictor =
            Predictor::with_cache(&setup.frozen, Arc::new(AtomicCache::serving_default()));
        let t0 = Instant::now();
        let beam = beam_search(
            program,
            &space,
            start.clone(),
            ModelObjective::new(program, &space, &predictor),
            &SearchParams {
                max_evals: budgets.model_steps,
                top_k: budgets.top_k,
                seed,
                ..Default::default()
            },
        );
        beam_s += t0.elapsed().as_secs_f64();
        let predictor =
            Predictor::with_cache(&setup.frozen, Arc::new(AtomicCache::serving_default()));
        let t0 = Instant::now();
        let sa = simulated_annealing(
            &space,
            start,
            ModelObjective::new(program, &space, &predictor),
            &SaConfig {
                steps: budgets.model_steps,
                seed,
                top_k: budgets.top_k,
                chains: budgets.chains,
                ..Default::default()
            },
        );
        sa_s += t0.elapsed().as_secs_f64();
        scored += beam.evals + sa.evals;
    }
    (beam_s, sa_s, scored)
}

pub fn run(
    setup: &Setup,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    tracer: Option<&Arc<Tracer>>,
) -> Outcome {
    let mut out = Outcome::new(setup.accuracy);
    let mut schedule = Rounds::new(sizes, tracer.is_some(), seconds);
    let mut baseline_wall = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    while let Some(is_baseline) = schedule.next_is_baseline() {
        let round = Round {
            baseline: is_baseline,
            runs: run_round(
                setup,
                sizes,
                seed,
                schedule.handed_out() as u64 - 1,
                if is_baseline { None } else { tracer },
            ),
        };
        let wall = round.wall(Searcher::Beam) + round.wall(Searcher::Sa);
        if is_baseline {
            baseline_wall.push(wall);
        } else {
            let served = |t: &TunedConfig| t.model_evals + t.cache_hits;
            let predictions = round.sum(Searcher::Beam, served) + round.sum(Searcher::Sa, served);
            // The operation is tuning one program with both searchers. (Per
            // searcher, the pooled median would sit in the gap between the SA
            // runs and the five times slower beam runs, and jump across it.)
            let latency: Vec<f64> = round
                .runs
                .chunks(2)
                .map(|pair| pair.iter().map(|(_, t)| t.wall_s).sum::<f64>() * 1e6)
                .collect();
            out.push_round(wall, predictions as f64 / wall, &latency);
        }
        rounds.push(round);
    }
    // A round is ten tuning runs of 0.1-3 s, and the host's slow phases last
    // seconds: whole rounds rarely escape one, single runs often do. So each
    // run is reported as its own fastest over rounds, and a round's
    // time as their sum. The searches being deterministic, every round makes
    // the same predictions.
    let measured: Vec<&Round> = rounds.iter().filter(|r| !r.baseline).collect();
    let run_low: Vec<f64> = (0..rounds[0].runs.len())
        .map(|i| {
            stats::low(
                &measured
                    .iter()
                    .map(|r| r.runs[i].1.wall_s)
                    .collect::<Vec<f64>>(),
            )
        })
        .collect();
    for (i, (searcher, _)) in rounds[0].runs.iter().enumerate() {
        out.note(format!(
            "{:<10} {searcher:?}: fastest {:.3} s over rounds",
            PROGRAMS[i / 2],
            run_low[i]
        ));
    }
    let low_of = |which: Searcher| -> f64 {
        rounds[0]
            .runs
            .iter()
            .zip(&run_low)
            .filter(|((s, _), _)| *s == which)
            .map(|(_, low)| low)
            .sum()
    };
    let (beam_low_s, sa_low_s) = (low_of(Searcher::Beam), low_of(Searcher::Sa));
    if let Some(round) = measured.first() {
        let served = |t: &TunedConfig| t.model_evals + t.cache_hits;
        let predictions = round.sum(Searcher::Beam, served) + round.sum(Searcher::Sa, served);
        let per_program: Vec<f64> = run_low
            .chunks(2)
            .map(|pair| pair.iter().sum::<f64>() * 1e6)
            .collect();
        out.composed = Some(Composed {
            wall_s: beam_low_s + sa_low_s,
            ops_per_s: predictions as f64 / (beam_low_s + sa_low_s),
            latency_p50_us: stats::percentile(&per_program, 50.0),
        });
    }
    out.note(format!(
        "timings: each tuning run at its fastest over {} rounds; wall_s is their sum, latency the median program (beam, then SA: of 5 programs the third fastest)",
        out.wall_s.len()
    ));
    drop(measured);

    // Correctness: every run of every round, and bit-identity across rounds.
    let first = &rounds[0];
    let mut speedups: Vec<(Searcher, f64)> = Vec::new();
    for round in &rounds {
        for (i, (searcher, tuned)) in round.runs.iter().enumerate() {
            let program = programs(setup)[i / 2];
            let verdict = check_tuned(program, i / 2, seed, &tuned.result).and_then(|speedup| {
                let reference = &first.runs[i].1.result;
                if reference.config != tuned.result.config
                    || reference.true_ns.to_bits() != tuned.result.true_ns.to_bits()
                {
                    return Err(format!(
                        "{}: tuned config differs between rounds",
                        program.name
                    ));
                }
                if std::ptr::eq(round, first) {
                    speedups.push((*searcher, speedup));
                }
                Ok(())
            });
            out.check.op(verdict);
        }
    }
    let speedup_of = |which: Searcher| {
        let xs: Vec<f64> = speedups
            .iter()
            .filter(|(s, _)| *s == which)
            .map(|(_, x)| *x)
            .collect();
        if xs.is_empty() {
            1.0
        } else {
            stats::geomean(&xs)
        }
    };
    let all: Vec<f64> = speedups.iter().map(|(_, x)| *x).collect();

    // Per-layer numbers of the search phase (counts are per round and, the
    // search being deterministic, the same every round).
    let beam_evals = first.sum(Searcher::Beam, |t| t.model_evals);
    let sa_evals = first.sum(Searcher::Sa, |t| t.model_evals);
    let beam_hits = first.sum(Searcher::Beam, |t| t.cache_hits);
    let sa_hits = first.sum(Searcher::Sa, |t| t.cache_hits);
    let batches = first.sum(Searcher::Beam, |t| t.model_batches)
        + first.sum(Searcher::Sa, |t| t.model_batches);
    let evals = beam_evals + sa_evals;
    let served = evals + beam_hits + sa_hits;
    let hit_rate = (beam_hits + sa_hits) as f64 / served.max(1) as f64;
    out.check.that(hit_rate >= sizes.search_hit_rate_floor, || {
        format!(
            "search cache hit rate {hit_rate} is below {}",
            sizes.search_hit_rate_floor
        )
    });
    let layer = &mut out.layer;
    layer.insert("autotuner.beam_wall_s", beam_low_s);
    layer.insert("autotuner.sa_wall_s", sa_low_s);
    layer.insert(
        "autotuner.tuned_speedup",
        if all.is_empty() {
            1.0
        } else {
            stats::geomean(&all)
        },
    );
    layer.insert("autotuner.beam_speedup", speedup_of(Searcher::Beam));
    layer.insert("autotuner.sa_speedup", speedup_of(Searcher::Sa));
    layer.insert("autotuner.beam_model_evals", beam_evals as f64);
    layer.insert("autotuner.sa_model_evals", sa_evals as f64);
    layer.insert("autotuner.beam_cache_hits", beam_hits as f64);
    layer.insert("autotuner.sa_cache_hits", sa_hits as f64);
    layer.insert(
        "autotuner.hw_evals",
        first
            .runs
            .iter()
            .map(|(_, t)| t.result.hw_evals as f64)
            .sum(),
    );
    layer.insert("core.cache_hit_rate", hit_rate);
    layer.insert("core.model_evals", evals as f64);
    layer.insert("core.model_batches", batches as f64);
    layer.insert(
        "core.mean_miss_batch_size",
        evals as f64 / batches.max(1) as f64,
    );

    if tracer.is_some() {
        // Phase 1 alone, replayed untraced after the traced phase; the
        // re-rank share is what the untraced full runs spend beyond it.
        let (beam_s, sa_s, scored) = phase_one(setup, sizes, seed);
        layer.insert("autotuner.beam_search_s", beam_s);
        layer.insert("autotuner.sa_search_s", sa_s);
        layer.insert(
            "autotuner.rerank_s",
            (stats::low(&baseline_wall) - beam_s - sa_s).max(0.0),
        );
        out.model_config_s = (beam_s + sa_s) / scored.max(1) as f64;
    }
    out.baseline_wall_s = baseline_wall;
    out
}
