//! Simulated annealing over fusion configurations (§6.3: "we run simulated
//! annealing search using the learned performance model").
//!
//! The annealer is **batch-first**: it runs [`SaConfig::chains`]
//! independent chains and presents each temperature step's candidates —
//! one per chain — to the [`BatchObjective`] as a single slice. A
//! model-backed objective turns that slice into one packed forward pass
//! over all chains' cache misses, which is what lets the autotuner
//! saturate the parallel numeric core instead of scoring one kernel batch
//! per step.
//!
//! Determinism contract (the same one training established for gradient
//! reduction): every chain owns a `ChaCha8Rng` seeded from
//! ([`SaConfig::seed`], chain index), candidates are generated and results
//! are reduced in ascending chain order, and the objective's batch
//! evaluation answers positionally — so a run repeats bit for bit.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tpu_fusion::{FusionConfig, FusionSpace};
use tpu_obs::{Counter, Gauge, Histogram, Registry};

/// An objective evaluated over a batch of candidate configurations.
///
/// `evaluate` returns one cost per config, positionally. Two sentinel
/// values thread budget semantics through the search: `f64::INFINITY`
/// rejects a configuration, and `f64::NAN` means "not evaluated — budget
/// exhausted". Once an implementation returns NaN at some position it must
/// return NaN at every later position of that call (and of later calls),
/// so the annealer can stop at the first NaN without losing evaluations.
///
/// Any `FnMut(&FusionConfig) -> f64` closure is a `BatchObjective` via the
/// blanket impl, which evaluates sequentially and stops calling the
/// closure after its first NaN.
pub trait BatchObjective {
    /// Cost per candidate, positionally.
    fn evaluate(&mut self, configs: &[FusionConfig]) -> Vec<f64>;

    /// Where a search over this objective records its own metrics
    /// (`autotuner.sa.*`, `autotuner.beam.*`). An objective built over an
    /// observed device or predictor session hands on that carrier's
    /// registry; anything else — closures included — records nothing.
    fn registry(&self) -> Registry {
        Registry::noop()
    }
}

impl<F: FnMut(&FusionConfig) -> f64> BatchObjective for F {
    fn evaluate(&mut self, configs: &[FusionConfig]) -> Vec<f64> {
        let mut out = Vec::with_capacity(configs.len());
        let mut exhausted = false;
        for c in configs {
            if exhausted {
                out.push(f64::NAN);
            } else {
                let v = self(c);
                exhausted = v.is_nan();
                out.push(v);
            }
        }
        out
    }
}

/// Annealing schedule parameters.
#[derive(Debug, Clone)]
pub struct SaConfig {
    /// Maximum number of candidate evaluations (shared across chains).
    pub steps: usize,
    /// Initial temperature (relative cost scale).
    pub init_temp: f64,
    /// Final temperature.
    pub final_temp: f64,
    /// Decision bits flipped per move.
    pub flips: usize,
    /// RNG seed.
    pub seed: u64,
    /// Keep the best `top_k` distinct configs seen (for the §6.3 protocol
    /// of re-ranking model-chosen configs on real hardware).
    pub top_k: usize,
    /// Independent annealing chains per temperature step; each step
    /// presents this many candidates to the objective as one batch.
    pub chains: usize,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            steps: 2_000,
            init_temp: 0.10,
            final_temp: 0.002,
            flips: 2,
            seed: 7,
            top_k: 16,
            chains: 1,
        }
    }
}

/// Result of an annealing run.
#[derive(Debug, Clone)]
pub struct SaResult {
    /// Best configuration found (ties broken toward the lowest chain index).
    pub best_config: FusionConfig,
    /// Its objective value.
    pub best_cost: f64,
    /// Number of candidate evaluations performed (including the start).
    pub evals: usize,
    /// The best `top_k` distinct configurations, ascending by cost.
    pub top: Vec<(FusionConfig, f64)>,
}

/// `tpu-obs` handles for the annealer (`autotuner.sa.*`), resolved once
/// per search.
#[derive(Default)]
struct SaObs {
    candidates: Counter,
    accepts: Counter,
    rejects: Counter,
    batches: Counter,
    batch_eval_ns: Histogram,
    batch_size: Histogram,
    best_cost: Gauge,
}

impl SaObs {
    fn new(registry: &Registry) -> SaObs {
        SaObs {
            candidates: registry.counter("autotuner.sa.candidates"),
            accepts: registry.counter("autotuner.sa.accepts"),
            rejects: registry.counter("autotuner.sa.rejects"),
            batches: registry.counter("autotuner.sa.batches"),
            batch_eval_ns: registry.histogram("autotuner.sa.batch_eval_ns"),
            batch_size: registry.histogram("autotuner.sa.batch_size"),
            best_cost: registry.gauge("autotuner.sa.best_cost"),
        }
    }
}

/// The RNG seed of a chain. The golden-ratio stride decorrelates chains
/// while chain 0 keeps the bare seed, so a `chains == 1` run reproduces
/// the historical single-chain stream bit-for-bit.
fn chain_seed(seed: u64, chain: usize) -> u64 {
    seed ^ (chain as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Maintain a sorted, distinct top-k pool (shared with the beam search).
pub(crate) fn push_top(
    cfg_: &FusionConfig,
    cost: f64,
    k: usize,
    top: &mut Vec<(FusionConfig, f64)>,
) {
    if !cost.is_finite() {
        return;
    }
    if top.iter().any(|(c, _)| c == cfg_) {
        return;
    }
    top.push((cfg_.clone(), cost));
    top.sort_by(|a, b| a.1.total_cmp(&b.1));
    top.truncate(k);
}

/// Run [`SaConfig::chains`] annealing chains from `start`, minimizing
/// `objective`.
///
/// Per temperature step every live chain perturbs its current config with
/// its own RNG (ascending chain order) and the candidates are scored with
/// **one** [`BatchObjective::evaluate`] call. Acceptance, the top-k pool,
/// and the global best are then reduced in ascending chain order with
/// strict comparisons, so the winner is independent of how the objective
/// parallelizes internally.
///
/// The search stops when `cfg.steps` candidate evaluations are spent or
/// when the objective signals exhaustion by returning `f64::NAN` (used by
/// hardware-budgeted runs).
///
/// `autotuner.sa.*` metrics — candidate/accept/reject counts, per-batch
/// objective latency and batch sizes, the final best cost — go to
/// [`BatchObjective::registry`]. Instrumentation is read-only: the
/// trajectory and the returned [`SaResult`] are bit-identical whether or
/// not that registry is enabled.
pub fn simulated_annealing<O>(
    space: &FusionSpace,
    start: FusionConfig,
    mut objective: O,
    cfg: &SaConfig,
) -> SaResult
where
    O: BatchObjective,
{
    anneal(space, start, &mut objective, cfg)
}

/// [`simulated_annealing`] over a borrowed objective, for a caller that
/// reads the objective's own accounting after the search.
pub(crate) fn anneal<O>(
    space: &FusionSpace,
    start: FusionConfig,
    objective: &mut O,
    cfg: &SaConfig,
) -> SaResult
where
    O: BatchObjective,
{
    let obs = SaObs::new(&objective.registry());
    let chains = cfg.chains.max(1);
    let mut rngs: Vec<ChaCha8Rng> = (0..chains)
        .map(|c| ChaCha8Rng::seed_from_u64(chain_seed(cfg.seed, c)))
        .collect();

    // All chains share one evaluation of the common start config.
    let timer = obs.batch_eval_ns.start_timer();
    let start_cost = objective.evaluate(std::slice::from_ref(&start))[0];
    timer.stop();
    obs.batches.inc();
    obs.batch_size.observe(1);
    obs.candidates.inc();
    let mut evals = 1;
    let mut top: Vec<(FusionConfig, f64)> = Vec::new();
    if start_cost.is_nan() {
        // Budget exhausted on the very first evaluation.
        return SaResult {
            best_config: start,
            best_cost: f64::INFINITY,
            evals,
            top,
        };
    }
    push_top(&start, start_cost, cfg.top_k, &mut top);
    let mut current: Vec<FusionConfig> = vec![start.clone(); chains];
    let mut current_cost: Vec<f64> = vec![start_cost; chains];
    let mut best = start;
    let mut best_cost = start_cost;

    let mut steps_done = 0usize;
    'anneal: while steps_done < cfg.steps {
        let batch_n = chains.min(cfg.steps - steps_done);
        let frac = steps_done as f64 / cfg.steps.max(1) as f64;
        let temp = cfg.init_temp * (cfg.final_temp / cfg.init_temp).powf(frac);
        let cands: Vec<FusionConfig> = (0..batch_n)
            .map(|c| space.perturb(&current[c], &mut rngs[c], cfg.flips))
            .collect();
        let timer = obs.batch_eval_ns.start_timer();
        let costs = objective.evaluate(&cands);
        timer.stop();
        obs.batches.inc();
        obs.batch_size.observe(cands.len() as u64);
        for (c, cand) in cands.iter().enumerate() {
            let cost = costs[c];
            if cost.is_nan() {
                break 'anneal; // budget exhausted; later positions are NaN too
            }
            evals += 1;
            steps_done += 1;
            obs.candidates.inc();
            push_top(cand, cost, cfg.top_k, &mut top);
            if cost < best_cost {
                best = cand.clone();
                best_cost = cost;
            }
            // Metropolis acceptance on relative cost, per chain. A move
            // that is no worse is taken before `rel` is formed: from a
            // `+inf` current cost `rel` is NaN, which would reject every
            // move and pin the chain to the neighbours of its start.
            let accept = cost <= current_cost[c] || {
                let rel = (cost - current_cost[c]) / current_cost[c].abs().max(1e-9);
                rngs[c].gen::<f64>() < (-rel / temp.max(1e-12)).exp()
            };
            if accept {
                current[c] = cand.clone();
                current_cost[c] = cost;
                obs.accepts.inc();
            } else {
                obs.rejects.inc();
            }
        }
    }

    obs.best_cost.set(best_cost);
    SaResult {
        best_config: best,
        best_cost,
        evals,
        top,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_hlo::{DType, GraphBuilder, Program, Shape};

    fn chain_program(n: usize) -> Program {
        let mut b = GraphBuilder::new("main");
        let mut v = b.parameter("x", Shape::matrix(256, 256), DType::F32);
        for i in 0..n {
            v = if i % 2 == 0 { b.tanh(v) } else { b.exp(v) };
        }
        Program::new("chain", b.finish(v))
    }

    #[test]
    fn sa_minimizes_toy_objective() {
        // Objective: number of *unfused* edges — optimum is all-fused.
        let p = chain_program(12);
        let space = FusionSpace::new(&p.computation);
        let start = space.none();
        let result = simulated_annealing(
            &space,
            start,
            |c: &FusionConfig| (c.decisions.len() - c.num_fused()) as f64,
            &SaConfig {
                steps: 3_000,
                flips: 1,
                ..Default::default()
            },
        );
        assert_eq!(result.best_cost, 0.0, "should find the all-fused config");
        assert!(result.evals > 100);
    }

    #[test]
    fn top_k_is_sorted_and_distinct() {
        let p = chain_program(8);
        let space = FusionSpace::new(&p.computation);
        let result = simulated_annealing(
            &space,
            space.none(),
            |c: &FusionConfig| (c.decisions.len() - c.num_fused()) as f64,
            &SaConfig {
                steps: 500,
                top_k: 5,
                ..Default::default()
            },
        );
        assert!(result.top.len() <= 5);
        for w in result.top.windows(2) {
            assert!(w[0].1 <= w[1].1);
            assert_ne!(w[0].0, w[1].0);
        }
    }

    #[test]
    fn nan_objective_stops_search() {
        let p = chain_program(8);
        let space = FusionSpace::new(&p.computation);
        let mut budget = 10;
        let result = simulated_annealing(
            &space,
            space.none(),
            |c: &FusionConfig| {
                if budget == 0 {
                    return f64::NAN;
                }
                budget -= 1;
                c.num_fused() as f64
            },
            &SaConfig {
                steps: 10_000,
                ..Default::default()
            },
        );
        assert!(result.evals <= 10, "evals={}", result.evals);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = chain_program(10);
        let space = FusionSpace::new(&p.computation);
        let run = |seed| {
            simulated_annealing(
                &space,
                space.none(),
                |c: &FusionConfig| (c.decisions.len() - c.num_fused()) as f64,
                &SaConfig {
                    steps: 200,
                    seed,
                    ..Default::default()
                },
            )
            .best_cost
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn multi_chain_finds_optimum_within_step_budget() {
        let p = chain_program(12);
        let space = FusionSpace::new(&p.computation);
        let result = simulated_annealing(
            &space,
            space.none(),
            |c: &FusionConfig| (c.decisions.len() - c.num_fused()) as f64,
            &SaConfig {
                steps: 3_000,
                flips: 1,
                chains: 4,
                ..Default::default()
            },
        );
        assert_eq!(result.best_cost, 0.0);
        // The step budget is shared across chains, not multiplied.
        assert!(result.evals <= 3_001, "evals={}", result.evals);
    }

    #[test]
    fn chains_see_one_batch_per_step() {
        // The annealer must present all chains' candidates as one
        // evaluate() call per temperature step.
        use std::cell::RefCell;
        use std::rc::Rc;
        struct Recorder {
            sizes: Rc<RefCell<Vec<usize>>>,
        }
        impl BatchObjective for Recorder {
            fn evaluate(&mut self, configs: &[FusionConfig]) -> Vec<f64> {
                self.sizes.borrow_mut().push(configs.len());
                configs
                    .iter()
                    .map(|c| (c.decisions.len() - c.num_fused()) as f64)
                    .collect()
            }
        }
        let sizes = Rc::new(RefCell::new(Vec::new()));
        let p = chain_program(8);
        let space = FusionSpace::new(&p.computation);
        let result = simulated_annealing(
            &space,
            space.none(),
            Recorder {
                sizes: Rc::clone(&sizes),
            },
            &SaConfig {
                steps: 10,
                chains: 4,
                ..Default::default()
            },
        );
        assert_eq!(result.evals, 11, "start + 10 candidates");
        // 1 call for the start, then full batches of `chains` with a
        // short final batch absorbing the remainder of the step budget.
        assert_eq!(*sizes.borrow(), vec![1, 4, 4, 2]);
    }

    #[test]
    fn multi_chain_deterministic_and_chain0_matches_single() {
        let p = chain_program(10);
        let space = FusionSpace::new(&p.computation);
        let run = |chains| {
            simulated_annealing(
                &space,
                space.none(),
                |c: &FusionConfig| (c.decisions.len() - c.num_fused()) as f64,
                &SaConfig {
                    steps: 300,
                    seed: 5,
                    chains,
                    ..Default::default()
                },
            )
        };
        let a = run(4);
        let b = run(4);
        assert_eq!(a.best_config, b.best_config);
        assert_eq!(a.best_cost.to_bits(), b.best_cost.to_bits());
        assert_eq!(a.evals, b.evals);
    }

    #[test]
    fn annealing_records_into_the_objective_registry_and_matches_plain() {
        /// The toy objective, handing on a registry like the device- and
        /// predictor-backed objectives do.
        struct Carrying(Registry);
        impl BatchObjective for Carrying {
            fn evaluate(&mut self, configs: &[FusionConfig]) -> Vec<f64> {
                configs
                    .iter()
                    .map(|c| (c.decisions.len() - c.num_fused()) as f64)
                    .collect()
            }
            fn registry(&self) -> Registry {
                self.0.clone()
            }
        }
        let p = chain_program(10);
        let space = FusionSpace::new(&p.computation);
        let cfg = SaConfig {
            steps: 200,
            seed: 5,
            chains: 4,
            ..Default::default()
        };
        let plain = simulated_annealing(&space, space.none(), Carrying(Registry::noop()), &cfg);
        let registry = Registry::enabled();
        let observed = simulated_annealing(&space, space.none(), Carrying(registry.clone()), &cfg);

        // Determinism contract: instrumentation never alters the search.
        assert_eq!(plain.best_config, observed.best_config);
        assert_eq!(plain.best_cost.to_bits(), observed.best_cost.to_bits());
        assert_eq!(plain.evals, observed.evals);

        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("autotuner.sa.candidates"),
            Some(observed.evals as u64)
        );
        // Every loop candidate is either accepted or rejected; the shared
        // start evaluation is neither.
        assert_eq!(
            snap.counter("autotuner.sa.accepts").unwrap()
                + snap.counter("autotuner.sa.rejects").unwrap(),
            observed.evals as u64 - 1
        );
        let sizes = snap
            .histogram("autotuner.sa.batch_size")
            .expect("batch sizes");
        assert_eq!(snap.counter("autotuner.sa.batches"), Some(sizes.count));
        assert_eq!(sizes.sum, observed.evals as u64);
        assert_eq!(
            snap.histogram("autotuner.sa.batch_eval_ns")
                .map(|h| h.count),
            Some(sizes.count)
        );
        assert_eq!(
            snap.gauge("autotuner.sa.best_cost"),
            Some(observed.best_cost)
        );
    }

    #[test]
    fn a_chain_leaves_a_start_whose_cost_is_infinite() {
        /// `+inf` on the start only (a start the hardware could not
        /// measure, or a model that answered `None` for one of its
        /// kernels); keeps every candidate it is shown.
        struct UnscorableStart {
            start: FusionConfig,
            seen: Vec<FusionConfig>,
            registry: Registry,
        }
        impl BatchObjective for UnscorableStart {
            fn evaluate(&mut self, configs: &[FusionConfig]) -> Vec<f64> {
                self.seen.extend_from_slice(configs);
                let cost = |c: &FusionConfig| {
                    if *c == self.start {
                        f64::INFINITY
                    } else {
                        (c.decisions.len() - c.num_fused()) as f64
                    }
                };
                configs.iter().map(cost).collect()
            }
            fn registry(&self) -> Registry {
                self.registry.clone()
            }
        }
        let p = chain_program(12);
        let space = FusionSpace::new(&p.computation);
        let cfg = SaConfig {
            steps: 200,
            ..Default::default()
        };
        let mut objective = UnscorableStart {
            start: space.none(),
            seen: Vec::new(),
            registry: Registry::enabled(),
        };
        let result = anneal(&space, space.none(), &mut objective, &cfg);

        let snap = objective.registry.snapshot();
        assert!(snap.counter("autotuner.sa.accepts").unwrap() >= 1);
        // A chain stuck on its start only ever proposes configs within
        // one flip-set of it.
        let from_start = |c: &FusionConfig| c.decisions.iter().filter(|&&fused| fused).count();
        assert!(
            objective.seen.iter().any(|c| from_start(c) > cfg.flips),
            "every candidate is a neighbour of the start"
        );
        assert!(result.best_cost.is_finite());
    }

    #[test]
    fn closure_is_not_called_after_nan_in_a_batch() {
        let p = chain_program(8);
        let space = FusionSpace::new(&p.computation);
        let mut calls = 0usize;
        let mut budget = 5usize;
        simulated_annealing(
            &space,
            space.none(),
            |c: &FusionConfig| {
                calls += 1;
                if budget == 0 {
                    return f64::NAN;
                }
                budget -= 1;
                c.num_fused() as f64
            },
            &SaConfig {
                steps: 100,
                chains: 4,
                ..Default::default()
            },
        );
        // 5 scored + exactly one NaN probe; the blanket impl pads the rest
        // of the batch without calling the closure again.
        assert_eq!(calls, 6, "closure called {calls} times");
    }
}
