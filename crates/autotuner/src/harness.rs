//! The §6.3 experiment protocol: autotuning under a limited hardware
//! budget, with and without the learned performance model.
//!
//! Both evaluation paths are packaged as [`BatchObjective`]s so the
//! annealer never touches a device or a model directly:
//!
//! - [`HardwareObjective`] owns the hardware-budget accounting — every
//!   measurement, whether it comes from the annealer or from the top-k
//!   re-rank loop, goes through [`HardwareObjective::measure`] and is
//!   metered identically;
//! - [`ModelObjective`] scores a whole batch of candidate configs through
//!   a [`Predictor`] session: plan each candidate as a delta from the
//!   nearest candidate of the batch before (a group the flipped decisions
//!   cannot have touched is not planned or keyed again), and score the
//!   flattened keys in one predictor call so all chains' cache misses
//!   share a single packed model forward; only a missed key's kernel is
//!   built.
//!
//! Both plan through a planner (`memo.rs`). Standing alone each has its
//! own; in a model-guided run the objective, the beam's transposition keys
//! and the hardware re-rank share the run's one, so a group's kernel is
//! built at most once a run, whoever needs it first.

use crate::beam::{beam_search_with_planner, SearchParams, TT_SLOTS};
use crate::memo::{Plan, Planner, SharedPlanner};
use crate::sa::{anneal, simulated_annealing, BatchObjective, SaConfig};
use std::rc::Rc;
use std::sync::Arc;
use tpu_fusion::{apply_fusion, default_space_and_config, FusionConfig, FusionSpace, GroupId};
use tpu_hlo::Program;
use tpu_learned_cost::{AtomicCache, CostModel, KernelCache, PredictStats, Predictor};
use tpu_obs::{Counter, Gauge, Histogram, Registry};
use tpu_sim::TpuDevice;

/// Where the search starts (§6.3 runs the autotuner "in two modes").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartMode {
    /// From the compiler's default heuristic configuration.
    Default,
    /// From a uniformly random configuration.
    Random,
}

/// Budgets of the experiment.
#[derive(Debug, Clone)]
pub struct Budgets {
    /// Hardware time available to the budgeted runs, ns (paper: 5 min).
    pub hardware_ns: f64,
    /// Model-guided SA steps (paper: 1 h of CPU; here a step count).
    pub model_steps: usize,
    /// How many model-ranked configs to re-measure on hardware.
    pub top_k: usize,
    /// Parallel annealing chains in the model-guided phase. The step
    /// budget is shared across chains; more chains means bigger model
    /// batches per step, not more evaluations.
    pub chains: usize,
}

impl Default for Budgets {
    fn default() -> Self {
        Budgets {
            hardware_ns: 300e9, // 5 minutes
            model_steps: 4_000, // "one hour on a CPU"
            top_k: 16,
            chains: 4,
        }
    }
}

/// Outcome of one autotuning run.
#[derive(Debug, Clone)]
pub struct TunedConfig {
    /// The chosen configuration.
    pub config: FusionConfig,
    /// Noiseless true runtime of the program under it, ns.
    pub true_ns: f64,
    /// Hardware evaluations spent.
    pub hw_evals: usize,
    /// Fresh model evaluations during the model-guided phase (distinct
    /// cache misses handed to the backend); 0 for hardware-only runs.
    pub model_evals: u64,
    /// Per-kernel predictions served from the cache; 0 for hardware-only
    /// runs.
    pub cache_hits: u64,
    /// Batched backend calls in the model-guided phase (for the neural
    /// models: packed forward passes); 0 for hardware-only runs.
    pub model_batches: u64,
}

impl TunedConfig {
    /// The model-guided phase's predictor counters, set beside the
    /// hardware tallies of the re-rank.
    fn with_model_stats(self, stats: PredictStats) -> TunedConfig {
        TunedConfig {
            model_evals: stats.model_evals,
            cache_hits: stats.cache_hits,
            model_batches: stats.model_batches,
            ..self
        }
    }
}

/// The hardware evaluation path, with its budget accounting.
///
/// Every measurement — annealer candidates and top-k re-ranking alike —
/// goes through [`HardwareObjective::measure`], which charges the
/// compile/eval overhead and one noisy program run against the device
/// budget. As a [`BatchObjective`] it evaluates candidates sequentially
/// (hardware is a serial resource) and reports `f64::NAN` once the budget
/// is exhausted.
///
/// `autotuner.hw.*` metrics — measurement and budget-exhaustion counts,
/// wall time per measurement, and the metered device time against the
/// budget (plus any overshoot) as gauges — go to the registry the device
/// carries ([`TpuDevice::observed`]).
pub struct HardwareObjective<'a> {
    planner: SharedPlanner<'a>,
    device: &'a TpuDevice,
    budget_ns: f64,
    hw_evals: usize,
    obs: HwObs,
}

/// `tpu-obs` handles for the hardware path (`autotuner.hw.*`).
struct HwObs {
    evals: Counter,
    budget_exhausted: Counter,
    measure_ns: Histogram,
    device_time_ns: Gauge,
    budget_ns: Gauge,
    budget_overshoot_ns: Gauge,
}

impl HwObs {
    fn new(registry: &Registry) -> HwObs {
        HwObs {
            evals: registry.counter("autotuner.hw.evals"),
            budget_exhausted: registry.counter("autotuner.hw.budget_exhausted"),
            measure_ns: registry.histogram("autotuner.hw.measure_ns"),
            device_time_ns: registry.gauge("autotuner.hw.device_time_ns"),
            budget_ns: registry.gauge("autotuner.hw.budget_ns"),
            budget_overshoot_ns: registry.gauge("autotuner.hw.budget_overshoot_ns"),
        }
    }
}

impl<'a> HardwareObjective<'a> {
    /// An objective measuring configurations of `program` over `space`
    /// on `device`, within `budget_ns` of device time.
    pub fn new(
        program: &'a Program,
        space: &'a FusionSpace,
        device: &'a TpuDevice,
        budget_ns: f64,
    ) -> HardwareObjective<'a> {
        let planner = Planner::shared(program, space, device.registry());
        HardwareObjective::with_planner(planner, device, budget_ns)
    }

    /// [`HardwareObjective::new`] building what it measures through
    /// `planner`, the tuning run's one planner: a kernel the search already
    /// built is not built again here.
    pub(crate) fn with_planner(
        planner: SharedPlanner<'a>,
        device: &'a TpuDevice,
        budget_ns: f64,
    ) -> HardwareObjective<'a> {
        let obs = HwObs::new(device.registry());
        obs.budget_ns.set(budget_ns);
        obs.device_time_ns.set(device.device_time_used());
        HardwareObjective {
            planner,
            device,
            budget_ns,
            hw_evals: 0,
            obs,
        }
    }

    /// One metered measurement: the compile/eval overhead plus one noisy
    /// run of the program, or `None` once the budget is spent.
    ///
    /// The budget check covers the eval overhead about to be charged, so a
    /// measurement is only admitted when overhead fits inside the budget —
    /// the meter can end past the budget by at most one measurement's
    /// execution time (recorded in `autotuner.hw.budget_overshoot_ns`),
    /// never by an unbounded number of stacked evals.
    pub fn measure(&mut self, config: &FusionConfig) -> Option<f64> {
        let used = self.device.device_time_used();
        if used >= self.budget_ns || used + self.device.config().eval_overhead_ns > self.budget_ns {
            self.obs.budget_exhausted.inc();
            return None;
        }
        let timer = self.obs.measure_ns.start_timer();
        self.device.charge_eval_overhead();
        // The planner's kernels are `apply_fusion`'s, in emission order,
        // each built the first time the run needs it.
        let mut planner = self.planner.borrow_mut();
        let (plan, slots) = planner.plan(config);
        let t = self
            .device
            .execute_kernels(plan.slots().iter().map(|&id| slots.kernel(id)));
        self.hw_evals += 1;
        timer.stop();
        let used = self.device.device_time_used();
        self.obs.device_time_ns.set(used);
        self.obs
            .budget_overshoot_ns
            .set((used - self.budget_ns).max(0.0));
        self.obs.evals.inc();
        Some(t)
    }

    /// Measurements performed so far.
    pub fn hw_evals(&self) -> usize {
        self.hw_evals
    }

    /// The outcome of a run that settled on `config`: its noiseless
    /// runtime beside this objective's hardware tallies.
    fn tuned(&self, config: FusionConfig) -> TunedConfig {
        let mut planner = self.planner.borrow_mut();
        let (plan, slots) = planner.plan(&config);
        TunedConfig {
            true_ns: self
                .device
                .true_kernels_time(plan.slots().iter().map(|&id| slots.kernel(id))),
            config,
            hw_evals: self.hw_evals,
            model_evals: 0,
            cache_hits: 0,
            model_batches: 0,
        }
    }
}

impl BatchObjective for HardwareObjective<'_> {
    fn evaluate(&mut self, configs: &[FusionConfig]) -> Vec<f64> {
        // Once the budget is spent, every remaining config is NaN.
        let mut exhausted = false;
        configs
            .iter()
            .map(|cfg| {
                let t = if exhausted { None } else { self.measure(cfg) };
                exhausted = t.is_none();
                t.unwrap_or(f64::NAN)
            })
            .collect()
    }

    fn registry(&self) -> Registry {
        self.device.registry().clone()
    }
}

/// The model evaluation path: predicted program runtime through a shared
/// [`Predictor`] session.
///
/// A batch of `C` candidate configs becomes: `C` fusion plans, each a delta
/// from the nearest config of the batch before; one flattened list of keys
/// (each distinct fusion group of the search is keyed once, in place); and
/// **one** predictor call, which builds a kernel only for a missed key — so
/// the distinct cache misses of all chains are scored in a single packed
/// model forward. A kernel the model
/// cannot score — [`CostModel`] answering `None`, or a non-finite runtime —
/// makes its config rank last (infinite predicted cost); the result is
/// never `NaN`, which [`BatchObjective`] reserves for an exhausted budget.
///
/// Holds the predictor by reference so the caller keeps access to the
/// session's [`PredictStats`](tpu_learned_cost::PredictStats) after the
/// search consumes the objective. `autotuner.model.*` metrics (configs
/// scored, wall time per batched evaluate call) go to the registry the
/// session carries ([`Predictor::observed`]).
pub struct ModelObjective<'a, M: CostModel + ?Sized, C: KernelCache = AtomicCache> {
    predictor: &'a Predictor<&'a M, C>,
    planner: SharedPlanner<'a>,
    obs: ModelObs,
}

/// `tpu-obs` handles for the model path (`autotuner.model.*`). The
/// predictor itself carries the cache/forward metrics (`core.engine.*`);
/// this layer only tracks config-level throughput.
struct ModelObs {
    configs: Counter,
    evaluate_ns: Histogram,
}

impl<'a, M: CostModel + ?Sized, C: KernelCache> ModelObjective<'a, M, C> {
    /// An objective scoring configurations of `program` over `space`
    /// through `predictor`.
    pub fn new(
        program: &'a Program,
        space: &'a FusionSpace,
        predictor: &'a Predictor<&'a M, C>,
    ) -> ModelObjective<'a, M, C> {
        let planner = Planner::shared(program, space, predictor.registry());
        ModelObjective::with_planner(predictor, planner)
    }

    /// [`ModelObjective::new`] planning through `planner`, the tuning
    /// run's one planner.
    pub(crate) fn with_planner(
        predictor: &'a Predictor<&'a M, C>,
        planner: SharedPlanner<'a>,
    ) -> ModelObjective<'a, M, C> {
        let registry = predictor.registry();
        ModelObjective {
            predictor,
            planner,
            obs: ModelObs {
                configs: registry.counter("autotuner.model.configs"),
                evaluate_ns: registry.histogram("autotuner.model.evaluate_ns"),
            },
        }
    }
}

impl<M: CostModel + ?Sized, C: KernelCache> BatchObjective for ModelObjective<'_, M, C> {
    fn evaluate(&mut self, configs: &[FusionConfig]) -> Vec<f64> {
        let _timer = self.obs.evaluate_ns.start_timer();
        self.obs.configs.add(configs.len() as u64);
        // The predictor sees every config's kernels as one flat list of
        // keys, in config, kernel order, and is handed a kernel only for a
        // key it misses.
        let mut planner = self.planner.borrow_mut();
        let (plans, slots) = planner.plan_batch(configs);
        let ids: Vec<GroupId> = plans.iter().flat_map(Plan::slots).copied().collect();
        let keys: Vec<u64> = ids.iter().map(|&id| slots.key(id)).collect();
        let (preds, _) = self
            .predictor
            .predict_keyed(&keys, |i| slots.kernel(ids[i]));
        let mut preds = preds.into_iter();
        plans
            .iter()
            .map(|plan| {
                preds
                    .by_ref()
                    .take(plan.slots().len())
                    .fold(0.0, |total, ns| {
                        total + ns.filter(|ns| ns.is_finite()).unwrap_or(f64::INFINITY)
                    })
            })
            .collect()
    }

    fn registry(&self) -> Registry {
        self.predictor.registry().clone()
    }
}

/// The starting configuration for a mode.
pub(crate) fn start_config(
    program: &Program,
    space: &FusionSpace,
    mode: StartMode,
    seed: u64,
) -> FusionConfig {
    match mode {
        StartMode::Default => tpu_fusion::default_config(&program.computation, space),
        StartMode::Random => {
            use rand::SeedableRng;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            space.random(&mut rng, 0.5)
        }
    }
}

/// Baseline: "the original autotuner, which uses only the real hardware to
/// evaluate fusion configs", running until the budget is spent.
///
/// Always single-chain: hardware measurements are serial and the annealer
/// must see each result before proposing the next candidate.
///
/// On an observed device ([`TpuDevice::observed`]) the run records
/// `autotuner.sa.*` and `autotuner.hw.*` into the device's registry.
/// Instrumentation is read-only: the tuned config is bit-identical either
/// way.
pub fn autotune_hardware_only(
    program: &Program,
    device: &TpuDevice,
    mode: StartMode,
    budget_ns: f64,
    seed: u64,
) -> TunedConfig {
    let (space, _) = default_space_and_config(&program.computation);
    let start = start_config(program, &space, mode, seed);
    device.reset_time_used();
    let mut hw = HardwareObjective::new(program, &space, device, budget_ns);
    let result = anneal(
        &space,
        start.clone(),
        &mut hw,
        &SaConfig {
            steps: usize::MAX >> 1,
            seed,
            chains: 1,
            ..Default::default()
        },
    );
    let best = if result.best_cost.is_finite() {
        result.best_config
    } else {
        start
    };
    hw.tuned(best)
}

/// Model-guided: multi-chain SA on the cost model for `model_steps` (no
/// hardware), then the top-k model-ranked configs are measured on hardware
/// within the budget and the best measured one wins (§6.3's protocol).
///
/// The model phase runs `budgets.chains` annealing chains, each
/// temperature step scoring all chains' candidates through one
/// [`Predictor`] call — distinct cache misses share a single packed model
/// forward. Predictions are keyed by canonical kernel hash in `cache`,
/// which is what makes the model evaluations "cheap" relative to hardware:
/// SA neighbourhoods share most kernels between configs. Passing the same
/// cache across runs on the same program carries predictions over —
/// revisiting a configuration costs zero fresh model evaluations. A kernel
/// the model cannot score ([`CostModel`] returning `None`) makes its
/// configs rank last (infinite predicted cost).
///
/// The tuned config is bit-identical for any cache pre-warmth; it does
/// depend on `budgets.chains` (different chain count, different search
/// trajectory).
///
/// On an observed device the model phase records `autotuner.sa.*`,
/// `autotuner.model.*` and the predictor's `core.engine.*` /
/// `core.cache.*` families into the device's registry, and the re-rank
/// `autotuner.hw.*`. Instrumentation is read-only.
pub fn autotune_with_cost_model<M: CostModel + ?Sized, C: KernelCache>(
    program: &Program,
    device: &TpuDevice,
    model: &M,
    cache: &Arc<C>,
    mode: StartMode,
    budgets: &Budgets,
    seed: u64,
) -> TunedConfig {
    let sa = SaConfig {
        steps: budgets.model_steps,
        seed,
        top_k: budgets.top_k,
        chains: budgets.chains.max(1),
        ..Default::default()
    };
    model_guided(
        program,
        device,
        model,
        cache,
        mode,
        seed,
        budgets,
        |space, start, objective, _| simulated_annealing(space, start, objective, &sa).top,
    )
}

/// Model-guided autotuning with the beam searcher in place of SA:
/// transposition-table-backed beam search on the cost model for at most
/// `budgets.model_steps` model evaluations (TT hits are free), then the
/// top-k model-ranked configs go through the *same* metered hardware
/// re-rank as [`autotune_with_cost_model`] — the two entry points are the
/// two callers of one private body and differ only in the search they
/// hand it.
///
/// `params` supplies the search hyperparameters (beam width, prune
/// margin, TT policy, seed); its `max_evals`/`top_k` are overridden by
/// `budgets.model_steps`/`budgets.top_k` so the two searchers meter from
/// one source of truth.
///
/// The tuned config is bit-identical for any cache/TT pre-warmth. On an
/// observed device the model phase records `autotuner.beam.*` where the SA
/// entry records `autotuner.sa.*`.
pub fn autotune_beam_with_cost_model<M: CostModel + ?Sized, C: KernelCache>(
    program: &Program,
    device: &TpuDevice,
    model: &M,
    cache: &Arc<C>,
    mode: StartMode,
    budgets: &Budgets,
    params: &SearchParams,
) -> TunedConfig {
    let effective = SearchParams {
        max_evals: budgets.model_steps,
        top_k: budgets.top_k,
        ..params.clone()
    };
    model_guided(
        program,
        device,
        model,
        cache,
        mode,
        params.seed,
        budgets,
        |space, start, objective, planner| {
            let tt = AtomicCache::with_capacity(TT_SLOTS);
            beam_search_with_planner(space, start, objective, &effective, &tt, planner).top
        },
    )
}

/// Phases 1–2 of the §6.3 protocol, written once. Phase 1: `search` ranks
/// configurations on the CPU through a [`ModelObjective`] over a
/// [`Predictor`] session over `model` and `cache` — the session is observed
/// into the registry `device` carries, so the objective and searcher built
/// over it record there too. Phase 2: [`rerank_on_hardware`] measures the
/// ranked candidates within `budgets.hardware_ns`.
///
/// The run has one [`Planner`]: the objective, the search (which is also
/// handed it, for the beam's transposition keys) and the re-rank all turn
/// configurations into keys and kernels through it, so each distinct
/// fusion group of the run is keyed once and built at most once.
#[allow(clippy::too_many_arguments)]
fn model_guided<M: CostModel + ?Sized, C: KernelCache>(
    program: &Program,
    device: &TpuDevice,
    model: &M,
    cache: &Arc<C>,
    mode: StartMode,
    seed: u64,
    budgets: &Budgets,
    search: impl FnOnce(
        &FusionSpace,
        FusionConfig,
        ModelObjective<'_, M, C>,
        SharedPlanner<'_>,
    ) -> Vec<(FusionConfig, f64)>,
) -> TunedConfig {
    let (space, _) = default_space_and_config(&program.computation);
    let start = start_config(program, &space, mode, seed);
    let predictor = Predictor::with_cache(model, Arc::clone(cache)).observed(device.registry());
    let planner = Planner::shared(program, &space, device.registry());
    let objective = ModelObjective::with_planner(&predictor, Rc::clone(&planner));
    let ranked = search(&space, start.clone(), objective, Rc::clone(&planner));
    predictor.record_cache_stats();
    let candidates = ranked.into_iter().map(|(c, _)| c).collect();
    rerank_on_hardware(planner, device, budgets.hardware_ns, candidates, start)
        .with_model_stats(predictor.stats())
}

/// Phase 2 of the §6.3 protocol, shared verbatim by the SA and beam
/// harnesses: reset the device meter, then measure the model-ranked
/// candidates on hardware through the single metered
/// [`HardwareObjective::measure`] path — same one-measurement
/// budget-overshoot bound — with the start config appended as a safety
/// net. The best measured config wins; budget exhaustion ends the
/// re-rank; with nothing measured the start config is returned.
///
/// The returned [`TunedConfig`] carries this phase's hardware tallies; the
/// caller adds its search phase's counters with
/// [`TunedConfig::with_model_stats`].
fn rerank_on_hardware<'a>(
    planner: SharedPlanner<'a>,
    device: &'a TpuDevice,
    budget_ns: f64,
    mut candidates: Vec<FusionConfig>,
    start: FusionConfig,
) -> TunedConfig {
    device.reset_time_used();
    if !candidates.contains(&start) {
        candidates.push(start.clone());
    }
    let mut hw = HardwareObjective::with_planner(planner, device, budget_ns);
    let mut best: Option<(FusionConfig, f64)> = None;
    for cfg in candidates {
        let Some(t) = hw.measure(&cfg) else { break };
        if best.as_ref().is_none_or(|(_, bt)| t < *bt) {
            best = Some((cfg, t));
        }
    }
    hw.tuned(best.map(|(c, _)| c).unwrap_or(start))
}

/// Speedup of a tuned config over the default heuristic config (how Fig. 4
/// reports results: "runtime speedup … over the default configuration").
pub fn speedup_over_default(program: &Program, device: &TpuDevice, tuned: &TunedConfig) -> f64 {
    let (space, default_cfg) = default_space_and_config(&program.computation);
    let default_fp = apply_fusion(program, &space, &default_cfg);
    device.true_program_time(&default_fp) / tuned.true_ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_hlo::{DType, GraphBuilder, Shape};
    use tpu_learned_cost::FnCostModel;
    use tpu_sim::TpuConfig;

    /// A fresh prediction cache, far larger than any test program's
    /// distinct-kernel count: nothing a test inserts is ever replaced.
    fn fresh_cache() -> Arc<AtomicCache> {
        Arc::new(AtomicCache::serving_default())
    }

    /// A program with enough fusion decisions to tune: interleaved
    /// elementwise chains and dots with a multi-consumer node.
    fn program() -> Program {
        let mut b = GraphBuilder::new("main");
        let x = b.parameter("x", Shape::matrix(512, 512), DType::F32);
        let w1 = b.parameter("w1", Shape::matrix(512, 512), DType::F32);
        let mut v = x;
        for i in 0..3 {
            let t = b.tanh(v);
            let e = b.exp(t);
            let s = b.add(t, e);
            v = if i == 1 { b.dot(s, w1) } else { s };
        }
        let r = b.reduce(v, vec![1]);
        let t2 = b.tanh(r);
        Program::new("tunable", b.finish(t2))
    }

    fn quick_budgets() -> Budgets {
        Budgets {
            hardware_ns: 40e9,
            model_steps: 400,
            top_k: 6,
            chains: 4,
        }
    }

    #[test]
    fn hardware_only_respects_budget() {
        let p = program();
        let device = TpuDevice::new(3);
        let tuned = autotune_hardware_only(&p, &device, StartMode::Default, 20e9, 1);
        // ~1.5 s overhead per eval: at most ~13 evals + slack.
        assert!(tuned.hw_evals <= 15, "evals={}", tuned.hw_evals);
        assert!(tuned.true_ns > 0.0);
    }

    #[test]
    fn model_guided_beats_or_matches_hardware_only_from_random_start() {
        let p = program();
        let cfg = TpuConfig::default();
        let device = TpuDevice::new(3);
        let budgets = quick_budgets();
        // Oracle model (the simulator itself) — upper bound for a learned model.
        let model = FnCostModel::new("oracle", move |k: &tpu_hlo::Kernel| {
            Some(tpu_sim::kernel_time_ns(k, &cfg))
        });
        let mut best_model = f64::INFINITY;
        let mut best_hw = f64::INFINITY;
        for seed in 0..3 {
            let m = autotune_with_cost_model(
                &p,
                &device,
                &model,
                &fresh_cache(),
                StartMode::Random,
                &budgets,
                seed,
            );
            best_model = best_model.min(m.true_ns);
            let h =
                autotune_hardware_only(&p, &device, StartMode::Random, budgets.hardware_ns, seed);
            best_hw = best_hw.min(h.true_ns);
        }
        assert!(
            best_model <= best_hw * 1.02,
            "model-guided {best_model} should be at least as good as hw-only {best_hw}"
        );
    }

    #[test]
    fn tuning_from_default_does_not_regress() {
        let p = program();
        let cfg = TpuConfig::default();
        let device = TpuDevice::new(9);
        let model = FnCostModel::new("oracle", move |k: &tpu_hlo::Kernel| {
            Some(tpu_sim::kernel_time_ns(k, &cfg))
        });
        let tuned = autotune_with_cost_model(
            &p,
            &device,
            &model,
            &fresh_cache(),
            StartMode::Default,
            &quick_budgets(),
            0,
        );
        let s = speedup_over_default(&p, &device, &tuned);
        assert!(s >= 0.99, "speedup={s}");
    }

    #[test]
    fn start_config_modes_differ() {
        let p = program();
        let (space, _) = default_space_and_config(&p.computation);
        let d = start_config(&p, &space, StartMode::Default, 0);
        let r = start_config(&p, &space, StartMode::Random, 0);
        assert_ne!(d, r);
        // Random depends on seed.
        let r2 = start_config(&p, &space, StartMode::Random, 1);
        assert_ne!(r, r2);
    }

    #[test]
    fn model_phase_stats_are_reported_and_cache_carries_over() {
        let p = program();
        let cfg = TpuConfig::default();
        let device = TpuDevice::new(5);
        let model = FnCostModel::new("oracle", move |k: &tpu_hlo::Kernel| {
            Some(tpu_sim::kernel_time_ns(k, &cfg))
        });
        let cache = fresh_cache();
        let cold = autotune_with_cost_model(
            &p,
            &device,
            &model,
            &cache,
            StartMode::Default,
            &quick_budgets(),
            0,
        );
        assert!(cold.model_evals > 0, "cold run must evaluate the model");
        assert!(cold.model_batches > 0);
        // One batched backend call per annealer evaluate() at most.
        assert!(cold.model_batches <= cold.model_evals);
        // Fresh same-seed device so phase 2 sees the same measurement
        // noise stream; only the cache warmth differs.
        let device = TpuDevice::new(5);
        let warm = autotune_with_cost_model(
            &p,
            &device,
            &model,
            &cache,
            StartMode::Default,
            &quick_budgets(),
            0,
        );
        assert_eq!(warm.model_evals, 0, "warm cache: zero fresh evaluations");
        assert_eq!(
            warm.config, cold.config,
            "same seed + warm cache, same answer"
        );
        assert!(warm.cache_hits > 0);
    }

    #[test]
    fn autotune_fills_all_metric_families_of_the_device_registry_and_matches_plain() {
        let p = program();
        let cfg = TpuConfig::default();
        let model = FnCostModel::new("oracle", move |k: &tpu_hlo::Kernel| {
            Some(tpu_sim::kernel_time_ns(k, &cfg))
        });
        let budgets = quick_budgets();

        let device = TpuDevice::new(11);
        let plain = autotune_with_cost_model(
            &p,
            &device,
            &model,
            &fresh_cache(),
            StartMode::Default,
            &budgets,
            0,
        );

        let registry = Registry::enabled();
        let device = TpuDevice::new(11).observed(&registry);
        let observed = autotune_with_cost_model(
            &p,
            &device,
            &model,
            &fresh_cache(),
            StartMode::Default,
            &budgets,
            0,
        );

        // Determinism contract: same seed, same answer, instrumented or not.
        assert_eq!(plain.config, observed.config);
        assert_eq!(plain.true_ns.to_bits(), observed.true_ns.to_bits());
        assert_eq!(plain.hw_evals, observed.hw_evals);
        assert_eq!(plain.model_evals, observed.model_evals);
        assert_eq!(plain.cache_hits, observed.cache_hits);

        let snap = registry.snapshot();
        // Model phase: SA, model objective, predictor, cache.
        assert!(snap.counter("autotuner.sa.candidates").unwrap() > 0);
        assert_eq!(
            snap.counter("autotuner.model.configs"),
            snap.counter("autotuner.sa.candidates")
        );
        assert_eq!(
            snap.counter("core.engine.model_evals"),
            Some(observed.model_evals)
        );
        assert_eq!(
            snap.counter("core.engine.cache_hits"),
            Some(observed.cache_hits)
        );
        assert!(snap.gauge("core.cache.entries").unwrap() > 0.0);
        // Re-rank phase: hardware meter.
        assert_eq!(
            snap.counter("autotuner.hw.evals"),
            Some(observed.hw_evals as u64)
        );
        assert_eq!(
            snap.gauge("autotuner.hw.budget_ns"),
            Some(budgets.hardware_ns)
        );
        let used = snap.gauge("autotuner.hw.device_time_ns").unwrap();
        assert!(used > 0.0 && (used - device.device_time_used()).abs() < 1e-6);
        // The observed device meters its own executions too.
        assert_eq!(
            snap.counter("sim.device.eval_overheads"),
            Some(observed.hw_evals as u64)
        );
        assert!(snap.counter("sim.device.kernel_execs").unwrap() > 0);
    }

    #[test]
    fn hardware_only_counts_budget_exhaustion_into_the_device_registry() {
        let p = program();
        let registry = Registry::enabled();
        let device = TpuDevice::new(3);
        let plain = autotune_hardware_only(&p, &device, StartMode::Default, 20e9, 1);
        let device = TpuDevice::new(3).observed(&registry);
        let tuned = autotune_hardware_only(&p, &device, StartMode::Default, 20e9, 1);
        assert_eq!(plain.config, tuned.config);
        let snap = registry.snapshot();
        // The baseline's annealer records too: one candidate per admitted
        // measurement plus the NaN probe that ended the run.
        assert_eq!(
            snap.counter("autotuner.sa.batches"),
            Some(tuned.hw_evals as u64 + 1)
        );
        assert_eq!(
            snap.counter("autotuner.hw.evals"),
            Some(tuned.hw_evals as u64)
        );
        // The run ends by exhausting the budget, which the objective
        // reports as NaN exactly once.
        assert_eq!(snap.counter("autotuner.hw.budget_exhausted"), Some(1));
        assert_eq!(
            snap.histogram("autotuner.hw.measure_ns").map(|h| h.count),
            Some(tuned.hw_evals as u64)
        );
    }

    #[test]
    fn budget_overshoot_is_bounded_by_one_measurement() {
        // Satellite: the budget check must account for the eval overhead,
        // so the meter can end past the budget only by the execution time
        // of the final admitted measurement — never by stacked evals.
        let p = program();
        let registry = Registry::enabled();
        let device = TpuDevice::new(21).observed(&registry);
        let (space, _) = default_space_and_config(&p.computation);
        let start = start_config(&p, &space, StartMode::Default, 0);
        let budget = 10e9;
        let mut hw = HardwareObjective::new(&p, &space, &device, budget);
        while hw.measure(&start).is_some() {}
        let fused = apply_fusion(&p, &space, &start);
        let exec_bound = device.true_program_time(&fused) * 1.0401;
        let overshoot = device.device_time_used() - budget;
        assert!(
            overshoot <= exec_bound,
            "overshoot {overshoot} ns exceeds one execution ({exec_bound} ns)"
        );
        let gauge = registry
            .snapshot()
            .gauge("autotuner.hw.budget_overshoot_ns")
            .expect("overshoot gauge");
        assert!(
            (gauge - overshoot.max(0.0)).abs() < 1e-6,
            "gauge overshoot {gauge} vs meter {overshoot}"
        );

        // A budget smaller than one eval overhead admits nothing at all.
        let device = TpuDevice::new(21);
        let overhead = device.config().eval_overhead_ns;
        let mut hw = HardwareObjective::new(&p, &space, &device, overhead * 0.5);
        assert_eq!(hw.measure(&start), None);
        assert_eq!(hw.hw_evals(), 0);
        assert_eq!(device.device_time_used(), 0.0);
    }

    #[test]
    fn sa_and_beam_share_one_metered_rerank_path() {
        // The two searchers must route phase 2 through one metered path.
        // With a zero model budget both produce the same candidate list
        // (the start config alone), so on fresh same-seed devices the
        // hardware accounting — measurements and the metered device time —
        // must be bit-identical between the SA and beam entries.
        let p = program();
        let cfg = TpuConfig::default();
        let model = FnCostModel::new("oracle", move |k: &tpu_hlo::Kernel| {
            Some(tpu_sim::kernel_time_ns(k, &cfg))
        });
        let budgets = Budgets {
            model_steps: 0,
            ..quick_budgets()
        };
        let sa_device = TpuDevice::new(5);
        let sa = autotune_with_cost_model(
            &p,
            &sa_device,
            &model,
            &fresh_cache(),
            StartMode::Default,
            &budgets,
            0,
        );
        let beam_device = TpuDevice::new(5);
        let beam = autotune_beam_with_cost_model(
            &p,
            &beam_device,
            &model,
            &fresh_cache(),
            StartMode::Default,
            &budgets,
            &crate::beam::SearchParams {
                seed: 0,
                ..Default::default()
            },
        );
        assert_eq!(sa.config, beam.config);
        assert_eq!(sa.true_ns.to_bits(), beam.true_ns.to_bits());
        assert_eq!(sa.hw_evals, beam.hw_evals);
        assert_eq!(
            sa_device.device_time_used().to_bits(),
            beam_device.device_time_used().to_bits()
        );
    }

    #[test]
    fn shared_rerank_overshoot_is_bounded_by_one_measurement() {
        // The overshoot bound the SA harness pinned now lives in the
        // shared path, so it holds for any searcher feeding it.
        let p = program();
        let registry = Registry::enabled();
        let device = TpuDevice::new(21).observed(&registry);
        let (space, _) = default_space_and_config(&p.computation);
        let start = start_config(&p, &space, StartMode::Default, 0);
        let budget = 10e9;
        let candidates = vec![start.clone(); 64]; // plenty to exhaust the budget
        let planner = Planner::shared(&p, &space, device.registry());
        let tuned = rerank_on_hardware(planner, &device, budget, candidates, start.clone());
        assert!(tuned.hw_evals > 0);
        let fused = apply_fusion(&p, &space, &start);
        let exec_bound = device.true_program_time(&fused) * 1.0401;
        let overshoot = registry
            .snapshot()
            .gauge("autotuner.hw.budget_overshoot_ns")
            .expect("overshoot gauge");
        assert!(
            overshoot <= exec_bound,
            "overshoot {overshoot} ns exceeds one execution ({exec_bound} ns)"
        );
        assert!(device.device_time_used() - budget <= exec_bound);
    }

    #[test]
    fn the_model_objective_builds_a_kernel_only_for_a_missed_key() {
        let p = program();
        let (space, _) = default_space_and_config(&p.computation);
        let cfg = TpuConfig::default();
        let model = FnCostModel::new("oracle", move |k: &tpu_hlo::Kernel| {
            Some(tpu_sim::kernel_time_ns(k, &cfg))
        });
        let configs = crate::random_configs(&space, 12, 3);
        let registry = Registry::enabled();
        let built = || registry.snapshot().counter("autotuner.plan.built");
        let predictor = Predictor::with_cache(&model, fresh_cache()).observed(&registry);

        // Cold: one kernel per distinct missed key, though the batch asks
        // for many more positions than that.
        let mut cold = ModelObjective::new(&p, &space, &predictor);
        let costs = cold.evaluate(&configs);
        let misses = predictor.stats();
        assert!(misses.kernels > misses.model_evals && misses.model_evals > 0);
        assert_eq!(built(), Some(misses.model_evals));

        // Warm: a new planner, so no kernel of its own, over the warm
        // cache — every key hits and nothing is built.
        let mut warm = ModelObjective::new(&p, &space, &predictor);
        assert_eq!(warm.evaluate(&configs), costs);
        assert_eq!(predictor.stats().since(&misses).model_evals, 0);
        assert_eq!(built(), Some(misses.model_evals));
    }

    #[test]
    fn the_rerank_builds_each_measured_group_once() {
        let p = program();
        let (space, _) = default_space_and_config(&p.computation);
        let start = start_config(&p, &space, StartMode::Default, 0);
        let once = crate::random_configs(&space, 6, 9);
        // Each candidate measured twice, and the start once more.
        let candidates: Vec<FusionConfig> = once.iter().chain(&once).cloned().collect();
        let registry = Registry::enabled();
        let device = TpuDevice::new(4).observed(&registry);
        let planner = Planner::shared(&p, &space, device.registry());
        let tuned = rerank_on_hardware(planner, &device, f64::INFINITY, candidates, start.clone());
        assert!(tuned.hw_evals >= 2 * once.len());
        let measured: std::collections::HashSet<tpu_fusion::FusionGroup> = once
            .iter()
            .chain([&start])
            .flat_map(|c| tpu_fusion::fusion_groups(&p, &space, c))
            .collect();
        assert_eq!(
            registry.snapshot().counter("autotuner.plan.built"),
            Some(measured.len() as u64)
        );
    }

    #[test]
    fn beam_guided_tuning_from_default_does_not_regress() {
        let p = program();
        let cfg = TpuConfig::default();
        let device = TpuDevice::new(9);
        let model = FnCostModel::new("oracle", move |k: &tpu_hlo::Kernel| {
            Some(tpu_sim::kernel_time_ns(k, &cfg))
        });
        let tuned = autotune_beam_with_cost_model(
            &p,
            &device,
            &model,
            &fresh_cache(),
            StartMode::Default,
            &quick_budgets(),
            &crate::beam::SearchParams {
                seed: 0,
                ..Default::default()
            },
        );
        assert!(tuned.model_evals > 0, "beam must evaluate the model");
        let s = speedup_over_default(&p, &device, &tuned);
        assert!(s >= 0.99, "speedup={s}");
    }

    #[test]
    fn model_objective_is_the_oracle_sum_over_the_fused_kernels() {
        let mut b = GraphBuilder::new("main");
        let x = b.parameter("x", Shape::matrix(1024, 512), DType::F32);
        let w = b.parameter("w", Shape::matrix(512, 1024), DType::F32);
        let d = b.dot(x, w);
        let r = b.relu(d);
        let t = b.tanh(r);
        let p = Program::new("mm", b.finish(t));
        let cfg = TpuConfig::default();
        let sim_cfg = cfg.clone();
        let model = FnCostModel::new("oracle", move |k: &tpu_hlo::Kernel| {
            Some(tpu_sim::kernel_time_ns(k, &sim_cfg))
        });
        let (space, default_cfg) = default_space_and_config(&p.computation);
        let predictor = Predictor::with_cache(&model, fresh_cache());
        let mut objective = ModelObjective::new(&p, &space, &predictor);
        for candidate in [space.none(), space.all(), default_cfg] {
            let cost = objective.evaluate(std::slice::from_ref(&candidate))[0];
            let oracle_sum: f64 = apply_fusion(&p, &space, &candidate)
                .kernels
                .iter()
                .map(|k| tpu_sim::kernel_time_ns(k, &cfg))
                .sum();
            assert!(
                (oracle_sum - cost).abs() <= cost * 1e-12,
                "fused program cost {oracle_sum} != objective {cost}"
            );
        }
    }

    /// The hardware objective measures the kernels its planner hands out,
    /// so a planner must hand out `apply_fusion`'s, in emission order,
    /// whether it is fresh or met the groups while the model scored them:
    /// then a device sees the same kernels in the same order and draws the
    /// same noise as one running `apply_fusion`'s program.
    #[test]
    fn measuring_through_a_planner_is_measuring_apply_fusion() {
        let mut b = GraphBuilder::new("main");
        let x = b.parameter("x", Shape::matrix(256, 256), DType::F32);
        let w1 = b.parameter("w1", Shape::matrix(256, 256), DType::F32);
        let w2 = b.parameter("w2", Shape::matrix(256, 256), DType::F32);
        let h = b.dot(x, w1);
        let r = b.relu(h);
        let e = b.exp(r);
        let s = b.add(r, e);
        let t = b.tanh(s);
        let d = b.dot(t, w2);
        let a = b.add(d, x);
        let out = b.reduce(a, vec![1]);
        let block = Program::new("block", b.finish(out));
        let oracle = TpuConfig::default();
        let model = FnCostModel::new("oracle", move |k: &tpu_hlo::Kernel| {
            Some(tpu_sim::kernel_time_ns(k, &oracle))
        });
        for p in [program(), block] {
            let (space, _) = default_space_and_config(&p.computation);
            let configs = crate::random_configs(&space, 20, 5);
            let reference = TpuDevice::new(17);
            let fresh_device = TpuDevice::new(17);
            let met_device = TpuDevice::new(17);
            let mut fresh = HardwareObjective::new(&p, &space, &fresh_device, f64::INFINITY);
            // The model phase meets every group first.
            let planner = Planner::shared(&p, &space, &Registry::noop());
            let predictor = Predictor::with_cache(&model, fresh_cache());
            ModelObjective::with_planner(&predictor, Rc::clone(&planner)).evaluate(&configs);
            let mut met =
                HardwareObjective::with_planner(Rc::clone(&planner), &met_device, f64::INFINITY);
            for config in &configs {
                let fused = apply_fusion(&p, &space, config);
                {
                    let mut planner = planner.borrow_mut();
                    let (plan, slots) = planner.plan(config);
                    let planned = plan.slots().iter().map(|&id| slots.kernel(id));
                    assert!(planned.eq(&fused.kernels));
                }

                reference.charge_eval_overhead();
                let expected = reference.execute_kernels(&fused.kernels).to_bits();
                assert_eq!(fresh.measure(config).unwrap().to_bits(), expected);
                assert_eq!(met.measure(config).unwrap().to_bits(), expected);
                let true_ns = reference.true_program_time(&fused).to_bits();
                assert_eq!(fresh.tuned(config.clone()).true_ns.to_bits(), true_ns);
                assert_eq!(met.tuned(config.clone()).true_ns.to_bits(), true_ns);
            }
            let used = reference.device_time_used().to_bits();
            assert_eq!(fresh_device.device_time_used().to_bits(), used);
            assert_eq!(met_device.device_time_used().to_bits(), used);
        }
    }

    /// A model that answers `Some(NaN)` for a kernel must not end the
    /// search: `NaN` from a [`BatchObjective`] means "budget exhausted", so
    /// such a config ranks last instead and SA spends all its steps.
    #[test]
    fn a_nan_prediction_ranks_its_config_last_without_ending_the_search() {
        let p = program();
        let (space, start) = default_space_and_config(&p.computation);
        // Every kernel the start config does not contain scores NaN, so
        // the first move away from it meets one.
        let known: Vec<u64> = apply_fusion(&p, &space, &start)
            .kernels
            .iter()
            .map(tpu_hlo::canonical_kernel_hash)
            .collect();
        let oracle = TpuConfig::default();
        let model = FnCostModel::new("nan-off-start", move |k: &tpu_hlo::Kernel| {
            if known.contains(&tpu_hlo::canonical_kernel_hash(k)) {
                Some(tpu_sim::kernel_time_ns(k, &oracle))
            } else {
                Some(f64::NAN)
            }
        });
        let predictor = Predictor::with_cache(&model, fresh_cache());
        let mut objective = ModelObjective::new(&p, &space, &predictor);
        let costs = objective.evaluate(&[start, space.none()]);
        assert!(costs[0].is_finite());
        assert_eq!(costs[1], f64::INFINITY);

        let budgets = Budgets {
            model_steps: 60,
            ..quick_budgets()
        };
        let registry = tpu_obs::Registry::enabled();
        let device = TpuDevice::new(3).observed(&registry);
        autotune_with_cost_model(
            &p,
            &device,
            &model,
            &fresh_cache(),
            StartMode::Default,
            &budgets,
            0,
        );
        // The shared start config plus one candidate per annealing step.
        assert_eq!(
            registry.snapshot().counter("autotuner.sa.candidates"),
            Some(budgets.model_steps as u64 + 1),
            "SA stopped before spending its model_steps"
        );
    }

    #[test]
    fn chain_count_shares_the_step_budget() {
        // More chains must not buy more model evaluations, only bigger
        // batches: total per-kernel asks stay bounded by the step budget.
        let p = program();
        let cfg = TpuConfig::default();
        let device = TpuDevice::new(7);
        let model = FnCostModel::new("oracle", move |k: &tpu_hlo::Kernel| {
            Some(tpu_sim::kernel_time_ns(k, &cfg))
        });
        for chains in [1, 4] {
            let cache = fresh_cache();
            let budgets = Budgets {
                chains,
                ..quick_budgets()
            };
            let tuned = autotune_with_cost_model(
                &p,
                &device,
                &model,
                &cache,
                StartMode::Random,
                &budgets,
                3,
            );
            let asks = tuned.cache_hits + tuned.model_evals;
            // Each config evaluation asks about at most the unfused kernel
            // count; +1 for the shared start evaluation, + slack for the
            // final partial batch the annealer may request past the budget.
            let max_kernels = p.computation.num_nodes() as u64;
            assert!(
                asks <= (budgets.model_steps as u64 + 1 + chains as u64) * max_kernels,
                "chains={chains}: asks={asks}"
            );
        }
    }
}
