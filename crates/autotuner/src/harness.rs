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
//!   nearest candidate of the batch before (the objective's per-search
//!   planner — a group the flipped decisions cannot have touched is not
//!   planned, extracted or hashed again), and score the flattened kernels
//!   in one predictor call so all chains' cache misses share a single
//!   packed model forward.

use crate::beam::{beam_search, SearchParams};
use crate::memo::Planner;
use crate::sa::{anneal, simulated_annealing, BatchObjective, SaConfig};
use std::fmt;
use std::sync::Arc;
use tpu_fusion::{apply_fusion, default_space_and_config, FusionConfig, FusionSpace};
use tpu_hlo::{HashedKernel, Program};
use tpu_learned_cost::{AtomicCache, CostModel, KernelCache, PredictStats, Predictor};
use tpu_obs::{Counter, Gauge, Histogram, Registry};
use tpu_sim::{DeviceError, FaultCounts, TpuDevice};

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
    /// Retry/outlier accounting of the hardware measurement path.
    pub retry_stats: HwRetryStats,
    /// Faults the device injected during this run's hardware phase.
    pub faults: FaultCounts,
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

/// How [`HardwareObjective::measure`] retries and aggregates under faults.
///
/// One *measurement* admits one config past the budget check, charges one
/// eval overhead, then makes up to `max_attempts` program-execution
/// attempts aiming for `runs` successes. Failed attempts stay charged
/// against the §6.3 budget (preemptions burn their device time; the budget
/// check happens once per measurement, not per attempt). Successful runs
/// are aggregated min-of-k after rejecting samples above
/// `outlier_threshold × median` (the §5 protocol hardened against injected
/// tail spikes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Target number of successful runs per measurement (min-of-k).
    pub runs: usize,
    /// Upper bound on execution attempts per measurement (>= `runs`).
    pub max_attempts: usize,
    /// Reject successful runs above this multiple of the sample median.
    pub outlier_threshold: f64,
}

impl Default for RetryPolicy {
    /// Fault-free compatible: a single run per measurement (exactly the
    /// pre-retry harness behavior, bit-identical under `FaultPlan::none()`)
    /// with a few spare attempts should faults be injected anyway.
    fn default() -> Self {
        RetryPolicy {
            runs: 1,
            max_attempts: 4,
            outlier_threshold: 1.3,
        }
    }
}

impl RetryPolicy {
    /// Chaos-hardened: min-of-3 with headroom for retries, so preemptions
    /// and transient failures rarely lose a candidate and single spikes
    /// never win the min. Selected automatically when the device has a
    /// non-empty fault plan.
    pub fn resilient() -> RetryPolicy {
        RetryPolicy {
            runs: 3,
            max_attempts: 8,
            outlier_threshold: 1.3,
        }
    }
}

/// Retry/outlier accounting for the hardware measurement path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HwRetryStats {
    /// Program-execution attempts across all measurements.
    pub attempts: u64,
    /// Failed attempts (each either retried or abandoned).
    pub retries: u64,
    /// Successful runs discarded as tail-latency outliers.
    pub outliers_rejected: u64,
    /// Candidates abandoned after exhausting `max_attempts`.
    pub exhausted_candidates: u64,
    /// How far the device meter ended past the budget, ns (bounded by one
    /// measurement's execution time; see `budget_overshoot_is_bounded`).
    pub budget_overshoot_ns: f64,
}

/// Why a metered measurement failed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MeasureError {
    /// The device-time budget cannot cover another eval overhead; the
    /// search is over (maps to the annealer's NaN sentinel).
    BudgetExhausted,
    /// Every execution attempt for this candidate faulted; the candidate
    /// is unmeasurable this round (maps to infinite cost: ranks last, the
    /// search continues).
    RetriesExhausted {
        /// Attempts spent before giving up.
        attempts: usize,
        /// The last device fault observed.
        last: DeviceError,
    },
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::BudgetExhausted => write!(f, "hardware-time budget exhausted"),
            MeasureError::RetriesExhausted { attempts, last } => {
                write!(
                    f,
                    "all {attempts} measurement attempts faulted (last: {last})"
                )
            }
        }
    }
}

impl std::error::Error for MeasureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MeasureError::BudgetExhausted => None,
            MeasureError::RetriesExhausted { last, .. } => Some(last),
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
/// `autotuner.hw.*` metrics — measurement counts, retry/outlier/exhaustion
/// counters, wall time per measurement, and the metered device time
/// against the budget (plus any overshoot) as gauges — go to the
/// registry the device carries ([`TpuDevice::observed`]).
pub struct HardwareObjective<'a> {
    program: &'a Program,
    space: &'a FusionSpace,
    device: &'a TpuDevice,
    budget_ns: f64,
    hw_evals: usize,
    retry: RetryPolicy,
    stats: HwRetryStats,
    obs: HwObs,
}

/// `tpu-obs` handles for the hardware path (`autotuner.hw.*`).
struct HwObs {
    evals: Counter,
    budget_exhausted: Counter,
    retries: Counter,
    outliers_rejected: Counter,
    exhausted_candidates: Counter,
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
            retries: registry.counter("autotuner.hw.retries"),
            outliers_rejected: registry.counter("autotuner.hw.outliers_rejected"),
            exhausted_candidates: registry.counter("autotuner.hw.exhausted_candidates"),
            measure_ns: registry.histogram("autotuner.hw.measure_ns"),
            device_time_ns: registry.gauge("autotuner.hw.device_time_ns"),
            budget_ns: registry.gauge("autotuner.hw.budget_ns"),
            budget_overshoot_ns: registry.gauge("autotuner.hw.budget_overshoot_ns"),
        }
    }
}

/// Min of `samples` after rejecting tail outliers above
/// `threshold × median`; returns the aggregate and how many samples were
/// rejected. The min always survives rejection (it is never above the
/// median), so the aggregate equals the plain min — the rejection count is
/// what flags measurements whose tail was polluted by injected spikes.
fn robust_min(samples: &[f64], threshold: f64) -> (f64, u64) {
    debug_assert!(!samples.is_empty());
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    let cut = median * threshold.max(1.0);
    let rejected = sorted.iter().filter(|&&t| t > cut).count() as u64;
    (sorted[0], rejected)
}

impl<'a> HardwareObjective<'a> {
    /// Create an objective. The retry policy defaults to
    /// [`RetryPolicy::default`] on a fault-free device (bit-identical to
    /// the pre-retry harness) and [`RetryPolicy::resilient`] when the
    /// device carries a non-empty fault plan; override with
    /// [`HardwareObjective::with_retry_policy`].
    pub fn new(
        program: &'a Program,
        space: &'a FusionSpace,
        device: &'a TpuDevice,
        budget_ns: f64,
    ) -> HardwareObjective<'a> {
        let retry = if device.config().fault.is_none() {
            RetryPolicy::default()
        } else {
            RetryPolicy::resilient()
        };
        let obs = HwObs::new(device.registry());
        obs.budget_ns.set(budget_ns);
        obs.device_time_ns.set(device.device_time_used());
        HardwareObjective {
            program,
            space,
            device,
            budget_ns,
            hw_evals: 0,
            retry,
            stats: HwRetryStats::default(),
            obs,
        }
    }

    /// Override the retry/aggregation policy (builder-style).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> HardwareObjective<'a> {
        self.retry = RetryPolicy {
            runs: retry.runs.max(1),
            max_attempts: retry.max_attempts.max(retry.runs.max(1)),
            outlier_threshold: retry.outlier_threshold,
        };
        self
    }

    /// One metered measurement: the compile/eval overhead plus up to
    /// `max_attempts` noisy runs aggregated per the [`RetryPolicy`].
    ///
    /// The budget check covers the eval overhead about to be charged, so a
    /// measurement is only admitted when overhead fits inside the budget —
    /// the meter can end past the budget by at most one measurement's
    /// execution time (recorded in `autotuner.hw.budget_overshoot_ns`),
    /// never by an unbounded number of stacked evals.
    pub fn measure(&mut self, config: &FusionConfig) -> Result<f64, MeasureError> {
        let used = self.device.device_time_used();
        if used >= self.budget_ns || used + self.device.config().eval_overhead_ns > self.budget_ns {
            self.obs.budget_exhausted.inc();
            return Err(MeasureError::BudgetExhausted);
        }
        let timer = self.obs.measure_ns.start_timer();
        self.device.charge_eval_overhead();
        let fused = apply_fusion(self.program, self.space, config);
        self.hw_evals += 1;

        let mut samples: Vec<f64> = Vec::with_capacity(self.retry.runs);
        let mut attempts = 0usize;
        let mut last_err: Option<DeviceError> = None;
        while samples.len() < self.retry.runs && attempts < self.retry.max_attempts.max(1) {
            attempts += 1;
            self.stats.attempts += 1;
            match self.device.try_execute_program(&fused) {
                Ok(t) => samples.push(t),
                Err(e) => {
                    // Failed attempt: device time it burned (preemptions)
                    // stays charged against the budget.
                    self.stats.retries += 1;
                    self.obs.retries.inc();
                    last_err = Some(e);
                }
            }
        }
        timer.stop();
        let used = self.device.device_time_used();
        let overshoot = (used - self.budget_ns).max(0.0);
        self.stats.budget_overshoot_ns = overshoot;
        self.obs.device_time_ns.set(used);
        self.obs.budget_overshoot_ns.set(overshoot);

        if samples.is_empty() {
            self.stats.exhausted_candidates += 1;
            self.obs.exhausted_candidates.inc();
            return Err(MeasureError::RetriesExhausted {
                attempts,
                // INVARIANT: zero successes with >=1 attempt implies at
                // least one recorded device error.
                last: last_err.expect("no successful attempt implies a device error"),
            });
        }
        let (t, rejected) = robust_min(&samples, self.retry.outlier_threshold);
        self.stats.outliers_rejected += rejected;
        self.obs.outliers_rejected.add(rejected);
        self.obs.evals.inc();
        Ok(t)
    }

    /// Measurements performed so far.
    pub fn hw_evals(&self) -> usize {
        self.hw_evals
    }

    /// Retry/outlier accounting so far.
    pub fn retry_stats(&self) -> HwRetryStats {
        self.stats
    }

    /// The outcome of a run that settled on `config`: its noiseless
    /// runtime beside this objective's hardware tallies and the faults the
    /// device injected since `faults_before`.
    fn tuned(&self, config: FusionConfig, faults_before: FaultCounts) -> TunedConfig {
        let fused = apply_fusion(self.program, self.space, &config);
        let faults = self.device.fault_counts();
        TunedConfig {
            true_ns: self.device.true_program_time(&fused),
            config,
            hw_evals: self.hw_evals,
            model_evals: 0,
            cache_hits: 0,
            model_batches: 0,
            retry_stats: self.stats,
            // The device's tallies are monotonic across runs; a
            // `TunedConfig` reports only its own run.
            faults: FaultCounts {
                transients: faults.transients - faults_before.transients,
                preemptions: faults.preemptions - faults_before.preemptions,
                spikes: faults.spikes - faults_before.spikes,
            },
        }
    }
}

impl BatchObjective for HardwareObjective<'_> {
    fn evaluate(&mut self, configs: &[FusionConfig]) -> Vec<f64> {
        let mut out = Vec::with_capacity(configs.len());
        let mut exhausted = false;
        for cfg in configs {
            if exhausted {
                out.push(f64::NAN);
                continue;
            }
            match self.measure(cfg) {
                Ok(t) => out.push(t),
                // A candidate whose every attempt faulted is unmeasurable,
                // not a reason to end the search: infinite cost ranks it
                // last and the annealer moves on. NaN stays reserved for
                // budget exhaustion, which *is* terminal.
                Err(MeasureError::RetriesExhausted { .. }) => out.push(f64::INFINITY),
                Err(MeasureError::BudgetExhausted) => {
                    exhausted = true;
                    out.push(f64::NAN);
                }
            }
        }
        out
    }

    fn registry(&self) -> Registry {
        self.device.registry().clone()
    }
}

/// The model evaluation path: predicted program runtime through a shared
/// [`Predictor`] session.
///
/// A batch of `C` candidate configs becomes: `C` fusion plans, each a delta
/// from the nearest config of the batch before; one flattened kernel list
/// (each distinct fusion group of the search is extracted and hashed
/// once); and **one** predictor call — so the distinct cache misses of all
/// chains are scored in a single packed model forward. A kernel the model
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
    planner: Planner<'a>,
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
        let registry = predictor.registry();
        ModelObjective {
            predictor,
            planner: Planner::new(program, space, registry),
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
        // The predictor sees every config's kernels as one flat list, in
        // config, kernel order.
        let plans = self.planner.plan_batch(configs);
        let refs: Vec<&HashedKernel> = plans
            .iter()
            .flat_map(|plan| plan.kernels())
            .map(Arc::as_ref)
            .collect();
        let (preds, _) = self.predictor.predict_hashed(&refs);
        let mut preds = preds.into_iter();
        plans
            .iter()
            .map(|plan| {
                preds
                    .by_ref()
                    .take(plan.kernels().len())
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
pub fn start_config(
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
    let faults_before = device.fault_counts();
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
    hw.tuned(best, faults_before)
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
        |space, start, predictor| {
            let objective = ModelObjective::new(program, space, predictor);
            simulated_annealing(space, start, objective, &sa).top
        },
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
        |space, start, predictor| {
            let objective = ModelObjective::new(program, space, predictor);
            beam_search(program, space, start, objective, &effective).top
        },
    )
}

/// Phases 1–2 of the §6.3 protocol, written once. Phase 1: `search` ranks
/// configurations on the CPU through a [`Predictor`] session over `model`
/// and `cache` — the session is observed into the registry `device`
/// carries, so the objective and searcher built over it record there too.
/// Phase 2: [`rerank_on_hardware`] measures the ranked candidates within
/// `budgets.hardware_ns`.
#[allow(clippy::too_many_arguments)]
fn model_guided<M: CostModel + ?Sized, C: KernelCache>(
    program: &Program,
    device: &TpuDevice,
    model: &M,
    cache: &Arc<C>,
    mode: StartMode,
    seed: u64,
    budgets: &Budgets,
    search: impl FnOnce(&FusionSpace, FusionConfig, &Predictor<&M, C>) -> Vec<(FusionConfig, f64)>,
) -> TunedConfig {
    let (space, _) = default_space_and_config(&program.computation);
    let start = start_config(program, &space, mode, seed);
    let predictor = Predictor::with_cache(model, Arc::clone(cache)).observed(device.registry());
    let ranked = search(&space, start.clone(), &predictor);
    predictor.record_cache_stats();
    let candidates = ranked.into_iter().map(|(c, _)| c).collect();
    rerank_on_hardware(
        program,
        &space,
        device,
        budgets.hardware_ns,
        candidates,
        start,
    )
    .with_model_stats(predictor.stats())
}

/// Phase 2 of the §6.3 protocol, shared verbatim by the SA and beam
/// harnesses: reset the device meter, then measure the model-ranked
/// candidates on hardware through the single metered
/// [`HardwareObjective::measure`] path — same [`RetryPolicy`] resolution
/// (default on fault-free devices, resilient under a fault plan), same
/// one-measurement budget-overshoot bound — with the start config appended
/// as a safety net. The best measured config wins; a candidate whose
/// measurement exhausts its retries is skipped (the next-ranked one still
/// gets its chance); budget exhaustion ends the re-rank; with nothing
/// measurable the start config is returned.
///
/// The returned [`TunedConfig`] carries this phase's hardware tallies; the
/// caller adds its search phase's counters with
/// [`TunedConfig::with_model_stats`].
fn rerank_on_hardware(
    program: &Program,
    space: &FusionSpace,
    device: &TpuDevice,
    budget_ns: f64,
    mut candidates: Vec<FusionConfig>,
    start: FusionConfig,
) -> TunedConfig {
    device.reset_time_used();
    let faults_before = device.fault_counts();
    if !candidates.contains(&start) {
        candidates.push(start.clone());
    }
    let mut hw = HardwareObjective::new(program, space, device, budget_ns);
    let mut best: Option<(FusionConfig, f64)> = None;
    for cfg in candidates {
        match hw.measure(&cfg) {
            Ok(t) => {
                if best.as_ref().is_none_or(|(_, bt)| t < *bt) {
                    best = Some((cfg, t));
                }
            }
            Err(MeasureError::RetriesExhausted { .. }) => continue,
            Err(MeasureError::BudgetExhausted) => break,
        }
    }
    hw.tuned(best.map(|(c, _)| c).unwrap_or(start), faults_before)
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
        loop {
            match hw.measure(&start) {
                Ok(_) => {}
                Err(MeasureError::BudgetExhausted) => break,
                Err(e) => panic!("fault-free device cannot fault: {e}"),
            }
        }
        let fused = apply_fusion(&p, &space, &start);
        let exec_bound = device.true_program_time(&fused) * 1.0401;
        let overshoot = device.device_time_used() - budget;
        assert!(
            overshoot <= exec_bound,
            "overshoot {overshoot} ns exceeds one execution ({exec_bound} ns)"
        );
        assert!(
            (hw.retry_stats().budget_overshoot_ns - overshoot.max(0.0)).abs() < 1e-6,
            "stats overshoot {} vs meter {}",
            hw.retry_stats().budget_overshoot_ns,
            overshoot
        );
        assert_eq!(
            registry
                .snapshot()
                .gauge("autotuner.hw.budget_overshoot_ns"),
            Some(hw.retry_stats().budget_overshoot_ns)
        );

        // A budget smaller than one eval overhead admits nothing at all.
        let device = TpuDevice::new(21);
        let overhead = device.config().eval_overhead_ns;
        let mut hw = HardwareObjective::new(&p, &space, &device, overhead * 0.5);
        assert_eq!(hw.measure(&start), Err(MeasureError::BudgetExhausted));
        assert_eq!(hw.hw_evals(), 0);
        assert_eq!(device.device_time_used(), 0.0);
    }

    #[test]
    fn sa_and_beam_share_one_metered_rerank_path() {
        // Satellite pin: the two searchers must route phase 2 through one
        // metered path. With a zero model budget both produce the same
        // candidate list (the start config alone), so on fresh same-seed
        // devices the hardware accounting — measurements, retry stats,
        // fault counts, overshoot — must be bit-identical between the SA
        // and beam entries, fault-free and under chaos alike (the chaos
        // case also pins that both resolve the resilient RetryPolicy).
        let p = program();
        let cfg = TpuConfig::default();
        let model = FnCostModel::new("oracle", move |k: &tpu_hlo::Kernel| {
            Some(tpu_sim::kernel_time_ns(k, &cfg))
        });
        let budgets = Budgets {
            model_steps: 0,
            ..quick_budgets()
        };
        for fault_seed in [None, Some(11u64)] {
            let mk_device = || match fault_seed {
                Some(s) => TpuDevice::new(5).with_faults(tpu_sim::FaultPlan::chaos(s)),
                None => TpuDevice::new(5),
            };
            let device = mk_device();
            let sa = autotune_with_cost_model(
                &p,
                &device,
                &model,
                &fresh_cache(),
                StartMode::Default,
                &budgets,
                0,
            );
            let device = mk_device();
            let beam = autotune_beam_with_cost_model(
                &p,
                &device,
                &model,
                &fresh_cache(),
                StartMode::Default,
                &budgets,
                &crate::beam::SearchParams {
                    seed: 0,
                    ..Default::default()
                },
            );
            assert_eq!(sa.config, beam.config, "fault_seed={fault_seed:?}");
            assert_eq!(sa.true_ns.to_bits(), beam.true_ns.to_bits());
            assert_eq!(sa.hw_evals, beam.hw_evals);
            assert_eq!(
                sa.retry_stats, beam.retry_stats,
                "fault_seed={fault_seed:?}"
            );
            assert_eq!(sa.faults, beam.faults, "fault_seed={fault_seed:?}");
        }
    }

    #[test]
    fn shared_rerank_overshoot_is_bounded_by_one_measurement() {
        // The overshoot bound the SA harness pinned now lives in the
        // shared path, so it holds for any searcher feeding it.
        let p = program();
        let device = TpuDevice::new(21);
        let (space, _) = default_space_and_config(&p.computation);
        let start = start_config(&p, &space, StartMode::Default, 0);
        let budget = 10e9;
        let candidates = vec![start.clone(); 64]; // plenty to exhaust the budget
        let tuned = rerank_on_hardware(&p, &space, &device, budget, candidates, start.clone());
        assert!(tuned.hw_evals > 0);
        let stats = tuned.retry_stats;
        let fused = apply_fusion(&p, &space, &start);
        let exec_bound = device.true_program_time(&fused) * 1.0401;
        assert!(
            stats.budget_overshoot_ns <= exec_bound,
            "overshoot {} ns exceeds one execution ({exec_bound} ns)",
            stats.budget_overshoot_ns
        );
        assert!(device.device_time_used() - budget <= exec_bound);
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
    fn chaos_autotune_converges_near_fault_free() {
        // Acceptance criterion: under the default chaos plan the
        // hardware-only autotuner completes without panicking and lands
        // within 5% of the fault-free run's true program time. Injected
        // faults perturb the measurement-noise stream, so a chaos run is a
        // *different* (deterministic) SA trajectory — any single seed pair
        // can diverge by the fixture's local-optimum spread — hence the
        // contract is pinned across a panel of fault seeds.
        let p = program();
        let budget = 40e9;
        let fault_free = {
            let device = TpuDevice::new(3);
            autotune_hardware_only(&p, &device, StartMode::Default, budget, 0)
        };
        assert_eq!(fault_free.faults.total(), 0);
        assert_eq!(fault_free.retry_stats.retries, 0);
        assert_eq!(
            fault_free.retry_stats.attempts, fault_free.hw_evals as u64,
            "fault-free default policy is exactly one attempt per eval"
        );
        let mut saw_faults = false;
        for fault_seed in [5u64, 11, 13] {
            let device = TpuDevice::new(3).with_faults(tpu_sim::FaultPlan::chaos(fault_seed));
            let chaos = autotune_hardware_only(&p, &device, StartMode::Default, budget, 0);
            assert!(
                chaos.true_ns <= fault_free.true_ns * 1.05,
                "fault seed {fault_seed}: chaos {} ns vs fault-free {} ns",
                chaos.true_ns,
                fault_free.true_ns
            );
            saw_faults |= chaos.faults.total() > 0;
        }
        assert!(saw_faults, "no chaos run saw a fault");
    }

    #[test]
    fn chaos_measurements_reject_spikes_and_retry() {
        let p = program();
        let (space, _) = default_space_and_config(&p.computation);
        let start = start_config(&p, &space, StartMode::Default, 0);
        let device = TpuDevice::new(5).with_faults(tpu_sim::FaultPlan::chaos(11));
        let mut hw = HardwareObjective::new(&p, &space, &device, 200e9);
        let mut measured = 0;
        while hw.measure(&start).is_ok() {
            measured += 1;
            if measured >= 40 {
                break;
            }
        }
        let stats = hw.retry_stats();
        assert!(stats.retries > 0, "chaos produced no retries: {stats:?}");
        assert!(
            stats.outliers_rejected > 0,
            "min-of-3 under chaos rejected no spikes: {stats:?}"
        );
        assert!(stats.attempts >= stats.retries + measured as u64);
    }

    #[test]
    fn retries_exhausted_degrades_without_killing_the_search() {
        // A fully-faulty device: every candidate exhausts retries. The
        // search must not panic and must fall back to the start config;
        // the budget is what finally stops it.
        let p = program();
        let always_fail = tpu_sim::FaultPlan {
            transient_prob: 1.0,
            ..tpu_sim::FaultPlan::none()
        };
        let device = TpuDevice::new(3).with_faults(always_fail);
        let tuned = autotune_hardware_only(&p, &device, StartMode::Default, 20e9, 1);
        assert!(tuned.true_ns > 0.0);
        assert!(tuned.retry_stats.exhausted_candidates > 0);
        assert_eq!(
            tuned.retry_stats.retries, tuned.retry_stats.attempts,
            "every attempt failed"
        );
        // Transient faults charge no execution time, so only overheads
        // drained the budget: 20e9 / 1.5e9 -> 13 admitted candidates.
        assert_eq!(tuned.hw_evals, 13);
    }

    #[test]
    fn chaos_run_exports_retry_metrics_into_the_device_registry() {
        let p = program();
        let registry = Registry::enabled();
        let device = TpuDevice::new(3)
            .with_faults(tpu_sim::FaultPlan::chaos(7))
            .observed(&registry);
        let tuned = autotune_hardware_only(&p, &device, StartMode::Default, 30e9, 1);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("autotuner.hw.retries"),
            Some(tuned.retry_stats.retries)
        );
        assert_eq!(
            snap.counter("autotuner.hw.outliers_rejected"),
            Some(tuned.retry_stats.outliers_rejected)
        );
        assert_eq!(
            snap.counter("autotuner.hw.exhausted_candidates"),
            Some(tuned.retry_stats.exhausted_candidates)
        );
        assert_eq!(
            snap.gauge("autotuner.hw.budget_overshoot_ns"),
            Some(tuned.retry_stats.budget_overshoot_ns)
        );
        let fault_total = snap.counter("sim.fault.transients").unwrap_or(0)
            + snap.counter("sim.fault.preemptions").unwrap_or(0)
            + snap.counter("sim.fault.spikes").unwrap_or(0);
        assert_eq!(fault_total, tuned.faults.total());
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
