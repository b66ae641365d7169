//! The fusion autotuner (§3.1, §6.3).
//!
//! Searches the `2^E` space of fusion configurations with simulated
//! annealing, evaluating candidates either on "real hardware" (the
//! device-time-metered simulator) or through a learned cost model — the
//! paper's headline application: when hardware access is limited, the
//! model-guided autotuner discovers faster configurations than hardware
//! alone (Fig. 4).
//!
//! The annealer is batch-first: it runs several independent chains and
//! scores each temperature step's candidates through one
//! [`BatchObjective::evaluate`] call. The model-guided objective turns
//! that into a single packed model forward over all chains' cache misses,
//! while hardware stays a serial, budget-metered resource. Everything
//! runs on the calling thread, in program order, so a run repeats bit for
//! bit.
//!
//! - [`simulated_annealing`] — the multi-chain annealer, generic over any
//!   [`BatchObjective`] (any `FnMut(&FusionConfig) -> f64` qualifies),
//! - [`HardwareObjective`] / [`ModelObjective`] — the two evaluation
//!   paths, owning hardware-budget accounting and batched model serving
//!   respectively,
//! - [`autotune_hardware_only`] — the baseline autotuner under a hardware
//!   budget,
//! - [`autotune_with_cost_model`] / [`autotune_beam_with_cost_model`] —
//!   model-guided search (SA or beam) + top-k hardware re-ranking (the
//!   §6.3 protocol), with per-kernel predictions served through a shared
//!   [`tpu_learned_cost::KernelCache`],
//! - [`random_configs`] — the dataset-generation random search (§5).
//!
//! Observability has no entry points of its own: a run records into the
//! registry its [`tpu_sim::TpuDevice`] was `.observed(..)` with (and a
//! bare objective into its device's or predictor's), or nowhere.
//!
//! # Example
//!
//! ```
//! use tpu_autotuner::{autotune_hardware_only, StartMode};
//! use tpu_hlo::{DType, GraphBuilder, Program, Shape};
//! use tpu_sim::TpuDevice;
//!
//! let mut b = GraphBuilder::new("main");
//! let x = b.parameter("x", Shape::matrix(256, 256), DType::F32);
//! let t = b.tanh(x);
//! let e = b.exp(t);
//! let program = Program::new("demo", b.finish(e));
//!
//! let device = TpuDevice::new(0);
//! let tuned = autotune_hardware_only(&program, &device, StartMode::Default, 10e9, 0);
//! assert!(tuned.true_ns > 0.0);
//! ```

mod baselines;
mod beam;
mod harness;
mod memo;
mod random_search;
mod sa;

pub use baselines::{hill_climb, random_search, SearchResult};
pub use beam::{
    beam_search, beam_search_with_tt, fused_structure_hash, margin_cut, reduce_layer, BeamResult,
    BeamStats, SearchParams,
};
pub use harness::{
    autotune_beam_with_cost_model, autotune_hardware_only, autotune_with_cost_model,
    speedup_over_default, start_config, Budgets, HardwareObjective, HwRetryStats, MeasureError,
    ModelObjective, RetryPolicy, StartMode, TunedConfig,
};
pub use random_search::random_configs;
pub use sa::{simulated_annealing, BatchObjective, SaConfig, SaResult};
