//! Umbrella crate for the reproduction of *A Learned Performance Model for
//! the Tensor Processing Unit* (MLSYS 2021).
//!
//! This crate re-exports the workspace members so that examples and
//! integration tests can exercise the whole system through one dependency.
//! Library users should normally depend on the individual crates:
//!
//! - [`hlo`] — the XLA-HLO-like tensor program IR,
//! - [`sim`] — the TPU v2-class hardware simulator ("the hardware"),
//! - [`analytical`] — the hand-written roofline baseline cost model,
//! - [`nn`] — the reverse-mode autodiff micro-framework,
//! - [`learned`] — the paper's learned performance model (GraphSAGE + LSTM),
//! - [`fusion`] — the operator-fusion pass and search space,
//! - [`tile`] — tile-size enumeration and selection,
//! - [`autotuner`] — the simulated-annealing fusion autotuner,
//! - [`obs`] — metrics registry, scoped timers, and structured run reports,
//! - [`dataset`] — the synthetic program corpus and dataset pipelines,
//! - [`serve`] — the `tpu-serve` NDJSON prediction daemon,
//! - [`infer`] — frozen tape-free f32 inference (`tpu-frozen.v2` blobs).
//!
//! # Example
//!
//! ```
//! use tpu_repro::hlo::GraphBuilder;
//! use tpu_repro::hlo::{DType, Shape};
//!
//! let mut b = GraphBuilder::new("tiny");
//! let x = b.parameter("x", Shape::new(vec![128, 256]), DType::F32);
//! let y = b.tanh(x);
//! let computation = b.finish(y);
//! assert_eq!(computation.num_nodes(), 2);
//! ```

pub use tpu_analytical as analytical;
pub use tpu_autotuner as autotuner;
pub use tpu_dataset as dataset;
pub use tpu_fusion as fusion;
pub use tpu_hlo as hlo;
pub use tpu_infer as infer;
pub use tpu_learned_cost as learned;
pub use tpu_nn as nn;
pub use tpu_obs as obs;
pub use tpu_serve as serve;
pub use tpu_sim as sim;
pub use tpu_tile as tile;
