//! The hand-written analytical performance model baseline.
//!
//! Stands in for "a mature analytical performance model that estimates the
//! execution time of a kernel on a TPU … extremely complex, taking several
//! person-years to develop" (§3.2, §6.1 of the paper). Like XLA's model, it
//!
//! - emits costs in **different abstract scales per kernel type** (0.55 to
//!   3.1 times a roofline estimate in ns), which [`AnalyticalCost::fit`]
//!   maps to nanoseconds with per-kind coefficients fitted on
//!   default-config hardware runs (§6.1's procedure),
//! - is tile-size aware and strong at *ranking* tile sizes (§6.2), where
//!   the uncalibrated [`AnalyticalCost::new`] suffices,
//! - cannot score kernels without tile-size options (footnote 3): it
//!   returns `None` for those.
//!
//! Its tile geometry (extents, tile count, register padding) is the
//! simulator's own [`tpu_sim::TileGeometry`].
//!
//! # Example
//!
//! ```
//! use tpu_analytical::AnalyticalCost;
//! use tpu_hlo::{DType, GraphBuilder, Kernel, Shape};
//! use tpu_learned_cost::CostModel;
//! use tpu_sim::TpuConfig;
//!
//! let mut b = GraphBuilder::new("k");
//! let x = b.parameter("x", Shape::matrix(1024, 1024), DType::F32);
//! let t = b.tanh(x);
//! let kernel = Kernel::new(b.finish(t));
//!
//! let model = AnalyticalCost::new(TpuConfig::default());
//! assert!(model.predict_kernel_ns(&kernel).is_some());
//! ```

mod calibrate;
mod cost_model;
mod model;

pub use cost_model::AnalyticalCost;
