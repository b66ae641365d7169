//! Operator fusion for XLA-like tensor programs (§3.1 of the paper).
//!
//! Fusion merges producer-consumer ops into kernels so intermediate values
//! stay in scratchpad instead of round-tripping through HBM. This crate
//! provides:
//!
//! - [`FusionSpace`] — the per-program search space of
//!   legal fusion decisions (one boolean per fusible edge),
//! - [`FusionConfig`] — a point in that space,
//! - [`apply_fusion`] — the pass decomposing a program into [`tpu_hlo::Kernel`]s
//!   under a configuration, with XLA-style producer duplication; it is
//!   [`fusion_groups`] (plan which nodes each kernel computes) followed by
//!   [`materialize`] (build one kernel from one [`FusionGroup`]),
//! - [`default_config`] — the compiler's built-in greedy heuristic, the
//!   baseline every autotuning speedup in Figure 4 is measured against.
//!
//! # Example
//!
//! ```
//! use tpu_fusion::{apply_fusion, default_space_and_config};
//! use tpu_hlo::{DType, GraphBuilder, Program, Shape};
//!
//! let mut b = GraphBuilder::new("main");
//! let x = b.parameter("x", Shape::matrix(256, 256), DType::F32);
//! let t = b.tanh(x);
//! let e = b.exp(t);
//! let program = Program::new("demo", b.finish(e));
//!
//! let (space, config) = default_space_and_config(&program.computation);
//! let fused = apply_fusion(&program, &space, &config);
//! assert_eq!(fused.num_kernels(), 1);
//! ```

mod heuristic;
mod legality;
mod pass;
mod space;

pub use heuristic::{default_config, default_space_and_config, fused_fraction};
pub use legality::MAX_FUSIBLE_CONSTANT_ELEMS;
pub use pass::{
    apply_fusion, fusion_groups, materialize, unfused, FusionGroup, FusionPlanner, GroupId, Planned,
};
pub use space::{FusionConfig, FusionSpace};
