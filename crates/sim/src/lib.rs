//! A TPU v2-class hardware simulator: the "real hardware" of this
//! reproduction.
//!
//! The paper measures kernels on physical TPUs; this crate substitutes a
//! cycle-estimating simulator that reproduces the mechanisms that make the
//! learning problem interesting:
//!
//! - a 128×128 systolic matrix unit with block-padding quantization,
//! - an 8×128-lane vector unit with ragged-tile lane waste,
//! - a software-managed scratchpad (VMEM) bounding tile working sets,
//! - explicit DMA to HBM with per-tile latency and double buffering,
//! - fusion semantics: intermediate values of a fused kernel never touch
//!   HBM,
//! - run-to-run measurement noise (§5: ≤4%) with the min-of-3 protocol,
//! - device-time metering for hardware-budgeted autotuning (§6.3).
//!
//! Entry points: [`kernel_time_ns`] for noiseless analysis and
//! [`TpuDevice`] for noisy, budget-metered execution.

mod config;
mod cost;
mod device;
mod kernel_exec;
mod report;

pub use config::TpuConfig;
pub use cost::{conv_as_dot, dot_problem, DotProblem};
pub use device::TpuDevice;
pub use kernel_exec::{
    analyze_kernel, default_tile, kernel_time_ns, tile_fits, KernelTiming, TileGeometry,
};
pub use report::{analyze_program, Bottleneck, KernelReport, ProgramReport};
