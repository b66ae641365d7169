//! The learned performance model for the TPU — the paper's primary
//! contribution.
//!
//! This crate implements the neural network of §4 and its training and
//! evaluation machinery:
//!
//! - [`features`]: node features extracted directly from the IR (§4.1) —
//!   shapes, layouts, strides, convolution windows, and the tile-size
//!   sub-vector of §4.2 — with no static analysis,
//! - [`GnnModel`]: opcode embedding + feedforward f₁ + GraphSAGE hops
//!   (Eq. 1, with L2 normalization and a tunable neighborhood reduction) +
//!   sum/mean/max kernel pooling + linear head,
//! - [`LstmModel`]: the sequential baseline of §6.1 over topologically
//!   sorted nodes,
//! - [`train`]: the fusion objective (squared error on log targets) and the
//!   tile-size objective (pairwise rank loss, Eq. 2) with per-kernel batch
//!   grouping,
//! - [`metrics`]: MAPE and Kendall's τ as reported in Tables 2–3,
//! - [`CostModel`]: one batch-first interface over learned/analytical/
//!   simulator backends, making the model retargetable across compiler
//!   tasks — `predict_batch_ns` is the primary serving surface,
//! - [`Predictor`] / [`AtomicCache`]: the inference engine — a serving
//!   session that answers what it can from the canonical-hash cache (the
//!   lock-free fixed-capacity [`AtomicCache`], or any other
//!   [`KernelCache`]) and presents the distinct misses to the backend as
//!   one packed forward pass, for serving the model inside an autotuner
//!   (§6.3).
//!
//! # Example
//!
//! ```
//! use tpu_hlo::{DType, GraphBuilder, Kernel, Shape};
//! use tpu_learned_cost::{CostModel, GnnConfig, GnnModel};
//!
//! let mut b = GraphBuilder::new("k");
//! let x = b.parameter("x", Shape::matrix(512, 512), DType::F32);
//! let t = b.tanh(x);
//! let kernel = Kernel::new(b.finish(t));
//!
//! let model = GnnModel::new(GnnConfig::default());
//! let ns = model.predict_kernel_ns(&kernel).unwrap();
//! assert!(ns > 0.0);
//! ```

pub mod features;
pub mod metrics;

mod atomic_cache;
mod batch;
mod checkpoint;
mod cost_model;
mod engine;
mod lstm_model;
mod model;
mod train;

pub use atomic_cache::AtomicCache;
pub use batch::{bfs_segment, GraphBatch, Prepared, Sample};
pub use checkpoint::{CheckpointError, TrainCheckpoint, SCHEMA as CHECKPOINT_SCHEMA};
pub use cost_model::{CostModel, FnCostModel, SimOracle};
pub use engine::{
    forward_log_ns, forward_log_ns_chunked, BatchRoute, BreakerConfig, BreakerState, CacheStats,
    CircuitBreaker, FallbackChain, KernelCache, PredictStats, Predictor,
};
pub use lstm_model::{LstmConfig, LstmModel};
pub use model::{GnnArch, GnnConfig, GnnModel, PoolCombo, Reduction, LOG_NS_OFFSET};
pub use train::{
    per_group_kendall, predict_log_ns, prepare, stream_epoch_plan, train, train_resumable,
    train_step, train_stream, validation_metric, BatchSource, ExampleMeta, KernelModel,
    StreamConfig, TaskLoss, TrainConfig, TrainReport,
};

// Re-exported so downstream crates (e.g. the streamed dataset reader) can
// construct `Prepared` feature matrices without a direct tpu-nn dep.
pub use tpu_nn::Tensor;
