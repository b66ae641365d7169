//! An XLA-HLO-like intermediate representation for tensor programs.
//!
//! This crate provides the program representation used throughout the
//! reproduction of *A Learned Performance Model for the Tensor Processing
//! Unit* (MLSYS 2021):
//!
//! - [`Opcode`] — the primitive tensor operations (§3: "a node in a
//!   computation graph represents a tensor operation"),
//! - [`Shape`], [`Layout`], [`DType`] — tensor metadata featurized by the
//!   learned model (§4.1: "output tensor shape, tensor layout, striding,
//!   padding, tile size, convolution filter size"),
//! - [`Computation`] — a directed acyclic computation graph,
//! - [`GraphBuilder`] — a shape-inferring builder API,
//! - [`Kernel`] — a fused sub-graph, the unit whose runtime the learned
//!   model predicts (§4: "we represent a kernel as a directed graph with
//!   nodes corresponding to primitive operations"),
//! - [`Program`] / [`FusedProgram`] — whole tensor programs before and
//!   after the fusion pass.
//!
//! # Example
//!
//! ```
//! use tpu_hlo::{DType, GraphBuilder, Shape};
//!
//! let mut b = GraphBuilder::new("mlp_layer");
//! let x = b.parameter("x", Shape::new(vec![64, 256]), DType::F32);
//! let w = b.parameter("w", Shape::new(vec![256, 512]), DType::F32);
//! let h = b.dot(x, w);
//! let a = b.relu(h);
//! let computation = b.finish(a);
//! assert!(computation.validate().is_ok());
//! assert_eq!(computation.node(a).shape.dims(), &[64, 512]);
//! ```

mod attrs;
mod builder;
mod dtype;
mod error;
mod graph;
mod hashing;
pub mod interp;
mod kernel;
mod node;
mod opcode;
mod program;
mod shape;
mod text;
pub mod viz;

pub use attrs::{Comparison, ConvAttrs, DotDims, OpAttrs, PadConfig, SliceAttrs};
pub use builder::GraphBuilder;
pub use dtype::DType;
pub use error::{HloError, Result};
pub use graph::Computation;
pub use hashing::{canonical_hash, canonical_kernel_hash, HashedKernel, KeyScratch};
pub use kernel::{Kernel, KernelKind, TileSize};
pub use node::{Node, NodeId};
pub use opcode::{OpCategory, Opcode};
pub use program::{FusedProgram, Program};
pub use shape::{Dims, Layout, Shape, MAX_RANK};
pub use text::{dump_computation, parse_computation};
