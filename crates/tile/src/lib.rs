//! Tile-size selection (§3.2 of the paper).
//!
//! One output tile is computed at a time in the TPU's scratchpad and copied
//! back to HBM; picking the tile size is a performance-critical kernel-level
//! decision that XLA makes with a hand-written analytical model. This crate
//! provides:
//!
//! - [`valid_tile_sizes`] — enumerate a kernel's legal tile sizes (those
//!   whose working set fits in VMEM),
//! - [`rank_tiles`] / [`best_tile`] — rank or select tiles using *any*
//!   cost function (learned model, analytical model, or the simulator as
//!   an oracle).
//!
//! # Example
//!
//! ```
//! use tpu_hlo::{DType, GraphBuilder, Kernel, Shape};
//! use tpu_sim::{kernel_time_ns, TpuConfig};
//! use tpu_tile::best_tile;
//!
//! let mut b = GraphBuilder::new("k");
//! let x = b.parameter("x", Shape::matrix(1024, 1024), DType::F32);
//! let t = b.tanh(x);
//! let kernel = Kernel::new(b.finish(t));
//!
//! let cfg = TpuConfig::default();
//! let tile = best_tile(&kernel, &cfg, 256, |k| kernel_time_ns(k, &cfg));
//! assert!(tile.is_some());
//! ```

mod enumerate;
mod select;

pub use enumerate::{has_tile_options, valid_tile_sizes, MIN_TILABLE_ELEMS};
pub use select::{best_tile, rank_tiles};
