//! A micro deep-learning framework: dense 2-D tensors, reverse-mode
//! autodiff, layers, losses, and optimizers.
//!
//! The Rust GNN ecosystem is thin, so this reproduction implements the
//! training substrate from scratch. It is deliberately small — everything
//! the paper's models need and nothing more:
//!
//! - [`Tensor`] — row-major 2-D `f32` storage,
//! - [`Tape`] / [`Var`] — define-by-run autodiff with graph ops
//!   (gather/segment sum/mean/max, row L2-normalization) needed by
//!   GraphSAGE,
//! - [`Recorder`] — what a model's one forward is written against: the
//!   [`Tape`], or the tape-free [`NoTape`] evaluator that serves,
//! - [`Linear`], [`Embedding`], [`LstmCell`] — layers,
//! - [`mse_loss`], [`grouped_pairwise_rank_loss`] — the paper's two training
//!   objectives (§4.2),
//! - [`Adam`], [`clip_grad_norm`] — the optimizer.
//!
//! # Example
//!
//! ```
//! use tpu_nn::{Activation, Linear, ParamStore, Recorder, Tape, Tensor};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let hidden = Linear::new(&mut store, "m.0", 2, 8, Activation::Tanh, &mut rng);
//! let out = Linear::new(&mut store, "m.1", 8, 1, Activation::Identity, &mut rng);
//!
//! let mut tape = Tape::new();
//! let x = tape.input(Tensor::from_rows(&[&[0.5, -0.5]]));
//! let h = tape.linear(&store, &hidden, x);
//! let y = tape.linear(&store, &out, h);
//! assert_eq!(tape.value(y).shape(), (1, 1));
//! ```

mod layers;
mod loss;
mod optim;
mod params;
mod record;
mod tape;
mod tensor;

pub use layers::{Activation, Embedding, Init, Linear, LstmCell, ParamSource};
pub use loss::{grouped_pairwise_rank_loss, mse_loss, weighted_mse_loss, RankPhi};
pub use optim::{clip_grad_norm, Adam, AdamState};
pub use params::{ParamId, ParamStore};
pub use record::{Arena, ArenaLen, Graph, LstmState, Mark, NoTape, Recorder, Reduction, Slot};
pub use tape::{Tape, Var};
pub use tensor::Tensor;
