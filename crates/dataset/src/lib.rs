//! The synthetic program corpus and dataset pipelines (§5 of the paper).
//!
//! The paper trains on computation graphs from 104 production/research XLA
//! programs; this crate substitutes parameterized generators for the same
//! model families (ResNet v1/v2, NMT, Translate/Transformer, WaveRNN, RNN
//! LM, SSD, ConvDRAW, Char2Feats, ResNet-parallel, and more), then runs
//! the paper's two data pipelines against the simulated hardware:
//!
//! - **Fusion dataset** ([`build_fusion_dataset`]): random fusion configs
//!   per program → kernel decomposition → duplicate elimination →
//!   min-of-3 measurement,
//! - **Tile-size dataset** ([`build_tile_dataset`]): default-heuristic
//!   fusion → valid tile sizes per kernel → min-of-3 measurement with
//!   per-kernel group ids,
//! - **Splits** ([`Corpus::random_split`], [`Corpus::manual_split`]): the
//!   random split holds out the eight Table-2 programs; the manual split
//!   holds out whole model families.
//!
//! Both pipelines yield one [`Dataset`] of one example type,
//! [`KernelExample`]: a kernel, its min-of-3 runtime, its ranking group
//! (the kernel's id for a tile, `usize::MAX` for a fusion kernel) and its
//! program. [`Dataset::split`] divides either by a corpus split,
//! [`split_stats`] counts it for Table 1, and [`KernelExample::sample`] is
//! the training sample of an example.
//!
//! # Example
//!
//! ```
//! use tpu_dataset::{Corpus, CorpusScale};
//!
//! let corpus = Corpus::build(CorpusScale::Tiny);
//! let split = corpus.random_split(0);
//! assert!(!split.train.is_empty());
//! assert_eq!(split.test.len(), 8);
//! ```

mod corpus;
mod example;
mod fusion_ds;
pub mod models;
mod stats;
mod stream;
mod tile_ds;

pub use corpus::{
    Corpus, CorpusScale, Entry, Split, FUSION_NODE_LIMIT, HELD_OUT_FAMILIES, RANDOM_TEST_PROGRAMS,
};
pub use example::{Dataset, KernelExample};
pub use fusion_ds::{build_fusion_dataset, FusionDatasetConfig};
pub use stats::{fraction_below_5us, split_stats, SplitStats};
pub use stream::{
    stream_corpus, whole_graph_example, DatasetReader, DatasetWriter, StreamError, StreamGenConfig,
    StreamSummary, MAGIC as STREAM_MAGIC, VERSION as STREAM_VERSION,
};
pub use tile_ds::{build_tile_dataset, TileDatasetConfig};
