//! Frozen inference for the learned TPU cost model.
//!
//! The training stack (`tpu-nn`) builds an autograd tape per forward: the
//! right tool for gradients, pure overhead for serving. This crate is the
//! serving artifact instead:
//!
//! - **one tape-free forward per architecture**: the trained
//!   [`GnnModel`](tpu_learned_cost::GnnModel) /
//!   [`LstmModel`](tpu_learned_cost::LstmModel) weights, copied as they
//!   are, walked in plain f32 over flat arrays — the number system the
//!   model was trained in, so a frozen prediction differs from the tape's
//!   only by summation order. Each layer is one register-blocked product
//!   over all of a kernel's nodes (`Affine::apply_rows`, the only matmul
//!   here), and a forward's buffers are one scratch allocation that a
//!   batch reuses,
//! - **a compact versioned blob** (`tpu-frozen.v2`): fixed-layout records
//!   loadable with plain little-endian byte reads — no tape, no serde
//!   tree, no reflection ([`FrozenModel::from_bytes`]) — in which every
//!   number is finite, checked at both ends.
//!
//! [`FrozenModel`] implements [`CostModel`], so it drops behind
//! `AtomicCache`, `FallbackChain`, and the `tpu-serve` daemon unchanged.
//!
//! # Example
//!
//! ```
//! use tpu_infer::{freeze_gnn, FrozenModel};
//! use tpu_learned_cost::{CostModel, GnnConfig, GnnModel};
//!
//! let model = GnnModel::new(GnnConfig::default());
//! let frozen = FrozenModel::Gnn(freeze_gnn(&model, &[]).unwrap());
//! let blob = frozen.to_bytes();
//! let restored = FrozenModel::from_bytes(&blob).unwrap();
//! let k = &tpu_infer::probe_kernels(1)[0];
//! assert_eq!(
//!     restored.predict_kernel_ns(k),
//!     frozen.predict_kernel_ns(k),
//! );
//! ```

#![warn(missing_docs)]

mod blob;
mod gnn;
mod layers;
mod lstm;

pub use blob::{FrozenError, KIND_GNN, KIND_LSTM, MAGIC, VERSION};
pub use gnn::{freeze_gnn, FrozenGnn};
pub use lstm::{freeze_lstm, FrozenLstm};

use tpu_hlo::{DType, GraphBuilder, Kernel, Shape, TileSize};
use tpu_learned_cost::{CostModel, Prepared};

/// A frozen cost model loaded from (or destined for) a `tpu-frozen.v2`
/// blob.
#[derive(Debug, Clone)]
pub enum FrozenModel {
    /// A frozen GraphSAGE model.
    Gnn(FrozenGnn),
    /// A frozen LSTM baseline.
    Lstm(FrozenLstm),
}

impl FrozenModel {
    /// Parse a `tpu-frozen.v2` blob.
    ///
    /// # Errors
    ///
    /// Typed [`FrozenError`]s for truncated input, wrong magic,
    /// unsupported version (a v1 blob included), unknown kind, a NaN or
    /// infinite value, or structurally inconsistent contents — never a
    /// panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<FrozenModel, FrozenError> {
        let mut r = blob::Reader::new(bytes);
        r.magic()?;
        let version = r.u32()?;
        if version != VERSION {
            return Err(FrozenError::UnsupportedVersion(version));
        }
        let model = match r.u32()? {
            KIND_GNN => FrozenModel::Gnn(FrozenGnn::read(&mut r)?),
            KIND_LSTM => FrozenModel::Lstm(FrozenLstm::read(&mut r)?),
            k => return Err(FrozenError::BadKind(k)),
        };
        r.finish()?;
        Ok(model)
    }

    /// Serialize to a `tpu-frozen.v2` blob. Byte-for-byte deterministic
    /// for a given model (the golden snapshot test pins this), and always
    /// one [`FrozenModel::from_bytes`] accepts.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            FrozenModel::Gnn(m) => {
                let mut w = blob::Writer::new(KIND_GNN);
                m.write(&mut w);
                w.into_bytes()
            }
            FrozenModel::Lstm(m) => {
                let mut w = blob::Writer::new(KIND_LSTM);
                m.write(&mut w);
                w.into_bytes()
            }
        }
    }

    /// Predicted log-runtime (ns) of one featurized kernel.
    pub fn predict_log_ns(&self, p: &Prepared) -> f64 {
        self.forward(p, &mut Vec::new())
    }

    /// One forward carved out of `scratch`, which it grows only if it is
    /// shorter than `scratch_len` of `p`'s node count.
    fn forward(&self, p: &Prepared, scratch: &mut Vec<f32>) -> f64 {
        f64::from(match self {
            FrozenModel::Gnn(m) => m.forward_log_ns(p, scratch),
            FrozenModel::Lstm(m) => m.forward_log_ns(p, scratch),
        })
    }

    fn scratch_len(&self, nodes: usize) -> usize {
        match self {
            FrozenModel::Gnn(m) => m.scratch_len(nodes),
            FrozenModel::Lstm(m) => m.scratch_len(nodes),
        }
    }
}

impl CostModel for FrozenModel {
    fn predict_kernel_ns(&self, kernel: &Kernel) -> Option<f64> {
        Some(self.predict_log_ns(&Prepared::from_kernel(kernel)).exp())
    }

    /// Per-kernel independent featurize + forward, in order, over one
    /// scratch sized for the largest kernel.
    fn predict_batch_ns(&self, kernels: &[Kernel]) -> Vec<Option<f64>> {
        let nodes = kernels.iter().map(|k| k.computation.num_nodes()).max();
        let mut scratch = vec![0.0f32; self.scratch_len(nodes.unwrap_or(0))];
        kernels
            .iter()
            .map(|k| Some(self.forward(&Prepared::from_kernel(k), &mut scratch).exp()))
            .collect()
    }

    fn name(&self) -> &str {
        match self {
            FrozenModel::Gnn(_) => "frozen-gnn",
            FrozenModel::Lstm(_) => "frozen-lstm",
        }
    }
}

/// A deterministic family of generator kernels for pinning frozen-vs-tape
/// parity and probing loaded blobs: elementwise chains over varied
/// shapes, some with a second branch (fan-in edges), a trailing
/// reduction, or an attached tile size.
pub fn probe_kernels(n: usize) -> Vec<Kernel> {
    (0..n)
        .map(|i| {
            let rows = 8usize << (i % 6);
            let cols = 8 + 24 * ((i * 5) % 11);
            let mut b = GraphBuilder::new(format!("probe{i}"));
            let x = b.parameter("x", Shape::matrix(rows, cols), DType::F32);
            let mut v = x;
            for step in 0..=(i % 4) {
                v = match (i + step) % 3 {
                    0 => b.tanh(v),
                    1 => b.exp(v),
                    _ => b.logistic(v),
                };
            }
            if i % 2 == 0 {
                let other = b.exp(x);
                v = b.add(v, other);
            }
            if i % 4 == 3 {
                v = b.reduce(v, vec![1]);
            }
            let mut k = Kernel::new(b.finish(v));
            if i % 3 == 1 {
                k = k.with_tile(TileSize(vec![rows.min(64), 8]));
            }
            k
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_learned_cost::{GnnConfig, GnnModel, LstmConfig, LstmModel};

    fn frozen_gnn() -> FrozenModel {
        let model = GnnModel::new(GnnConfig::default());
        FrozenModel::Gnn(freeze_gnn(&model, &[]).unwrap())
    }

    #[test]
    fn blob_roundtrip_is_byte_exact() {
        for frozen in [
            frozen_gnn(),
            FrozenModel::Lstm(freeze_lstm(&LstmModel::new(LstmConfig::default()), &[]).unwrap()),
        ] {
            let bytes = frozen.to_bytes();
            let restored = FrozenModel::from_bytes(&bytes).unwrap();
            assert_eq!(restored.to_bytes(), bytes);
            let k = &probe_kernels(3)[2];
            assert_eq!(restored.predict_kernel_ns(k), frozen.predict_kernel_ns(k));
        }
    }

    #[test]
    fn truncated_blob_is_a_typed_error() {
        let bytes = frozen_gnn().to_bytes();
        for cut in [0, 4, 12, 40, bytes.len() / 2, bytes.len() - 1] {
            let err = FrozenModel::from_bytes(&bytes[..cut]).unwrap_err();
            // Corrupt is legal too: a cut right after the hop-count
            // field leaves a count the remaining bytes cannot back.
            assert!(
                matches!(
                    err,
                    FrozenError::Truncated { .. } | FrozenError::BadMagic | FrozenError::Corrupt(_)
                ),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn version_and_kind_mismatches_are_typed() {
        let mut bytes = frozen_gnn().to_bytes();
        bytes[8] = 99; // version field
        assert!(matches!(
            FrozenModel::from_bytes(&bytes).unwrap_err(),
            FrozenError::UnsupportedVersion(99)
        ));
        let mut bytes = frozen_gnn().to_bytes();
        bytes[12] = 77; // kind field
        assert!(matches!(
            FrozenModel::from_bytes(&bytes).unwrap_err(),
            FrozenError::BadKind(77)
        ));
        let mut bytes = frozen_gnn().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            FrozenModel::from_bytes(&bytes).unwrap_err(),
            FrozenError::BadMagic
        ));
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let mut bytes = frozen_gnn().to_bytes();
        bytes.extend_from_slice(&[0u8; 3]);
        assert!(matches!(
            FrozenModel::from_bytes(&bytes).unwrap_err(),
            FrozenError::Corrupt(_)
        ));
    }

    #[test]
    fn batch_on_one_scratch_matches_single() {
        let frozen = frozen_gnn();
        let kernels = probe_kernels(40);
        let batch = frozen.predict_batch_ns(&kernels);
        for (k, b) in kernels.iter().zip(&batch) {
            assert_eq!(
                *b,
                frozen.predict_kernel_ns(k),
                "batch must be bit-identical"
            );
        }
    }

    #[test]
    fn program_prediction_sums_kernels() {
        let frozen = frozen_gnn();
        let program = tpu_hlo::FusedProgram::new("probe", probe_kernels(4));
        let total = frozen.predict_program_ns(&program).unwrap();
        let by_hand: f64 = program
            .kernels
            .iter()
            .map(|k| frozen.predict_kernel_ns(k).unwrap())
            .sum();
        assert!((total - by_hand).abs() < 1e-9);
    }

    #[test]
    fn error_display_and_source() {
        let err: Box<dyn std::error::Error> = Box::new(FrozenError::UnsupportedVersion(3));
        assert!(err.to_string().contains("version 3"));
    }
}
