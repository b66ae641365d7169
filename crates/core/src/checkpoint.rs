//! Training checkpoints: everything needed to stop a training run after
//! any epoch and later resume it **bit-identically** — model weights, the
//! full Adam state, the shuffling RNG stream, the per-epoch trace, and the
//! best-validation snapshot.
//!
//! The JSON schema is stable (tagged [`SCHEMA`]) so checkpoints written by
//! one build keep loading in the next. Non-finite floats are stored as
//! `null` (`Option<f64>`) because JSON has no NaN literal; they are
//! re-materialized as `f64::NAN` on load.

use serde::{Deserialize, Serialize};
use tpu_nn::{AdamState, ParamStore};

/// Schema tag written into every checkpoint.
pub const SCHEMA: &str = "tpu-learned-cost.checkpoint.v1";

/// Why a checkpoint failed to load or resume — typed so callers can match
/// on the failure mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The JSON could not be parsed into a checkpoint.
    Parse(String),
    /// The checkpoint carries a different schema tag.
    WrongSchema {
        /// The schema this build writes ([`SCHEMA`]).
        expected: &'static str,
        /// The tag found in the file.
        found: String,
    },
    /// The checkpoint was written by a different model family.
    WrongModel {
        /// The family of the model being resumed (`"gnn"` or `"lstm"`).
        expected: String,
        /// The family recorded in the checkpoint.
        found: String,
    },
    /// The checkpointed weights do not fit the model being resumed.
    WeightMismatch {
        /// Trainable scalar count the model needs.
        expected: usize,
        /// Trainable scalar count the checkpoint carries.
        found: usize,
    },
    /// Structurally valid JSON with an impossible payload (e.g. an RNG
    /// snapshot that is not 33 words).
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Parse(msg) => write!(f, "malformed checkpoint: {msg}"),
            CheckpointError::WrongSchema { expected, found } => {
                write!(f, "expected schema `{expected}`, got `{found}`")
            }
            CheckpointError::WrongModel { expected, found } => {
                write!(f, "checkpoint is for a `{found}` model, resuming a `{expected}`")
            }
            CheckpointError::WeightMismatch { expected, found } => write!(
                f,
                "checkpoint weights do not fit the model: expected {expected} parameters, got {found}"
            ),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A resumable training snapshot, taken after a completed epoch.
///
/// Produced by [`crate::train_resumable`]'s checkpoint sink and accepted
/// back by the same function's `resume` argument; a run resumed from a
/// checkpoint matches the uninterrupted run bit for bit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainCheckpoint {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Model family this checkpoint belongs to (`"gnn"` or `"lstm"`).
    pub model_kind: String,
    /// Completed epochs; training resumes at this epoch index.
    pub epoch: usize,
    /// Learning rate in effect (reflects rollback backoff).
    pub lr: f32,
    /// Non-finite-loss rollbacks taken so far.
    pub rollbacks: u64,
    /// Shuffling-RNG stream snapshot (33 words, see
    /// `ChaCha8Rng::state_words`), positioned for the next epoch.
    pub rng: Vec<u32>,
    /// Current model weights.
    pub params: ParamStore,
    /// Full optimizer state.
    pub opt: AdamState,
    /// Serialized best-validation weights, exactly as the training loop
    /// holds them (a nested [`ParamStore`] JSON string), so the resumed
    /// run restores the byte-identical early-stopping snapshot.
    pub best_weights: Option<String>,
    /// Best validation metric so far (`None` encodes NaN / "none yet").
    pub best_val: Option<f64>,
    /// Epoch of the best validation metric.
    pub best_epoch: usize,
    /// Mean training loss per completed epoch (`None` encodes non-finite).
    pub train_loss: Vec<Option<f64>>,
    /// Validation metric per completed epoch (`None` encodes non-finite).
    pub val_metric: Vec<Option<f64>>,
}

/// JSON-encode a non-finite float as `null`.
pub(crate) fn encode_f64(v: f64) -> Option<f64> {
    v.is_finite().then_some(v)
}

/// Invert [`encode_f64`]; non-finite values come back as `f64::NAN`.
pub(crate) fn decode_f64(v: Option<f64>) -> f64 {
    v.unwrap_or(f64::NAN)
}

impl TrainCheckpoint {
    /// Serialize to the stable JSON schema.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialize")
    }

    /// Parse a checkpoint, verifying the schema tag and the RNG snapshot
    /// shape.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Parse`] on malformed JSON,
    /// [`CheckpointError::WrongSchema`] on a different schema tag,
    /// [`CheckpointError::Corrupt`] when the RNG snapshot is not 33 words.
    pub fn from_json(json: &str) -> Result<TrainCheckpoint, CheckpointError> {
        let ckpt: TrainCheckpoint =
            serde_json::from_str(json).map_err(|e| CheckpointError::Parse(e.to_string()))?;
        if ckpt.schema != SCHEMA {
            return Err(CheckpointError::WrongSchema {
                expected: SCHEMA,
                found: ckpt.schema,
            });
        }
        if ckpt.rng.len() != 33 {
            return Err(CheckpointError::Corrupt(format!(
                "rng snapshot must be 33 words, got {}",
                ckpt.rng.len()
            )));
        }
        Ok(ckpt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_nn::{Adam, Tensor};

    fn sample_checkpoint() -> TrainCheckpoint {
        let mut params = ParamStore::new();
        params.register("w", Tensor::full(2, 2, 0.5));
        TrainCheckpoint {
            schema: SCHEMA.to_string(),
            model_kind: "gnn".into(),
            epoch: 3,
            lr: 1e-3,
            rollbacks: 1,
            rng: vec![7; 33],
            params: params.clone(),
            opt: Adam::new(1e-3).state(),
            best_weights: Some(params.to_json()),
            best_val: Some(12.5),
            best_epoch: 2,
            train_loss: vec![Some(1.0), Some(0.5), None],
            val_metric: vec![Some(30.0), Some(20.0), Some(25.0)],
        }
    }

    #[test]
    fn round_trips_through_json() {
        let ckpt = sample_checkpoint();
        let back = TrainCheckpoint::from_json(&ckpt.to_json()).unwrap();
        assert_eq!(back.epoch, ckpt.epoch);
        assert_eq!(back.rng, ckpt.rng);
        assert_eq!(back.best_weights, ckpt.best_weights);
        assert_eq!(back.train_loss, ckpt.train_loss);
        assert_eq!(back.opt, ckpt.opt);
        assert_eq!(back.params.to_json(), ckpt.params.to_json());
    }

    #[test]
    fn non_finite_values_encode_as_null() {
        assert_eq!(encode_f64(f64::NAN), None);
        assert_eq!(encode_f64(f64::INFINITY), None);
        assert_eq!(encode_f64(1.5), Some(1.5));
        assert!(decode_f64(None).is_nan());
        let mut ckpt = sample_checkpoint();
        ckpt.best_val = encode_f64(f64::NAN);
        let back = TrainCheckpoint::from_json(&ckpt.to_json()).unwrap();
        assert_eq!(back.best_val, None);
        assert!(decode_f64(back.best_val).is_nan());
    }

    #[test]
    fn wrong_schema_is_matchable() {
        let mut ckpt = sample_checkpoint();
        ckpt.schema = "tpu-learned-cost.checkpoint.v0".into();
        match TrainCheckpoint::from_json(&ckpt.to_json()) {
            Err(CheckpointError::WrongSchema { expected, found }) => {
                assert_eq!(expected, SCHEMA);
                assert_eq!(found, "tpu-learned-cost.checkpoint.v0");
            }
            other => panic!("expected WrongSchema, got {other:?}"),
        }
    }

    #[test]
    fn short_rng_snapshot_is_corrupt() {
        let mut ckpt = sample_checkpoint();
        ckpt.rng = vec![1, 2, 3];
        assert!(matches!(
            TrainCheckpoint::from_json(&ckpt.to_json()),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn garbage_is_parse_error() {
        assert!(matches!(
            TrainCheckpoint::from_json("nope"),
            Err(CheckpointError::Parse(_))
        ));
        assert!(matches!(
            TrainCheckpoint::from_json("{}"),
            Err(CheckpointError::Parse(_))
        ));
    }

    #[test]
    fn checkpoint_error_is_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(CheckpointError::Corrupt("x".into()));
        assert!(e.to_string().contains("corrupt"));
    }
}
