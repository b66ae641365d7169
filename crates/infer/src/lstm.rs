//! The frozen LSTM baseline: a restored [`LstmModel`] whose every weight
//! is finite, served through the model's own forward without a tape.
//!
//! Blob header, after `kind`: `opcode_embed_dim`, `node_dim`, `hidden`,
//! each a u32. The tensors: the embedding table, then weight and bias of
//! f₁, of the fused `i, f, g, o` gates, and of the head.

use crate::blob::{FrozenError, Reader, Writer};
use crate::store;
use tpu_hlo::Kernel;
use tpu_learned_cost::{LstmConfig, LstmModel};

/// A frozen [`LstmModel`]: an LSTM baseline holding only finite weights.
#[derive(Debug, Clone)]
pub struct FrozenLstm(LstmModel);

impl FrozenLstm {
    /// The restored model.
    pub(crate) fn model(&self) -> &LstmModel {
        &self.0
    }

    pub(crate) fn write(&self, w: &mut Writer) {
        let cfg = self.0.config();
        w.u32(cfg.opcode_embed_dim as u32);
        w.u32(cfg.node_dim as u32);
        w.u32(cfg.hidden as u32);
        store::write(w, self.0.store());
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> Result<FrozenLstm, FrozenError> {
        let config = LstmConfig {
            opcode_embed_dim: r.dim("opcode_embed_dim")?,
            node_dim: r.width("node_dim")?,
            hidden: r.width("hidden")?,
            ..LstmConfig::default()
        };
        let mut records = store::Records::read(r)?;
        let model = LstmModel::build(config, &mut records);
        records.finish(FrozenLstm(model))
    }
}

/// Freeze a trained (or freshly initialized) [`LstmModel`] into a
/// [`FrozenLstm`]: the model itself, once every weight is checked finite.
/// `_calib` is ignored, for the reason [`crate::freeze_gnn`] gives.
///
/// # Errors
///
/// [`FrozenError::NonFinite`] naming the first parameter that holds a NaN
/// or an infinity.
pub fn freeze_lstm(model: &LstmModel, _calib: &[Kernel]) -> Result<FrozenLstm, FrozenError> {
    store::check_finite(model.store())?;
    Ok(FrozenLstm(model.clone()))
}
