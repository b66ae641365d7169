//! The frozen GraphSAGE model: a restored [`GnnModel`] whose every weight
//! is finite, served through the model's own forward without a tape.
//!
//! Blob header, after `kind`: `opcode_embed_dim`, `hidden`, `hops`, the
//! reduction code (0 sum, 1 mean, 2 max) and the pool mask (bit 0 sum,
//! bit 1 mean, bit 2 max), each a u32. The tensors: the embedding table,
//! then weight and bias of f₁, of each hop's f₂ and f₃, and of the head.

use crate::blob::{FrozenError, Reader, Writer, RECORD_HEADER_BYTES};
use crate::store;
use tpu_hlo::Kernel;
use tpu_learned_cost::{GnnArch, GnnConfig, GnnModel, PoolCombo, Reduction};

fn reduction_code(r: Reduction) -> u32 {
    match r {
        Reduction::Sum => 0,
        Reduction::Mean => 1,
        Reduction::Max => 2,
    }
}

fn reduction_from(code: u32) -> Result<Reduction, FrozenError> {
    match code {
        0 => Ok(Reduction::Sum),
        1 => Ok(Reduction::Mean),
        2 => Ok(Reduction::Max),
        c => Err(FrozenError::Corrupt(format!("reduction code {c} unknown"))),
    }
}

/// A frozen [`GnnModel`]: a GraphSAGE model holding only finite weights.
#[derive(Debug, Clone)]
pub struct FrozenGnn(GnnModel);

impl FrozenGnn {
    /// The restored model.
    pub(crate) fn model(&self) -> &GnnModel {
        &self.0
    }

    pub(crate) fn write(&self, w: &mut Writer) {
        let cfg = self.0.config();
        let pools = cfg.pooling;
        w.u32(cfg.opcode_embed_dim as u32);
        w.u32(cfg.hidden as u32);
        w.u32(cfg.hops as u32);
        w.u32(reduction_code(cfg.reduction));
        w.u32(pools.sum as u32 | (pools.mean as u32) << 1 | (pools.max as u32) << 2);
        store::write(w, self.0.store());
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> Result<FrozenGnn, FrozenError> {
        let opcode_embed_dim = r.dim("opcode_embed_dim")?;
        let hidden = r.width("hidden")?;
        let hops = r.dim("hops")?;
        // Every hop costs four tensor records (weight and bias of f₂ and
        // f₃). A hop count the blob's remaining bytes cannot possibly
        // back is corrupt, and must be rejected *before* the count sizes
        // any allocation — `dim`'s 2^24 ceiling alone still lets a
        // 100-byte blob demand gigabytes of layer capacity.
        if hops.saturating_mul(4 * RECORD_HEADER_BYTES) > r.remaining() {
            return Err(FrozenError::Corrupt(format!(
                "hop count {hops} exceeds what {} remaining bytes can hold",
                r.remaining()
            )));
        }
        let reduction = reduction_from(r.u32()?)?;
        let mask = r.u32()?;
        if mask == 0 || mask > 0b111 {
            return Err(FrozenError::Corrupt(format!("pool mask {mask:#b} invalid")));
        }
        let config = GnnConfig {
            opcode_embed_dim,
            hidden,
            hops,
            reduction,
            pooling: PoolCombo {
                sum: mask & 1 != 0,
                mean: mask & 2 != 0,
                max: mask & 4 != 0,
            },
            arch: GnnArch::GraphSage,
            ..GnnConfig::default()
        };
        let mut records = store::Records::read(r)?;
        let model = GnnModel::build(config, &mut records);
        records.finish(FrozenGnn(model))
    }
}

/// Freeze a trained (or freshly initialized) [`GnnModel`] into a
/// [`FrozenGnn`]: the model itself, once every weight is checked finite.
///
/// `_calib` is ignored. It fed the activation-scale calibration of the
/// int16 format this crate no longer has, and stays in the signature only
/// because `benchmark/` (frozen between benchmark-archetype PRs) still
/// passes it; the next such PR drops the argument.
///
/// # Errors
///
/// [`FrozenError::UnsupportedArch`] for `GcnMean`,
/// [`FrozenError::NonFinite`] naming the first parameter that holds a NaN
/// or an infinity.
pub fn freeze_gnn(model: &GnnModel, _calib: &[Kernel]) -> Result<FrozenGnn, FrozenError> {
    if model.config().arch != GnnArch::GraphSage {
        return Err(FrozenError::UnsupportedArch("GcnMean".into()));
    }
    store::check_finite(model.store())?;
    Ok(FrozenGnn(model.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcn_mean_is_a_typed_unsupported_arch() {
        let model = GnnModel::new(GnnConfig {
            arch: GnnArch::GcnMean,
            ..Default::default()
        });
        assert!(matches!(
            freeze_gnn(&model, &[]),
            Err(FrozenError::UnsupportedArch(_))
        ));
    }

    #[test]
    fn a_non_finite_parameter_is_refused_by_name() {
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut model = GnnModel::new(GnnConfig::default());
            let id = model.store().find("hop1.f3.b").expect("a second hop");
            model.store_mut().value_mut(id).data_mut()[3] = poison;
            assert_eq!(
                freeze_gnn(&model, &[]).unwrap_err(),
                FrozenError::NonFinite("hop1.f3.b".into())
            );
        }
    }
}
