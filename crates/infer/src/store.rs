//! A frozen network's parameters as the blob lays them out: every
//! parameter of the model's training store, in the order the model
//! registers them — the opcode embedding table, then each layer's weight
//! matrix and bias. Both architectures are such a list, so the
//! finiteness rule and the records are written once here, and a blob is
//! read by handing its records to the model's own constructor
//! ([`Records`]), which knows their names and shapes.

use crate::blob::{FrozenError, Reader, Writer};
use tpu_hlo::Opcode;
use tpu_learned_cost::features::FEATURE_DIM;
use tpu_learned_cost::LOG_NS_OFFSET;
use tpu_nn::{Init, ParamSource, ParamStore, Tensor};

/// The freeze-time rule for every parameter: no NaN, no infinity. The
/// error names the first parameter, in store order, that breaks it.
pub(crate) fn check_finite(store: &ParamStore) -> Result<(), FrozenError> {
    match store
        .ids()
        .find(|&id| !store.value(id).data().iter().all(|v| v.is_finite()))
    {
        Some(id) => Err(FrozenError::NonFinite(store.name(id).into())),
        None => Ok(()),
    }
}

/// Everything after the kind-specific header: the two fields that tie a
/// blob to this build's feature layout, the output offset, then every
/// parameter of `store` in store order.
pub(crate) fn write(w: &mut Writer, store: &ParamStore) {
    w.u32(FEATURE_DIM as u32);
    w.u32(Opcode::count() as u32);
    w.f32(LOG_NS_OFFSET);
    w.u32(store.num_params() as u32);
    for id in store.ids() {
        let value = store.value(id);
        w.tensor(value.rows(), value.cols(), value.data());
    }
}

/// A blob's tensor records as a [`ParamSource`]: each parameter the model
/// asks for is the next record, which must have exactly the shape asked
/// for. After the first failure every parameter is empty and the model
/// is thrown away ([`Records::finish`]), so no claimed shape sizes an
/// allocation its bytes do not back.
pub(crate) struct Records<'r, 'b> {
    r: &'r mut Reader<'b>,
    left: usize,
    err: Option<FrozenError>,
}

impl<'r, 'b> Records<'r, 'b> {
    /// The mirror of [`write`] up to the records: a different feature
    /// layout or offset is rejected.
    pub(crate) fn read(r: &'r mut Reader<'b>) -> Result<Self, FrozenError> {
        let feature_dim = r.dim("feature_dim")?;
        if feature_dim != FEATURE_DIM {
            return Err(FrozenError::Corrupt(format!(
                "blob was frozen with feature_dim {feature_dim}, this build uses {FEATURE_DIM}"
            )));
        }
        let opcode_count = r.dim("opcode_count")?;
        if opcode_count != Opcode::count() {
            return Err(FrozenError::Corrupt(format!(
                "blob was frozen with {opcode_count} opcodes, this build has {}",
                Opcode::count()
            )));
        }
        let log_ns_offset = r.f32("log_ns_offset")?;
        if log_ns_offset != LOG_NS_OFFSET {
            return Err(FrozenError::Corrupt(format!(
                "blob was frozen with log_ns_offset {log_ns_offset}, this build uses {LOG_NS_OFFSET}"
            )));
        }
        let left = r.dim("n_tensors")?;
        Ok(Records { r, left, err: None })
    }

    /// `model`, if every record it asked for was there, well formed, and
    /// no record is left over.
    pub(crate) fn finish<M>(self, model: M) -> Result<M, FrozenError> {
        match (self.err, self.left) {
            (Some(err), _) => Err(err),
            (None, 0) => Ok(model),
            (None, left) => Err(FrozenError::Corrupt(format!(
                "{left} tensor records more than the model has parameters"
            ))),
        }
    }
}

impl ParamSource for Records<'_, '_> {
    fn param(&mut self, name: &str, rows: usize, cols: usize, _init: Init) -> Tensor {
        if self.err.is_none() && self.left == 0 {
            let msg = "fewer tensor records than the model has parameters";
            self.err = Some(FrozenError::Corrupt(msg.into()));
        }
        if self.err.is_some() {
            return Tensor::zeros(0, 0);
        }
        self.left -= 1;
        match self.r.tensor(name, rows, cols) {
            Ok(values) => Tensor::from_vec(rows, cols, values),
            Err(err) => {
                self.err = Some(err);
                Tensor::zeros(0, 0)
            }
        }
    }
}
