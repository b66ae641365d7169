//! A frozen network's weights as the blob lays them out: the opcode
//! embedding table, then a list of affine layers, each its `rows×out`
//! weight matrix — exactly as the training store holds it — followed by
//! its bias. Both architectures are such a list; they differ in the
//! layers' shapes ([`LayerSpec`]) and in the dataflow between them. So
//! copying the weights out of a training store, the finiteness rule,
//! their blob records and the node encoder both architectures start with
//! are written once here.

use crate::blob::{FrozenError, Reader, Writer};
use tpu_hlo::Opcode;
use tpu_learned_cost::features::FEATURE_DIM;
use tpu_learned_cost::Prepared;
use tpu_nn::ParamStore;

/// Shape of one affine layer: its name in the training store, its input
/// rows and its output width.
pub(crate) struct LayerSpec {
    name: String,
    rows: usize,
    out: usize,
}

impl LayerSpec {
    pub(crate) fn new(name: impl Into<String>, rows: usize, out: usize) -> LayerSpec {
        LayerSpec {
            name: name.into(),
            rows,
            out,
        }
    }

    /// The encoder's f₁ over `[opcode embedding ‖ features]`.
    pub(crate) fn encoder(embed_dim: usize, out: usize) -> LayerSpec {
        LayerSpec::new("f1", embed_dim + FEATURE_DIM, out)
    }
}

/// One affine layer: `w` is `rows×out` row-major, `b` is `out` wide.
#[derive(Debug, Clone)]
pub(crate) struct Affine {
    w: Vec<f32>,
    pub(crate) b: Vec<f32>,
}

impl Affine {
    /// Input rows of the weight matrix.
    pub(crate) fn rows(&self) -> usize {
        self.w.len() / self.b.len()
    }

    /// `out = b + [inputs…]·w`. A concatenated input is its segments in
    /// order: each meets the next consecutive row range of `w`, so nothing
    /// is copied side by side first. Bias first, then ascending row — one
    /// fixed f32 summation order, whatever thread runs it.
    pub(crate) fn apply(&self, inputs: &[&[f32]], out: &mut [f32]) {
        debug_assert_eq!(inputs.iter().map(|s| s.len()).sum::<usize>(), self.rows());
        out.copy_from_slice(&self.b);
        let mut rows = self.w.chunks_exact(out.len());
        for segment in inputs {
            for (&a, row) in segment.iter().zip(&mut rows) {
                for (o, &w) in out.iter_mut().zip(row) {
                    *o += a * w;
                }
            }
        }
    }
}

/// In-place ReLU.
pub(crate) fn relu(xs: &mut [f32]) {
    for v in xs {
        *v = v.max(0.0);
    }
}

/// All weights of one frozen network, every value finite.
#[derive(Debug, Clone)]
pub(crate) struct Layers {
    /// Opcode embedding table, `opcodes × embed_dim`.
    emb: Vec<f32>,
    /// In blob order; the first is the encoder's f₁.
    pub(crate) affine: Vec<Affine>,
    /// Added to the head's output: the training target's centring.
    pub(crate) log_ns_offset: f32,
}

impl Layers {
    pub(crate) fn embed_dim(&self) -> usize {
        self.emb.len() / Opcode::count()
    }

    /// Output width of the node encoder.
    pub(crate) fn encoded_dim(&self) -> usize {
        self.affine[0].b.len()
    }

    /// Multiply-accumulates per encoded node.
    pub(crate) fn encoder_macs(&self) -> usize {
        self.affine[0].w.len()
    }

    /// The node encoder, `ε⁰ = relu([opcode embedding ‖ features]·W₁ + b₁)`
    /// — the GNN's initial node state and the LSTM's step input — for
    /// node `i` of `p`.
    pub(crate) fn encode(&self, p: &Prepared, i: usize, out: &mut [f32]) {
        let d = self.embed_dim();
        let emb = &self.emb[p.opcode_ids[i] * d..][..d];
        self.affine[0].apply(&[emb, p.features.row(i)], out);
        relu(out);
    }

    /// Copy a trained model's weights: `opcode_embedding`, then `{name}.w`
    /// and `{name}.b` per layer, each refused by name if it holds a NaN
    /// or an infinity.
    pub(crate) fn from_store(store: &ParamStore, specs: &[LayerSpec]) -> Result<Self, FrozenError> {
        let param = |name: &str| -> Result<Vec<f32>, FrozenError> {
            let id = store
                .find(name)
                .ok_or_else(|| FrozenError::MissingParam(name.into()))?;
            let values = store.value(id).data();
            finite(name, values)?;
            Ok(values.to_vec())
        };
        let emb = param("opcode_embedding")?;
        let mut affine = Vec::with_capacity(specs.len());
        for spec in specs {
            affine.push(Affine {
                w: param(&format!("{}.w", spec.name))?,
                b: param(&format!("{}.b", spec.name))?,
            });
        }
        let log_ns_offset = tpu_learned_cost::LOG_NS_OFFSET;
        finite("log_ns_offset", &[log_ns_offset])?;
        Ok(Layers {
            emb,
            affine,
            log_ns_offset,
        })
    }

    /// Everything after the kind-specific header: the two fields that tie
    /// a blob to this build's feature layout, the offset, the tensors.
    pub(crate) fn write(&self, w: &mut Writer) {
        w.u32(FEATURE_DIM as u32);
        w.u32(Opcode::count() as u32);
        w.f32(self.log_ns_offset);
        w.u32(1 + 2 * self.affine.len() as u32);
        w.tensor(Opcode::count(), self.embed_dim(), &self.emb);
        for layer in &self.affine {
            w.tensor(layer.rows(), layer.b.len(), &layer.w);
            w.tensor(1, layer.b.len(), &layer.b);
        }
    }

    /// The mirror of [`Layers::write`] for a blob whose header implies
    /// `specs`: a different feature layout is rejected, and every record
    /// must have exactly the shape the specs give it.
    pub(crate) fn read(r: &mut Reader<'_>, specs: &[LayerSpec]) -> Result<Self, FrozenError> {
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
        let records = 1 + 2 * specs.len();
        let n_tensors = r.dim("n_tensors")?;
        if n_tensors != records {
            return Err(FrozenError::Corrupt(format!(
                "expected {records} tensor records, blob carries {n_tensors}"
            )));
        }
        let embed_dim = specs[0].rows - FEATURE_DIM;
        let emb = r.tensor("opcode embedding", Opcode::count(), embed_dim)?;
        let mut affine = Vec::with_capacity(specs.len());
        for spec in specs {
            affine.push(Affine {
                w: r.tensor(&spec.name, spec.rows, spec.out)?,
                b: r.tensor(&spec.name, 1, spec.out)?,
            });
        }
        Ok(Layers {
            emb,
            affine,
            log_ns_offset,
        })
    }
}

/// The freeze-time rule for every parameter: no NaN, no infinity.
fn finite(name: &str, values: &[f32]) -> Result<(), FrozenError> {
    if values.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(FrozenError::NonFinite(name.into()))
    }
}
