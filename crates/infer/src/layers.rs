//! A frozen network's weights as the blob lays them out: the opcode
//! embedding table, then a list of affine layers, each its weight blocks
//! (one per input segment) followed by its bias. Both architectures are
//! such a list — they differ in the layers' shapes ([`LayerSpec`]) and in
//! the dataflow between them — so borrowing the weights from a training
//! store, quantizing them, and their blob records are written once here,
//! as is the node encoder both architectures start with.

use crate::arith::{relu, Arith, Stage};
use crate::blob::{FrozenError, Reader, Writer};
use crate::quant::{self, QTensor, Q_ACT_MAX};
use tpu_hlo::Opcode;
use tpu_learned_cost::features::FEATURE_DIM;
use tpu_learned_cost::Prepared;
use tpu_nn::ParamStore;

/// Scale slot of the raw node features: first in both architectures'
/// blob scale lists.
const FEATURES: Stage = Stage::Slot(0);

/// Scale slot of the encoder's output (the caller stages it): second in
/// both architectures' blob scale lists.
pub(crate) const ENCODED: Stage = Stage::Slot(1);

/// Shape of one affine layer: its name in the training store, the input
/// rows of each weight block, and its output width.
pub(crate) struct LayerSpec {
    name: String,
    rows: Vec<usize>,
    out: usize,
}

impl LayerSpec {
    pub(crate) fn new(name: impl Into<String>, rows: Vec<usize>, out: usize) -> LayerSpec {
        LayerSpec {
            name: name.into(),
            rows,
            out,
        }
    }

    /// The encoder's f₁: one block for the opcode embedding, one for the
    /// features (the segments have different scales).
    pub(crate) fn encoder(embed_dim: usize, out: usize) -> LayerSpec {
        LayerSpec::new("f1", vec![embed_dim, FEATURE_DIM], out)
    }
}

/// One affine layer over weight container `M`. A layer whose input is a
/// concatenation holds one `rows×out` block per segment, so each segment
/// is its own matmul term.
#[derive(Debug, Clone)]
pub(crate) struct Affine<M> {
    pub(crate) w: Vec<M>,
    pub(crate) b: Vec<f32>,
}

/// All weights of one network: training-store slices while calibrating,
/// [`QTensor`]s once frozen.
#[derive(Debug, Clone)]
pub(crate) struct Layers<M> {
    pub(crate) embed_dim: usize,
    /// Opcode embedding table, `opcodes × embed_dim`.
    emb: M,
    /// In blob order; the first is the encoder's f₁.
    pub(crate) affine: Vec<Affine<M>>,
}

impl<M> Layers<M> {
    /// Output width of the node encoder.
    pub(crate) fn encoded_dim(&self) -> usize {
        self.affine[0].b.len()
    }

    /// Multiply-accumulates per encoded node.
    pub(crate) fn encoder_macs(&self) -> usize {
        (self.embed_dim + FEATURE_DIM) * self.encoded_dim()
    }

    /// The node encoder, `ε⁰ = relu([opcode embedding ‖ features]·W₁ + b₁)`
    /// — the GNN's initial node state and the LSTM's step input — for
    /// node `i` of `p`. `qfeat` is `FEATURE_DIM` elements of scratch.
    pub(crate) fn encode<A: Arith<Mat = M>>(
        &self,
        a: &mut A,
        p: &Prepared,
        i: usize,
        qfeat: &mut [A::Elem],
        out: &mut [f32],
    ) {
        let s_feat = a.stage(FEATURES, p.features.row(i), qfeat);
        // Table rows *are* layer inputs: the table's scale is theirs.
        let (emb, s_emb) = A::row(&self.emb, p.opcode_ids[i], self.embed_dim);
        a.affine(&self.affine[0], [(emb, s_emb), (qfeat, s_feat)], out);
        relu(out);
    }
}

impl<'w> Layers<&'w [f32]> {
    /// Borrow a trained model's weights: `opcode_embedding`, then
    /// `{name}.w` (split into the spec's row blocks) and `{name}.b` per
    /// layer.
    pub(crate) fn from_store(
        store: &'w ParamStore,
        embed_dim: usize,
        specs: &[LayerSpec],
    ) -> Result<Self, FrozenError> {
        let param = |name: &str| -> Result<&'w [f32], FrozenError> {
            store
                .find(name)
                .map(|id| store.value(id).data())
                .ok_or_else(|| FrozenError::MissingParam(name.into()))
        };
        let emb = param("opcode_embedding")?;
        let mut affine = Vec::with_capacity(specs.len());
        for spec in specs {
            let mut rest = param(&format!("{}.w", spec.name))?;
            let mut w = Vec::with_capacity(spec.rows.len());
            for rows in &spec.rows {
                let (block, tail) = rest.split_at(rows * spec.out);
                w.push(block);
                rest = tail;
            }
            let b = param(&format!("{}.b", spec.name))?.to_vec();
            affine.push(Affine { w, b });
        }
        Ok(Layers {
            embed_dim,
            emb,
            affine,
        })
    }

    /// Quantize every block to the widest int16 range its own fan-in
    /// leaves the i32 accumulator ([`quant::weight_qmax`]); the embedding
    /// table holds activations and takes the activation range.
    pub(crate) fn quantize(&self) -> Result<Layers<QTensor>, FrozenError> {
        let mut affine = Vec::with_capacity(self.affine.len());
        for layer in &self.affine {
            let out = layer.b.len();
            let mut w = Vec::with_capacity(layer.w.len());
            for block in &layer.w {
                let rows = block.len() / out;
                w.push(QTensor::quantize(
                    rows,
                    out,
                    block,
                    quant::weight_qmax(rows)?,
                ));
            }
            affine.push(Affine {
                w,
                b: layer.b.clone(),
            });
        }
        Ok(Layers {
            embed_dim: self.embed_dim,
            emb: QTensor::quantize(Opcode::count(), self.embed_dim, self.emb, Q_ACT_MAX),
            affine,
        })
    }
}

impl Layers<QTensor> {
    /// The two header fields that tie a blob to this build's feature
    /// layout.
    pub(crate) fn write_layout(&self, w: &mut Writer) {
        w.u32(FEATURE_DIM as u32);
        w.u32(self.emb.rows as u32);
    }

    /// Reject a blob frozen under a different feature layout.
    pub(crate) fn read_layout(r: &mut Reader<'_>) -> Result<(), FrozenError> {
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
        Ok(())
    }

    /// The tensor section: its record count, then the records.
    pub(crate) fn write(&self, w: &mut Writer) {
        let records: usize = self.affine.iter().map(|l| l.w.len() + 1).sum();
        w.u32((1 + records) as u32);
        w.qtensor(&self.emb);
        for layer in &self.affine {
            for block in &layer.w {
                w.qtensor(block);
            }
            w.ftensor(&layer.b);
        }
    }

    /// The tensor section of a blob whose header implies `specs`; every
    /// record must have exactly the shape they give it.
    pub(crate) fn read(
        r: &mut Reader<'_>,
        embed_dim: usize,
        specs: &[LayerSpec],
    ) -> Result<Self, FrozenError> {
        let records = 1 + specs.iter().map(|s| s.rows.len() + 1).sum::<usize>();
        let n_tensors = r.dim("n_tensors")?;
        if n_tensors != records {
            return Err(FrozenError::Corrupt(format!(
                "expected {records} tensor records, blob carries {n_tensors}"
            )));
        }
        let emb = r.qtensor("opcode embedding", Opcode::count(), embed_dim)?;
        let mut affine = Vec::with_capacity(specs.len());
        for spec in specs {
            let mut w = Vec::with_capacity(spec.rows.len());
            for &rows in &spec.rows {
                w.push(r.qtensor(&spec.name, rows, spec.out)?);
            }
            let b = r.ftensor(&spec.name, spec.out)?;
            affine.push(Affine { w, b });
        }
        Ok(Layers {
            embed_dim,
            emb,
            affine,
        })
    }
}
