//! The frozen LSTM baseline forward: quantized gate matmuls, f32 cell
//! state.
//!
//! The dataflow is written once, in [`Lstm::forward`], over an [`Arith`].
//! Under [`Int16`] the per-node projection (ε⁰, the encoder shared with
//! the GNN) and the fused gate matmul run in i16×i16→i32; gate
//! nonlinearities and the `c`/`h` recurrence stay in f32 — they are O(H)
//! per step against the matmul's O(H·(D+H)), and sigmoid/tanh have no
//! cheap integer form. The hidden state is bounded in `[-1, 1]` (it is
//! `sigmoid · tanh`), so its requantization each step uses the static
//! unit scale and cannot saturate; the two stages that can (features,
//! node projections) carry scales observed by running the same body
//! under [`Calibrate`].

use crate::arith::{Arith, Calibrate, Int16, Stage};
use crate::blob::{FrozenError, Reader, Writer};
use crate::layers::{LayerSpec, Layers, ENCODED};
use crate::quant::{QTensor, S_UNIT};
use tpu_hlo::Kernel;
use tpu_learned_cost::features::FEATURE_DIM;
use tpu_learned_cost::{LstmModel, Prepared};

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Activation-scale slots, in blob order: features, node projections.
const SCALE_SLOTS: usize = 2;

/// The affine layers, in blob order: the encoder's f₁ (`node_dim` wide);
/// the fused `i, f, g, o` gates as their step-input rows (`0..D` of
/// `lstm.w`) and their previous-hidden rows (`D..D+H`); the head.
fn layer_specs(embed_dim: usize, node_dim: usize, hidden: usize) -> [LayerSpec; 3] {
    [
        LayerSpec::encoder(embed_dim, node_dim),
        LayerSpec::new("lstm", vec![node_dim, hidden], 4 * hidden),
        LayerSpec::new("head", vec![hidden], 1),
    ]
}

/// An LSTM baseline over weight container `M`: training-store slices
/// while calibrating, [`QTensor`]s once frozen.
#[derive(Debug, Clone)]
struct Lstm<M> {
    hidden: usize,
    /// Shaped by [`layer_specs`].
    layers: Layers<M>,
}

impl<M> Lstm<M> {
    /// The one walk over the layers: the head output (before the log-ns
    /// offset) for one featurized kernel. Nodes are consumed in index
    /// order — for a single packed kernel that is exactly the tape
    /// baseline's topological sequence.
    fn forward<A: Arith<Mat = M>>(&self, a: &mut A, p: &Prepared) -> f32 {
        let n = p.num_nodes();
        let d = self.layers.encoded_dim();
        let h = self.hidden;
        let (gate_layer, head) = (&self.layers.affine[1], &self.layers.affine[2]);

        // Node projections (the GNN's ε⁰), staged row by row.
        let mut qx = vec![A::Elem::default(); n * d];
        let mut node = vec![0.0f32; d];
        let mut qfeat = vec![A::Elem::default(); FEATURE_DIM];
        let mut s_x = S_UNIT; // read only after a node has set it
        for i in 0..n {
            self.layers.encode(a, p, i, &mut qfeat, &mut node);
            s_x = a.stage(ENCODED, &node, &mut qx[i * d..(i + 1) * d]);
        }

        // The recurrence: state in f32, hidden restaged at the unit scale
        // for the next step's matmul — the zero initial state included.
        let mut c = vec![0.0f32; h];
        let mut qh = vec![A::Elem::default(); h];
        let mut gates = vec![0.0f32; 4 * h];
        let s_h = a.stage(Stage::Unit, &c, &mut qh);
        for t in 0..n {
            let x = &qx[t * d..(t + 1) * d];
            a.affine(gate_layer, [(x, s_x), (&qh, s_h)], &mut gates);
            // `h = o ⊙ tanh(c)` overwrites the output gate's lanes.
            let (ifg, o) = gates.split_at_mut(3 * h);
            for j in 0..h {
                c[j] = sigmoid(ifg[h + j]) * c[j] + sigmoid(ifg[j]) * ifg[2 * h + j].tanh();
                o[j] = sigmoid(o[j]) * c[j].tanh();
            }
            a.stage(Stage::Unit, o, &mut qh);
        }
        A::dot(&qh, s_h, &head.w[0]) + head.b[0]
    }
}

impl<'w> Lstm<&'w [f32]> {
    /// Borrow a trained model's layers from its parameter store.
    fn from_model(model: &'w LstmModel) -> Result<Self, FrozenError> {
        let cfg = model.config();
        let specs = layer_specs(cfg.opcode_embed_dim, cfg.node_dim, cfg.hidden);
        Ok(Lstm {
            hidden: cfg.hidden,
            layers: Layers::from_store(model.store(), cfg.opcode_embed_dim, &specs)?,
        })
    }
}

/// A frozen, quantized [`LstmModel`]: flat arrays, no tape.
#[derive(Debug, Clone)]
pub struct FrozenLstm {
    net: Lstm<QTensor>,
    log_ns_offset: f32,
    /// Calibrated activation scales, [`SCALE_SLOTS`] of them.
    scales: Vec<f32>,
}

impl FrozenLstm {
    /// Rough multiply-accumulate count of one forward — drives the rayon
    /// threshold in [`crate::FrozenModel`].
    pub fn mac_estimate(&self, p: &Prepared) -> usize {
        let n = p.num_nodes();
        let (d, h) = (self.net.layers.encoded_dim(), self.net.hidden);
        n * self.net.layers.encoder_macs() + n * (d + h) * 4 * h + h
    }

    /// Predicted log-runtime (ns) of one featurized kernel.
    pub fn forward_log_ns(&self, p: &Prepared) -> f32 {
        let widest = self.net.layers.encoded_dim().max(4 * self.net.hidden);
        let mut int16 = Int16::new(&self.scales, widest);
        self.net.forward(&mut int16, p) + self.log_ns_offset
    }

    pub(crate) fn write(&self, w: &mut Writer) {
        w.u32(self.net.layers.embed_dim as u32);
        w.u32(self.net.layers.encoded_dim() as u32);
        w.u32(self.net.hidden as u32);
        self.net.layers.write_layout(w);
        w.f32(self.log_ns_offset);
        w.scales(&self.scales);
        self.net.layers.write(w);
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> Result<FrozenLstm, FrozenError> {
        let embed_dim = r.dim("opcode_embed_dim")?;
        let node_dim = r.dim("node_dim")?;
        let hidden = r.dim("hidden")?;
        Layers::read_layout(r)?;
        let log_ns_offset = r.f32()?;
        let n_scales = r.dim("n_scales")?;
        if n_scales != SCALE_SLOTS {
            return Err(FrozenError::Corrupt(format!(
                "expected {SCALE_SLOTS} activation scales, blob carries {n_scales}"
            )));
        }
        let scales = r.f32s(SCALE_SLOTS)?;
        let layers = Layers::read(r, embed_dim, &layer_specs(embed_dim, node_dim, hidden))?;
        Ok(FrozenLstm {
            net: Lstm { hidden, layers },
            log_ns_offset,
            scales,
        })
    }
}

/// Freeze a trained (or freshly initialized) [`LstmModel`] into a
/// [`FrozenLstm`], calibrating the feature and node scales on `calib`
/// kernels (the built-in [`crate::calibration_kernels`] set when empty).
///
/// # Errors
///
/// [`FrozenError::MissingParam`] if the store lacks an expected parameter,
/// [`FrozenError::FanInTooLarge`] if a layer cannot be quantized safely.
pub fn freeze_lstm(model: &LstmModel, calib: &[Kernel]) -> Result<FrozenLstm, FrozenError> {
    let net = Lstm::from_model(model)?;
    // Calibration: the forward about to be frozen, run in f32. Only the
    // stages before the recurrence carry a calibrated scale (the hidden
    // state is unit-bounded).
    let mut observed = Calibrate::new(SCALE_SLOTS);
    for k in crate::calibration_set(calib).iter() {
        net.forward(&mut observed, &Prepared::from_kernel(k));
    }
    Ok(FrozenLstm {
        net: Lstm {
            hidden: net.hidden,
            layers: net.layers.quantize()?,
        },
        log_ns_offset: tpu_learned_cost::LOG_NS_OFFSET,
        scales: observed.scales(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_learned_cost::LstmConfig;

    #[test]
    fn frozen_tracks_tape_forward() {
        let model = LstmModel::new(LstmConfig::default());
        let frozen = freeze_lstm(&model, &[]).unwrap();
        for k in crate::calibration_kernels(12) {
            let want = model.predict_log_ns(&k) as f32;
            let got = frozen.forward_log_ns(&Prepared::from_kernel(&k));
            assert!(
                (want - got).abs() < 0.05,
                "tape {want} vs frozen {got} drifted past quantization noise"
            );
        }
    }

    /// The body the int16 instance serves is the model: run in f32 it
    /// agrees with the tape to accumulation-order noise.
    #[test]
    fn the_forward_body_in_f32_is_the_tape_forward() {
        let model = LstmModel::new(LstmConfig::default());
        let net = Lstm::from_model(&model).unwrap();
        for k in crate::calibration_kernels(12) {
            let want = model.predict_log_ns(&k) as f32;
            let mut f32_run = Calibrate::new(SCALE_SLOTS);
            let got = net.forward(&mut f32_run, &Prepared::from_kernel(&k))
                + tpu_learned_cost::LOG_NS_OFFSET;
            assert!((want - got).abs() < 1e-4, "tape {want} vs f32 body {got}");
        }
    }
}
