//! The frozen LSTM baseline forward: a tape-free mirror of
//! `tpu_learned_cost::LstmModel`, in the same f32 the model was trained
//! in.
//!
//! The dataflow is written once, in [`FrozenLstm::forward_log_ns`]: the
//! encoder shared with the GNN over all nodes at once (ε⁰), then per node
//! the fused gate product over `[step input ‖ previous hidden]` and the
//! `c`/`h` recurrence, every buffer carved from one scratch allocation.
//! It runs the tape's f32 operations in the tape's order, through
//! tpu-nn's matmul kernel, so every prediction is the tape's bit for bit
//! (`tests/parity.rs` compares `to_bits`).
//!
//! Blob header, after `kind`: `opcode_embed_dim`, `node_dim`, `hidden`,
//! each a u32. The tensors: the embedding table, then weight and bias of
//! f₁, of the fused `i, f, g, o` gates, and of the head.

use crate::blob::{FrozenError, Reader, Writer};
use crate::layers::{carve, LayerSpec, Layers};
use tpu_hlo::Kernel;
use tpu_learned_cost::{LstmModel, Prepared};
use tpu_nn::sigmoid;

/// The affine layers, in blob order: the encoder's f₁ (`node_dim` wide);
/// the fused `i, f, g, o` gates over `[step input ‖ previous hidden]`;
/// the head.
fn layer_specs(embed_dim: usize, node_dim: usize, hidden: usize) -> [LayerSpec; 3] {
    [
        LayerSpec::encoder(embed_dim, node_dim),
        LayerSpec::new("lstm", node_dim + hidden, 4 * hidden),
        LayerSpec::new("head", hidden, 1),
    ]
}

/// A frozen [`LstmModel`]: flat f32 arrays, no tape.
#[derive(Debug, Clone)]
pub struct FrozenLstm {
    hidden: usize,
    /// Shaped by [`layer_specs`].
    layers: Layers,
}

impl FrozenLstm {
    /// f32s of scratch one forward over `nodes` nodes carves up: the
    /// encoder's side-by-side inputs, the step inputs, the gate input
    /// `[step input ‖ h]`, `c` and the gates.
    pub(crate) fn scratch_len(&self, nodes: usize) -> usize {
        let d = self.layers.encoded_dim();
        nodes * (self.layers.encoder_input_dim() + d) + d + 6 * self.hidden
    }

    /// Predicted log-runtime (ns) of one featurized kernel: the one walk
    /// over the layers. Nodes are consumed in index order — for a single
    /// packed kernel that is exactly the tape baseline's topological
    /// sequence. Every buffer is carved from `scratch`, which is grown if
    /// it is too short — the only allocation a forward can make — and
    /// holds nothing a later call reads.
    pub fn forward_log_ns(&self, p: &Prepared, scratch: &mut Vec<f32>) -> f32 {
        let (n, h, d) = (p.num_nodes(), self.hidden, self.layers.encoded_dim());
        let (gate_layer, head) = (&self.layers.affine[1], &self.layers.affine[2]);
        let scratch = carve(scratch, self.scratch_len(n));
        let (x, rest) = scratch.split_at_mut(n * self.layers.encoder_input_dim());
        let (xs, rest) = rest.split_at_mut(n * d);
        // The gate input holds the hidden state in place, after the step
        // input: `[x_t ‖ h]` is built by one copy a step.
        let (z, rest) = rest.split_at_mut(d + h);
        let (c, gates) = rest.split_at_mut(h);

        self.layers.encode_rows(p, x, xs);
        c.fill(0.0);
        z[d..].fill(0.0);
        for x_t in xs.chunks_exact(d) {
            z[..d].copy_from_slice(x_t);
            gate_layer.apply_rows(z, gates);
            let hid = &mut z[d..];
            for j in 0..h {
                let (i, f, g, o) = (gates[j], gates[h + j], gates[2 * h + j], gates[3 * h + j]);
                c[j] = sigmoid(f) * c[j] + sigmoid(i) * g.tanh();
                hid[j] = sigmoid(o) * c[j].tanh();
            }
        }
        let mut y = [0.0f32];
        head.apply_rows(&z[d..], &mut y);
        y[0] + self.layers.log_ns_offset
    }

    pub(crate) fn write(&self, w: &mut Writer) {
        w.u32(self.layers.embed_dim() as u32);
        w.u32(self.layers.encoded_dim() as u32);
        w.u32(self.hidden as u32);
        self.layers.write(w);
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> Result<FrozenLstm, FrozenError> {
        let embed_dim = r.dim("opcode_embed_dim")?;
        let node_dim = r.width("node_dim")?;
        let hidden = r.width("hidden")?;
        let layers = Layers::read(r, &layer_specs(embed_dim, node_dim, hidden))?;
        Ok(FrozenLstm { hidden, layers })
    }
}

/// Freeze a trained (or freshly initialized) [`LstmModel`] into a
/// [`FrozenLstm`]: its weights, copied as they are. `_calib` is ignored,
/// for the reason [`crate::freeze_gnn`] gives.
///
/// # Errors
///
/// [`FrozenError::MissingParam`] if the store lacks an expected parameter,
/// [`FrozenError::NonFinite`] naming the first parameter that holds a NaN
/// or an infinity.
pub fn freeze_lstm(model: &LstmModel, _calib: &[Kernel]) -> Result<FrozenLstm, FrozenError> {
    let cfg = model.config();
    let specs = layer_specs(cfg.opcode_embed_dim, cfg.node_dim, cfg.hidden);
    Ok(FrozenLstm {
        hidden: cfg.hidden,
        layers: Layers::from_store(model.store(), &specs)?,
    })
}
