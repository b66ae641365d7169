//! The frozen LSTM baseline forward: a tape-free mirror of
//! `tpu_learned_cost::LstmModel`, in the same f32 the model was trained
//! in.
//!
//! The dataflow is written once, in [`FrozenLstm::forward_log_ns`]: the
//! encoder shared with the GNN over all nodes at once (ε⁰), then per node
//! the fused gate product over `[step input ‖ previous hidden]` and the
//! `c`/`h` recurrence, every buffer carved from one scratch allocation.
//! It can differ from the tape only by f32 summation order
//! (`tests/parity.rs` pins the two within 1e-5 log-ns).
//!
//! Blob header, after `kind`: `opcode_embed_dim`, `node_dim`, `hidden`,
//! each a u32. The tensors: the embedding table, then weight and bias of
//! f₁, of the fused `i, f, g, o` gates, and of the head.

use crate::blob::{FrozenError, Reader, Writer};
use crate::layers::{carve, LayerSpec, Layers};
use tpu_hlo::Kernel;
use tpu_learned_cost::{LstmModel, Prepared};

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

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
    /// gathered embeddings, the step inputs, `c`, `h` and the gates.
    pub(crate) fn scratch_len(&self, nodes: usize) -> usize {
        nodes * (self.layers.embed_dim() + self.layers.encoded_dim()) + 6 * self.hidden
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
        let (emb, rest) = scratch.split_at_mut(n * self.layers.embed_dim());
        let (xs, rest) = rest.split_at_mut(n * d);
        let (c, rest) = rest.split_at_mut(h);
        let (hid, gates) = rest.split_at_mut(h);

        self.layers.encode_rows(p, emb, xs);
        c.fill(0.0);
        hid.fill(0.0);
        for x in xs.chunks_exact(d) {
            gate_layer.apply_rows(1, &[x, hid], gates);
            for j in 0..h {
                let (i, f, g, o) = (gates[j], gates[h + j], gates[2 * h + j], gates[3 * h + j]);
                c[j] = sigmoid(f) * c[j] + sigmoid(i) * g.tanh();
                hid[j] = sigmoid(o) * c[j].tanh();
            }
        }
        let mut y = [0.0f32];
        head.apply_rows(1, &[hid], &mut y);
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

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_learned_cost::LstmConfig;

    /// The body `forward_log_ns` had before `apply_rows`: one node at a
    /// time through the oracle matvec, a buffer per stage.
    fn per_node_forward(m: &FrozenLstm, p: &Prepared) -> f32 {
        let h = m.hidden;
        let mut x = vec![0.0f32; m.layers.encoded_dim()];
        let (mut c, mut hid) = (vec![0.0f32; h], vec![0.0f32; h]);
        let mut gates = vec![0.0f32; 4 * h];
        for t in 0..p.num_nodes() {
            m.layers.encode(p, t, &mut x);
            m.layers.affine[1].apply(&[&x, &hid], &mut gates);
            for j in 0..h {
                let (i, f, g, o) = (gates[j], gates[h + j], gates[2 * h + j], gates[3 * h + j]);
                c[j] = sigmoid(f) * c[j] + sigmoid(i) * g.tanh();
                hid[j] = sigmoid(o) * c[j].tanh();
            }
        }
        let mut y = [0.0f32];
        m.layers.affine[2].apply(&[&hid], &mut y);
        y[0] + m.layers.log_ns_offset
    }

    #[test]
    fn the_blocked_forward_is_the_per_node_forward_bit_for_bit() {
        let mut scratch = Vec::new();
        for hidden in [48, 64] {
            let model = LstmModel::new(LstmConfig {
                hidden,
                ..LstmConfig::default()
            });
            let frozen = freeze_lstm(&model, &[]).unwrap();
            for (i, k) in crate::probe_kernels(64).iter().enumerate() {
                let p = Prepared::from_kernel(k);
                assert_eq!(
                    frozen.forward_log_ns(&p, &mut scratch).to_bits(),
                    per_node_forward(&frozen, &p).to_bits(),
                    "hidden {hidden}, probe {i}"
                );
            }
        }
    }
}
