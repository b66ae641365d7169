//! The frozen GraphSAGE forward: a tape-free mirror of
//! `tpu_learned_cost::GnnModel`, in the same f32 the model was trained
//! in.
//!
//! The dataflow is written once, in [`FrozenGnn::forward_log_ns`]: one
//! kernel at a time, one [`Affine::apply_rows`](crate::layers::Affine::apply_rows)
//! per layer over all the kernel's nodes and the trained weight matrices,
//! with ReLU, neighborhood aggregation, L2 normalization and pooling in
//! the body itself, every buffer carved from one scratch allocation. It
//! can differ from the tape only by f32 summation order
//! (`tests/parity.rs` pins the two within 1e-5 log-ns).
//!
//! Blob header, after `kind`: `opcode_embed_dim`, `hidden`, `hops`, the
//! reduction code (0 sum, 1 mean, 2 max) and the pool mask (bit 0 sum,
//! bit 1 mean, bit 2 max), each a u32. The tensors: the embedding table,
//! then weight and bias of f₁, of each hop's f₂ and f₃, and of the head.

use crate::blob::{FrozenError, Reader, Writer, RECORD_HEADER_BYTES};
use crate::layers::{carve, relu, LayerSpec, Layers};
use tpu_hlo::Kernel;
use tpu_learned_cost::{GnnArch, GnnModel, Prepared, Reduction};

/// `x / max(‖x‖₂, ε)` uses the tape's epsilon so frozen and tape paths
/// normalize degenerate rows identically.
const L2_EPS: f32 = 1e-6;

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

/// The hyperparameters a blob header carries.
#[derive(Debug, Clone, Copy)]
struct Arch {
    hidden: usize,
    hops: usize,
    reduction: Reduction,
    /// Enabled kernel pools in blob order (sum, mean, max).
    pools: [bool; 3],
}

impl Arch {
    fn num_pools(&self) -> usize {
        self.pools.iter().filter(|&&on| on).count()
    }

    /// The affine layers, in blob order: the encoder's f₁; per hop f₂,
    /// then f₃ over `[ε ‖ neighborhood aggregate]`; the head over the
    /// enabled pools in concat order.
    fn layer_specs(&self, embed_dim: usize) -> Vec<LayerSpec> {
        let h = self.hidden;
        let mut specs = vec![LayerSpec::encoder(embed_dim, h)];
        for k in 0..self.hops {
            specs.push(LayerSpec::new(format!("hop{k}.f2"), h, h));
            specs.push(LayerSpec::new(format!("hop{k}.f3"), 2 * h, h));
        }
        specs.push(LayerSpec::new("head", h * self.num_pools(), 1));
        specs
    }
}

/// A frozen [`GnnModel`]: flat f32 arrays, no tape, no autograd.
#[derive(Debug, Clone)]
pub struct FrozenGnn {
    arch: Arch,
    /// Shaped by [`Arch::layer_specs`].
    layers: Layers,
}

impl FrozenGnn {
    /// f32s of scratch one forward over `nodes` nodes carves up: the
    /// gathered embeddings, node states, messages / next states,
    /// aggregates, neighbor counts and the pooled embedding.
    pub(crate) fn scratch_len(&self, nodes: usize) -> usize {
        let h = self.arch.hidden;
        nodes * (self.layers.embed_dim() + 3 * h + 1) + self.arch.num_pools() * h
    }

    /// Predicted log-runtime (ns) of one featurized kernel: the one walk
    /// over the layers. Every buffer is carved from `scratch`, which is
    /// grown if it is too short — the only allocation a forward can make
    /// (`tests/alloc_count.rs` counts) — and holds nothing a later call
    /// reads, so one `Vec` serves a whole batch.
    pub fn forward_log_ns(&self, p: &Prepared, scratch: &mut Vec<f32>) -> f32 {
        let Arch {
            hidden: h,
            reduction,
            pools,
            ..
        } = self.arch;
        let n = p.num_nodes();
        let (head, hop_layers) = self.layers.affine[1..].split_last().expect("a head layer");
        if n == 0 {
            return head.b[0] + self.layers.log_ns_offset;
        }

        let scratch = carve(scratch, self.scratch_len(n));
        let (emb, rest) = scratch.split_at_mut(n * self.layers.embed_dim());
        let (mut eps, rest) = rest.split_at_mut(n * h);
        let (mut next, rest) = rest.split_at_mut(n * h);
        let (agg, rest) = rest.split_at_mut(n * h);
        let (degree, kappa) = rest.split_at_mut(n);

        self.layers.encode_rows(p, emb, eps);
        if reduction == Reduction::Mean {
            degree.fill(0.0);
            for &(a, b) in &p.edges {
                degree[a] += 1.0;
                degree[b] += 1.0;
            }
        }
        // Messages first, then the hop's new node states: f₃ reads node
        // `i` of `eps` and `agg` only, so it can overwrite message `i`.
        for hop in hop_layers.chunks_exact(2) {
            let (f2, f3) = (&hop[0], &hop[1]);
            // Per-node message: relu(f₂(ε)).
            f2.apply_rows(n, &[eps], next);
            relu(next);
            aggregate(reduction, p, next, agg, degree, h);
            // εᵏ = l₂(relu(f₃([ε ‖ agg]))).
            f3.apply_rows(n, &[eps, agg], next);
            relu(next);
            for row in next.chunks_exact_mut(h) {
                let norm = row.iter().map(|&x| x * x).sum::<f32>().sqrt().max(L2_EPS);
                for v in row.iter_mut() {
                    *v /= norm;
                }
            }
            std::mem::swap(&mut eps, &mut next);
        }

        // Kernel embedding κ = the enabled pools side by side, then the head.
        let enabled = (0..3).filter(|&which| pools[which]);
        for (which, pool) in enabled.zip(kappa.chunks_exact_mut(h)) {
            pool_into(which, eps, n, pool);
        }
        let mut y = [0.0f32];
        head.apply_rows(1, &[kappa], &mut y);
        y[0] + self.layers.log_ns_offset
    }

    pub(crate) fn write(&self, w: &mut Writer) {
        let Arch {
            hidden,
            hops,
            reduction,
            pools,
        } = self.arch;
        w.u32(self.layers.embed_dim() as u32);
        w.u32(hidden as u32);
        w.u32(hops as u32);
        w.u32(reduction_code(reduction));
        w.u32(pools[0] as u32 | (pools[1] as u32) << 1 | (pools[2] as u32) << 2);
        self.layers.write(w);
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> Result<FrozenGnn, FrozenError> {
        let embed_dim = r.dim("opcode_embed_dim")?;
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
        let arch = Arch {
            hidden,
            hops,
            reduction,
            pools: [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0],
        };
        let layers = Layers::read(r, &arch.layer_specs(embed_dim))?;
        Ok(FrozenGnn { arch, layers })
    }
}

/// Neighborhood reduction of the `n×h` messages `msg` into `agg` over the
/// doubled edge list, in the exact edge order the tape's gather + segment
/// op uses. `degree[i]` is node `i`'s neighbor count (read by `Mean` only).
fn aggregate(red: Reduction, p: &Prepared, msg: &[f32], agg: &mut [f32], degree: &[f32], h: usize) {
    match red {
        Reduction::Sum | Reduction::Mean => {
            agg.fill(0.0);
            for &(a, b) in &p.edges {
                for j in 0..h {
                    agg[b * h + j] += msg[a * h + j];
                }
                for j in 0..h {
                    agg[a * h + j] += msg[b * h + j];
                }
            }
            if red == Reduction::Mean {
                for (row, &cnt) in agg.chunks_exact_mut(h).zip(degree) {
                    if cnt > 0.0 {
                        for v in row {
                            *v /= cnt;
                        }
                    }
                }
            }
        }
        Reduction::Max => {
            agg.fill(f32::NEG_INFINITY);
            for &(a, b) in &p.edges {
                for j in 0..h {
                    agg[b * h + j] = agg[b * h + j].max(msg[a * h + j]);
                }
                for j in 0..h {
                    agg[a * h + j] = agg[a * h + j].max(msg[b * h + j]);
                }
            }
            for v in agg.iter_mut() {
                if *v == f32::NEG_INFINITY {
                    *v = 0.0;
                }
            }
        }
    }
}

/// Kernel pooling of the `n×h` node states `eps` into the `h`-wide `pool`
/// (overwritten): `which` indexes [`Arch::pools`] — 0 sum, 1 mean, 2 max.
fn pool_into(which: usize, eps: &[f32], n: usize, pool: &mut [f32]) {
    let h = pool.len();
    if which == 2 {
        pool.fill(f32::NEG_INFINITY);
        for i in 0..n {
            for j in 0..h {
                pool[j] = pool[j].max(eps[i * h + j]);
            }
        }
        return;
    }
    pool.fill(0.0);
    for i in 0..n {
        for j in 0..h {
            pool[j] += eps[i * h + j];
        }
    }
    if which == 1 {
        for v in pool.iter_mut() {
            *v /= n as f32;
        }
    }
}

/// Freeze a trained (or freshly initialized) [`GnnModel`] into a
/// [`FrozenGnn`]: its weights, copied as they are.
///
/// `_calib` is ignored. It fed the activation-scale calibration of the
/// int16 format this crate no longer has, and stays in the signature only
/// because `benchmark/` (frozen between benchmark-archetype PRs) still
/// passes it; the next such PR drops the argument.
///
/// # Errors
///
/// [`FrozenError::UnsupportedArch`] for `GcnMean` or a pool-less config,
/// [`FrozenError::MissingParam`] if the store lacks an expected parameter,
/// [`FrozenError::NonFinite`] naming the first parameter that holds a NaN
/// or an infinity.
pub fn freeze_gnn(model: &GnnModel, _calib: &[Kernel]) -> Result<FrozenGnn, FrozenError> {
    let cfg = model.config();
    if cfg.arch != GnnArch::GraphSage {
        return Err(FrozenError::UnsupportedArch("GcnMean".into()));
    }
    if cfg.pooling.count() == 0 {
        return Err(FrozenError::UnsupportedArch("pool-less head".into()));
    }
    let arch = Arch {
        hidden: cfg.hidden,
        hops: cfg.hops,
        reduction: cfg.reduction,
        pools: [cfg.pooling.sum, cfg.pooling.mean, cfg.pooling.max],
    };
    let specs = arch.layer_specs(cfg.opcode_embed_dim);
    let layers = Layers::from_store(model.store(), &specs)?;
    Ok(FrozenGnn { arch, layers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_learned_cost::{GnnConfig, PoolCombo};

    /// The body `forward_log_ns` had before `apply_rows`: one oracle
    /// matvec per node and layer, a buffer per stage, the mean's neighbor
    /// counts as integers.
    fn per_node_forward(m: &FrozenGnn, p: &Prepared) -> f32 {
        let (h, n) = (m.arch.hidden, p.num_nodes());
        let (head, hop_layers) = m.layers.affine[1..].split_last().unwrap();
        let mut eps = vec![0.0f32; n * h];
        for (i, row) in eps.chunks_exact_mut(h).enumerate() {
            m.layers.encode(p, i, row);
        }
        let mut counts = vec![0usize; n];
        for &(a, b) in &p.edges {
            counts[a] += 1;
            counts[b] += 1;
        }
        let degree: Vec<f32> = counts.iter().map(|&c| c as f32).collect();
        let mut next = vec![0.0f32; n * h];
        let mut agg = vec![0.0f32; n * h];
        for hop in hop_layers.chunks_exact(2) {
            for (x, msg) in eps.chunks_exact(h).zip(next.chunks_exact_mut(h)) {
                hop[0].apply(&[x], msg);
            }
            relu(&mut next);
            aggregate(m.arch.reduction, p, &next, &mut agg, &degree, h);
            let inputs = eps.chunks_exact(h).zip(agg.chunks_exact(h));
            for ((x, a), row) in inputs.zip(next.chunks_exact_mut(h)) {
                hop[1].apply(&[x, a], row);
                relu(row);
                let norm = row.iter().map(|&x| x * x).sum::<f32>().sqrt().max(L2_EPS);
                row.iter_mut().for_each(|v| *v /= norm);
            }
            std::mem::swap(&mut eps, &mut next);
        }
        let mut kappa = vec![0.0f32; head.rows()];
        let enabled = (0..3).filter(|&which| m.arch.pools[which]);
        for (which, pool) in enabled.zip(kappa.chunks_exact_mut(h)) {
            pool_into(which, &eps, n, pool);
        }
        let mut y = [0.0f32];
        head.apply(&[&kappa], &mut y);
        y[0] + m.layers.log_ns_offset
    }

    #[test]
    fn the_blocked_forward_is_the_per_node_forward_bit_for_bit() {
        let prepared: Vec<Prepared> = crate::probe_kernels(64)
            .iter()
            .map(Prepared::from_kernel)
            .collect();
        let mut scratch = Vec::new();
        for reduction in [Reduction::Sum, Reduction::Mean, Reduction::Max] {
            for mask in 1..8u32 {
                for (hops, hidden) in [(0, 48), (2, 48), (0, 64), (2, 64)] {
                    let model = GnnModel::new(GnnConfig {
                        reduction,
                        hops,
                        hidden,
                        pooling: PoolCombo {
                            sum: mask & 1 != 0,
                            mean: mask & 2 != 0,
                            max: mask & 4 != 0,
                        },
                        seed: u64::from(mask),
                        ..GnnConfig::default()
                    });
                    let mut frozen = freeze_gnn(&model, &[]).unwrap();
                    // A fresh model's biases are all zero, which would hide
                    // a bias added anywhere but first.
                    for (l, layer) in frozen.layers.affine.iter_mut().enumerate() {
                        for (j, b) in layer.b.iter_mut().enumerate() {
                            *b = ((7 * l + 3 * j) % 17) as f32 * 0.03 - 0.25;
                        }
                    }
                    for (i, p) in prepared.iter().enumerate() {
                        assert_eq!(
                            frozen.forward_log_ns(p, &mut scratch).to_bits(),
                            per_node_forward(&frozen, p).to_bits(),
                            "{reduction:?}, pools {mask:#b}, {hops} hops, hidden {hidden}, probe {i}"
                        );
                    }
                }
            }
        }
    }

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
