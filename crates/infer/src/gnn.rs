//! The frozen GraphSAGE forward: a quantized, tape-free mirror of
//! `tpu_learned_cost::GnnModel`.
//!
//! The dataflow is written once, in [`Gnn::forward`], over an
//! [`Arith`]. Under [`Int16`] matmuls run in i16×i16→i32 (split per input
//! segment so each segment keeps its own activation scale); everything a
//! matmul cannot amortize — bias add, ReLU, neighborhood aggregation, L2
//! normalization, pooling — is f32 in the body itself. Post-normalization
//! embeddings are bounded in `[-1, 1]`, so from hop 1 onward activations
//! use the static unit scale and cannot saturate; the stages that can
//! (features, ε⁰, aggregation, pools) carry calibrated scales in the blob,
//! observed by running the same body under [`Calibrate`].

use crate::arith::{relu, Arith, Calibrate, Int16, Stage};
use crate::blob::{FrozenError, Reader, Writer};
use crate::layers::{LayerSpec, Layers, ENCODED};
use crate::quant::QTensor;
use tpu_hlo::Kernel;
use tpu_learned_cost::features::FEATURE_DIM;
use tpu_learned_cost::{GnnArch, GnnModel, Prepared, Reduction};

/// `x / max(‖x‖₂, ε)` uses the tape's epsilon so frozen and f32 paths
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

    /// Activation-scale slots, in blob order: features, ε⁰, one per hop's
    /// neighborhood aggregate, one per enabled pool.
    fn scale_slots(&self) -> usize {
        2 + self.hops + self.num_pools()
    }

    /// The affine layers, in blob order: the encoder's f₁; per hop f₂,
    /// then f₃ as its self rows (`0..H` of `f3.w`) and its
    /// neighborhood-aggregate rows (`H..2H`); the head, one `H×1` chunk
    /// per enabled pool in concat order.
    fn layer_specs(&self, embed_dim: usize) -> Vec<LayerSpec> {
        let h = self.hidden;
        let mut specs = vec![LayerSpec::encoder(embed_dim, h)];
        for k in 0..self.hops {
            specs.push(LayerSpec::new(format!("hop{k}.f2"), vec![h], h));
            specs.push(LayerSpec::new(format!("hop{k}.f3"), vec![h; 2], h));
        }
        specs.push(LayerSpec::new("head", vec![h; self.num_pools()], 1));
        specs
    }
}

/// A GraphSAGE model over weight container `M`: training-store slices
/// while calibrating, [`QTensor`]s once frozen.
#[derive(Debug, Clone)]
struct Gnn<M> {
    arch: Arch,
    /// Shaped by [`Arch::layer_specs`].
    layers: Layers<M>,
}

impl<M> Gnn<M> {
    /// The one walk over the layers: the head output (before the log-ns
    /// offset) for one featurized kernel.
    fn forward<A: Arith<Mat = M>>(&self, a: &mut A, p: &Prepared) -> f32 {
        let Arch {
            hidden: h,
            hops,
            reduction,
            pools,
        } = self.arch;
        let n = p.num_nodes();
        let (head, hop_layers) = self.layers.affine[1..].split_last().expect("a head layer");
        if n == 0 {
            return head.b[0];
        }

        let mut eps = vec![0.0f32; n * h];
        let mut qfeat = vec![A::Elem::default(); FEATURE_DIM];
        for i in 0..n {
            self.layers
                .encode(a, p, i, &mut qfeat, &mut eps[i * h..(i + 1) * h]);
        }
        let mut qeps = vec![A::Elem::default(); n * h];
        let mut s_eps = a.stage(ENCODED, &eps, &mut qeps);

        let mut msg = vec![0.0f32; n * h];
        let mut agg = vec![0.0f32; n * h];
        let mut qagg = vec![A::Elem::default(); n * h];
        for (k, hop) in hop_layers.chunks_exact(2).enumerate() {
            let (f2, f3) = (&hop[0], &hop[1]);
            // Per-node message: relu(f₂(ε)).
            for i in 0..n {
                let node = i * h..(i + 1) * h;
                a.affine(f2, [(&qeps[node.clone()], s_eps)], &mut msg[node]);
            }
            relu(&mut msg);
            aggregate(reduction, p, &msg, &mut agg, n, h);
            let s_agg = a.stage(Stage::Slot(2 + k), &agg, &mut qagg);

            // εᵏ = l₂(relu(f₃([ε ‖ agg]))).
            for i in 0..n {
                let node = i * h..(i + 1) * h;
                let row = &mut eps[node.clone()];
                a.affine(
                    f3,
                    [(&qeps[node.clone()], s_eps), (&qagg[node], s_agg)],
                    row,
                );
                relu(row);
                let norm = row.iter().map(|&x| x * x).sum::<f32>().sqrt().max(L2_EPS);
                for v in row.iter_mut() {
                    *v /= norm;
                }
            }
            // Normalized rows are in [-1, 1]: unit scale, no saturation.
            s_eps = a.stage(Stage::Unit, &eps, &mut qeps);
        }

        // Kernel pooling + head, one dot product per enabled pool.
        let mut pool = vec![0.0f32; h];
        let mut qpool = vec![A::Elem::default(); h];
        let mut y = head.b[0];
        let enabled = (0..3).filter(|&which| pools[which]);
        for (slot, (which, chunk)) in enabled.zip(&head.w).enumerate() {
            pool_into(which, &eps, n, &mut pool);
            let s_pool = a.stage(Stage::Slot(2 + hops + slot), &pool, &mut qpool);
            y += A::dot(&qpool, s_pool, chunk);
        }
        y
    }
}

impl<'w> Gnn<&'w [f32]> {
    /// Borrow a trained model's layers from its parameter store.
    fn from_model(model: &'w GnnModel) -> Result<Self, FrozenError> {
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
        let layers = Layers::from_store(model.store(), cfg.opcode_embed_dim, &specs)?;
        Ok(Gnn { arch, layers })
    }
}

/// A frozen, quantized [`GnnModel`]: flat arrays, no tape, no autograd.
#[derive(Debug, Clone)]
pub struct FrozenGnn {
    net: Gnn<QTensor>,
    log_ns_offset: f32,
    /// Calibrated activation scales, one per [`Arch::scale_slots`] slot.
    scales: Vec<f32>,
}

impl FrozenGnn {
    /// Rough multiply-accumulate count of one forward — drives the rayon
    /// threshold in [`crate::FrozenModel`].
    pub fn mac_estimate(&self, p: &Prepared) -> usize {
        let n = p.num_nodes();
        let arch = &self.net.arch;
        let h = arch.hidden;
        n * self.net.layers.encoder_macs()
            + arch.hops * (3 * n * h * h + 2 * p.edges.len() * h)
            + arch.num_pools() * h
    }

    /// Predicted log-runtime (ns) of one featurized kernel.
    pub fn forward_log_ns(&self, p: &Prepared) -> f32 {
        let mut int16 = Int16::new(&self.scales, self.net.arch.hidden);
        self.net.forward(&mut int16, p) + self.log_ns_offset
    }

    pub(crate) fn write(&self, w: &mut Writer) {
        let Arch {
            hidden,
            hops,
            reduction,
            pools,
        } = self.net.arch;
        w.u32(self.net.layers.embed_dim as u32);
        w.u32(hidden as u32);
        w.u32(hops as u32);
        w.u32(reduction_code(reduction));
        w.u32(pools[0] as u32 | (pools[1] as u32) << 1 | (pools[2] as u32) << 2);
        self.net.layers.write_layout(w);
        w.f32(self.log_ns_offset);
        w.scales(&self.scales);
        self.net.layers.write(w);
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> Result<FrozenGnn, FrozenError> {
        let embed_dim = r.dim("opcode_embed_dim")?;
        let hidden = r.dim("hidden")?;
        let hops = r.dim("hops")?;
        // Every hop costs at least one activation scale (4 B) plus five
        // tensor records of a 16 B header each. A hop count the blob's
        // remaining bytes cannot possibly back is corrupt, and must be
        // rejected *before* the count sizes any allocation — `dim`'s
        // 2^24 ceiling alone still lets a 100-byte blob demand
        // gigabytes of layer capacity.
        if hops.saturating_mul(84) > r.remaining() {
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
        let pools = [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0];
        let arch = Arch {
            hidden,
            hops,
            reduction,
            pools,
        };
        Layers::read_layout(r)?;
        let log_ns_offset = r.f32()?;
        let n_scales = r.dim("n_scales")?;
        if n_scales != arch.scale_slots() {
            return Err(FrozenError::Corrupt(format!(
                "expected {} activation scales, blob carries {n_scales}",
                arch.scale_slots()
            )));
        }
        let scales = r.f32s(n_scales)?;
        let layers = Layers::read(r, embed_dim, &arch.layer_specs(embed_dim))?;
        Ok(FrozenGnn {
            net: Gnn { arch, layers },
            log_ns_offset,
            scales,
        })
    }
}

/// Neighborhood reduction of the `n×h` messages `msg` into `agg` over the
/// doubled edge list, in the exact edge order the tape's gather + segment
/// op uses.
fn aggregate(red: Reduction, p: &Prepared, msg: &[f32], agg: &mut [f32], n: usize, h: usize) {
    match red {
        Reduction::Sum | Reduction::Mean => {
            agg[..n * h].fill(0.0);
            for &(a, b) in &p.edges {
                for j in 0..h {
                    agg[b * h + j] += msg[a * h + j];
                }
                for j in 0..h {
                    agg[a * h + j] += msg[b * h + j];
                }
            }
            if red == Reduction::Mean {
                let mut counts = vec![0usize; n];
                for &(a, b) in &p.edges {
                    counts[b] += 1;
                    counts[a] += 1;
                }
                for (i, &cnt) in counts.iter().enumerate() {
                    if cnt > 0 {
                        for v in &mut agg[i * h..(i + 1) * h] {
                            *v /= cnt as f32;
                        }
                    }
                }
            }
        }
        Reduction::Max => {
            agg[..n * h].fill(f32::NEG_INFINITY);
            for &(a, b) in &p.edges {
                for j in 0..h {
                    agg[b * h + j] = agg[b * h + j].max(msg[a * h + j]);
                }
                for j in 0..h {
                    agg[a * h + j] = agg[a * h + j].max(msg[b * h + j]);
                }
            }
            for v in &mut agg[..n * h] {
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
/// [`FrozenGnn`], calibrating activation scales on `calib` kernels (the
/// built-in [`crate::calibration_kernels`] set when empty).
///
/// # Errors
///
/// [`FrozenError::UnsupportedArch`] for `GcnMean` or a pool-less config,
/// [`FrozenError::MissingParam`] if the store lacks an expected parameter,
/// [`FrozenError::FanInTooLarge`] if a layer cannot be quantized safely.
pub fn freeze_gnn(model: &GnnModel, calib: &[Kernel]) -> Result<FrozenGnn, FrozenError> {
    let net = Gnn::from_model(model)?;
    // Calibration: the forward about to be frozen, run in f32 over
    // representative kernels, records the largest magnitude each
    // to-be-quantized stage produces.
    let mut observed = Calibrate::new(net.arch.scale_slots());
    for k in crate::calibration_set(calib).iter() {
        net.forward(&mut observed, &Prepared::from_kernel(k));
    }
    Ok(FrozenGnn {
        net: Gnn {
            arch: net.arch,
            layers: net.layers.quantize()?,
        },
        log_ns_offset: tpu_learned_cost::LOG_NS_OFFSET,
        scales: observed.scales(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_learned_cost::{GnnConfig, PoolCombo};

    fn calib() -> Vec<Kernel> {
        crate::calibration_kernels(12)
    }

    #[test]
    fn frozen_tracks_tape_forward() {
        let model = GnnModel::new(GnnConfig::default());
        let frozen = freeze_gnn(&model, &calib()).unwrap();
        for k in calib() {
            let want = model.predict_log_ns(&k) as f32;
            let got = frozen.forward_log_ns(&Prepared::from_kernel(&k));
            assert!(
                (want - got).abs() < 0.05,
                "tape {want} vs frozen {got} drifted past quantization noise"
            );
        }
    }

    /// The body the int16 instance serves is the model: run in f32 it
    /// agrees with the tape to accumulation-order noise, not merely to
    /// quantization noise.
    #[test]
    fn the_forward_body_in_f32_is_the_tape_forward() {
        for red in [Reduction::Sum, Reduction::Mean, Reduction::Max] {
            let model = GnnModel::new(GnnConfig {
                reduction: red,
                ..Default::default()
            });
            let net = Gnn::from_model(&model).unwrap();
            for k in calib() {
                let want = model.predict_log_ns(&k) as f32;
                let mut f32_run = Calibrate::new(net.arch.scale_slots());
                let got = net.forward(&mut f32_run, &Prepared::from_kernel(&k))
                    + tpu_learned_cost::LOG_NS_OFFSET;
                assert!(
                    (want - got).abs() < 1e-4,
                    "{red:?}: tape {want} vs f32 body {got}"
                );
            }
        }
    }

    #[test]
    fn every_reduction_and_pool_combo_freezes() {
        for red in [Reduction::Sum, Reduction::Mean, Reduction::Max] {
            for pool in [
                PoolCombo {
                    sum: true,
                    mean: false,
                    max: false,
                },
                PoolCombo {
                    sum: false,
                    mean: true,
                    max: true,
                },
                PoolCombo::all(),
            ] {
                let cfg = GnnConfig {
                    reduction: red,
                    pooling: pool,
                    hops: 1,
                    hidden: 16,
                    opcode_embed_dim: 8,
                    ..Default::default()
                };
                let model = GnnModel::new(cfg);
                let frozen = freeze_gnn(&model, &calib()).unwrap();
                for k in calib().iter().take(3) {
                    let want = model.predict_log_ns(k) as f32;
                    let got = frozen.forward_log_ns(&Prepared::from_kernel(k));
                    assert!(
                        (want - got).abs() < 0.05,
                        "{red:?}/{pool:?}: {want} vs {got}"
                    );
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
    fn zero_hop_model_freezes() {
        let model = GnnModel::new(GnnConfig {
            hops: 0,
            ..Default::default()
        });
        let frozen = freeze_gnn(&model, &calib()).unwrap();
        let k = &calib()[0];
        let want = model.predict_log_ns(k) as f32;
        let got = frozen.forward_log_ns(&Prepared::from_kernel(k));
        assert!((want - got).abs() < 0.05);
    }
}
