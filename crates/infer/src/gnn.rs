//! The frozen GraphSAGE forward: a quantized, tape-free mirror of
//! `tpu_learned_cost::GnnModel`.
//!
//! Matmuls run in i16×i16→i32 (split per input segment so each segment
//! keeps its own activation scale); everything a matmul cannot amortize —
//! bias add, ReLU, neighborhood aggregation, L2 normalization, pooling —
//! folds back to f32. Post-normalization embeddings are bounded in
//! `[-1, 1]`, so from hop 1 onward activations use the static unit scale
//! and cannot saturate; the stages that can (features, ε⁰, aggregation,
//! pools) carry calibrated scales in the blob.

use crate::blob::{FrozenError, Reader, Writer};
use crate::quant::{self, QTensor, Q_ACT_MAX, S_UNIT};
use tpu_hlo::{Kernel, Opcode};
use tpu_learned_cost::features::FEATURE_DIM;
use tpu_learned_cost::{GnnArch, GnnModel, Prepared, Reduction};
use tpu_nn::Tensor;

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

/// One GraphSAGE hop's quantized weights.
#[derive(Debug, Clone)]
struct Hop {
    w2: QTensor,
    b2: Vec<f32>,
    /// f₃ rows acting on the self embedding (rows `0..H` of `f3.w`).
    w3s: QTensor,
    /// f₃ rows acting on the aggregated neighborhood (rows `H..2H`).
    w3a: QTensor,
    b3: Vec<f32>,
}

/// A frozen, quantized [`GnnModel`]: flat arrays, no tape, no autograd.
#[derive(Debug, Clone)]
pub struct FrozenGnn {
    embed_dim: usize,
    hidden: usize,
    reduction: Reduction,
    /// Enabled kernel pools in blob order (sum, mean, max).
    pools: [bool; 3],
    log_ns_offset: f32,
    /// Calibrated activation scales: node features.
    s_feat: f32,
    /// Calibrated activation scales: ε⁰ (f₁ output).
    s_eps0: f32,
    /// Calibrated activation scales: per-hop neighborhood aggregate.
    s_agg: Vec<f32>,
    /// Calibrated activation scales: enabled pools, in pool order.
    s_pool: Vec<f32>,
    /// Opcode embedding table; its tensor scale doubles as the activation
    /// scale (table rows *are* the f₁ inputs).
    emb: QTensor,
    /// f₁ rows acting on the opcode embedding (rows `0..E` of `f1.w`).
    w1e: QTensor,
    /// f₁ rows acting on the features (rows `E..E+F`).
    w1f: QTensor,
    b1: Vec<f32>,
    hops: Vec<Hop>,
    /// Head weight chunk per enabled pool (`H×1` each, concat order).
    heads: Vec<QTensor>,
    head_bias: f32,
}

impl FrozenGnn {
    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Number of message-passing hops.
    pub fn num_hops(&self) -> usize {
        self.hops.len()
    }

    /// Rough multiply-accumulate count of one forward — drives the rayon
    /// threshold in [`crate::FrozenModel`].
    pub fn mac_estimate(&self, p: &Prepared) -> usize {
        let n = p.num_nodes();
        let h = self.hidden;
        n * (self.embed_dim + FEATURE_DIM) * h
            + self.hops.len() * (3 * n * h * h + 2 * p.edges.len() * h)
            + self.heads.len() * h
    }

    /// Predicted log-runtime (ns) of one featurized kernel.
    pub fn forward_log_ns(&self, p: &Prepared) -> f32 {
        let n = p.num_nodes();
        let h = self.hidden;
        if n == 0 {
            return self.head_bias + self.log_ns_offset;
        }

        // ε⁰ = relu(x·W₁ + b₁), x = [embedding ‖ features], computed as two
        // integer matmuls with separate accumulators (the two segments have
        // different scales).
        let mut eps = vec![0.0f32; n * h];
        let mut qfeat = vec![0i16; FEATURE_DIM];
        let mut acc_e = vec![0i32; h];
        let mut acc_f = vec![0i32; h];
        let se = self.emb.scale * self.w1e.scale;
        let sf = self.s_feat * self.w1f.scale;
        for i in 0..n {
            acc_e.fill(0);
            acc_f.fill(0);
            quant::quantize_into(p.features.row(i), self.s_feat, &mut qfeat);
            quant::matvec_accum(self.emb.row(p.opcode_ids[i]), &self.w1e.data, &mut acc_e);
            quant::matvec_accum(&qfeat, &self.w1f.data, &mut acc_f);
            for j in 0..h {
                let v = acc_e[j] as f32 * se + acc_f[j] as f32 * sf + self.b1[j];
                eps[i * h + j] = v.max(0.0);
            }
        }

        let mut s_eps = self.s_eps0;
        let mut qeps = vec![0i16; n * h];
        quant::quantize_into(&eps, s_eps, &mut qeps);

        let mut msg = vec![0.0f32; n * h];
        let mut agg = vec![0.0f32; n * h];
        let mut qagg = vec![0i16; n * h];
        let mut acc_s = vec![0i32; h];
        let mut acc_a = vec![0i32; h];
        for (k, hop) in self.hops.iter().enumerate() {
            // Per-node message: relu(f₂(ε)).
            let sm = s_eps * hop.w2.scale;
            for i in 0..n {
                acc_s.fill(0);
                quant::matvec_accum(&qeps[i * h..(i + 1) * h], &hop.w2.data, &mut acc_s);
                for j in 0..h {
                    msg[i * h + j] = (acc_s[j] as f32 * sm + hop.b2[j]).max(0.0);
                }
            }
            // Neighborhood reduction over the doubled edge list, in the
            // exact edge order the tape's gather + segment op uses.
            aggregate(self.reduction, p, &msg, &mut agg, n, h);

            let sa = self.s_agg[k];
            quant::quantize_into(&agg, sa, &mut qagg);

            // εᵏ = l₂(relu(f₃([ε ‖ agg]))) — two integer matmuls again.
            let ss = s_eps * hop.w3s.scale;
            let sw = sa * hop.w3a.scale;
            for i in 0..n {
                acc_s.fill(0);
                acc_a.fill(0);
                quant::matvec_accum(&qeps[i * h..(i + 1) * h], &hop.w3s.data, &mut acc_s);
                quant::matvec_accum(&qagg[i * h..(i + 1) * h], &hop.w3a.data, &mut acc_a);
                let row = &mut eps[i * h..(i + 1) * h];
                for j in 0..h {
                    row[j] = (acc_s[j] as f32 * ss + acc_a[j] as f32 * sw + hop.b3[j]).max(0.0);
                }
                let norm = row.iter().map(|&x| x * x).sum::<f32>().sqrt().max(L2_EPS);
                for v in row.iter_mut() {
                    *v /= norm;
                }
            }
            // Normalized rows are in [-1, 1]: unit scale, no saturation.
            s_eps = S_UNIT;
            quant::quantize_into(&eps, s_eps, &mut qeps);
        }

        // Kernel pooling + head, one dot product per enabled pool.
        let mut pool = vec![0.0f32; h];
        let mut qpool = vec![0i16; h];
        let mut y = self.head_bias;
        let mut head_idx = 0usize;
        for (which, enabled) in self.pools.iter().enumerate() {
            if !enabled {
                continue;
            }
            pool_into(which, &eps, n, &mut pool);
            let sp = self.s_pool[head_idx];
            quant::quantize_into(&pool, sp, &mut qpool);
            let head = &self.heads[head_idx];
            y += quant::dot_i16(&qpool, &head.data) as f32 * (sp * head.scale);
            head_idx += 1;
        }
        y + self.log_ns_offset
    }

    pub(crate) fn write(&self, w: &mut Writer) {
        w.u32(self.embed_dim as u32);
        w.u32(self.hidden as u32);
        w.u32(self.hops.len() as u32);
        w.u32(reduction_code(self.reduction));
        let mask = self.pools[0] as u32 | (self.pools[1] as u32) << 1 | (self.pools[2] as u32) << 2;
        w.u32(mask);
        w.u32(FEATURE_DIM as u32);
        w.u32(self.emb.rows as u32);
        w.f32(self.log_ns_offset);
        let mut scales = vec![self.s_feat, self.s_eps0];
        scales.extend_from_slice(&self.s_agg);
        scales.extend_from_slice(&self.s_pool);
        w.scales(&scales);
        w.u32((4 + 5 * self.hops.len() + self.heads.len() + 1) as u32);
        w.qtensor(&self.emb);
        w.qtensor(&self.w1e);
        w.qtensor(&self.w1f);
        w.ftensor(&self.b1);
        for hop in &self.hops {
            w.qtensor(&hop.w2);
            w.ftensor(&hop.b2);
            w.qtensor(&hop.w3s);
            w.qtensor(&hop.w3a);
            w.ftensor(&hop.b3);
        }
        for head in &self.heads {
            w.qtensor(head);
        }
        w.ftensor(&[self.head_bias]);
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> Result<FrozenGnn, FrozenError> {
        let embed_dim = r.dim("opcode_embed_dim")?;
        let hidden = r.dim("hidden")?;
        let n_hops = r.dim("hops")?;
        // Every hop costs at least one activation scale (4 B) plus five
        // tensor records of a 16 B header each. A hop count the blob's
        // remaining bytes cannot possibly back is corrupt, and must be
        // rejected *before* the count sizes any allocation — `dim`'s
        // 2^24 ceiling alone still lets a 100-byte blob demand
        // gigabytes of `Hop` capacity.
        if n_hops.saturating_mul(84) > r.remaining() {
            return Err(FrozenError::Corrupt(format!(
                "hop count {n_hops} exceeds what {} remaining bytes can hold",
                r.remaining()
            )));
        }
        let reduction = reduction_from(r.u32()?)?;
        let mask = r.u32()?;
        if mask == 0 || mask > 0b111 {
            return Err(FrozenError::Corrupt(format!("pool mask {mask:#b} invalid")));
        }
        let pools = [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0];
        let n_pools = pools.iter().filter(|&&b| b).count();
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
        let log_ns_offset = r.f32()?;
        let n_scales = r.dim("n_scales")?;
        if n_scales != 2 + n_hops + n_pools {
            return Err(FrozenError::Corrupt(format!(
                "expected {} activation scales, blob carries {n_scales}",
                2 + n_hops + n_pools
            )));
        }
        let scales = r.f32s(n_scales)?;
        let n_tensors = r.dim("n_tensors")?;
        if n_tensors != 4 + 5 * n_hops + n_pools + 1 {
            return Err(FrozenError::Corrupt(format!(
                "expected {} tensor records, blob carries {n_tensors}",
                4 + 5 * n_hops + n_pools + 1
            )));
        }

        let emb = r.qtensor("opcode embedding")?;
        let w1e = r.qtensor("f1 embedding rows")?;
        let w1f = r.qtensor("f1 feature rows")?;
        let b1 = r.ftensor("f1 bias", hidden)?;
        check_dims("opcode embedding", &emb, opcode_count, embed_dim)?;
        check_dims("f1 embedding rows", &w1e, embed_dim, hidden)?;
        check_dims("f1 feature rows", &w1f, feature_dim, hidden)?;
        let mut hops = Vec::with_capacity(n_hops);
        for k in 0..n_hops {
            let w2 = r.qtensor("f2")?;
            let b2 = r.ftensor("f2 bias", hidden)?;
            let w3s = r.qtensor("f3 self rows")?;
            let w3a = r.qtensor("f3 agg rows")?;
            let b3 = r.ftensor("f3 bias", hidden)?;
            check_dims(&format!("hop {k} f2"), &w2, hidden, hidden)?;
            check_dims(&format!("hop {k} f3 self"), &w3s, hidden, hidden)?;
            check_dims(&format!("hop {k} f3 agg"), &w3a, hidden, hidden)?;
            hops.push(Hop { w2, b2, w3s, w3a, b3 });
        }
        let mut heads = Vec::with_capacity(n_pools);
        for p in 0..n_pools {
            let head = r.qtensor("head chunk")?;
            check_dims(&format!("head chunk {p}"), &head, hidden, 1)?;
            heads.push(head);
        }
        let head_bias = r.ftensor("head bias", 1)?[0];

        Ok(FrozenGnn {
            embed_dim,
            hidden,
            reduction,
            pools,
            log_ns_offset,
            s_feat: scales[0],
            s_eps0: scales[1],
            s_agg: scales[2..2 + n_hops].to_vec(),
            s_pool: scales[2 + n_hops..].to_vec(),
            emb,
            w1e,
            w1f,
            b1,
            hops,
            heads,
            head_bias,
        })
    }
}

fn check_dims(what: &str, t: &QTensor, rows: usize, cols: usize) -> Result<(), FrozenError> {
    if t.rows != rows || t.cols != cols {
        return Err(FrozenError::Corrupt(format!(
            "{what}: expected {rows}x{cols}, blob carries {}x{}",
            t.rows, t.cols
        )));
    }
    Ok(())
}

/// Stage maxima observed during the f32 calibration forward.
struct Calib {
    feat: f32,
    eps0: f32,
    agg: Vec<f32>,
    pool: Vec<f32>,
}

/// Raw f32 weight views used only at freeze time.
struct Raw<'a> {
    hidden: usize,
    embed_dim: usize,
    reduction: Reduction,
    pools: [bool; 3],
    emb: &'a [f32],
    w1e: &'a [f32],
    w1f: &'a [f32],
    b1: &'a [f32],
    hops: Vec<[&'a [f32]; 5]>,
}

pub(crate) fn matvec_f32(a: &[f32], w: &[f32], acc: &mut [f32]) {
    let out = acc.len();
    for (k, &av) in a.iter().enumerate() {
        let row = &w[k * out..(k + 1) * out];
        for (o, &wv) in acc.iter_mut().zip(row) {
            *o += av * wv;
        }
    }
}

fn max_abs(m: f32, xs: &[f32]) -> f32 {
    xs.iter().fold(m, |m, &v| m.max(v.abs()))
}

impl Raw<'_> {
    /// One f32 forward mirroring the frozen dataflow, updating `calib`
    /// maxima at every stage that will carry a calibrated scale.
    fn observe(&self, p: &Prepared, calib: &mut Calib) {
        let n = p.num_nodes();
        let h = self.hidden;
        if n == 0 {
            return;
        }
        calib.feat = max_abs(calib.feat, p.features.data());

        let mut eps = vec![0.0f32; n * h];
        for i in 0..n {
            let row = &mut eps[i * h..(i + 1) * h];
            row.copy_from_slice(self.b1);
            let e0 = p.opcode_ids[i] * self.embed_dim;
            matvec_f32(&self.emb[e0..e0 + self.embed_dim], self.w1e, row);
            matvec_f32(p.features.row(i), self.w1f, row);
            for v in row.iter_mut() {
                *v = v.max(0.0);
            }
        }
        calib.eps0 = max_abs(calib.eps0, &eps);

        let mut msg = vec![0.0f32; n * h];
        let mut agg = vec![0.0f32; n * h];
        for (k, [w2, b2, w3s, w3a, b3]) in self.hops.iter().enumerate() {
            for i in 0..n {
                let row = &mut msg[i * h..(i + 1) * h];
                row.copy_from_slice(b2);
                matvec_f32(&eps[i * h..(i + 1) * h], w2, row);
                for v in row.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            aggregate(self.reduction, p, &msg, &mut agg, n, h);
            calib.agg[k] = max_abs(calib.agg[k], &agg[..n * h]);

            let mut next = vec![0.0f32; n * h];
            for i in 0..n {
                let row = &mut next[i * h..(i + 1) * h];
                row.copy_from_slice(b3);
                matvec_f32(&eps[i * h..(i + 1) * h], w3s, row);
                matvec_f32(&agg[i * h..(i + 1) * h], w3a, row);
                for v in row.iter_mut() {
                    *v = v.max(0.0);
                }
                let norm = row.iter().map(|&x| x * x).sum::<f32>().sqrt().max(L2_EPS);
                for v in row.iter_mut() {
                    *v /= norm;
                }
            }
            eps = next;
        }

        let mut pool = vec![0.0f32; h];
        let mut pi = 0usize;
        for (which, enabled) in self.pools.iter().enumerate() {
            if !enabled {
                continue;
            }
            pool_into(which, &eps, n, &mut pool);
            calib.pool[pi] = max_abs(calib.pool[pi], &pool);
            pi += 1;
        }
    }
}

/// Neighborhood reduction of the `n×h` messages `msg` into `agg` over the
/// doubled edge list, in the exact edge order the tape's gather + segment
/// op uses. Shared by the calibration forward and the int16 forward.
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
/// (overwritten): `which` indexes [`FrozenGnn::pools`] — 0 sum, 1 mean,
/// 2 max.
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
    let cfg = model.config();
    if cfg.arch != GnnArch::GraphSage {
        return Err(FrozenError::UnsupportedArch("GcnMean".into()));
    }
    if cfg.pooling.count() == 0 {
        return Err(FrozenError::UnsupportedArch("pool-less head".into()));
    }
    let store = model.store();
    let tensor = |name: &str| -> Result<&Tensor, FrozenError> {
        store
            .find(name)
            .map(|id| store.value(id))
            .ok_or_else(|| FrozenError::MissingParam(name.into()))
    };

    let (e, h) = (cfg.opcode_embed_dim, cfg.hidden);
    let emb_t = tensor("opcode_embedding")?;
    let w1_t = tensor("f1.w")?;
    let b1_t = tensor("f1.b")?;
    let (w1e_raw, w1f_raw) = w1_t.data().split_at(e * h);
    let mut hop_raw: Vec<[&[f32]; 5]> = Vec::with_capacity(cfg.hops);
    let mut hop_tensors = Vec::with_capacity(cfg.hops);
    for k in 0..cfg.hops {
        let w2 = tensor(&format!("hop{k}.f2.w"))?;
        let b2 = tensor(&format!("hop{k}.f2.b"))?;
        let w3 = tensor(&format!("hop{k}.f3.w"))?;
        let b3 = tensor(&format!("hop{k}.f3.b"))?;
        hop_tensors.push((w2, b2, w3, b3));
    }
    for (w2, b2, w3, b3) in &hop_tensors {
        let (w3s, w3a) = w3.data().split_at(h * h);
        hop_raw.push([w2.data(), b2.data(), w3s, w3a, b3.data()]);
    }
    let head_w = tensor("head.w")?;
    let head_b = tensor("head.b")?;

    let pools = [cfg.pooling.sum, cfg.pooling.mean, cfg.pooling.max];
    let raw = Raw {
        hidden: h,
        embed_dim: e,
        reduction: cfg.reduction,
        pools,
        emb: emb_t.data(),
        w1e: w1e_raw,
        w1f: w1f_raw,
        b1: b1_t.data(),
        hops: hop_raw,
    };

    // Calibration: the f32 reference forward over representative kernels
    // records the largest magnitude each to-be-quantized stage produces.
    let own;
    let calib_kernels = if calib.is_empty() {
        own = crate::calibration_kernels(16);
        &own
    } else {
        calib
    };
    let mut cal = Calib {
        feat: 0.0,
        eps0: 0.0,
        agg: vec![0.0; cfg.hops],
        pool: vec![0.0; cfg.pooling.count()],
    };
    for k in calib_kernels {
        raw.observe(&Prepared::from_kernel(k), &mut cal);
    }

    let qw_e = quant::weight_qmax(e)?;
    let qw_f = quant::weight_qmax(FEATURE_DIM)?;
    let qw_h = quant::weight_qmax(h)?;
    let mut hops = Vec::with_capacity(cfg.hops);
    for [w2, b2, w3s, w3a, b3] in &raw.hops {
        hops.push(Hop {
            w2: QTensor::quantize(h, h, w2, qw_h),
            b2: b2.to_vec(),
            w3s: QTensor::quantize(h, h, w3s, qw_h),
            w3a: QTensor::quantize(h, h, w3a, qw_h),
            b3: b3.to_vec(),
        });
    }
    let mut heads = Vec::with_capacity(cfg.pooling.count());
    for p in 0..cfg.pooling.count() {
        heads.push(QTensor::quantize(h, 1, &head_w.data()[p * h..(p + 1) * h], qw_h));
    }

    Ok(FrozenGnn {
        embed_dim: e,
        hidden: h,
        reduction: cfg.reduction,
        pools,
        log_ns_offset: tpu_learned_cost::LOG_NS_OFFSET,
        s_feat: quant::act_scale(cal.feat),
        s_eps0: quant::act_scale(cal.eps0),
        s_agg: cal.agg.iter().map(|&m| quant::act_scale(m)).collect(),
        s_pool: cal.pool.iter().map(|&m| quant::act_scale(m)).collect(),
        emb: QTensor::quantize(Opcode::count(), e, emb_t.data(), Q_ACT_MAX),
        w1e: QTensor::quantize(e, h, w1e_raw, qw_e),
        w1f: QTensor::quantize(FEATURE_DIM, h, w1f_raw, qw_f),
        b1: b1_t.data().to_vec(),
        hops,
        heads,
        head_bias: head_b.data()[0],
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

    #[test]
    fn every_reduction_and_pool_combo_freezes() {
        for red in [Reduction::Sum, Reduction::Mean, Reduction::Max] {
            for pool in [
                PoolCombo { sum: true, mean: false, max: false },
                PoolCombo { sum: false, mean: true, max: true },
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
                    assert!((want - got).abs() < 0.05, "{red:?}/{pool:?}: {want} vs {got}");
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
