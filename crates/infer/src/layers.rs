//! A frozen network's weights as the blob lays them out: the opcode
//! embedding table, then a list of affine layers, each its `rows×out`
//! weight matrix — exactly as the training store holds it — followed by
//! its bias. Both architectures are such a list; they differ in the
//! layers' shapes ([`LayerSpec`]) and in the dataflow between them. So
//! copying the weights out of a training store, the finiteness rule,
//! their blob records, the node encoder both architectures start with and
//! the one matmul either runs — [`Affine::apply_rows`], a layer over all
//! of a kernel's nodes in register-blocked tiles — are written once here.

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

    /// `out[i] = b + [segments of row i…]·w` for all `n` rows of a layer
    /// at once. A concatenated input is its segments in order: segment `s`
    /// is an `n × kₛ` row-major buffer whose row `i` meets the next `kₛ`
    /// consecutive rows of `w`, so nothing is copied side by side first.
    ///
    /// Rows go in blocks of up to [`BLOCK_ROWS`] and columns in register
    /// tiles ([`Affine::tile`]; `zmm::tile` for whole 64-column tiles on
    /// an AVX-512F build), so a row of `w` is loaded once per block
    /// rather than once per input row and no partial sum touches memory.
    /// Every output element still sees bias first, then ascending row of
    /// `w`, each term a multiply then an add, never contracted — one fixed
    /// f32 operation sequence, whatever the block or the thread.
    pub(crate) fn apply_rows(&self, n: usize, input: &[&[f32]], out: &mut [f32]) {
        debug_assert_eq!(out.len(), n * self.b.len());
        debug_assert_eq!(
            input.iter().map(|s| s.len()).sum::<usize>(),
            n * self.rows()
        );
        let mut i = 0;
        while i + BLOCK_ROWS <= n {
            self.row_block::<BLOCK_ROWS>(n, input, out, i);
            i += BLOCK_ROWS;
        }
        match n - i {
            3 => self.row_block::<3>(n, input, out, i),
            2 => self.row_block::<2>(n, input, out, i),
            1 => self.row_block::<1>(n, input, out, i),
            _ => {}
        }
    }

    /// Rows `i..i + R` across all column tiles, widest first: on a build
    /// with AVX-512F enabled, full 64-column tiles run the explicit zmm
    /// tile (`zmm::tile`); the columns left over, and every column on
    /// other builds, run the portable tiles.
    fn row_block<const R: usize>(&self, n: usize, input: &[&[f32]], out: &mut [f32], i: usize) {
        #[allow(unused_mut)]
        let mut j = 0;
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        while j + zmm::NC <= self.b.len() {
            // SAFETY: this build enables AVX-512F (the `cfg` above), so every
            // CPU it runs on has it.
            unsafe { zmm::tile::<R>(self, n, input, out, i, j) };
            j += zmm::NC;
        }
        self.portable_tiles::<R>(n, input, out, i, j);
    }

    /// Rows `i..i + R`, columns `j..`, in portable tiles. Fewer rows take
    /// wider tiles, so a block keeps about the same number of vector
    /// accumulators — enough independent add chains to hide the add's
    /// latency — whatever `R` is; 64, 48 and `4·hidden` are multiples of
    /// 16 and the head is one column, so no hot width has a scalar tail.
    fn portable_tiles<const R: usize>(
        &self,
        n: usize,
        input: &[&[f32]],
        out: &mut [f32],
        i: usize,
        mut j: usize,
    ) {
        let width = self.b.len();
        if R == 1 {
            while j + 64 <= width {
                self.tile::<R, 64>(n, input, out, i, j);
                j += 64;
            }
        }
        if R <= 2 {
            while j + 32 <= width {
                self.tile::<R, 32>(n, input, out, i, j);
                j += 32;
            }
        }
        while j + 16 <= width {
            self.tile::<R, 16>(n, input, out, i, j);
            j += 16;
        }
        while j < width {
            self.tile::<R, 1>(n, input, out, i, j);
            j += 1;
        }
    }

    /// The `R×C` register tile `out[i..i + R][j..j + C]`: accumulators
    /// start at the bias and take the segments in order.
    #[inline(always)]
    fn tile<const R: usize, const C: usize>(
        &self,
        n: usize,
        input: &[&[f32]],
        out: &mut [f32],
        i: usize,
        j: usize,
    ) {
        let width = self.b.len();
        let bias: [f32; C] = self.b[j..j + C].try_into().expect("a C-wide tile");
        let mut acc = [bias; R];
        let mut w = &self.w[..];
        for segment in input {
            let k = segment.len() / n;
            let rows: [&[f32]; R] = std::array::from_fn(|r| &segment[(i + r) * k..][..k]);
            let (w_segment, rest) = w.split_at(k * width);
            acc = accumulate(acc, rows, w_segment, width, j);
            w = rest;
        }
        for (r, acc_row) in acc.iter().enumerate() {
            out[(i + r) * width + j..][..C].copy_from_slice(acc_row);
        }
    }
}

/// Rows per register block of [`Affine::apply_rows`]. Not 8: the
/// accumulators then spill to the stack and a forward takes twice what
/// the per-row loop this replaced did (DESIGN.md, "One body per
/// architecture", has the numbers and the `objdump` check).
const BLOCK_ROWS: usize = 4;

/// One segment's share of a tile: `acc[r] += rows[r][k] · w[k][j..j + C]`
/// for ascending `k` — multiply-then-add pairs, never contracted into an
/// FMA. The accumulators come in and go out **by value**; updated in
/// place across the caller's loop over segments they stop living in
/// registers (same DESIGN.md paragraph).
///
/// A `k` whose input is zero in every row of the block is skipped. Every
/// stored weight is finite, so the skipped term is `±0`: it can change at
/// most the sign of a zero accumulator, never a value. The test is one
/// branch on the OR of the inputs' bits, sign bit shifted out — a compare
/// per row costs more than the skip saves.
#[inline(always)]
fn accumulate<const R: usize, const C: usize>(
    mut acc: [[f32; C]; R],
    rows: [&[f32]; R],
    w: &[f32],
    width: usize,
    j: usize,
) -> [[f32; C]; R] {
    for (k, w_row) in w.chunks_exact(width).enumerate() {
        let a: [f32; R] = std::array::from_fn(|r| rows[r][k]);
        if a.iter().fold(0, |bits, x| bits | x.to_bits()) << 1 == 0 {
            continue;
        }
        let w_tile: &[f32; C] = w_row[j..j + C].try_into().expect("a C-wide tile");
        for r in 0..R {
            for t in 0..C {
                acc[r][t] += a[r] * w_tile[t];
            }
        }
    }
    acc
}

/// The AVX-512F rung of the tile ladder: `R×64` tiles held in `4·R` zmm
/// accumulators.
///
/// LLVM's cost model keeps the portable tile at 256 bits on these cores,
/// where a multiply and a separate add per lane-step (no FMA) cap it at
/// eight lanes an instruction. Explicit 512-bit multiplies and adds double
/// that; the operation sequence per output element is unchanged.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod zmm {
    use super::Affine;
    use std::arch::x86_64::{
        __m512, _mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_storeu_ps,
    };

    /// Lanes in one zmm register.
    const LANES: usize = 16;

    /// Registers per tile row.
    const REGS: usize = 4;

    /// Columns in one tile.
    pub(super) const NC: usize = LANES * REGS;

    /// The first 64 f32s of `src` in four registers.
    ///
    /// # Panics
    ///
    /// Panics if `src` is shorter than 64.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load(src: &[f32]) -> [__m512; REGS] {
        let src = &src[..NC];
        // SAFETY: `src` holds exactly 64 f32s (sliced above), so each read
        // of 16 lanes at t·16 for t < 4 stays inside it.
        std::array::from_fn(|t| unsafe { _mm512_loadu_ps(src.as_ptr().add(t * LANES)) })
    }

    /// The tile `out[i..i + R][j..j + 64]` of [`Affine::apply_rows`]: every
    /// lane starts at its bias and takes the segments in order, each a
    /// multiply then an add per ascending row of `w`, never an FMA — the
    /// portable tile's operation sequence, sixteen lanes at a time, with
    /// its block-zero skip ([`super::accumulate`] has the argument).
    ///
    /// # Panics
    ///
    /// Panics unless the tile lies inside the layer's width and the rows
    /// `i..i + R` inside every segment and inside `out`.
    #[target_feature(enable = "avx512f")]
    pub(super) fn tile<const R: usize>(
        layer: &Affine,
        n: usize,
        input: &[&[f32]],
        out: &mut [f32],
        i: usize,
        j: usize,
    ) {
        let width = layer.b.len();
        assert!(R >= 1 && i + R <= n && j + NC <= width, "zmm tile shape");
        let mut acc = [load(&layer.b[j..]); R];
        let mut w = &layer.w[..];
        for segment in input {
            let k = segment.len() / n;
            let rows: [&[f32]; R] = std::array::from_fn(|r| &segment[(i + r) * k..][..k]);
            let (w_segment, rest) = w.split_at(k * width);
            for (kk, w_row) in w_segment.chunks_exact(width).enumerate() {
                let a: [f32; R] = std::array::from_fn(|r| rows[r][kk]);
                if a.iter().fold(0, |bits, x| bits | x.to_bits()) << 1 == 0 {
                    continue;
                }
                let w_tile = load(&w_row[j..]);
                for (acc_r, &a_r) in acc.iter_mut().zip(&a) {
                    let av = _mm512_set1_ps(a_r);
                    for (acc_rt, &w_t) in acc_r.iter_mut().zip(&w_tile) {
                        *acc_rt = _mm512_add_ps(*acc_rt, _mm512_mul_ps(av, w_t));
                    }
                }
            }
            w = rest;
        }
        for (r, acc_r) in acc.iter().enumerate() {
            let dst = &mut out[(i + r) * width + j..][..NC];
            for (t, &acc_rt) in acc_r.iter().enumerate() {
                // SAFETY: `dst` holds exactly 64 f32s (sliced above), so the
                // 16 lanes written at t·16 for t < 4 stay inside it.
                unsafe { _mm512_storeu_ps(dst.as_mut_ptr().add(t * LANES), acc_rt) };
            }
        }
    }
}

/// The first `len` f32s of `scratch`, grown if it is shorter: the one
/// allocation a forward can make. Callers overwrite what they read, so
/// what an earlier forward left there does not matter.
pub(crate) fn carve(scratch: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if scratch.len() < len {
        scratch.resize(len, 0.0);
    }
    &mut scratch[..len]
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

    /// The node encoder, `ε⁰ = relu([opcode embedding ‖ features]·W₁ + b₁)`
    /// — the GNN's initial node states and the LSTM's step inputs — for
    /// every node of `p` in one product. `emb` (`n × embed_dim`) receives
    /// the gathered embedding rows, `out` (`n × encoded_dim`) the result.
    pub(crate) fn encode_rows(&self, p: &Prepared, emb: &mut [f32], out: &mut [f32]) {
        let d = self.embed_dim();
        for (i, &op) in p.opcode_ids.iter().enumerate() {
            emb[i * d..][..d].copy_from_slice(&self.emb[op * d..][..d]);
        }
        self.affine[0].apply_rows(p.num_nodes(), &[emb, p.features.data()], out);
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

/// What the test-only per-node reference forwards (`gnn.rs`, `lstm.rs`)
/// and the proptest below walk with.
#[cfg(test)]
impl Affine {
    /// The scalar oracle [`Affine::apply_rows`] is tested against: one row,
    /// `out = b + [inputs…]·w`, bias first, then ascending row of `w`.
    pub(crate) fn apply(&self, inputs: &[&[f32]], out: &mut [f32]) {
        assert_eq!(inputs.iter().map(|s| s.len()).sum::<usize>(), self.rows());
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

#[cfg(test)]
impl Layers {
    /// The per-node encoder the test-only reference forwards walk with:
    /// [`Layers::encode_rows`] for node `i` alone, through the oracle.
    pub(crate) fn encode(&self, p: &Prepared, i: usize, out: &mut [f32]) {
        let d = self.embed_dim();
        let emb = &self.emb[p.opcode_ids[i] * d..][..d];
        self.affine[0].apply(&[emb, p.features.row(i)], out);
        relu(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    const WIDTHS: [usize; 7] = [1, 5, 16, 48, 64, 192, 256];

    /// `len` values, `zero_pct` % of them a zero of either sign, the rest
    /// normal or subnormal, of either sign.
    fn values(rng: &mut TestRng, len: usize, zero_pct: u64) -> Vec<f32> {
        (0..len)
            .map(|_| {
                let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
                if rng.below(100) < zero_pct {
                    0.0 * sign
                } else if rng.below(8) == 0 {
                    f32::from_bits(1 + rng.below(1 << 22) as u32) * sign
                } else {
                    (rng.unit_f64() as f32 * 4.0 - 2.0) * sign
                }
            })
            .collect()
    }

    proptest! {
        // 10 row counts × 7 widths: ~15 cases a pair.
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Every row of `apply_rows` against the scalar oracle, `==` per
        /// element. `==` and not `to_bits`: a `k` whose inputs are zero in
        /// the whole block is skipped, and the `±0` term the oracle adds
        /// there can flip the sign of a zero accumulator — the one
        /// difference the kernel is allowed (`-0.0 == 0.0`); any other is
        /// a different f32 and fails.
        #[test]
        fn apply_rows_matches_the_scalar_oracle_row_by_row(
            n in 0usize..=9,
            width in 0usize..WIDTHS.len(),
            ks in (1usize..40, 0usize..40),
            zero_pct in 0u64..=95,
            seed in any::<u64>(),
        ) {
            let width = WIDTHS[width];
            // A second segment of zero columns is the one-segment case.
            let ks = [ks.0, ks.1];
            let rng = &mut TestRng::new(seed);
            let layer = Affine {
                w: values(rng, (ks[0] + ks[1]) * width, 10),
                b: values(rng, width, 10),
            };
            let segments = ks.map(|k| values(rng, n * k, zero_pct));
            let input: Vec<&[f32]> = segments.iter().map(Vec::as_slice).collect();

            let mut got = vec![f32::NAN; n * width];
            layer.apply_rows(n, &input, &mut got);
            let mut want = vec![f32::NAN; width];
            for (i, got_row) in got.chunks_exact(width).enumerate() {
                let row: Vec<&[f32]> = (0..2).map(|s| &segments[s][i * ks[s]..][..ks[s]]).collect();
                layer.apply(&row, &mut want);
                prop_assert!(got_row == &want[..], "row {} of {}, width {}", i, n, width);
            }
        }
    }

    /// `apply_rows`' row blocks with the portable tiles alone.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    fn portable_rows(layer: &Affine, n: usize, input: &[&[f32]], out: &mut [f32]) {
        let mut i = 0;
        while i < n {
            let r = (n - i).min(BLOCK_ROWS);
            match r {
                4 => layer.portable_tiles::<4>(n, input, out, i, 0),
                3 => layer.portable_tiles::<3>(n, input, out, i, 0),
                2 => layer.portable_tiles::<2>(n, input, out, i, 0),
                _ => layer.portable_tiles::<1>(n, input, out, i, 0),
            }
            i += r;
        }
    }

    /// The zmm rung against the portable tiles on the same data and the
    /// same row blocks, `to_bits` per element: the two make the same f32
    /// operations in the same order and skip the same `k`s, so not even
    /// the sign of a zero may differ.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    #[test]
    fn zmm_tiles_equal_the_portable_tiles_bit_for_bit() {
        let rng = &mut TestRng::new(29);
        for width in [64, 128, 192, 256] {
            for n in 1..=9 {
                for zero_pct in [0, 30, 80] {
                    let ks = [1 + rng.below(40) as usize, 1 + rng.below(40) as usize];
                    let layer = Affine {
                        w: values(rng, (ks[0] + ks[1]) * width, 10),
                        b: values(rng, width, 10),
                    };
                    let segments = ks.map(|k| values(rng, n * k, zero_pct));
                    let input: Vec<&[f32]> = segments.iter().map(Vec::as_slice).collect();
                    let mut zmm = vec![f32::NAN; n * width];
                    layer.apply_rows(n, &input, &mut zmm);
                    let mut portable = vec![f32::NAN; n * width];
                    portable_rows(&layer, n, &input, &mut portable);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&zmm),
                        bits(&portable),
                        "n {n}, width {width}, ks {ks:?}"
                    );
                }
            }
        }
    }
}
