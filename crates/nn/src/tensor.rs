//! A minimal dense 2-D float tensor with a blocked matmul core.
//!
//! Both matrix products, [`Tensor::matmul`] (`A·B`) and
//! [`Tensor::matmul_at`] (`Aᵀ·B`), accumulate each output element strictly
//! in ascending-`k` order, exactly like the naive three-loop reference.
//! Register blocking only reorders *which* elements are worked on, never
//! the summation order within one element — so results are bit-identical
//! to the reference for every shape.
//!
//! Both run one tile ladder, whose const parameter `AT` says only how `A`
//! is loaded: along a row of `a`, or down a column of `aᵀ`'s storage.
//! Widest first: on a build with AVX-512F enabled, full 64-column tiles
//! run an explicit `R×64` zmm micro-kernel (`zmm::tile`); every other
//! column (and every column on other builds) runs the portable
//! const-generic `R×C` tile at `C ∈ {16, 4, 1}`, which LLVM vectorizes at
//! its preferred width. Both multiply, then add — never a fused
//! multiply-add, whose single rounding would change the bits.
//!
//! `NoTape` (`record.rs`) runs the same kernel through [`matmul_slices`],
//! so every served prediction, frozen ones included, is the tape's, bit
//! for bit.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Rows handled together by the matmul micro-kernel: four output rows
/// share one streaming pass over a `B` panel, quadrupling arithmetic per
/// loaded element versus the one-row loop.
const MR: usize = 4;

/// Columns handled together by the portable micro-kernel. An `MR×NR` tile
/// of partial sums lives in registers for the whole `k` loop, so output
/// elements are loaded and stored once instead of once per `k` step.
const NR: usize = 16;

/// Side of the square blocks [`Tensor::transpose_into`] copies through, so
/// the strided writes of one block stay within a few cache lines.
const TRANSPOSE_BLOCK: usize = 16;

/// A row-major 2-D tensor of `f32`. Scalars are `1×1`, vectors are `1×d`
/// or `n×1`.
///
/// # Example
///
/// ```
/// use tpu_nn::Tensor;
/// let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(t.get(1, 0), 3.0);
/// assert_eq!(t.matmul(&t).get(0, 0), 7.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A tensor of ones.
    pub fn ones(rows: usize, cols: usize) -> Tensor {
        Tensor {
            rows,
            cols,
            data: vec![1.0; rows * cols],
        }
    }

    /// A tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Tensor {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// A `1×1` scalar.
    pub fn scalar(value: f32) -> Tensor {
        Tensor::full(1, 1, value)
    }

    /// Build from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Tensor { rows, cols, data }
    }

    /// Build from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths or there are no rows.
    pub fn from_rows(rows: &[&[f32]]) -> Tensor {
        assert!(!rows.is_empty(), "no rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Tensor {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Xavier/Glorot-uniform initialization for a `rows×cols` weight.
    pub(crate) fn xavier<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Tensor {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        Tensor { rows, cols, data }
    }

    /// Uniform random in `[-scale, scale)`.
    pub fn uniform<R: Rng + ?Sized>(rows: usize, cols: usize, scale: f32, rng: &mut R) -> Tensor {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        Tensor { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning its flat row-major buffer.
    pub(crate) fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// A view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single value of a `1×1` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not `1×1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() needs a 1x1 tensor");
        self.data[0]
    }

    /// Matrix product `self · other`.
    ///
    /// Runs the blocked micro-kernel. Bit-identical to
    /// [`Tensor::matmul_reference`] for every shape.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul`] writing into a caller-provided output tensor
    /// (overwritten, not accumulated). Lets callers reuse buffers.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree or `out` has the wrong shape.
    pub(crate) fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.rows,
            "matmul {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.rows, other.cols), "matmul out shape");
        matmul_slices::<false>(
            &self.data,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
    }

    /// Fused transposed product `selfᵀ · other` (`self [k×m]`, `other
    /// [k×n]` → `[m×n]`), without materializing the transpose.
    ///
    /// Bit-identical to `self.transpose().matmul(other)`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts (the shared `k` dimension) disagree.
    pub fn matmul_at(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.cols, other.cols);
        self.matmul_at_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul_at`] into a caller-provided output (overwritten).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or wrong `out` shape.
    pub(crate) fn matmul_at_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_at {}x{} ᵀ· {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.cols, other.cols), "matmul_at out shape");
        let (k, n) = (self.rows, other.cols);
        if k == 0 {
            out.fill_zero();
        } else if n > 0 {
            mm_rows::<true, false>(&self.data, k, &other.data, n, &mut out.data);
        }
    }

    /// The naive serial three-loop matmul (`i-k-j` order), kept as the
    /// bit-exact reference oracle for the optimized kernels. No zero skip:
    /// `0 * NaN` must stay `NaN`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul_reference(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Tensor::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for kk in 0..self.cols {
                let av = self.data[i * self.cols + kk];
                for (o, &bv) in out.row_mut(i).iter_mut().zip(other.row(kk)) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Write `selfᵀ` into `out` (overwritten), copying block by block.
    ///
    /// # Panics
    ///
    /// Panics unless `out` is `cols×rows`.
    pub(crate) fn transpose_into(&self, out: &mut Tensor) {
        assert_eq!(out.shape(), (self.cols, self.rows), "transpose out shape");
        let (rows, cols) = (self.rows, self.cols);
        for rb in (0..rows).step_by(TRANSPOSE_BLOCK) {
            let r_end = (rb + TRANSPOSE_BLOCK).min(rows);
            for cb in (0..cols).step_by(TRANSPOSE_BLOCK) {
                let c_end = (cb + TRANSPOSE_BLOCK).min(cols);
                for r in rb..r_end {
                    let src = &self.data[r * cols + cb..r * cols + c_end];
                    for (c, &v) in (cb..c_end).zip(src) {
                        out.data[c * rows + r] = v;
                    }
                }
            }
        }
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise combination with another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (`0.0` for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Fill with zeros in place.
    pub(crate) fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }
}

/// `out = a · b` over flat row-major buffers — `a` is `[m×k]`, `b`
/// `[k×n]`, `out` `[m×n]` and overwritten — through the blocked kernel
/// [`Tensor::matmul`] runs: every element is the f32 the tape computes.
///
/// With `SKIP_ZEROS`, a `kk` at which `a` is `±0` in every row of a
/// register block is skipped (in tiles wider than one column). That is
/// exact, but only for a finite `b` (a debug build asserts it): the
/// skipped terms are then `±0`, and a partial sum that starts at `+0.0`
/// is never `-0.0`, so adding a zero leaves it as it was. A `NaN` or
/// `±inf` in `b` would turn the skipped `0 · b` into `NaN`, so the tape,
/// whose weights may be anything, passes `false`; the frozen forward,
/// whose weights are checked finite at freeze and at load, passes
/// `true`.
///
/// # Panics
///
/// Panics unless `a` is `m×k` and `b` is `k×n` for the `m` that `out`
/// implies.
pub(crate) fn matmul_slices<const SKIP_ZEROS: bool>(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    if n == 0 {
        assert!(out.is_empty(), "matmul out shape");
        return;
    }
    let m = out.len() / n;
    assert_eq!(m * n, out.len(), "matmul out shape");
    assert_eq!(a.len(), m * k, "matmul lhs shape");
    assert_eq!(b.len(), k * n, "matmul rhs shape");
    debug_assert!(
        !SKIP_ZEROS || b.iter().all(|v| v.is_finite()),
        "the zero skip needs a finite rhs"
    );
    if k == 0 {
        out.fill(0.0);
    } else if m > 0 {
        mm_rows::<false, SKIP_ZEROS>(a, k, b, n, out);
    }
}

/// Blocked kernel for `out[i][j] = Σ_kk A(i, kk) * b[kk][j]`: `b` is
/// `[k×n]`, `out` `[m×n]`, `k ≥ 1`, and `A` is `a [m×k]` — or, with
/// `AT`, the transpose of `a [k×m]`, read down its columns so that no
/// transposed copy is ever built.
///
/// The output is tiled into register blocks of `MR` rows — then one of
/// 3, 2 or 1 for the rows left over — by `NR` columns; each block runs
/// the whole `k` loop with its partial sums in registers ([`mm_micro`]),
/// so each output element still accumulates in ascending-`kk` order while
/// the inner loop is a dense grid of independent multiply-then-add pairs,
/// never contracted into FMAs (`.cargo/config.toml`: the bit contract
/// depends on it).
fn mm_rows<const AT: bool, const SKIP_ZEROS: bool>(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    let m = out.len() / n;
    let mut i = 0;
    while i + MR <= m {
        mm_row_block::<MR, AT, SKIP_ZEROS>(a, m, k, b, n, out, i);
        i += MR;
    }
    match m - i {
        3 => mm_row_block::<3, AT, SKIP_ZEROS>(a, m, k, b, n, out, i),
        2 => mm_row_block::<2, AT, SKIP_ZEROS>(a, m, k, b, n, out, i),
        1 => mm_row_block::<1, AT, SKIP_ZEROS>(a, m, k, b, n, out, i),
        _ => {}
    }
}

/// Sweep one block of `R` output rows across all column tiles.
fn mm_row_block<const R: usize, const AT: bool, const SKIP_ZEROS: bool>(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    i: usize,
) {
    let mut jb = 0;
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    while jb + zmm::NC <= n {
        let (rs, ks) = if AT { (1, m) } else { (k, 1) };
        // SAFETY: this build enables AVX-512F (the `cfg` above), so every
        // CPU it runs on has it.
        unsafe { zmm::tile::<R, SKIP_ZEROS>(a, rs, ks, k, b, n, out, i, jb) };
        jb += zmm::NC;
    }
    while jb + NR <= n {
        mm_micro::<R, NR, AT, SKIP_ZEROS>(a, m, k, b, n, out, i, jb);
        jb += NR;
    }
    while jb + 4 <= n {
        mm_micro::<R, 4, AT, SKIP_ZEROS>(a, m, k, b, n, out, i, jb);
        jb += 4;
    }
    while jb < n {
        mm_micro::<R, 1, AT, SKIP_ZEROS>(a, m, k, b, n, out, i, jb);
        jb += 1;
    }
}

/// Whether every value is `±0`: one branch on the OR of the bits with the
/// sign bit shifted out — a compare per row costs more than the skip
/// saves.
#[inline(always)]
fn all_zero<const R: usize>(values: &[f32; R]) -> bool {
    values.iter().fold(0, |bits, x| bits | x.to_bits()) << 1 == 0
}

/// `R×C` register-tile micro-kernel: `out[i..i+R][jb..jb+C] = A[i..i+R][:] · b[:][jb..jb+C]`,
/// skipping the `kk`s [`all_zero`] finds when `SKIP_ZEROS` is on
/// ([`matmul_slices`] has the contract). `A`'s `R` values at one `kk` are
/// one per row of `a` or, with `AT`, the contiguous run
/// `a[kk·m + i..][..R]`.
///
/// Partial sums stay in `acc` for the whole `k` loop and are stored to
/// `out` once at the end. `acc` starts at `+0.0` and takes the
/// reference's additions in the reference's order, so it is the
/// reference's running sum from a zeroed output, bit for bit — nothing
/// reads `out` first.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn mm_micro<const R: usize, const C: usize, const AT: bool, const SKIP_ZEROS: bool>(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    i: usize,
    jb: usize,
) {
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| {
        if AT {
            &[]
        } else {
            &a[(i + r) * k..(i + r + 1) * k]
        }
    });
    let mut acc = [[0.0f32; C]; R];
    for kk in 0..k {
        let av: [f32; R] = if AT {
            let run = &a[kk * m + i..kk * m + i + R];
            std::array::from_fn(|r| run[r])
        } else {
            std::array::from_fn(|r| a_rows[r][kk])
        };
        // A one-column tile saves one multiply-add a skip, less than the
        // test costs.
        if SKIP_ZEROS && C > 1 && all_zero(&av) {
            continue;
        }
        let b_tile = &b[kk * n + jb..kk * n + jb + C];
        for r in 0..R {
            for t in 0..C {
                acc[r][t] += av[r] * b_tile[t];
            }
        }
    }
    for r in 0..R {
        out[(i + r) * n + jb..(i + r) * n + jb + C].copy_from_slice(&acc[r]);
    }
}

/// The AVX-512F rung of the tile ladder: `R×64` tiles held in `4·R` zmm
/// accumulators.
///
/// LLVM's cost model keeps the portable tile at 256 bits on these cores,
/// where two vector ports of 8 lanes, issuing a multiply and a separate
/// add per lane-step (no FMA), cap it at 8 flops a cycle a port. Explicit
/// 512-bit multiplies and adds double the lanes per instruction; the
/// operation sequence per output element is unchanged.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod zmm {
    use std::arch::x86_64::{
        __m512, _mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };

    /// Lanes in one zmm register.
    const LANES: usize = 16;

    /// Registers per tile row.
    const REGS: usize = 4;

    /// Columns in one tile.
    pub(super) const NC: usize = LANES * REGS;

    /// `out[i+r][jb..jb+64] = Σ_kk A(i+r, kk) · b[kk][jb..jb+64]` for
    /// `r < R`, where `A(row, kk) = a[row·rs + kk·ks]` — `rs = k, ks = 1`
    /// reads `A` row-major, `rs = 1, ks = m` reads the columns of a `[k×m]`
    /// matrix (the fused `aᵀ·b`).
    ///
    /// Each accumulator lane starts at `+0.0` and adds the rounded
    /// product `A · b` in ascending `kk`: the reference's operations in the
    /// reference's order, sixteen elements at a time — with the portable
    /// tile's zero skip when `SKIP_ZEROS` is on.
    ///
    /// # Panics
    ///
    /// Panics unless `R ≥ 1`, `k ≥ 1`, the tile lies inside `n` columns
    /// and every index the loops form lies inside `a`, `b` and `out`.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn tile<const R: usize, const SKIP_ZEROS: bool>(
        a: &[f32],
        rs: usize,
        ks: usize,
        k: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
        i: usize,
        jb: usize,
    ) {
        assert!(R >= 1 && k >= 1 && jb + NC <= n, "zmm tile shape");
        assert!(
            (i + R - 1) * rs + (k - 1) * ks < a.len(),
            "zmm tile reads past A"
        );
        assert!(k * n <= b.len(), "zmm tile reads past B");
        assert!((i + R) * n <= out.len(), "zmm tile writes past out");
        let mut acc = [[_mm512_setzero_ps(); REGS]; R];
        for kk in 0..k {
            // SAFETY: r < R and kk < k, so the index is at most
            // (i + R - 1)·rs + (k - 1)·ks < a.len() (asserted above).
            let a_k: [f32; R] =
                std::array::from_fn(|r| unsafe { *a.get_unchecked((i + r) * rs + kk * ks) });
            if SKIP_ZEROS && super::all_zero(&a_k) {
                continue;
            }
            // SAFETY: kk < k and jb + 64 <= n, so the last lane read is
            // kk·n + jb + 63 < k·n <= b.len() (asserted above).
            let bv: [__m512; REGS] = unsafe {
                let p = b.as_ptr().add(kk * n + jb);
                [
                    _mm512_loadu_ps(p),
                    _mm512_loadu_ps(p.add(LANES)),
                    _mm512_loadu_ps(p.add(2 * LANES)),
                    _mm512_loadu_ps(p.add(3 * LANES)),
                ]
            };
            for (acc_r, &a_rk) in acc.iter_mut().zip(&a_k) {
                let av = _mm512_set1_ps(a_rk);
                for (acc_rt, &bt) in acc_r.iter_mut().zip(&bv) {
                    *acc_rt = _mm512_add_ps(*acc_rt, _mm512_mul_ps(av, bt));
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            // SAFETY: r < R and jb + 64 <= n, so the last lane touched is
            // (i + r)·n + jb + 63 < (i + R)·n <= out.len() (asserted above).
            unsafe {
                let p = out.as_mut_ptr().add((i + r) * n + jb);
                for (t, &acc_rt) in acc_r.iter().enumerate() {
                    _mm512_storeu_ps(p.add(t * LANES), acc_rt);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(1, 2), 6.0);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
        let mut t = t;
        t.set(0, 0, 9.0);
        assert_eq!(t.get(0, 0), 9.0);
    }

    #[test]
    fn matmul_correct() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.sq_norm(), 30.0);
    }

    #[test]
    fn xavier_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let t = Tensor::xavier(64, 64, &mut rng);
        let limit = (6.0 / 128.0_f32).sqrt();
        assert!(t.data().iter().all(|&x| x.abs() <= limit));
        assert!(t.data().iter().any(|&x| x != 0.0));
    }

    #[test]
    fn axpy_and_zip() {
        let mut a = Tensor::ones(2, 2);
        let b = Tensor::full(2, 2, 3.0);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[7.0; 4]);
        let z = a.zip(&b, |x, y| x - y);
        assert_eq!(z.data(), &[4.0; 4]);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        Tensor::zeros(2, 3).matmul(&Tensor::zeros(2, 3));
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(4.5).item(), 4.5);
    }

    #[test]
    fn matmul_propagates_nan_through_zero() {
        // 0 * NaN must be NaN — the old zero-skip branch broke this.
        let a = Tensor::from_rows(&[&[0.0, 1.0]]);
        let b = Tensor::from_rows(&[&[f32::NAN], &[2.0]]);
        assert!(a.matmul(&b).item().is_nan());
        let inf = Tensor::from_rows(&[&[f32::INFINITY], &[2.0]]);
        assert!(a.matmul(&inf).item().is_nan()); // 0 * inf = NaN
    }

    fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Tensor::uniform(rows, cols, 2.0, &mut rng)
    }

    #[test]
    fn blocked_matmul_matches_reference_bitwise() {
        for (m, k, n) in [
            (1, 1, 1),
            (5, 7, 3),
            (17, 300, 9),
            (64, 64, 64),
            (130, 33, 7),
        ] {
            let a = random_tensor(m, k, 1);
            let b = random_tensor(k, n, 2);
            assert_eq!(a.matmul(&b), a.matmul_reference(&b), "{m}x{k}·{k}x{n}");
        }
    }

    #[test]
    fn fused_transposed_product_matches_materialized_transpose() {
        let a = random_tensor(37, 19, 3);
        let b = random_tensor(37, 11, 4);
        assert_eq!(a.matmul_at(&b), a.transpose().matmul_reference(&b));
    }

    #[test]
    fn matmul_handles_degenerate_shapes() {
        let a = Tensor::zeros(0, 5);
        let b = Tensor::zeros(5, 3);
        assert_eq!(a.matmul(&b).shape(), (0, 3));
        let a = Tensor::zeros(3, 0);
        let b = Tensor::zeros(0, 2);
        assert_eq!(a.matmul(&b), Tensor::zeros(3, 2));
        let a = random_tensor(1, 9, 6);
        let b = random_tensor(9, 1, 7);
        assert_eq!(a.matmul(&b), a.matmul_reference(&b));
    }

    #[test]
    fn matmul_into_reuses_buffer() {
        let a = random_tensor(6, 8, 8);
        let b = random_tensor(8, 4, 9);
        let mut out = Tensor::full(6, 4, 123.0); // stale contents must be overwritten
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul_reference(&b));
    }

    #[test]
    fn blocked_transpose_matches_elementwise() {
        // Ragged against the 16×16 copy blocks in both dimensions.
        let a = random_tensor(37, 19, 10);
        let t = a.transpose();
        assert_eq!(t.shape(), (19, 37));
        for r in 0..37 {
            for c in 0..19 {
                assert_eq!(t.get(c, r).to_bits(), a.get(r, c).to_bits());
            }
        }
    }

    /// The AVX-512 tile against the portable tile it stands in for, on
    /// the same operands (NaN, ±inf and ±0.0 included), for every row
    /// count a block can have and both layouts of `A` — row-major, and
    /// read down the columns of `aᵀ` (`matmul_at`) — each with the zero
    /// skip off and on. `a`'s columns 4 and 9 are zero in every row, so
    /// the skip has a `k` to skip in every block.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    #[test]
    fn zmm_tile_equals_portable_tile() {
        fn same(x: &[f32], y: &[f32]) -> bool {
            x.iter()
                .zip(y)
                .all(|(a, b)| (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits())
        }
        /// Rows `i..i + R` of both kernels; with `AT`, `a` is `aᵀ`, read
        /// down its columns.
        fn rows<const R: usize, const AT: bool, const SKIP: bool>(
            a: &Tensor,
            b: &Tensor,
            i: usize,
            jb: usize,
            simd: &mut [f32],
            portable: &mut [f32],
        ) {
            let (k, n) = (b.rows, b.cols);
            let (m, rs, ks) = if AT {
                (a.cols, 1, a.cols)
            } else {
                (a.rows, k, 1)
            };
            // SAFETY: the cfg on this test means AVX-512F is enabled.
            unsafe { zmm::tile::<R, SKIP>(&a.data, rs, ks, k, &b.data, n, simd, i, jb) };
            mm_micro::<R, 64, AT, SKIP>(&a.data, m, k, &b.data, n, portable, i, jb);
        }
        fn all_rows<const AT: bool, const SKIP: bool>(a: &Tensor, b: &Tensor, jb: usize) {
            let (m, n) = (if AT { a.cols } else { a.rows }, b.cols);
            let mut simd = vec![0.0; m * n];
            let mut portable = vec![0.0; m * n];
            rows::<4, AT, SKIP>(a, b, 0, jb, &mut simd, &mut portable);
            rows::<3, AT, SKIP>(a, b, 4, jb, &mut simd, &mut portable);
            rows::<2, AT, SKIP>(a, b, 7, jb, &mut simd, &mut portable);
            rows::<1, AT, SKIP>(a, b, 9, jb, &mut simd, &mut portable);
            assert!(simd.iter().any(|x| x.is_nan()));
            assert!(simd.iter().any(|x| x.is_finite() && *x != 0.0));
            assert!(
                same(&simd, &portable),
                "A transposed {AT}, skip {SKIP}, tile at column {jb}"
            );
        }
        let (m, k, n) = (10, 70, 131);
        let mut a = random_tensor(m, k, 11);
        let mut b = random_tensor(k, n, 12);
        // Sparse enough that rows 3 and 7 of `a` and most columns of `b`
        // stay finite.
        for (i, x) in a.data_mut().iter_mut().step_by(97).enumerate() {
            *x = [f32::NAN, f32::INFINITY, -0.0, f32::NEG_INFINITY][i % 4];
        }
        for (i, x) in b.data_mut().iter_mut().step_by(173).enumerate() {
            *x = [-0.0, f32::NEG_INFINITY, f32::NAN, f32::INFINITY][i % 4];
        }
        for r in 0..m {
            a.set(r, 4, if r % 2 == 0 { 0.0 } else { -0.0 });
            a.set(r, 9, 0.0);
        }
        let at = a.transpose();
        for jb in [0, 67] {
            all_rows::<false, false>(&a, &b, jb);
            all_rows::<false, true>(&a, &b, jb);
            all_rows::<true, false>(&at, &b, jb);
            all_rows::<true, true>(&at, &b, jb);
        }
    }

    /// The slice entry's own property: its kernel and zero skip against
    /// the reference.
    mod slice_props {
        use super::*;
        use proptest::prelude::*;
        use proptest::TestRng;

        /// `len` values, `zero_pct` % of them a zero of either sign, the rest
        /// normal or subnormal, of either sign.
        fn sparse_values(rng: &mut TestRng, len: usize, zero_pct: u64) -> Vec<f32> {
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

        /// Output widths the serving layers use (48, 64, 192, 256 and the
        /// one-column head) and ragged ones between the tiles.
        const WIDTHS: [usize; 7] = [1, 5, 16, 48, 64, 192, 256];

        proptest! {
            // 10 row counts × 7 widths: ~15 cases a pair.
            #![proptest_config(ProptestConfig::with_cases(1024))]

            /// The slice entry against the reference over sparse inputs, every
            /// remainder block included, `to_bits` per element with the zero skip
            /// off and on: with a finite `b` the skip drops only `±0` terms from a
            /// sum that starts at `+0.0`, which cannot change even a zero's sign.
            #[test]
            fn slice_matmul_is_the_reference_with_and_without_the_zero_skip(
                m in 0usize..=9,
                width in 0usize..WIDTHS.len(),
                k in 0usize..80,
                zero_pct in 0u64..=95,
                seed in any::<u64>(),
            ) {
                let n = WIDTHS[width];
                let rng = &mut TestRng::new(seed);
                let a = Tensor::from_vec(m, k, sparse_values(rng, m * k, zero_pct));
                let b = Tensor::from_vec(k, n, sparse_values(rng, k * n, 10));
                let want: Vec<u32> = a.matmul_reference(&b).data().iter().map(|x| x.to_bits()).collect();
                let mut out = vec![f32::NAN; m * n];
                matmul_slices::<false>(a.data(), k, b.data(), n, &mut out);
                let got: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
                prop_assert!(got == want, "skip off, {}x{}·{}x{}", m, k, k, n);
                let mut out = vec![f32::NAN; m * n];
                matmul_slices::<true>(a.data(), k, b.data(), n, &mut out);
                let got: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
                prop_assert!(got == want, "skip on, {}x{}·{}x{}", m, k, k, n);
            }
        }
    }
}
