//! A minimal dense 2-D float tensor with a blocked matmul core.
//!
//! All three matrix-product kernels ([`Tensor::matmul`],
//! [`Tensor::matmul_at`], [`Tensor::matmul_bt`]) accumulate each output
//! element strictly in ascending-`k` order, exactly like the naive
//! three-loop reference. Register blocking only reorders *which* elements
//! are worked on, never the summation order within one element — so
//! results are bit-identical to the reference for every shape.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Rows handled together by the matmul micro-kernel: four output rows
/// share one streaming pass over a `B` panel, quadrupling arithmetic per
/// loaded element versus the one-row loop.
const MR: usize = 4;

/// Columns handled together by the micro-kernel. An `MR×NR` tile of
/// partial sums lives in registers for the whole `k` loop, so output
/// elements are loaded and stored once instead of once per `k` step.
const NR: usize = 16;

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
    pub fn xavier<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Tensor {
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
    pub fn into_data(self) -> Vec<f32> {
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
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.rows,
            "matmul {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.rows, other.cols), "matmul out shape");
        out.fill_zero();
        let (m, k, n) = (self.rows, self.cols, other.cols);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        mm_rows(&self.data, k, &other.data, n, &mut out.data);
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
    pub fn matmul_at_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_at {}x{} ᵀ· {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.cols, other.cols), "matmul_at out shape");
        out.fill_zero();
        let (m, k, n) = (self.cols, self.rows, other.cols);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        mm_at_rows(&self.data, m, k, &other.data, n, &mut out.data);
    }

    /// Fused transposed product `self · otherᵀ` (`self [m×k]`, `other
    /// [n×k]` → `[m×n]`). Internally transposes `other` once (an O(n·k)
    /// copy of the small operand) and runs the blocked kernel.
    ///
    /// Bit-identical to `self.matmul(&other.transpose())`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts (the shared `k` dimension) disagree.
    pub fn matmul_bt(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.rows);
        self.matmul_bt_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul_bt`] into a caller-provided output (overwritten).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or wrong `out` shape.
    pub fn matmul_bt_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_bt {}x{} ·ᵀ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.rows, other.rows), "matmul_bt out shape");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        if m == 0 || n == 0 {
            return;
        }
        if k == 0 {
            out.fill_zero();
            return;
        }
        // Contracting along rows of both operands means every output
        // element is a dot product — which the strict ascending-`k` order
        // forces to stay scalar. Transposing `other` first costs only
        // O(n·k) against O(m·n·k) compute and unlocks the vectorized
        // blocked kernel, which beats scalar dot chains at every shape we
        // care about. `other` is the small operand here (the tape uses
        // `bt` for `∂loss/∂A = g · Bᵀ` where `B` is a weight matrix).
        let bt = other.transpose();
        out.fill_zero();
        mm_rows(&self.data, k, &bt.data, n, &mut out.data);
    }

    /// The naive serial three-loop matmul (`i-k-j` order), kept as the
    /// bit-exact reference oracle for the optimized kernels.
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
        reference_mm(
            &self.data,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
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
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }
}

/// The naive serial i-k-j matmul over flat buffers: `out += a · b` with
/// `a [m×k]`, `b [k×n]`, `out [m×n]` (caller zeroes `out`). No zero-skip:
/// `0 * NaN` must stay `NaN`.
fn reference_mm(a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    let m = out.len() / n;
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        for kk in 0..k {
            let av = a[i * k + kk];
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Blocked kernel for `out[i][j] += Σ_kk a[i][kk] * b[kk][j]`: `a` is
/// `[m×k]`, `b` `[k×n]`, `out` `[m×n]`.
///
/// The output is tiled into `MR×NR` register blocks; each block runs the
/// whole `k` loop with its partial sums in registers ([`mm_micro`]), so
/// each output element still accumulates in ascending-`kk` order while the
/// inner loop is a dense grid of independent multiply-then-add pairs,
/// never contracted into FMAs (`.cargo/config.toml`: the bit contract
/// depends on it).
fn mm_rows(a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    let mut i = 0;
    while i + MR <= rows {
        mm_row_block::<MR>(a, k, b, n, out, i);
        i += MR;
    }
    while i < rows {
        mm_row_block::<1>(a, k, b, n, out, i);
        i += 1;
    }
}

/// Sweep one block of `R` output rows across all column tiles.
fn mm_row_block<const R: usize>(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    i: usize,
) {
    let mut jb = 0;
    while jb + NR <= n {
        mm_micro::<R, NR>(a, k, b, n, out, i, jb);
        jb += NR;
    }
    while jb + 4 <= n {
        mm_micro::<R, 4>(a, k, b, n, out, i, jb);
        jb += 4;
    }
    while jb < n {
        mm_micro::<R, 1>(a, k, b, n, out, i, jb);
        jb += 1;
    }
}

/// `R×C` register-tile micro-kernel: `out[i..i+R][jb..jb+C] += a[i..i+R][:] · b[:][jb..jb+C]`.
///
/// Partial sums stay in `acc` for the whole `k` loop and are added to
/// `out` once at the end. `acc` starts at `+0.0` and `out` is zeroed by
/// the caller, so the final `+=` is a bitwise no-op relative to the
/// reference's running in-place sum.
#[inline(always)]
fn mm_micro<const R: usize, const C: usize>(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    i: usize,
    jb: usize,
) {
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
    let mut acc = [[0.0f32; C]; R];
    for kk in 0..k {
        let b_tile = &b[kk * n + jb..kk * n + jb + C];
        for r in 0..R {
            let av = a_rows[r][kk];
            for t in 0..C {
                acc[r][t] += av * b_tile[t];
            }
        }
    }
    for r in 0..R {
        let o = &mut out[(i + r) * n + jb..(i + r) * n + jb + C];
        for t in 0..C {
            o[t] += acc[r][t];
        }
    }
}

/// [`mm_rows`] for the fused `aᵀ · b` product: `a` is `[k×m]` and the
/// `A`-side loads walk down a column (`a[kk * m + row]`) instead of along
/// a row — no transposed copy is ever built.
fn mm_at_rows(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    let mut i = 0;
    while i + MR <= rows {
        mm_at_row_block::<MR>(a, m, k, b, n, out, i);
        i += MR;
    }
    while i < rows {
        mm_at_row_block::<1>(a, m, k, b, n, out, i);
        i += 1;
    }
}

/// Sweep one block of `R` output rows of `aᵀ · b` across all column tiles.
fn mm_at_row_block<const R: usize>(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    i: usize,
) {
    let mut jb = 0;
    while jb + NR <= n {
        mm_at_micro::<R, NR>(a, m, k, b, n, out, i, jb);
        jb += NR;
    }
    while jb + 4 <= n {
        mm_at_micro::<R, 4>(a, m, k, b, n, out, i, jb);
        jb += 4;
    }
    while jb < n {
        mm_at_micro::<R, 1>(a, m, k, b, n, out, i, jb);
        jb += 1;
    }
}

/// [`mm_micro`] for `aᵀ · b`: the `R` `A`-values per `k` step are the
/// contiguous run `a[kk*m + i .. kk*m + i + R]` (one `B`-style row
/// slice), so the transpose costs nothing.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn mm_at_micro<const R: usize, const C: usize>(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    i: usize,
    jb: usize,
) {
    let mut acc = [[0.0f32; C]; R];
    for kk in 0..k {
        let a_tile = &a[kk * m + i..kk * m + i + R];
        let b_tile = &b[kk * n + jb..kk * n + jb + C];
        for r in 0..R {
            let av = a_tile[r];
            for t in 0..C {
                acc[r][t] += av * b_tile[t];
            }
        }
    }
    for r in 0..R {
        let o = &mut out[(i + r) * n + jb..(i + r) * n + jb + C];
        for t in 0..C {
            o[t] += acc[r][t];
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for r in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(8);
            for c in 0..show_cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self.get(r, c))?;
            }
            if self.cols > show_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
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
    fn fused_transposed_variants_match_materialized_transpose() {
        let a = random_tensor(37, 19, 3);
        let b = random_tensor(37, 11, 4);
        assert_eq!(a.matmul_at(&b), a.transpose().matmul_reference(&b));
        let c = random_tensor(23, 19, 5);
        assert_eq!(a.matmul_bt(&c), a.matmul_reference(&c.transpose()));
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
    fn display_does_not_explode_on_big_tensors() {
        let t = Tensor::zeros(100, 100);
        let s = t.to_string();
        assert!(s.contains("Tensor 100x100"));
        assert!(s.len() < 2000);
    }
}
