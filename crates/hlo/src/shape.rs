//! Tensor shapes and physical layouts.

use crate::dtype::DType;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum tensor rank supported by the IR.
pub const MAX_RANK: usize = 5;

/// A tensor shape: the logical dimension sizes, major-to-minor as written
/// (dimension 0 first, like XLA's logical dimension order).
///
/// # Example
///
/// ```
/// use tpu_hlo::{DType, Shape};
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.elem_count(), 24);
/// assert_eq!(s.byte_size(DType::F32), 96);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Create a shape from dimension sizes that come from outside the
    /// program (the text format).
    ///
    /// # Errors
    ///
    /// The rank exceeds [`MAX_RANK`], a dimension is zero, or the element
    /// count does not fit `u64`.
    pub fn try_new(dims: Vec<usize>) -> Result<Shape, String> {
        if dims.len() > MAX_RANK {
            return Err(format!("rank {} exceeds MAX_RANK", dims.len()));
        }
        let mut count = Some(1u64);
        for &d in &dims {
            if d == 0 {
                return Err(format!("zero-sized dimension in {dims:?}"));
            }
            count = count.and_then(|n| n.checked_mul(d as u64));
        }
        if count.is_none() {
            return Err(format!("element count of {dims:?} overflows u64"));
        }
        Ok(Shape { dims })
    }

    /// Create a shape from dimension sizes.
    ///
    /// # Panics
    ///
    /// Panics where [`Shape::try_new`] returns an error.
    pub fn new(dims: Vec<usize>) -> Shape {
        Shape::try_new(dims).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A rank-0 (scalar) shape.
    pub fn scalar() -> Shape {
        Shape { dims: Vec::new() }
    }

    /// A rank-1 shape.
    pub fn vector(n: usize) -> Shape {
        Shape::new(vec![n])
    }

    /// A rank-2 shape.
    pub fn matrix(rows: usize, cols: usize) -> Shape {
        Shape::new(vec![rows, cols])
    }

    /// Dimension sizes, major to minor logical order.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Whether this is a rank-0 shape.
    pub fn is_scalar(&self) -> bool {
        self.dims.is_empty()
    }

    /// Total number of elements.
    pub fn elem_count(&self) -> u64 {
        self.dims.iter().map(|&d| d as u64).product()
    }

    /// Total size in bytes for the given element type.
    pub fn byte_size(&self, dtype: DType) -> u64 {
        self.elem_count() * dtype.size_bytes() as u64
    }

    /// Size of one dimension.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= rank()`.
    pub fn dim(&self, dim: usize) -> usize {
        self.dims[dim]
    }

    /// The size of the minor-most dimension under `layout`, or 1 for scalars.
    pub fn minor_dim_size(&self, layout: &Layout) -> usize {
        match layout.minor_to_major().first() {
            Some(&d) => self.dims[d],
            None => 1,
        }
    }

    /// Returns a new shape with `dim` replaced by `size`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range or `size` is zero.
    pub fn with_dim(&self, dim: usize, size: usize) -> Shape {
        assert!(size > 0);
        let mut dims = self.dims.clone();
        dims[dim] = size;
        Shape { dims }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Shape {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Shape {
        Shape::new(dims.to_vec())
    }
}

/// A physical layout: a permutation of dimension indices, minor-most first
/// (XLA's `minor_to_major`).
///
/// The default layout for rank *r* is `[r-1, r-2, .., 0]` — row-major, i.e.
/// the last logical dimension is minor-most.
///
/// # Example
///
/// ```
/// use tpu_hlo::Layout;
/// let l = Layout::default_for_rank(3);
/// assert_eq!(l.minor_to_major(), &[2, 1, 0]);
/// assert!(l.is_default());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Layout {
    minor_to_major: Vec<usize>,
}

impl Layout {
    /// Create a layout from a minor-to-major order that comes from
    /// outside the program (the text format).
    ///
    /// # Errors
    ///
    /// `minor_to_major` is longer than [`MAX_RANK`] or is not a
    /// permutation of `0..len`.
    pub fn try_new(minor_to_major: Vec<usize>) -> Result<Layout, String> {
        if minor_to_major.len() > MAX_RANK {
            return Err(format!(
                "layout rank {} exceeds MAX_RANK",
                minor_to_major.len()
            ));
        }
        let mut seen = [false; MAX_RANK];
        for &d in &minor_to_major {
            if d >= minor_to_major.len() {
                return Err(format!("layout index {d} out of range"));
            }
            if std::mem::replace(&mut seen[d], true) {
                return Err(format!("duplicate layout index {d}"));
            }
        }
        Ok(Layout { minor_to_major })
    }

    /// Create a layout from a minor-to-major permutation.
    ///
    /// # Panics
    ///
    /// Panics where [`Layout::try_new`] returns an error.
    pub fn new(minor_to_major: Vec<usize>) -> Layout {
        Layout::try_new(minor_to_major).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The row-major default for a given rank.
    pub fn default_for_rank(rank: usize) -> Layout {
        Layout {
            minor_to_major: (0..rank).rev().collect(),
        }
    }

    /// The permutation, minor-most dimension index first.
    pub fn minor_to_major(&self) -> &[usize] {
        &self.minor_to_major
    }

    /// Rank this layout applies to.
    pub fn rank(&self) -> usize {
        self.minor_to_major.len()
    }

    /// Whether this is the row-major default layout.
    pub fn is_default(&self) -> bool {
        self.minor_to_major
            .iter()
            .rev()
            .enumerate()
            .all(|(i, &d)| i == d)
    }

    /// Strides (in elements) per logical dimension for `shape` under this
    /// layout. `strides[d]` is the element distance between consecutive
    /// indices along logical dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `shape.rank() != self.rank()`.
    pub fn strides(&self, shape: &Shape) -> Vec<u64> {
        assert_eq!(shape.rank(), self.rank());
        let mut strides = vec![0u64; self.rank()];
        let mut acc = 1u64;
        for &d in &self.minor_to_major {
            strides[d] = acc;
            acc *= shape.dim(d) as u64;
        }
        strides
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, d) in self.minor_to_major.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_basics() {
        let s = Shape::new(vec![4, 8, 16]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.elem_count(), 512);
        assert_eq!(s.byte_size(DType::BF16), 1024);
        assert_eq!(s.dim(1), 8);
        assert!(!s.is_scalar());
        assert!(Shape::scalar().is_scalar());
        assert_eq!(Shape::scalar().elem_count(), 1);
    }

    #[test]
    fn with_dim_replaces() {
        let s = Shape::new(vec![4, 8]);
        assert_eq!(s.with_dim(0, 2).dims(), &[2, 8]);
        assert_eq!(s.dims(), &[4, 8], "original unchanged");
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn zero_dim_rejected() {
        Shape::new(vec![4, 0]);
    }

    #[test]
    #[should_panic(expected = "MAX_RANK")]
    fn excess_rank_rejected() {
        Shape::new(vec![1; MAX_RANK + 1]);
    }

    #[test]
    fn try_new_returns_what_new_panics_with() {
        assert!(Shape::try_new(vec![4, 0])
            .unwrap_err()
            .contains("zero-sized"));
        assert!(Shape::try_new(vec![1; MAX_RANK + 1])
            .unwrap_err()
            .contains("MAX_RANK"));
        assert!(Shape::try_new(vec![1 << 32, 1 << 32])
            .unwrap_err()
            .contains("overflows"));
        assert_eq!(Shape::try_new(vec![1 << 32, 1 << 31]).unwrap().rank(), 2);
        assert!(Layout::try_new(vec![0, 0])
            .unwrap_err()
            .contains("duplicate"));
        assert!(Layout::try_new(vec![5, 7])
            .unwrap_err()
            .contains("out of range"));
        assert!(Layout::try_new((0..=MAX_RANK).collect())
            .unwrap_err()
            .contains("MAX_RANK"));
        assert_eq!(
            Layout::try_new(vec![0, 1]).unwrap(),
            Layout::new(vec![0, 1])
        );
    }

    #[test]
    fn default_layout() {
        let l = Layout::default_for_rank(4);
        assert_eq!(l.minor_to_major(), &[3, 2, 1, 0]);
        assert!(l.is_default());
        assert!(!Layout::new(vec![0, 1]).is_default());
        assert!(Layout::default_for_rank(0).is_default());
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(vec![2, 3, 4]);
        let l = Layout::default_for_rank(3);
        assert_eq!(l.strides(&s), vec![12, 4, 1]);
    }

    #[test]
    fn strides_column_major() {
        let s = Shape::new(vec![2, 3]);
        let l = Layout::new(vec![0, 1]);
        assert_eq!(l.strides(&s), vec![1, 2]);
    }

    #[test]
    fn minor_dim_size() {
        let s = Shape::new(vec![2, 3]);
        assert_eq!(s.minor_dim_size(&Layout::default_for_rank(2)), 3);
        assert_eq!(s.minor_dim_size(&Layout::new(vec![0, 1])), 2);
        assert_eq!(
            Shape::scalar().minor_dim_size(&Layout::default_for_rank(0)),
            1
        );
    }

    #[test]
    #[should_panic(expected = "duplicate layout index")]
    fn layout_duplicate_rejected() {
        Layout::new(vec![0, 0]);
    }

    #[test]
    fn shape_display() {
        assert_eq!(Shape::new(vec![2, 3]).to_string(), "[2,3]");
        assert_eq!(Shape::scalar().to_string(), "[]");
        assert_eq!(Layout::default_for_rank(2).to_string(), "{1,0}");
    }
}
