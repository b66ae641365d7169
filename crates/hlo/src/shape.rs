//! Tensor shapes and physical layouts.

use crate::dtype::DType;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Maximum tensor rank supported by the IR.
pub const MAX_RANK: usize = 5;

/// At most [`MAX_RANK`] indices, stored inline: a shape's dimension sizes,
/// a layout's permutation, or the index list of a reduce, transpose or
/// broadcast ([`OpAttrs`](crate::OpAttrs)). It reads as the slice of its
/// first `len` entries everywhere — it derefs to it, and equality, `Hash`
/// and `Debug` see what a `Vec<usize>` of them would show — so none of
/// these costs an allocation. The entries past `len` stay zero.
#[derive(Clone, Copy, Default)]
pub struct Dims {
    len: u8,
    buf: [usize; MAX_RANK],
}

impl Dims {
    /// `dims`, which the caller has checked is at most [`MAX_RANK`] long.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is longer than [`MAX_RANK`].
    pub(crate) fn from_slice(dims: &[usize]) -> Dims {
        assert!(
            dims.len() <= MAX_RANK,
            "{} indices exceed MAX_RANK",
            dims.len()
        );
        let mut out = Dims::default();
        out.buf[..dims.len()].copy_from_slice(dims);
        out.len = dims.len() as u8;
        out
    }

    fn as_mut_slice(&mut self) -> &mut [usize] {
        &mut self.buf[..usize::from(self.len)]
    }
}

impl std::ops::Deref for Dims {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.buf[..usize::from(self.len)]
    }
}

impl TryFrom<&[usize]> for Dims {
    type Error = String;

    /// `dims`, or an error if it is longer than [`MAX_RANK`].
    fn try_from(dims: &[usize]) -> Result<Dims, String> {
        if dims.len() > MAX_RANK {
            return Err(format!("{} indices exceed MAX_RANK", dims.len()));
        }
        Ok(Dims::from_slice(dims))
    }
}

impl PartialEq for Dims {
    fn eq(&self, other: &Dims) -> bool {
        **self == **other
    }
}

impl Eq for Dims {}

impl Hash for Dims {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Dims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

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
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Dims,
}

impl Shape {
    /// Create a shape from dimension sizes that come from outside the
    /// program (the text format).
    ///
    /// # Errors
    ///
    /// The rank exceeds [`MAX_RANK`], a dimension is zero, or the element
    /// count does not fit `u64`.
    pub(crate) fn try_new(dims: &[usize]) -> Result<Shape, String> {
        if dims.len() > MAX_RANK {
            return Err(format!("rank {} exceeds MAX_RANK", dims.len()));
        }
        let mut count = Some(1u64);
        for &d in dims {
            if d == 0 {
                return Err(format!("zero-sized dimension in {dims:?}"));
            }
            count = count.and_then(|n| n.checked_mul(d as u64));
        }
        if count.is_none() {
            return Err(format!("element count of {dims:?} overflows u64"));
        }
        Ok(Shape {
            dims: Dims::from_slice(dims),
        })
    }

    /// Create a shape from dimension sizes.
    ///
    /// # Panics
    ///
    /// Panics if the rank exceeds [`MAX_RANK`], a dimension is zero, or the
    /// element count does not fit `u64`.
    pub fn new(dims: Vec<usize>) -> Shape {
        Shape::try_new(&dims).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A rank-0 (scalar) shape.
    pub fn scalar() -> Shape {
        Shape {
            dims: Dims::default(),
        }
    }

    /// A rank-1 shape.
    pub fn vector(n: usize) -> Shape {
        Shape::from([n])
    }

    /// A rank-2 shape.
    pub fn matrix(rows: usize, cols: usize) -> Shape {
        Shape::from([rows, cols])
    }

    /// Dimension sizes, major to minor logical order.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        usize::from(self.dims.len)
    }

    /// Whether this is a rank-0 shape.
    pub fn is_scalar(&self) -> bool {
        self.rank() == 0
    }

    /// Total number of elements.
    pub fn elem_count(&self) -> u64 {
        self.dims().iter().map(|&d| d as u64).product()
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
        self.dims()[dim]
    }

    /// Returns a new shape with `dim` replaced by `size`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range or `size` is zero.
    pub fn with_dim(&self, dim: usize, size: usize) -> Shape {
        assert!(size > 0);
        let mut dims = self.dims;
        dims.as_mut_slice()[dim] = size;
        Shape { dims }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
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
        Shape::try_new(dims).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Shape {
        Shape::from(&dims[..])
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
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Layout {
    minor_to_major: Dims,
}

impl Layout {
    /// Create a layout from a minor-to-major order that comes from
    /// outside the program (the text format).
    ///
    /// # Errors
    ///
    /// `minor_to_major` is longer than [`MAX_RANK`] or is not a
    /// permutation of `0..len`.
    pub(crate) fn try_new(minor_to_major: &[usize]) -> Result<Layout, String> {
        if minor_to_major.len() > MAX_RANK {
            return Err(format!(
                "layout rank {} exceeds MAX_RANK",
                minor_to_major.len()
            ));
        }
        let mut seen = [false; MAX_RANK];
        for &d in minor_to_major {
            if d >= minor_to_major.len() {
                return Err(format!("layout index {d} out of range"));
            }
            if std::mem::replace(&mut seen[d], true) {
                return Err(format!("duplicate layout index {d}"));
            }
        }
        Ok(Layout {
            minor_to_major: Dims::from_slice(minor_to_major),
        })
    }

    /// Create a layout from a minor-to-major permutation.
    ///
    /// # Panics
    ///
    /// Panics if `minor_to_major` is longer than [`MAX_RANK`] or is not a
    /// permutation of `0..len`.
    pub fn new(minor_to_major: Vec<usize>) -> Layout {
        Layout::try_new(&minor_to_major).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The row-major default for a given rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` exceeds [`MAX_RANK`].
    pub fn default_for_rank(rank: usize) -> Layout {
        assert!(rank <= MAX_RANK, "layout rank {rank} exceeds MAX_RANK");
        let mut minor_to_major = Dims {
            len: rank as u8,
            ..Dims::default()
        };
        for (i, d) in minor_to_major.as_mut_slice().iter_mut().enumerate() {
            *d = rank - 1 - i;
        }
        Layout { minor_to_major }
    }

    /// The permutation, minor-most dimension index first.
    pub fn minor_to_major(&self) -> &[usize] {
        &self.minor_to_major
    }

    /// Rank this layout applies to.
    pub fn rank(&self) -> usize {
        usize::from(self.minor_to_major.len)
    }

    /// Whether this is the row-major default layout.
    pub fn is_default(&self) -> bool {
        self.minor_to_major()
            .iter()
            .rev()
            .enumerate()
            .all(|(i, &d)| i == d)
    }

    /// Strides (in elements) per logical dimension for `shape` under this
    /// layout, zero past the rank. `strides[d]` is the element distance
    /// between consecutive indices along logical dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `shape.rank() != self.rank()`.
    pub fn strides(&self, shape: &Shape) -> [u64; MAX_RANK] {
        assert_eq!(shape.rank(), self.rank());
        let mut strides = [0u64; MAX_RANK];
        let mut acc = 1u64;
        for &d in self.minor_to_major() {
            strides[d] = acc;
            acc *= shape.dim(d) as u64;
        }
        strides
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, d) in self.minor_to_major().iter().enumerate() {
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
        assert!(Shape::try_new(&[4, 0]).unwrap_err().contains("zero-sized"));
        assert!(Shape::try_new(&[1; MAX_RANK + 1])
            .unwrap_err()
            .contains("MAX_RANK"));
        assert!(Shape::try_new(&[1 << 32, 1 << 32])
            .unwrap_err()
            .contains("overflows"));
        assert_eq!(Shape::try_new(&[1 << 32, 1 << 31]).unwrap().rank(), 2);
        assert!(Layout::try_new(&[0, 0]).unwrap_err().contains("duplicate"));
        assert!(Layout::try_new(&[5, 7])
            .unwrap_err()
            .contains("out of range"));
        assert!(Layout::try_new(&[0, 1, 2, 3, 4, 5])
            .unwrap_err()
            .contains("MAX_RANK"));
        assert_eq!(Layout::try_new(&[0, 1]).unwrap(), Layout::new(vec![0, 1]));
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
        assert_eq!(l.strides(&s), [12, 4, 1, 0, 0]);
    }

    #[test]
    fn strides_column_major() {
        let s = Shape::new(vec![2, 3]);
        let l = Layout::new(vec![0, 1]);
        assert_eq!(l.strides(&s), [1, 2, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "duplicate layout index")]
    fn layout_duplicate_rejected() {
        Layout::new(vec![0, 0]);
    }

    #[test]
    fn inline_dims_read_as_the_vectors_they_replace() {
        use std::collections::hash_map::DefaultHasher;
        fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        }
        let (s, l) = (Shape::new(vec![2, 3, 4]), Layout::new(vec![0, 2, 1]));
        assert_eq!(format!("{s:?}"), "Shape { dims: [2, 3, 4] }");
        assert_eq!(format!("{l:?}"), "Layout { minor_to_major: [0, 2, 1] }");
        assert_eq!(hash_of(&s), hash_of(&vec![2usize, 3, 4]));
        assert_eq!(hash_of(&l), hash_of(&vec![0usize, 2, 1]));
        assert_eq!(hash_of(&Shape::scalar()), hash_of(&Vec::<usize>::new()));
        // Equal shapes are equal whatever they were made from.
        assert_eq!(Shape::new(vec![4, 8]).with_dim(1, 2), Shape::matrix(4, 2));
    }

    #[test]
    fn an_index_list_holds_at_most_max_rank_entries() {
        let five = Dims::try_from(&[1, 2, 3, 4, 5][..]).unwrap();
        assert_eq!(*five, [1, 2, 3, 4, 5]);
        let err = Dims::try_from(&[1; MAX_RANK + 1][..]).unwrap_err();
        assert_eq!(err, "6 indices exceed MAX_RANK");
        assert_eq!(five, Dims::from_slice(&[1, 2, 3, 4, 5]));
    }

    #[test]
    fn shape_display() {
        assert_eq!(Shape::new(vec![2, 3]).to_string(), "[2,3]");
        assert_eq!(Shape::scalar().to_string(), "[]");
        assert_eq!(Layout::default_for_rank(2).to_string(), "{1,0}");
    }
}
