//! Per-node attributes: dot dimension numbers, convolution windows, slices,
//! pads, and other operation configuration.

use serde::{Deserialize, Serialize};
use serde_json::{Error, Kind, Scanner};

// The text format's `attrs=` reader: the structs below read straight off a
// [`Scanner`], with no `Value` tree in between. In the `NodeAttrs` object
// an absent key is its default (the writer leaves out every key whose
// value is). Beyond that every reader accepts and refuses exactly what the
// derived `Deserialize` of its type does — every field of a nested struct
// required, the first of a repeated key wins, unknown keys skipped, `1.0`
// an integer — and the derive, with absent `NodeAttrs` keys filled in,
// stays as the oracle the tests compare it with.

type Read<T> = Result<T, Error>;

fn read_usize(sc: &mut Scanner<'_>) -> Read<usize> {
    let n = sc.number()?.as_int();
    let n = n.ok_or_else(|| Error::expected("integer", "usize"))?;
    usize::try_from(n).map_err(|_| Error::expected("in-range integer", "usize"))
}

fn read_vec<T>(sc: &mut Scanner<'_>, read: fn(&mut Scanner<'_>) -> Read<T>) -> Read<Vec<T>> {
    sc.enter_array()?;
    let mut items = Vec::new();
    while sc.next_element()? {
        items.push(read(sc)?);
    }
    Ok(items)
}

fn read_usizes(sc: &mut Scanner<'_>) -> Read<Vec<usize>> {
    read_vec(sc, read_usize)
}

fn read_tuple<const N: usize>(sc: &mut Scanner<'_>) -> Read<[usize; N]> {
    sc.enter_array()?;
    let mut items = [0; N];
    let mut len = 0;
    while sc.next_element()? {
        if len == N {
            return Err(Error::expected("tuple of matching arity", "tuple"));
        }
        items[len] = read_usize(sc)?;
        len += 1;
    }
    if len != N {
        return Err(Error::expected("tuple of matching arity", "tuple"));
    }
    Ok(items)
}

fn read_pair(sc: &mut Scanner<'_>) -> Read<(usize, usize)> {
    read_tuple(sc).map(|[a, b]| (a, b))
}

fn read_opt<T>(sc: &mut Scanner<'_>, read: fn(&mut Scanner<'_>) -> Read<T>) -> Read<Option<T>> {
    if sc.peek()? == Kind::Null {
        sc.null()?;
        Ok(None)
    } else {
        read(sc).map(Some)
    }
}

/// `scan` for the struct `$ty`, from one list of its fields: it reads the
/// object at the scanner — the first of a repeated key wins, unknown keys
/// are skipped, a field whose key is absent gets `$absent(type, field)`.
macro_rules! scan_object {
    ($ty:ident, absent: $absent:ident, $($field:ident: $read:expr,)+) => {
        impl $ty {
            fn scan(sc: &mut Scanner<'_>) -> Read<$ty> {
                $(let mut $field = None;)+
                sc.enter_object()?;
                while let Some(key) = sc.next_key()? {
                    $(if $field.is_none() && key == stringify!($field) {
                        $field = Some($read(sc)?);
                        continue;
                    })+
                    sc.skip_value()?;
                }
                Ok($ty {
                    $($field: match $field {
                        Some(value) => value,
                        None => $absent(stringify!($ty), stringify!($field))?,
                    },)+
                })
            }
        }
    };
}

/// The `$absent` of a struct whose every field is required.
fn required<T>(ty: &str, field: &str) -> Read<T> {
    Err(Error::missing(field, ty))
}

/// The `$absent` of `NodeAttrs`: the key's default.
fn absent_is_default<T: Default>(_ty: &str, _field: &str) -> Read<T> {
    Ok(T::default())
}

/// Dimension numbers for a [`Dot`](crate::Opcode::Dot) operation over rank-2
/// (optionally batched rank-3) operands.
///
/// The canonical matmul `lhs [M,K] · rhs [K,N] -> [M,N]` has
/// `lhs_contracting = 1`, `rhs_contracting = 0` and no batch dimensions.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DotDims {
    /// Contracting dimension index on the left operand.
    pub lhs_contracting: usize,
    /// Contracting dimension index on the right operand.
    pub rhs_contracting: usize,
    /// Batch dimension indices on the left operand.
    pub lhs_batch: Vec<usize>,
    /// Batch dimension indices on the right operand (pairwise with
    /// `lhs_batch`).
    pub rhs_batch: Vec<usize>,
}

scan_object!(DotDims, absent: required,
    lhs_contracting: read_usize,
    rhs_contracting: read_usize,
    lhs_batch: read_usizes,
    rhs_batch: read_usizes,
);

impl DotDims {
    /// The canonical `[M,K] · [K,N]` matmul dimension numbers.
    pub fn matmul() -> DotDims {
        DotDims {
            lhs_contracting: 1,
            rhs_contracting: 0,
            lhs_batch: Vec::new(),
            rhs_batch: Vec::new(),
        }
    }

    /// Batched matmul `[B,M,K] · [B,K,N]`.
    pub fn batch_matmul() -> DotDims {
        DotDims {
            lhs_contracting: 2,
            rhs_contracting: 1,
            lhs_batch: vec![0],
            rhs_batch: vec![0],
        }
    }
}

/// Convolution window configuration for NHWC inputs and HWIO filters.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvAttrs {
    /// Filter spatial height.
    pub filter_h: usize,
    /// Filter spatial width.
    pub filter_w: usize,
    /// Stride along height.
    pub stride_h: usize,
    /// Stride along width.
    pub stride_w: usize,
    /// Padding (low, high) along height.
    pub pad_h: (usize, usize),
    /// Padding (low, high) along width.
    pub pad_w: (usize, usize),
    /// Feature-group count (depthwise when equal to input channels).
    pub feature_groups: usize,
}

scan_object!(ConvAttrs, absent: required,
    filter_h: read_usize,
    filter_w: read_usize,
    stride_h: read_usize,
    stride_w: read_usize,
    pad_h: read_pair,
    pad_w: read_pair,
    feature_groups: read_usize,
);

impl ConvAttrs {
    /// A `k`×`k` stride-1 SAME-padded convolution.
    pub fn same(k: usize) -> ConvAttrs {
        let lo = (k - 1) / 2;
        let hi = k - 1 - lo;
        ConvAttrs {
            filter_h: k,
            filter_w: k,
            stride_h: 1,
            stride_w: 1,
            pad_h: (lo, hi),
            pad_w: (lo, hi),
            feature_groups: 1,
        }
    }

    /// A `k`×`k` stride-`s` SAME-padded convolution.
    pub fn same_strided(k: usize, s: usize) -> ConvAttrs {
        let mut c = ConvAttrs::same(k);
        c.stride_h = s;
        c.stride_w = s;
        c
    }

    /// A `k`×`k` VALID (no padding) stride-1 convolution.
    pub fn valid(k: usize) -> ConvAttrs {
        ConvAttrs {
            filter_h: k,
            filter_w: k,
            stride_h: 1,
            stride_w: 1,
            pad_h: (0, 0),
            pad_w: (0, 0),
            feature_groups: 1,
        }
    }

    /// Output spatial size along one axis given input size `in_size`,
    /// filter `k`, stride `s`, and padding `(lo, hi)`.
    fn out_size(in_size: usize, k: usize, s: usize, pad: (usize, usize)) -> usize {
        let padded = in_size + pad.0 + pad.1;
        assert!(padded >= k, "filter larger than padded input");
        (padded - k) / s + 1
    }

    /// Output spatial height for an input of height `h`.
    pub(crate) fn out_h(&self, h: usize) -> usize {
        Self::out_size(h, self.filter_h, self.stride_h, self.pad_h)
    }

    /// Output spatial width for an input of width `w`.
    pub(crate) fn out_w(&self, w: usize) -> usize {
        Self::out_size(w, self.filter_w, self.stride_w, self.pad_w)
    }
}

/// Static slice bounds: `start`/`limit`/`stride` per logical dimension.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SliceAttrs {
    /// Inclusive start index per dimension.
    pub starts: Vec<usize>,
    /// Exclusive limit index per dimension.
    pub limits: Vec<usize>,
    /// Step per dimension.
    pub strides: Vec<usize>,
}

scan_object!(SliceAttrs, absent: required,
    starts: read_usizes,
    limits: read_usizes,
    strides: read_usizes,
);

impl SliceAttrs {
    /// Output dimension sizes implied by the bounds.
    pub(crate) fn out_dims(&self) -> Vec<usize> {
        self.starts
            .iter()
            .zip(&self.limits)
            .zip(&self.strides)
            .map(|((&s, &l), &st)| (l - s).div_ceil(st))
            .collect()
    }
}

/// Padding configuration: `(low, high, interior)` per logical dimension.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PadConfig {
    /// Per-dimension `(edge_low, edge_high, interior)` padding amounts.
    pub dims: Vec<(usize, usize, usize)>,
}

scan_object!(PadConfig, absent: required,
    dims: (|sc| read_vec(sc, |sc| read_tuple(sc).map(|[lo, hi, int]| (lo, hi, int)))),
);

impl PadConfig {
    /// Output dimension sizes after applying this padding to `in_dims`.
    pub(crate) fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        assert_eq!(self.dims.len(), in_dims.len());
        self.dims
            .iter()
            .zip(in_dims)
            .map(|(&(lo, hi, int), &d)| lo + hi + d + int * d.saturating_sub(1))
            .collect()
    }
}

/// Comparison direction for [`Compare`](crate::Opcode::Compare).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Comparison {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl Comparison {
    fn scan(sc: &mut Scanner<'_>) -> Read<Comparison> {
        let name = sc.string()?;
        [
            ("Eq", Comparison::Eq),
            ("Ne", Comparison::Ne),
            ("Lt", Comparison::Lt),
            ("Le", Comparison::Le),
            ("Gt", Comparison::Gt),
            ("Ge", Comparison::Ge),
        ]
        .into_iter()
        .find_map(|(text, variant)| (name == text).then_some(variant))
        .ok_or_else(|| Error::expected("known variant", "Comparison"))
    }
}

/// The full attribute bag of a node. Most fields are `None`/empty for most
/// opcodes; the graph validator checks that required attributes are present.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct NodeAttrs {
    /// Dot dimension numbers ([`Dot`](crate::Opcode::Dot)).
    pub dot: Option<DotDims>,
    /// Convolution window ([`Convolution`](crate::Opcode::Convolution)).
    pub conv: Option<ConvAttrs>,
    /// Dimensions reduced over ([`Reduce`](crate::Opcode::Reduce)).
    pub reduce_dims: Vec<usize>,
    /// Permutation ([`Transpose`](crate::Opcode::Transpose)).
    pub transpose_perm: Vec<usize>,
    /// Mapping of operand dims into output dims
    /// ([`Broadcast`](crate::Opcode::Broadcast)).
    pub broadcast_dims: Vec<usize>,
    /// Static slice bounds ([`Slice`](crate::Opcode::Slice)).
    pub slice: Option<SliceAttrs>,
    /// Padding config ([`Pad`](crate::Opcode::Pad)).
    pub pad: Option<PadConfig>,
    /// Concatenation dimension ([`Concatenate`](crate::Opcode::Concatenate)).
    pub concat_dim: Option<usize>,
    /// Comparison direction ([`Compare`](crate::Opcode::Compare)).
    pub comparison: Option<Comparison>,
    /// Window size for [`ReduceWindow`](crate::Opcode::ReduceWindow)
    /// (height, width, stride_h, stride_w), applied over NHWC inputs.
    pub window: Option<(usize, usize, usize, usize)>,
    /// Marks kernel output nodes (§4.1: "outputs are expressed via an extra
    /// feature associated with the output nodes").
    pub is_output: bool,
}

scan_object!(NodeAttrs, absent: absent_is_default,
    dot: (|sc| read_opt(sc, DotDims::scan)),
    conv: (|sc| read_opt(sc, ConvAttrs::scan)),
    reduce_dims: read_usizes,
    transpose_perm: read_usizes,
    broadcast_dims: read_usizes,
    slice: (|sc| read_opt(sc, SliceAttrs::scan)),
    pad: (|sc| read_opt(sc, PadConfig::scan)),
    concat_dim: (|sc| read_opt(sc, read_usize)),
    comparison: (|sc| read_opt(sc, Comparison::scan)),
    window: (|sc| read_opt(sc, |sc| read_tuple(sc).map(|[h, w, sh, sw]| (h, w, sh, sw)))),
    is_output: Scanner::bool,
);

impl NodeAttrs {
    /// An empty attribute bag.
    pub fn none() -> NodeAttrs {
        NodeAttrs::default()
    }

    /// Read the JSON object the text format writes after `attrs=`; an
    /// absent key is its default.
    pub(crate) fn from_json(text: &str) -> Read<NodeAttrs> {
        let sc = &mut Scanner::new(text);
        let attrs = NodeAttrs::scan(sc)?;
        sc.finish()?;
        Ok(attrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_same_preserves_size() {
        let c = ConvAttrs::same(3);
        assert_eq!(c.out_h(32), 32);
        assert_eq!(c.out_w(17), 17);
        let c5 = ConvAttrs::same(5);
        assert_eq!(c5.out_h(32), 32);
    }

    #[test]
    fn conv_valid_shrinks() {
        let c = ConvAttrs::valid(3);
        assert_eq!(c.out_h(32), 30);
    }

    #[test]
    fn conv_stride_downsamples() {
        let c = ConvAttrs::same_strided(3, 2);
        assert_eq!(c.out_h(32), 16);
        assert_eq!(c.out_h(33), 17);
    }

    #[test]
    fn slice_out_dims() {
        let s = SliceAttrs {
            starts: vec![0, 2],
            limits: vec![4, 10],
            strides: vec![1, 2],
        };
        assert_eq!(s.out_dims(), vec![4, 4]);
    }

    #[test]
    fn pad_out_dims() {
        let p = PadConfig {
            dims: vec![(1, 1, 0), (0, 2, 1)],
        };
        assert_eq!(p.out_dims(&[4, 3]), vec![6, 7]);
    }

    #[test]
    fn dot_dims_matmul() {
        let d = DotDims::matmul();
        assert_eq!(d.lhs_contracting, 1);
        assert_eq!(d.rhs_contracting, 0);
        assert!(d.lhs_batch.is_empty());
        let b = DotDims::batch_matmul();
        assert_eq!(b.lhs_batch, vec![0]);
    }
}
