//! Per-node attributes: the one attribute shape of each opcode family
//! ([`OpAttrs`]) — dot dimension numbers, convolution windows, slices,
//! pads and the rest.

use crate::opcode::Opcode;
use crate::shape::{Dims, MAX_RANK};
use serde::{Deserialize, Serialize};
use serde_json::{Error, Kind, Scanner};

// The text format's `attrs=` reader: the structs below read straight off a
// [`Scanner`], with no `Value` tree in between, and accept and refuse what
// their derived `Deserialize` does — every field required, the first of a
// repeated key wins, unknown keys skipped, `1.0` an integer. The
// eleven-field struct whose derive read the object before each opcode held
// its own attributes stays in the tests as the oracle of
// [`OpAttrs::from_json`].

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

/// An index list, stored inline: more than [`MAX_RANK`] entries are
/// refused before they are stored.
fn read_dims(sc: &mut Scanner<'_>) -> Read<Dims> {
    sc.enter_array()?;
    let (mut buf, mut len) = ([0; MAX_RANK], 0);
    while sc.next_element()? {
        if len == MAX_RANK {
            return Err(Error(format!("index list longer than {MAX_RANK}")));
        }
        buf[len] = read_usize(sc)?;
        len += 1;
    }
    Ok(Dims::from_slice(&buf[..len]))
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
/// are skipped, every field is required.
macro_rules! scan_object {
    ($ty:ident, $($field:ident: $read:expr,)+) => {
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
                    $($field: $field.ok_or_else(|| {
                        Error::missing(stringify!($field), stringify!($ty))
                    })?,)+
                })
            }
        }
    };
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

scan_object!(DotDims,
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

scan_object!(ConvAttrs,
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

scan_object!(SliceAttrs,
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

scan_object!(PadConfig,
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

/// The attributes of a node, in the one shape its opcode reads (§4.1: "the
/// attributes of the operation"). An opcode that reads none holds
/// [`OpAttrs::None`]; the graph validator holds every node to its opcode's
/// variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpAttrs {
    /// No attributes: every opcode not named below.
    None,
    /// Dot dimension numbers ([`Dot`](crate::Opcode::Dot)).
    Dot(DotDims),
    /// Convolution window ([`Convolution`](crate::Opcode::Convolution)).
    Conv(ConvAttrs),
    /// Dimensions reduced over ([`Reduce`](crate::Opcode::Reduce)).
    Reduce(Dims),
    /// Permutation ([`Transpose`](crate::Opcode::Transpose)).
    Transpose(Dims),
    /// The output dimension of each operand dimension
    /// ([`Broadcast`](crate::Opcode::Broadcast)).
    Broadcast(Dims),
    /// Static slice bounds ([`Slice`](crate::Opcode::Slice)).
    Slice(SliceAttrs),
    /// Padding config ([`Pad`](crate::Opcode::Pad)).
    Pad(PadConfig),
    /// Concatenation dimension ([`Concatenate`](crate::Opcode::Concatenate)).
    Concat(usize),
    /// Comparison direction ([`Compare`](crate::Opcode::Compare)).
    Compare(Comparison),
    /// Height, width and the strides along them of a
    /// [`ReduceWindow`](crate::Opcode::ReduceWindow) over NHWC input.
    Window(usize, usize, usize, usize),
}

/// The keys of the text format's `attrs=` object, in the order the full
/// form writes them: each opcode family's attributes, then the output mark.
#[rustfmt::skip]
const KEYS: [&str; 11] = [
    "dot", "conv", "reduce_dims", "transpose_perm", "broadcast_dims", "slice", "pad",
    "concat_dim", "comparison", "window", "is_output",
];

/// The `attrs=` key of the attributes `opcode` reads, if it reads any.
pub(crate) fn attr_key(opcode: Opcode) -> Option<&'static str> {
    Some(match opcode {
        Opcode::Dot => "dot",
        Opcode::Convolution => "conv",
        Opcode::Reduce => "reduce_dims",
        Opcode::Transpose => "transpose_perm",
        Opcode::Broadcast => "broadcast_dims",
        Opcode::Slice => "slice",
        Opcode::Pad => "pad",
        Opcode::Concatenate => "concat_dim",
        Opcode::Compare => "comparison",
        Opcode::ReduceWindow => "window",
        _ => return None,
    })
}

impl OpAttrs {
    /// The `attrs=` key these attributes are written under.
    pub(crate) fn key(&self) -> Option<&'static str> {
        Some(match self {
            OpAttrs::None => return None,
            OpAttrs::Dot(_) => "dot",
            OpAttrs::Conv(_) => "conv",
            OpAttrs::Reduce(_) => "reduce_dims",
            OpAttrs::Transpose(_) => "transpose_perm",
            OpAttrs::Broadcast(_) => "broadcast_dims",
            OpAttrs::Slice(_) => "slice",
            OpAttrs::Pad(_) => "pad",
            OpAttrs::Concat(_) => "concat_dim",
            OpAttrs::Compare(_) => "comparison",
            OpAttrs::Window(..) => "window",
        })
    }

    /// What a node of `opcode` holds when its `attrs=` leaves its key out:
    /// an empty index list for a reduce, transpose or broadcast, and
    /// otherwise nothing.
    pub(crate) fn absent(opcode: Opcode) -> OpAttrs {
        match opcode {
            Opcode::Reduce => OpAttrs::Reduce(Dims::default()),
            Opcode::Transpose => OpAttrs::Transpose(Dims::default()),
            Opcode::Broadcast => OpAttrs::Broadcast(Dims::default()),
            _ => OpAttrs::None,
        }
    }

    /// Read the JSON object the text format writes after `attrs=` on a
    /// node of `opcode`: its attributes and whether it is an output. An
    /// absent key is its default. The full form older clients send spells
    /// out all eleven keys, so a key of another opcode is taken at its
    /// default and refused with anything more.
    pub(crate) fn from_json(text: &str, opcode: Opcode) -> Read<(OpAttrs, bool)> {
        let sc = &mut Scanner::new(text);
        let (own, mut attrs, mut is_output) = (attr_key(opcode), OpAttrs::absent(opcode), false);
        let (mut seen, mut foreign) = ([false; KEYS.len()], None);
        sc.enter_object()?;
        while let Some(key) = sc.next_key()? {
            match KEYS.iter().position(|&k| key == k) {
                Some(i) if !std::mem::replace(&mut seen[i], true) => match KEYS[i] {
                    "is_output" => is_output = sc.bool()?,
                    key => match read_value(sc, key)? {
                        Some(value) if own == Some(key) => attrs = value,
                        Some(_) => foreign = foreign.or(Some(key)),
                        None => {}
                    },
                },
                // A repeated key after its first, or an unknown one.
                _ => sc.skip_value()?,
            }
        }
        sc.finish()?;
        match foreign {
            Some(key) => Err(Error(format!("`{key}` is not an attribute of `{opcode}`"))),
            None => Ok((attrs, is_output)),
        }
    }

    /// These attributes, with `is_output`, as eleven fields, every one but
    /// the node's own at its default: what the canonical key bytes are
    /// written from, in the order and form that keeps every recorded key.
    pub(crate) fn fields(&self, is_output: bool) -> Fields<'_> {
        let mut f = Fields {
            is_output,
            ..Fields::default()
        };
        match self {
            OpAttrs::None => {}
            OpAttrs::Dot(d) => f.dot = Some(d),
            OpAttrs::Conv(c) => f.conv = Some(c),
            OpAttrs::Reduce(d) => f.reduce_dims = d,
            OpAttrs::Transpose(d) => f.transpose_perm = d,
            OpAttrs::Broadcast(d) => f.broadcast_dims = d,
            OpAttrs::Slice(s) => f.slice = Some(s),
            OpAttrs::Pad(p) => f.pad = Some(p),
            &OpAttrs::Concat(d) => f.concat_dim = Some(d),
            &OpAttrs::Compare(c) => f.comparison = Some(c),
            &OpAttrs::Window(h, w, sh, sw) => f.window = Some((h, w, sh, sw)),
        }
        f
    }
}

/// The value of the attribute key `key`, as the attributes it holds;
/// `None` at its default (`null`, an empty index list).
fn read_value(sc: &mut Scanner<'_>, key: &str) -> Read<Option<OpAttrs>> {
    let list = |sc: &mut Scanner<'_>, variant: fn(Dims) -> OpAttrs| {
        read_dims(sc).map(|d| (!d.is_empty()).then(|| variant(d)))
    };
    Ok(match key {
        "dot" => read_opt(sc, DotDims::scan)?.map(OpAttrs::Dot),
        "conv" => read_opt(sc, ConvAttrs::scan)?.map(OpAttrs::Conv),
        "reduce_dims" => list(sc, OpAttrs::Reduce)?,
        "transpose_perm" => list(sc, OpAttrs::Transpose)?,
        "broadcast_dims" => list(sc, OpAttrs::Broadcast)?,
        "slice" => read_opt(sc, SliceAttrs::scan)?.map(OpAttrs::Slice),
        "pad" => read_opt(sc, PadConfig::scan)?.map(OpAttrs::Pad),
        "concat_dim" => read_opt(sc, read_usize)?.map(OpAttrs::Concat),
        "comparison" => read_opt(sc, Comparison::scan)?.map(OpAttrs::Compare),
        _ => read_opt(sc, read_tuple)?.map(|[h, w, sh, sw]| OpAttrs::Window(h, w, sh, sw)),
    })
}

/// [`OpAttrs::fields`]: every field but the node's own holds its default.
#[derive(Default)]
pub(crate) struct Fields<'a> {
    pub(crate) dot: Option<&'a DotDims>,
    pub(crate) conv: Option<&'a ConvAttrs>,
    pub(crate) reduce_dims: &'a [usize],
    pub(crate) transpose_perm: &'a [usize],
    pub(crate) broadcast_dims: &'a [usize],
    pub(crate) slice: Option<&'a SliceAttrs>,
    pub(crate) pad: Option<&'a PadConfig>,
    pub(crate) concat_dim: Option<usize>,
    pub(crate) comparison: Option<Comparison>,
    pub(crate) window: Option<(usize, usize, usize, usize)>,
    pub(crate) is_output: bool,
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
