//! Element types for tensors.

use std::fmt;

/// Element type of a tensor.
///
/// The TPU v2 natively computes in bfloat16/float32; integer and predicate
/// types appear in data-formatting and control operations.
///
/// # Example
///
/// ```
/// use tpu_hlo::DType;
/// assert_eq!(DType::F32.size_bytes(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DType {
    /// 32-bit IEEE float.
    #[default]
    F32,
    /// 16-bit brain float.
    BF16,
    /// 32-bit signed integer.
    S32,
    /// 8-bit unsigned integer.
    U8,
    /// Boolean predicate (stored as one byte).
    Pred,
}

impl DType {
    /// Size of one element in bytes.
    pub fn size_bytes(self) -> usize {
        match self {
            DType::F32 | DType::S32 => 4,
            DType::BF16 => 2,
            DType::U8 | DType::Pred => 1,
        }
    }

    /// All element types, in a stable order (used to index feature one-hots).
    pub fn all() -> &'static [DType] {
        &[DType::F32, DType::BF16, DType::S32, DType::U8, DType::Pred]
    }

    /// Stable index of this type within [`DType::all`].
    pub fn index(self) -> usize {
        match self {
            DType::F32 => 0,
            DType::BF16 => 1,
            DType::S32 => 2,
            DType::U8 => 3,
            DType::Pred => 4,
        }
    }

    /// Parse from the textual form produced by [`fmt::Display`].
    pub fn parse(s: &str) -> Option<DType> {
        match s {
            "f32" => Some(DType::F32),
            "bf16" => Some(DType::BF16),
            "s32" => Some(DType::S32),
            "u8" => Some(DType::U8),
            "pred" => Some(DType::Pred),
            _ => None,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::F32 => "f32",
            DType::BF16 => "bf16",
            DType::S32 => "s32",
            DType::U8 => "u8",
            DType::Pred => "pred",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::BF16.size_bytes(), 2);
        assert_eq!(DType::S32.size_bytes(), 4);
        assert_eq!(DType::U8.size_bytes(), 1);
        assert_eq!(DType::Pred.size_bytes(), 1);
    }

    #[test]
    fn display_parse_roundtrip() {
        for &dt in DType::all() {
            assert_eq!(DType::parse(&dt.to_string()), Some(dt));
        }
        assert_eq!(DType::parse("f64"), None);
    }

    #[test]
    fn indices_are_stable_and_unique() {
        let all = DType::all();
        for (i, &dt) in all.iter().enumerate() {
            assert_eq!(dt.index(), i);
        }
    }
}
