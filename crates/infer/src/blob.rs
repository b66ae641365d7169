//! The `tpu-frozen.v1` weight blob: a fixed-layout little-endian binary
//! format readable with plain byte reads — no serde, no nn crate, no
//! self-describing schema.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic            8 bytes   b"TPUFRZN\0"
//! version          u32       1
//! kind             u32       1 = GNN, 2 = LSTM
//! header           kind-specific fixed u32 fields (see gnn.rs / lstm.rs)
//! log_ns_offset    f32
//! n_scales         u32       activation scales, fixed documented order
//! scales           f32 × n_scales
//! n_tensors        u32
//! tensor record    × n_tensors, in a fixed per-kind order:
//!   dtype          u32       0 = i16 (quantized), 1 = f32 (bias)
//!   rows, cols     u32 × 2
//!   scale          f32       dequantization scale (1.0 for f32 records)
//!   payload        rows·cols × 2 bytes (i16) or × 4 bytes (f32)
//! ```
//!
//! Records carry no names: the per-kind tensor order is part of the
//! format, which is what makes the loader a straight sequence of byte
//! reads. Any structural disagreement is a typed [`FrozenError`], never
//! a panic.

use crate::quant::QTensor;

/// Leading magic of every `tpu-frozen` blob.
pub const MAGIC: &[u8; 8] = b"TPUFRZN\0";

/// Format version this crate reads and writes.
pub const VERSION: u32 = 1;

/// `kind` tag of a frozen GNN.
pub const KIND_GNN: u32 = 1;

/// `kind` tag of a frozen LSTM.
pub const KIND_LSTM: u32 = 2;

const DTYPE_I16: u32 = 0;
const DTYPE_F32: u32 = 1;

/// Why a freeze or a blob load failed — typed (and `std::error::Error`)
/// so serving-side callers can match on the failure mode.
#[derive(Debug, Clone, PartialEq)]
pub enum FrozenError {
    /// The blob ends before a read completes.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes left in the blob.
        have: usize,
    },
    /// The first eight bytes are not the `tpu-frozen` magic.
    BadMagic,
    /// The blob's format version is not one this crate reads.
    UnsupportedVersion(u32),
    /// The `kind` tag names no known model family.
    BadKind(u32),
    /// The blob parses but its contents are structurally inconsistent
    /// (dimension mismatch, wrong record dtype, trailing bytes, or a
    /// feature layout different from the one this build was compiled
    /// with).
    Corrupt(String),
    /// Freeze-time: the model uses an architecture variant the frozen
    /// path does not implement (currently `GcnMean`).
    UnsupportedArch(String),
    /// Freeze-time: a parameter expected from the training store is
    /// missing — the store does not come from the model family claimed.
    MissingParam(String),
    /// Freeze-time: a layer's fan-in is too large for any int16 weight
    /// range to fit the i32 accumulator (see `quant::weight_qmax`).
    FanInTooLarge {
        /// The offending accumulation length.
        fan_in: usize,
    },
}

impl std::fmt::Display for FrozenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrozenError::Truncated { needed, have } => {
                write!(f, "truncated blob: read needs {needed} bytes, {have} left")
            }
            FrozenError::BadMagic => write!(f, "not a tpu-frozen blob (bad magic)"),
            FrozenError::UnsupportedVersion(v) => {
                write!(f, "unsupported tpu-frozen version {v} (this build reads {VERSION})")
            }
            FrozenError::BadKind(k) => write!(f, "unknown frozen model kind tag {k}"),
            FrozenError::Corrupt(msg) => write!(f, "corrupt blob: {msg}"),
            FrozenError::UnsupportedArch(arch) => {
                write!(f, "architecture {arch} has no frozen inference path")
            }
            FrozenError::MissingParam(name) => {
                write!(f, "parameter {name:?} not found in the training store")
            }
            FrozenError::FanInTooLarge { fan_in } => write!(
                f,
                "fan-in {fan_in} leaves no int16 weight range within the i32 accumulator budget"
            ),
        }
    }
}

impl std::error::Error for FrozenError {}

/// Sequential little-endian reader over a blob.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrozenError> {
        let have = self.buf.len() - self.pos;
        if n > have {
            return Err(FrozenError::Truncated { needed: n, have });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn magic(&mut self) -> Result<(), FrozenError> {
        let m = self.take(MAGIC.len())?;
        if m != MAGIC {
            return Err(FrozenError::BadMagic);
        }
        Ok(())
    }

    /// Bytes left unread. Lets loaders bound a count field against what
    /// the blob can possibly back *before* reserving memory for it.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn u32(&mut self) -> Result<u32, FrozenError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// A u32 header field used as a size; rejects values that cannot be
    /// a sane dimension instead of letting a corrupt field drive an
    /// enormous allocation.
    pub(crate) fn dim(&mut self, what: &str) -> Result<usize, FrozenError> {
        let v = self.u32()?;
        if v > 1 << 24 {
            return Err(FrozenError::Corrupt(format!("{what} = {v} is not a sane dimension")));
        }
        Ok(v as usize)
    }

    pub(crate) fn f32(&mut self) -> Result<f32, FrozenError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn f32s(&mut self, n: usize) -> Result<Vec<f32>, FrozenError> {
        let b = self.take(n * 4)?;
        Ok(b.chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn i16s(&mut self, n: usize) -> Result<Vec<i16>, FrozenError> {
        let b = self.take(n * 2)?;
        Ok(b.chunks_exact(2).map(|c| i16::from_le_bytes([c[0], c[1]])).collect())
    }

    /// A quantized (i16) tensor record, which must be `want_rows×want_cols`.
    pub(crate) fn qtensor(
        &mut self,
        what: &str,
        want_rows: usize,
        want_cols: usize,
    ) -> Result<QTensor, FrozenError> {
        let dtype = self.u32()?;
        if dtype != DTYPE_I16 {
            return Err(FrozenError::Corrupt(format!(
                "{what}: expected an i16 record, found dtype {dtype}"
            )));
        }
        let rows = self.dim("rows")?;
        let cols = self.dim("cols")?;
        if rows != want_rows || cols != want_cols {
            return Err(FrozenError::Corrupt(format!(
                "{what}: expected {want_rows}x{want_cols}, blob carries {rows}x{cols}"
            )));
        }
        let scale = self.f32()?;
        let data = self.i16s(rows * cols)?;
        Ok(QTensor { rows, cols, scale, data })
    }

    /// An f32 (bias) tensor record; returns its flat payload.
    pub(crate) fn ftensor(&mut self, what: &str, want_len: usize) -> Result<Vec<f32>, FrozenError> {
        let dtype = self.u32()?;
        if dtype != DTYPE_F32 {
            return Err(FrozenError::Corrupt(format!(
                "{what}: expected an f32 record, found dtype {dtype}"
            )));
        }
        let rows = self.dim("rows")?;
        let cols = self.dim("cols")?;
        let _scale = self.f32()?;
        if rows * cols != want_len {
            return Err(FrozenError::Corrupt(format!(
                "{what}: expected {want_len} values, record carries {rows}x{cols}"
            )));
        }
        self.f32s(want_len)
    }

    /// All bytes must have been consumed.
    pub(crate) fn finish(&self) -> Result<(), FrozenError> {
        let left = self.buf.len() - self.pos;
        if left != 0 {
            return Err(FrozenError::Corrupt(format!("{left} trailing bytes after last record")));
        }
        Ok(())
    }
}

/// Little-endian blob writer; the mirror of [`Reader`].
#[derive(Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new(kind: u32) -> Writer {
        let mut w = Writer::default();
        w.buf.extend_from_slice(MAGIC);
        w.u32(VERSION);
        w.u32(kind);
        w
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn scales(&mut self, scales: &[f32]) {
        self.u32(scales.len() as u32);
        for &s in scales {
            self.f32(s);
        }
    }

    pub(crate) fn qtensor(&mut self, t: &QTensor) {
        self.u32(DTYPE_I16);
        self.u32(t.rows as u32);
        self.u32(t.cols as u32);
        self.f32(t.scale);
        for &q in &t.data {
            self.buf.extend_from_slice(&q.to_le_bytes());
        }
    }

    pub(crate) fn ftensor(&mut self, values: &[f32]) {
        self.u32(DTYPE_F32);
        self.u32(1);
        self.u32(values.len() as u32);
        self.f32(1.0);
        for &v in values {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_reports_truncation_not_panic() {
        let mut w = Writer::new(KIND_GNN);
        w.f32(8.0);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            // Whichever read fails first must fail typed.
            let outcome = r
                .magic()
                .and_then(|_| r.u32())
                .and_then(|_| r.u32())
                .and_then(|_| r.f32());
            if cut < bytes.len() {
                assert!(outcome.is_err(), "cut at {cut} must error");
                if cut >= MAGIC.len() {
                    assert!(
                        matches!(outcome, Err(FrozenError::Truncated { .. })),
                        "cut at {cut}: {outcome:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn tensor_records_roundtrip_bytes() {
        let q = QTensor {
            rows: 2,
            cols: 3,
            scale: 0.125,
            data: vec![1, -2, 3, -32767, 32767, 0],
        };
        let mut w = Writer::new(KIND_LSTM);
        w.qtensor(&q);
        w.ftensor(&[1.5, -2.5]);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        r.magic().unwrap();
        assert_eq!(r.u32().unwrap(), VERSION);
        assert_eq!(r.u32().unwrap(), KIND_LSTM);
        let q2 = r.qtensor("q", 2, 3).unwrap();
        assert_eq!(q2, q);
        assert_eq!(r.ftensor("b", 2).unwrap(), vec![1.5, -2.5]);
        r.finish().unwrap();
    }

    #[test]
    fn insane_dimension_is_corrupt_not_alloc() {
        let mut w = Writer::new(KIND_GNN);
        w.u32(0); // dtype i16
        w.u32(u32::MAX); // rows
        w.u32(u32::MAX); // cols
        w.f32(1.0);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.magic().unwrap();
        r.u32().unwrap();
        r.u32().unwrap();
        assert!(matches!(r.qtensor("w", 1, 1), Err(FrozenError::Corrupt(_))));
    }
}
