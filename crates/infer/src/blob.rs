//! The `tpu-frozen.v2` weight blob: a fixed-layout little-endian binary
//! format readable with plain byte reads — no serde, no nn crate, no
//! self-describing schema.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic            8 bytes   b"TPUFRZN\0"
//! version          u32       2
//! kind             u32       1 = GNN, 2 = LSTM
//! header           kind-specific fixed u32 fields (see gnn.rs / lstm.rs)
//! feature_dim      u32       must equal this build's FEATURE_DIM
//! opcode_count     u32       must equal this build's opcode count
//! log_ns_offset    f32
//! n_tensors        u32
//! tensor record    × n_tensors, in a fixed per-kind order:
//!   dtype          u32       1 = f32, the only one
//!   rows, cols     u32 × 2
//!   payload        rows·cols × 4 bytes
//! ```
//!
//! Records carry no names: the per-kind tensor order is part of the
//! format, which is what makes the loader a straight sequence of byte
//! reads. Every f32 in a blob is finite — the writer's source is checked
//! at freeze time and the reader rejects anything else — so no loaded
//! model holds a NaN or an infinity. Any structural disagreement is a
//! typed [`FrozenError`], never a panic. Version 1 (int16 tensors with
//! dequantization scales) is not read: it fails as
//! [`FrozenError::UnsupportedVersion`].

/// Leading magic of every `tpu-frozen` blob.
pub const MAGIC: &[u8; 8] = b"TPUFRZN\0";

/// Format version this crate reads and writes.
pub const VERSION: u32 = 2;

/// `kind` tag of a frozen GNN.
pub const KIND_GNN: u32 = 1;

/// `kind` tag of a frozen LSTM.
pub const KIND_LSTM: u32 = 2;

const DTYPE_F32: u32 = 1;

/// Bytes a tensor record occupies before its payload.
pub(crate) const RECORD_HEADER_BYTES: usize = 12;

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
    /// The blob parses but its contents are unusable (dimension mismatch,
    /// wrong record dtype, a NaN or infinite value, trailing bytes, or a
    /// feature layout different from the one this build was compiled
    /// with).
    Corrupt(String),
    /// Freeze-time: the model uses an architecture variant the frozen
    /// path does not implement (currently `GcnMean`).
    UnsupportedArch(String),
    /// Freeze-time: a parameter expected from the training store is
    /// missing — the store does not come from the model family claimed.
    MissingParam(String),
    /// Freeze-time: the named parameter holds a NaN or an infinity (a
    /// diverged training run); freezing it would serve garbage.
    NonFinite(String),
}

impl std::fmt::Display for FrozenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrozenError::Truncated { needed, have } => {
                write!(f, "truncated blob: read needs {needed} bytes, {have} left")
            }
            FrozenError::BadMagic => write!(f, "not a tpu-frozen blob (bad magic)"),
            FrozenError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported tpu-frozen version {v} (this build reads {VERSION})"
                )
            }
            FrozenError::BadKind(k) => write!(f, "unknown frozen model kind tag {k}"),
            FrozenError::Corrupt(msg) => write!(f, "corrupt blob: {msg}"),
            FrozenError::UnsupportedArch(arch) => {
                write!(f, "architecture {arch} has no frozen inference path")
            }
            FrozenError::MissingParam(name) => {
                write!(f, "parameter {name:?} not found in the training store")
            }
            FrozenError::NonFinite(name) => {
                write!(f, "parameter {name:?} holds a NaN or infinite value")
            }
        }
    }
}

impl std::error::Error for FrozenError {}

fn le_f32(b: &[u8]) -> f32 {
    f32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// The reader's rule for every f32 it hands out: no NaN, no infinity.
fn finite(what: &str, values: &[f32]) -> Result<(), FrozenError> {
    if values.iter().all(|v| v.is_finite()) {
        return Ok(());
    }
    Err(FrozenError::Corrupt(format!(
        "{what} holds a NaN or infinite value"
    )))
}

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
        let have = self.remaining();
        if n > have {
            return Err(FrozenError::Truncated { needed: n, have });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn magic(&mut self) -> Result<(), FrozenError> {
        if self.take(MAGIC.len())? != MAGIC {
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

    /// One finite f32; `what` names it in the rejection.
    pub(crate) fn f32(&mut self, what: &str) -> Result<f32, FrozenError> {
        let v = le_f32(self.take(4)?);
        finite(what, &[v])?;
        Ok(v)
    }

    /// A u32 header field used as a size; rejects values that cannot be
    /// a sane dimension instead of letting a corrupt field drive an
    /// enormous allocation.
    pub(crate) fn dim(&mut self, what: &str) -> Result<usize, FrozenError> {
        let v = self.u32()?;
        if v > 1 << 24 {
            return Err(FrozenError::Corrupt(format!(
                "{what} = {v} is not a sane dimension"
            )));
        }
        Ok(v as usize)
    }

    /// A [`Reader::dim`] that must not be zero: a layer width, which the
    /// forward divides and chunks by.
    pub(crate) fn width(&mut self, what: &str) -> Result<usize, FrozenError> {
        match self.dim(what)? {
            0 => Err(FrozenError::Corrupt(format!("{what} = 0 is not a width"))),
            v => Ok(v),
        }
    }

    /// A tensor record, which must be `want_rows×want_cols`; returns its
    /// row-major payload. The shape is checked before the payload is
    /// read, so a record cannot size an allocation its bytes do not back.
    pub(crate) fn tensor(
        &mut self,
        what: &str,
        want_rows: usize,
        want_cols: usize,
    ) -> Result<Vec<f32>, FrozenError> {
        let dtype = self.u32()?;
        if dtype != DTYPE_F32 {
            return Err(FrozenError::Corrupt(format!(
                "{what}: expected an f32 record, found dtype {dtype}"
            )));
        }
        let rows = self.dim("rows")?;
        let cols = self.dim("cols")?;
        if rows != want_rows || cols != want_cols {
            return Err(FrozenError::Corrupt(format!(
                "{what}: expected {want_rows}x{want_cols}, blob carries {rows}x{cols}"
            )));
        }
        let payload = self.take(rows * cols * 4)?;
        let values: Vec<f32> = payload.chunks_exact(4).map(le_f32).collect();
        finite(what, &values)?;
        Ok(values)
    }

    /// All bytes must have been consumed.
    pub(crate) fn finish(&self) -> Result<(), FrozenError> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(FrozenError::Corrupt(format!(
                "{left} trailing bytes after last record"
            ))),
        }
    }
}

/// Little-endian blob writer; the mirror of [`Reader`].
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new(kind: u32) -> Writer {
        let mut w = Writer {
            buf: MAGIC.to_vec(),
        };
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

    /// A `rows×cols` tensor record over a row-major payload.
    pub(crate) fn tensor(&mut self, rows: usize, cols: usize, values: &[f32]) {
        debug_assert_eq!(values.len(), rows * cols);
        self.u32(DTYPE_F32);
        self.u32(rows as u32);
        self.u32(cols as u32);
        for &v in values {
            self.f32(v);
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
                .and_then(|_| r.f32("offset"));
            assert!(outcome.is_err(), "cut at {cut} must error");
            if cut >= MAGIC.len() {
                assert!(
                    matches!(outcome, Err(FrozenError::Truncated { .. })),
                    "cut at {cut}: {outcome:?}"
                );
            }
        }
    }

    #[test]
    fn tensor_records_roundtrip_bytes() {
        let mut w = Writer::new(KIND_LSTM);
        w.tensor(2, 3, &[1.5, -2.5, 0.0, 3.0, -0.125, 7.0]);
        w.tensor(1, 2, &[1.5, -2.5]);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        r.magic().unwrap();
        assert_eq!(r.u32().unwrap(), VERSION);
        assert_eq!(r.u32().unwrap(), KIND_LSTM);
        assert_eq!(
            r.tensor("w", 2, 3).unwrap(),
            vec![1.5, -2.5, 0.0, 3.0, -0.125, 7.0]
        );
        assert_eq!(r.tensor("b", 1, 2).unwrap(), vec![1.5, -2.5]);
        r.finish().unwrap();
    }

    #[test]
    fn insane_dimension_and_non_finite_payload_are_corrupt() {
        for (rows, cols, value) in [
            (u32::MAX, u32::MAX, 1.0),
            (1, 1, f32::NAN),
            (1, 1, f32::INFINITY),
        ] {
            let mut w = Writer::new(KIND_GNN);
            w.u32(DTYPE_F32);
            w.u32(rows);
            w.u32(cols);
            w.f32(value);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes[16..]);
            assert!(
                matches!(r.tensor("w", 1, 1), Err(FrozenError::Corrupt(_))),
                "{rows}x{cols} holding {value}"
            );
        }
    }
}
