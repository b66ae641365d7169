//! Adversarial-input hardening suite for the `tpu-ds.v1` reader.
//!
//! [`DatasetReader::open`] consumes files from disk that training jobs,
//! sync scripts, or a hostile tenant may have mangled. Whatever the
//! bytes, `open` (and `get` on anything it admits) must return a typed
//! [`StreamError`] — never a panic, and never an allocation the file's
//! own size cannot back. Byte-fuzz families:
//!
//! - every truncation prefix of a valid file,
//! - single-bit flips anywhere in a valid file,
//! - arbitrary garbage behind a valid header prefix,
//!
//! plus deterministic regressions for the header's count/offset
//! arithmetic (`num_records * 32`, `index_pos + index_len`, and the
//! per-record `expected_offset` accumulation are all checked math).

use proptest::prelude::*;
use std::path::PathBuf;
use tpu_dataset::{DatasetReader, DatasetWriter, StreamError};
use tpu_hlo::{DType, GraphBuilder, Kernel, Shape};
use tpu_learned_cost::{Prepared, Sample};

/// Per-thread paths: the tests of this binary run concurrently and would
/// otherwise create and delete each other's `seed` file.
fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "tpu_adv_stream_{}_{:?}_{name}",
        std::process::id(),
        std::thread::current().id()
    ))
}

fn kernel_prepared(cols: usize, runtime: f64, group: usize) -> Prepared {
    let mut b = GraphBuilder::new("k");
    let x = b.parameter("x", Shape::matrix(cols, cols), DType::F32);
    let t = b.tanh(x);
    let d = b.dot(t, t);
    Prepared::from_sample(&Sample::grouped(Kernel::new(b.finish(d)), runtime, group))
}

/// A small valid dataset file: the fuzz corpus seed.
fn valid_bytes() -> Vec<u8> {
    let path = tmp("seed");
    let mut w = DatasetWriter::create(&path).unwrap();
    for (i, cols) in [4usize, 8, 16].iter().enumerate() {
        w.append(&kernel_prepared(*cols, 100.0 + i as f64, i), i as u32)
            .unwrap();
    }
    w.finish().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(path);
    bytes
}

/// Open `bytes` as a dataset; on success also read every record, so a
/// structurally-admitted file must be fully decodable or fail typed.
fn open_and_drain(bytes: &[u8], name: &str) -> Result<usize, StreamError> {
    let path = tmp(name);
    std::fs::write(&path, bytes).unwrap();
    let outcome = DatasetReader::open(&path).and_then(|r| {
        for i in 0..r.len() {
            r.get(i)?;
        }
        Ok(r.len())
    });
    let _ = std::fs::remove_file(path);
    outcome
}

/// splitmix64 used to derive fuzz bytes from a proptest seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every truncation of a valid file fails typed — a panic would
    /// abort the test.
    #[test]
    fn truncations_fail_typed(seed in any::<u64>(), case in 0u32..1_000_000) {
        let full = valid_bytes();
        let mut s = seed;
        for round in 0..6 {
            let cut = (splitmix(&mut s) % full.len() as u64) as usize;
            let outcome = open_and_drain(&full[..cut], &format!("trunc_{case}_{round}"));
            prop_assert!(outcome.is_err(), "cut at {cut} opened and drained");
        }
    }

    /// Single-bit flips anywhere never panic: either the reader rejects
    /// the file typed, or it admits it and every record still decodes
    /// (payload bits carry no checksum — flips there are data, not
    /// structure).
    #[test]
    fn bit_flips_never_panic(seed in any::<u64>(), case in 0u32..1_000_000) {
        let mut bytes = valid_bytes();
        let mut s = seed;
        for round in 0..6 {
            let at = (splitmix(&mut s) % bytes.len() as u64) as usize;
            let bit = 1u8 << (splitmix(&mut s) % 8);
            bytes[at] ^= bit;
            let _ = open_and_drain(&bytes, &format!("flip_{case}_{round}"));
            bytes[at] ^= bit; // restore so flips stay single-bit
        }
    }

    /// Arbitrary garbage behind the valid 32-byte header prefix fails
    /// typed (the prefix carries magic/version/feature_dim, so the
    /// fuzzer reaches the index and record parsers).
    #[test]
    fn garbage_bodies_fail_typed(seed in any::<u64>(), len in 0usize..2048, case in 0u32..1_000_000) {
        let full = valid_bytes();
        let mut bytes = full[..16].to_vec(); // magic + version + feature_dim
        let mut s = seed;
        for _ in 16..32 + len {
            bytes.push((splitmix(&mut s) & 0xff) as u8);
        }
        let outcome = open_and_drain(&bytes, &format!("garbage_{case}"));
        prop_assert!(outcome.is_err(), "garbage body opened and drained");
    }
}

/// Regression: a header claiming `u64::MAX` records must die in the
/// checked `num_records * 32` index-length math, not allocate.
#[test]
fn record_count_overflow_is_corrupt() {
    let mut bytes = valid_bytes();
    bytes[16..24].copy_from_slice(&(u64::MAX - 1).to_le_bytes());
    match open_and_drain(&bytes, "count_overflow") {
        Err(StreamError::Corrupt(msg)) => assert!(msg.contains("overflows"), "{msg}"),
        other => panic!("expected Corrupt(overflow), got {other:?}"),
    }
}

/// Regression: an `index_pos` near `u64::MAX` must die in the checked
/// `index_pos + index_len` math, not wrap past the length check.
#[test]
fn index_position_overflow_is_corrupt() {
    let mut bytes = valid_bytes();
    bytes[24..32].copy_from_slice(&(u64::MAX - 8).to_le_bytes());
    match open_and_drain(&bytes, "index_overflow") {
        Err(StreamError::Corrupt(msg)) => assert!(msg.contains("overflows"), "{msg}"),
        other => panic!("expected Corrupt(overflow), got {other:?}"),
    }
}

/// Regression: a record count larger than what the on-disk index can
/// back is a typed truncation, and the reader never reserves capacity
/// the file size cannot justify.
#[test]
fn inflated_record_count_is_truncated_not_allocated() {
    let mut bytes = valid_bytes();
    bytes[16..24].copy_from_slice(&(1u64 << 40).to_le_bytes());
    match open_and_drain(&bytes, "count_inflated") {
        Err(StreamError::Truncated { needed, have }) => {
            assert!(needed > have, "needed {needed} <= have {have}")
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}

/// Regression: inflating an index entry's `num_nodes` so its implied
/// payload no longer chains to the next record (or the index start) is
/// corrupt — the checked `expected_offset` accumulation catches it.
#[test]
fn inflated_node_count_breaks_the_offset_chain() {
    let bytes = valid_bytes();
    // Index entries live at index_pos (header bytes 24..32), 32 B each:
    // offset u64, num_nodes u32, num_edges u32, program_id u32, pad,
    // group u64. Inflate the first entry's num_nodes.
    let index_pos = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
    let mut evil = bytes;
    evil[index_pos + 8..index_pos + 12].copy_from_slice(&u32::MAX.to_le_bytes());
    match open_and_drain(&evil, "node_inflate") {
        Err(StreamError::Corrupt(_) | StreamError::Truncated { .. }) => {}
        other => panic!("expected Corrupt/Truncated, got {other:?}"),
    }
}
