//! Property, corruption, and golden-file tests for the `tpu-ds.v1`
//! streaming dataset format.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use tpu_dataset::{DatasetReader, DatasetWriter, StreamError, STREAM_MAGIC};
use tpu_hlo::{DType, GraphBuilder, Kernel, Shape};
use tpu_learned_cost::features::FEATURE_DIM;
use tpu_learned_cost::{Prepared, Sample, Tensor};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tpu_stream_props_{}_{name}", std::process::id()))
}

fn write_examples(path: &Path, examples: &[Prepared]) {
    let mut w = DatasetWriter::create(path).unwrap();
    for (i, p) in examples.iter().enumerate() {
        w.append(p, i as u32).unwrap();
    }
    w.finish().unwrap();
}

fn assert_bit_identical(a: &Prepared, b: &Prepared) {
    assert_eq!(a.opcode_ids, b.opcode_ids);
    assert_eq!(a.edges, b.edges);
    assert_eq!(a.group, b.group);
    assert_eq!(a.runtime_ns.to_bits(), b.runtime_ns.to_bits());
    let fa: Vec<u32> = a.features.data().iter().map(|v| v.to_bits()).collect();
    let fb: Vec<u32> = b.features.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(fa, fb);
}

/// splitmix64 stream used to derive arbitrary examples from a proptest seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Build one pseudo-random example, occasionally injecting non-finite
/// feature values and runtimes (the format stores raw LE bits, so they
/// must survive the round trip bit-for-bit).
fn example_from_seed(seed: u64) -> Prepared {
    let mut s = seed;
    let n = 1 + (splitmix(&mut s) % 11) as usize;
    let opcode_ids: Vec<usize> = (0..n).map(|_| (splitmix(&mut s) % 512) as usize).collect();
    let feats: Vec<f32> = (0..n * FEATURE_DIM)
        .map(|_| {
            let w = splitmix(&mut s);
            match w % 23 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => -0.0,
                _ => {
                    f32::from_bits((w >> 32) as u32 & 0x7f7f_ffff)
                        * if w & 1 == 0 { 1.0 } else { -1.0 }
                }
            }
        })
        .collect();
    let num_edges = (splitmix(&mut s) % (3 * n as u64)) as usize;
    let edges: Vec<(usize, usize)> = (0..num_edges)
        .map(|_| {
            let w = splitmix(&mut s);
            ((w % n as u64) as usize, ((w >> 32) % n as u64) as usize)
        })
        .collect();
    let w = splitmix(&mut s);
    let runtime_ns = match w % 17 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        _ => f64::from_bits(splitmix(&mut s) & 0x7fef_ffff_ffff_ffff),
    };
    let group = if w & 8 == 0 {
        usize::MAX
    } else {
        (w >> 16) as usize % 10_000
    };
    Prepared {
        opcode_ids,
        features: Tensor::from_vec(n, FEATURE_DIM, feats),
        edges,
        runtime_ns,
        group,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Write → read is bit-identical for arbitrary examples, including
    /// non-finite feature values and runtimes (stored as raw LE bits).
    #[test]
    fn roundtrip_arbitrary_examples(
        seed in any::<u64>(),
        count in 1usize..8,
        case in 0u32..1_000_000,
    ) {
        let examples: Vec<Prepared> =
            (0..count).map(|i| example_from_seed(seed ^ (i as u64) << 17)).collect();
        let path = tmp(&format!("prop_{case}"));
        write_examples(&path, &examples);
        let r = DatasetReader::open(&path).unwrap();
        prop_assert_eq!(r.len(), examples.len());
        for (i, expect) in examples.iter().enumerate() {
            let got = r.get(i).unwrap();
            assert_bit_identical(&got, expect);
            prop_assert_eq!(r.program_id(i), i);
        }
        let _ = std::fs::remove_file(path);
    }
}

fn kernel_prepared(cols: usize, runtime: f64, group: usize) -> Prepared {
    let mut b = GraphBuilder::new("k");
    let x = b.parameter("x", Shape::matrix(cols, cols), DType::F32);
    let t = b.tanh(x);
    let d = b.dot(t, t);
    let e = b.exp(d);
    Prepared::from_sample(&Sample::grouped(Kernel::new(b.finish(e)), runtime, group))
}

fn fixture() -> Vec<Prepared> {
    vec![
        kernel_prepared(8, 1234.5, usize::MAX),
        kernel_prepared(16, 9.25, 3),
        kernel_prepared(32, 8.5e8, 0),
        kernel_prepared(64, 1.0, 7),
    ]
}

/// Recreating a path replaces the file rather than rewriting it in place:
/// a reader opened on the old file keeps reading the old records through
/// its old index, and a reader opened afterwards sees the new ones.
#[test]
fn recreating_a_path_leaves_open_readers_on_the_old_file() {
    let path = tmp("recreate.tpuds");
    let a = fixture();
    let b: Vec<Prepared> = (0..5).map(|i| example_from_seed(0xb0 + i)).collect();
    write_examples(&path, &a);
    let old = DatasetReader::open(&path).unwrap();
    write_examples(&path, &b);
    let new = DatasetReader::open(&path).unwrap();
    assert_eq!(old.len(), a.len());
    for (i, expect) in a.iter().enumerate() {
        assert_bit_identical(&old.get(i).unwrap(), expect);
    }
    assert_eq!(new.len(), b.len());
    for (i, expect) in b.iter().enumerate() {
        assert_bit_identical(&new.get(i).unwrap(), expect);
    }
    drop((old, new));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncated_file_is_a_typed_error_not_a_panic() {
    let path = tmp("trunc");
    write_examples(&path, &fixture());
    let full = std::fs::read(&path).unwrap();
    // Cut the file at several points: inside the header, inside a record,
    // inside the index. Every cut must produce a typed error.
    for cut in [10, 40, full.len() - 5] {
        let cut_path = tmp(&format!("trunc_cut{cut}"));
        std::fs::write(&cut_path, &full[..cut]).unwrap();
        match DatasetReader::open(&cut_path) {
            Err(StreamError::Truncated { .. } | StreamError::Corrupt(_) | StreamError::Io(_)) => {}
            Ok(_) => panic!("cut at {cut} opened successfully"),
            Err(e) => panic!("cut at {cut}: unexpected error {e}"),
        }
        let _ = std::fs::remove_file(cut_path);
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn bad_magic_and_version_are_typed_errors() {
    let path = tmp("magic");
    write_examples(&path, &fixture());
    let mut bytes = std::fs::read(&path).unwrap();

    let mut evil = bytes.clone();
    evil[0] = b'X';
    let evil_path = tmp("magic_bad");
    std::fs::write(&evil_path, &evil).unwrap();
    match DatasetReader::open(&evil_path) {
        Err(StreamError::BadMagic(m)) => assert_ne!(m, STREAM_MAGIC),
        other => panic!("expected BadMagic, got {other:?}"),
    }
    let _ = std::fs::remove_file(evil_path);

    bytes[8] = 99; // version LE byte
    let ver_path = tmp("magic_ver");
    std::fs::write(&ver_path, &bytes).unwrap();
    match DatasetReader::open(&ver_path) {
        Err(StreamError::UnsupportedVersion(v)) => assert_ne!(v, 1),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    let _ = std::fs::remove_file(ver_path);
    let _ = std::fs::remove_file(path);
}

#[test]
fn feature_dim_mismatch_is_a_typed_error() {
    let path = tmp("fdim");
    write_examples(&path, &fixture());
    let mut bytes = std::fs::read(&path).unwrap();
    // Bump the header's feature_dim field (offset 12).
    bytes[12] = bytes[12].wrapping_add(1);
    let bad = tmp("fdim_bad");
    std::fs::write(&bad, &bytes).unwrap();
    match DatasetReader::open(&bad) {
        Err(StreamError::FeatureDimMismatch { file, expected }) => {
            assert_ne!(file, expected);
            assert_eq!(expected as usize, FEATURE_DIM);
        }
        other => panic!("expected FeatureDimMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_file(bad);
    let _ = std::fs::remove_file(path);
}

#[test]
fn corrupt_record_header_is_a_typed_error() {
    let path = tmp("corrupt");
    let examples = fixture();
    write_examples(&path, &examples);
    let mut bytes = std::fs::read(&path).unwrap();
    // First record starts at byte 32; flip its num_nodes field so the
    // record header disagrees with the trailing index.
    bytes[32] = bytes[32].wrapping_add(1);
    let bad = tmp("corrupt_bad");
    std::fs::write(&bad, &bytes).unwrap();
    let r = DatasetReader::open(&bad).unwrap(); // index itself is intact
    match r.get(0) {
        Err(StreamError::Corrupt(msg)) => assert!(msg.contains("disagrees"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // Other records are unaffected.
    assert_bit_identical(&r.get(1).unwrap(), &examples[1]);
    let _ = std::fs::remove_file(bad);
    let _ = std::fs::remove_file(path);
}

/// Byte-exact golden file: the committed `golden/stream.tpuds` must equal
/// a freshly written dataset of the fixture examples, pinning both the
/// container layout and the featurizer output. Regenerate deliberately
/// with `REGEN_GOLDEN=1 cargo test -p tpu-dataset --test stream_props`.
#[test]
fn golden_dataset_file_is_byte_exact() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/stream.tpuds");
    let fresh = tmp("golden_fresh");
    write_examples(&fresh, &fixture());
    let fresh_bytes = std::fs::read(&fresh).unwrap();
    let _ = std::fs::remove_file(&fresh);
    if std::env::var("REGEN_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
        std::fs::write(&golden, &fresh_bytes).unwrap();
        eprintln!("regenerated {}", golden.display());
        return;
    }
    let golden_bytes = std::fs::read(&golden).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with REGEN_GOLDEN=1 to create it",
            golden.display()
        )
    });
    assert_eq!(
        golden_bytes.len(),
        fresh_bytes.len(),
        "golden length changed — format or featurizer drifted"
    );
    assert_eq!(
        golden_bytes, fresh_bytes,
        "golden bytes changed — format or featurizer drifted; \
         regenerate with REGEN_GOLDEN=1 only if the change is intentional"
    );
    // And the golden file itself must still load.
    let r = DatasetReader::open(&golden).unwrap();
    assert_eq!(r.len(), fixture().len());
}
