//! Golden snapshot for the `tpu-frozen.v2` blob format.
//!
//! The blob is a persistence format: a daemon built tomorrow must load a
//! blob frozen today. This test freezes a fixed-seed model and pins the
//! resulting bytes exactly, so any layout drift — field order, endianness,
//! a widened header — fails loudly instead of silently producing blobs old
//! readers misparse. `golden_frozen_v1.blob` is the last snapshot of the
//! int16 format this crate used to write: there is one reader, so it must
//! fail as an unsupported version, never misparse.
//!
//! If a format change is *intentional*, bump (or keep) the version as
//! appropriate and regenerate with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p tpu-infer --test golden_blob
//! ```
//!
//! and commit the updated `golden_frozen.blob` together with the change.

use tpu_infer::{freeze_gnn, probe_kernels, FrozenError, FrozenModel, MAGIC, VERSION};
use tpu_learned_cost::{CostModel, GnnConfig, GnnModel};

/// The frozen model under snapshot: small, fixed seed.
fn golden_model() -> FrozenModel {
    let model = GnnModel::new(GnnConfig {
        opcode_embed_dim: 8,
        hidden: 16,
        hops: 1,
        seed: 71,
        ..GnnConfig::default()
    });
    FrozenModel::Gnn(freeze_gnn(&model, &[]).unwrap())
}

fn fixture(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(name)
}

fn golden_path() -> std::path::PathBuf {
    fixture("golden_frozen.blob")
}

#[test]
fn frozen_blob_matches_golden_snapshot() {
    let bytes = golden_model().to_bytes();
    let path = golden_path();

    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, &bytes).expect("write golden blob");
        println!("regenerated {}", path.display());
        return;
    }

    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden blob {} ({e}); run REGEN_GOLDEN=1 cargo test -p tpu-infer --test golden_blob",
            path.display()
        )
    });
    assert_eq!(
        bytes, golden,
        "tpu-frozen.v2 bytes drifted from tests/golden_frozen.blob; if intentional, \
         regenerate with REGEN_GOLDEN=1 and commit the diff"
    );
}

#[test]
fn golden_blob_loads_and_serves() {
    // Independent of freezing: the checked-in bytes themselves must load
    // and predict, proving old blobs stay readable even if the freezer
    // evolves in lockstep with the snapshot.
    let golden = std::fs::read(golden_path()).expect("golden blob present");
    assert_eq!(&golden[..8], MAGIC);
    assert_eq!(
        u32::from_le_bytes(golden[8..12].try_into().unwrap()),
        VERSION
    );
    let frozen = FrozenModel::from_bytes(&golden).expect("golden blob loads");
    assert_eq!(frozen.name(), "frozen-gnn");
    for k in probe_kernels(4) {
        let ns = frozen.predict_kernel_ns(&k).expect("scores kernel");
        assert!(ns.is_finite() && ns > 0.0);
    }
    // Round trip stays byte-exact.
    assert_eq!(frozen.to_bytes(), golden);
}

#[test]
fn a_v1_blob_is_an_unsupported_version() {
    let v1 = std::fs::read(fixture("golden_frozen_v1.blob")).expect("v1 fixture present");
    assert_eq!(&v1[..8], MAGIC);
    assert_eq!(
        FrozenModel::from_bytes(&v1).unwrap_err(),
        FrozenError::UnsupportedVersion(1)
    );
}
