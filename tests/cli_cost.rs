//! `tpu-cost --backend frozen:BLOB`: the blob's predictions are what gets
//! printed, and anything that is not a loadable `tpu-frozen.v2` blob is an
//! error — never a model with untrained weights.

use std::process::Command;
use tpu_repro::dataset::models::transformer;
use tpu_repro::fusion::{apply_fusion, default_space_and_config};
use tpu_repro::infer::{freeze_gnn, FrozenModel};
use tpu_repro::learned::{CostModel, GnnConfig, GnnModel};

fn tpu_cost(backend: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tpu-cost"))
        .args(["--demo", "--fuse", "--backend", backend])
        .output()
        .expect("tpu-cost runs")
}

#[test]
fn the_frozen_backend_prints_the_blobs_program_prediction() {
    let gnn = GnnModel::new(GnnConfig {
        hidden: 16,
        opcode_embed_dim: 8,
        hops: 1,
        seed: 3,
        ..Default::default()
    });
    let frozen = FrozenModel::Gnn(freeze_gnn(&gnn, &[]).expect("finite weights"));
    let blob = std::env::temp_dir().join(format!("tpu-cost-cli-{}.blob", std::process::id()));
    std::fs::write(&blob, frozen.to_bytes()).expect("write blob");
    let backend = format!("frozen:{}", blob.display());
    let out = tpu_cost(&backend);
    std::fs::remove_file(&blob).expect("remove blob");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // `--demo` is this program; `--fuse` its default fusion.
    let program = transformer("demo", 1, 32, 64, 2);
    let (space, config) = default_space_and_config(&program.computation);
    let fused = apply_fusion(&program, &space, &config);
    let expected_ns = frozen.predict_program_ns(&fused).expect("frozen scores every kernel");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let total = stdout
        .lines()
        .find(|l| l.starts_with("total ("))
        .unwrap_or_else(|| panic!("no total line in:\n{stdout}"));
    assert_eq!(
        total,
        format!("total ({backend} backend): {:.3} ms", expected_ns / 1e6)
    );
}

#[test]
fn a_missing_unreadable_or_rejected_blob_is_an_error() {
    let v1 = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/infer/tests/golden_frozen_v1.blob");
    for (backend, message) in [
        ("frozen", "needs a blob"),
        ("frozen:", "needs a blob"),
        ("frozen:/nonexistent/model.blob", "cannot read blob"),
        (&format!("frozen:{v1}")[..], "cannot load blob"),
        // The tape model has no backend of its own any more.
        ("gnn", "unknown backend `gnn`"),
    ] {
        let out = tpu_cost(backend);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{backend}: exited 0");
        assert!(stderr.contains(message), "{backend}: {stderr}");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("total ("),
            "{backend}: scored the program anyway"
        );
    }
}
