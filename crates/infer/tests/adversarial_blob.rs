//! Adversarial-input hardening suite for the `tpu-frozen.v2` blob
//! loader.
//!
//! [`FrozenModel::from_bytes`] is the hot-reload admission point of the
//! serving daemon: whatever bytes an operator (or an attacker who can
//! write the model directory) hands it must come back as a typed
//! [`FrozenError`], never a panic, never an allocation the input cannot
//! back, and never a model holding a NaN or an infinity (f32 payloads can
//! encode both). Three byte-fuzz families pin that:
//!
//! - every truncation prefix of a valid blob,
//! - single-bit flips anywhere in a valid blob,
//! - arbitrary buffers that merely start with the right magic.
//!
//! Plus deterministic regressions for the count-driven allocations the
//! fuzzers found: a tiny blob whose `hops` field claims 2^24 hops must
//! be rejected as corrupt *before* the count sizes a `Vec`.

use proptest::prelude::*;
use tpu_infer::{freeze_gnn, freeze_lstm, probe_kernels, FrozenError, FrozenModel, MAGIC, VERSION};
use tpu_learned_cost::{CostModel, GnnConfig, GnnModel, LstmConfig, LstmModel};

/// A small fixed-seed frozen GNN: the fuzz corpus seed.
fn gnn_blob() -> Vec<u8> {
    let model = GnnModel::new(GnnConfig {
        opcode_embed_dim: 8,
        hidden: 16,
        hops: 2,
        seed: 41,
        ..GnnConfig::default()
    });
    FrozenModel::Gnn(freeze_gnn(&model, &[]).unwrap()).to_bytes()
}

fn lstm_blob() -> Vec<u8> {
    let model = LstmModel::new(LstmConfig {
        seed: 41,
        ..LstmConfig::default()
    });
    FrozenModel::Lstm(freeze_lstm(&model, &[]).unwrap()).to_bytes()
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every truncation of a valid blob is a typed error, and — since a
    /// panic would abort the test — never a crash.
    #[test]
    fn truncations_fail_typed(seed in any::<u64>()) {
        let full = gnn_blob();
        let mut s = seed;
        for _ in 0..8 {
            let cut = (splitmix(&mut s) % full.len() as u64) as usize;
            let err = FrozenModel::from_bytes(&full[..cut])
                .expect_err("a truncated blob must not load");
            prop_assert!(
                matches!(
                    err,
                    FrozenError::Truncated { .. }
                        | FrozenError::BadMagic
                        | FrozenError::Corrupt(_)
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    /// Single-bit flips anywhere in a valid blob never panic. A flip in
    /// structure fails typed. A flip in a payload either makes a NaN or
    /// an infinity — corrupt — or a finite wrong weight, which loads
    /// (weights carry no checksum): such a model must hold only finite
    /// numbers, so that its own bytes load again, and must answer the
    /// probe kernels without panicking — whether those answers are
    /// finite and rank like the incumbent's is the reload gate's call.
    #[test]
    fn bit_flips_never_panic(seed in any::<u64>(), lstm in any::<bool>()) {
        let mut bytes = if lstm { lstm_blob() } else { gnn_blob() };
        let mut s = seed;
        for _ in 0..8 {
            let at = (splitmix(&mut s) % bytes.len() as u64) as usize;
            let bit = 1u8 << (splitmix(&mut s) % 8);
            bytes[at] ^= bit;
            if let Ok(model) = FrozenModel::from_bytes(&bytes) {
                prop_assert!(model.predict_kernel_ns(&probe_kernels(1)[0]).is_some());
                prop_assert_eq!(
                    FrozenModel::from_bytes(&model.to_bytes()).map(|m| m.to_bytes()),
                    Ok(bytes.clone())
                );
            }
            bytes[at] ^= bit; // restore so flips stay single-bit
        }
    }

    /// Arbitrary garbage behind a valid magic + version + kind prefix
    /// fails typed. (Garbage without the prefix dies at the magic/kind
    /// checks; with it, the fuzzer reaches the per-kind header parsers.)
    #[test]
    fn arbitrary_buffers_fail_typed(seed in any::<u64>(), len in 0usize..4096, kind in 1u32..3) {
        let mut bytes = Vec::with_capacity(16 + len);
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&kind.to_le_bytes());
        let mut s = seed;
        for _ in 0..len {
            bytes.push((splitmix(&mut s) & 0xff) as u8);
        }
        let err = FrozenModel::from_bytes(&bytes)
            .expect_err("random bytes must not assemble into a model");
        prop_assert!(
            matches!(err, FrozenError::Truncated { .. } | FrozenError::Corrupt(_)),
            "unexpected error {err:?}"
        );
    }
}

/// Regression: the GNN header's `hops` count used to size a `Vec`
/// before any payload validation, so a ~100-byte blob could demand
/// gigabytes of capacity. The loader must now reject a hop count the
/// remaining bytes cannot back, before allocating.
#[test]
fn insane_hop_count_is_rejected_before_allocation() {
    let mut bytes = gnn_blob();
    // GNN header after magic(8) + version(4) + kind(4):
    // embed_dim(4) hidden(4) hops(4) — the hops field lives at 24..28.
    bytes[24..28].copy_from_slice(&((1u32 << 24) - 1).to_le_bytes());
    // Keep the blob small: the claim must exceed what the bytes back.
    bytes.truncate(4096);
    match FrozenModel::from_bytes(&bytes) {
        Err(FrozenError::Corrupt(msg)) => {
            assert!(msg.contains("hop count"), "wrong rejection: {msg}")
        }
        other => panic!("expected Corrupt(hop count ...), got {other:?}"),
    }
}

/// Regression: a dimension field at the 2^24 `dim` ceiling with no
/// payload behind it must fail typed (truncated or corrupt), not
/// reserve `rows * cols` elements.
#[test]
fn ceiling_dimensions_fail_without_allocation() {
    let full = gnn_blob();
    for offset in [16usize, 20] {
        // embed_dim / hidden fields.
        let mut bytes = full.clone();
        bytes[offset..offset + 4].copy_from_slice(&(1u32 << 24).to_le_bytes());
        let err = FrozenModel::from_bytes(&bytes).expect_err("inflated dim must not load");
        assert!(
            matches!(err, FrozenError::Truncated { .. } | FrozenError::Corrupt(_)),
            "offset {offset}: unexpected error {err:?}"
        );
    }
}

/// f32 can carry what the old int16 payloads could not: a NaN or an
/// infinity in a weight, a bias or the log-ns offset is corrupt, never a
/// loaded model.
#[test]
fn non_finite_values_are_corrupt() {
    let full = gnn_blob();
    // The offset follows magic(8) version(4) kind(4), five GNN header
    // fields and the two layout fields; the head's bias ends the blob;
    // the embedding table's payload starts after n_tensors(4) and its
    // own 12-byte record header.
    for at in [44, 64, full.len() - 4] {
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut bytes = full.clone();
            bytes[at..at + 4].copy_from_slice(&poison.to_le_bytes());
            match FrozenModel::from_bytes(&bytes) {
                Err(FrozenError::Corrupt(msg)) => {
                    assert!(msg.contains("NaN or infinite"), "offset {at}: {msg}")
                }
                other => panic!("offset {at}, {poison}: expected Corrupt, got {other:?}"),
            }
        }
    }
}

/// The magic / version / kind gates stay first in line.
#[test]
fn prefix_gates_fail_typed() {
    let full = gnn_blob();

    let mut bad_magic = full.clone();
    bad_magic[0] ^= 0x40;
    assert_eq!(
        FrozenModel::from_bytes(&bad_magic).unwrap_err(),
        FrozenError::BadMagic
    );

    let mut bad_version = full.clone();
    bad_version[8..12].copy_from_slice(&7u32.to_le_bytes());
    assert_eq!(
        FrozenModel::from_bytes(&bad_version).unwrap_err(),
        FrozenError::UnsupportedVersion(7)
    );

    let mut bad_kind = full;
    bad_kind[12..16].copy_from_slice(&9u32.to_le_bytes());
    assert_eq!(
        FrozenModel::from_bytes(&bad_kind).unwrap_err(),
        FrozenError::BadKind(9)
    );

    assert_eq!(
        FrozenModel::from_bytes(&[]).unwrap_err(),
        FrozenError::Truncated { needed: 8, have: 0 }
    );
}
