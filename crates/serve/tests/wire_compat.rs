//! Wire compatibility of the HLO text, pinned both ways: the compact text
//! `dump_computation` writes (defaults left out) and the full form older
//! clients send (every layout, every `attrs=` key spelled out) read to the
//! same kernel, and the daemon answers them with the same bytes from the
//! same cache slot.

#[path = "../../hlo/tests/support/full_text.rs"]
mod full_text;
#[path = "../../hlo/tests/support/node_attrs.rs"]
mod node_attrs;

use full_text::dump_full;
use std::collections::HashSet;
use std::io::Cursor;
use std::sync::Arc;
use tpu_dataset::{Corpus, CorpusScale};
use tpu_fusion::{apply_fusion, default_space_and_config};
use tpu_hlo::{canonical_kernel_hash, dump_computation, Kernel};
use tpu_learned_cost::{AtomicCache, FnCostModel};
use tpu_obs::Registry;
use tpu_serve::{protocol, serve_ndjson, KernelSpec, ServeConfig, ServeEngine};

/// Every kernel the default fusion makes of the Full corpus's programs.
fn corpus_kernels() -> Vec<Kernel> {
    let corpus = Corpus::build(CorpusScale::Full);
    let mut out = Vec::new();
    for entry in &corpus.entries {
        let (space, config) = default_space_and_config(&entry.program.computation);
        out.extend(apply_fusion(&entry.program, &space, &config).kernels);
    }
    out
}

/// The kernel a predict request carrying `text` for `kernel` reads to.
fn read_back(kernel: &Kernel, text: String) -> Kernel {
    KernelSpec {
        text,
        ..KernelSpec::from_kernel(kernel)
    }
    .to_kernel()
    .expect("the text reads back")
}

#[test]
fn full_and_compact_text_read_to_the_original_kernel() {
    let kernels = corpus_kernels();
    assert!(kernels.len() > 1000, "only {} kernels", kernels.len());
    let (mut full_bytes, mut compact_bytes) = (0, 0);
    for k in &kernels {
        let full = dump_full(&k.computation);
        let compact = dump_computation(&k.computation);
        (full_bytes, compact_bytes) = (full_bytes + full.len(), compact_bytes + compact.len());
        let (from_full, from_compact) = (read_back(k, full), read_back(k, compact));
        assert_eq!(from_full.computation, k.computation);
        assert_eq!(from_compact.computation, k.computation);
        let hash = canonical_kernel_hash(k);
        assert_eq!(canonical_kernel_hash(&from_full), hash);
        assert_eq!(canonical_kernel_hash(&from_compact), hash);
    }
    assert!(
        2 * compact_bytes < full_bytes,
        "compact {compact_bytes} B against full {full_bytes} B"
    );
}

#[test]
fn full_and_compact_lines_get_the_same_reply_from_one_cache_slot() {
    let mut seen = HashSet::new();
    let kernels: Vec<Kernel> = corpus_kernels()
        .into_iter()
        .filter(|k| seen.insert(canonical_kernel_hash(k)))
        .collect();
    let model = FnCostModel::new("hash", |k: &Kernel| {
        Some((canonical_kernel_hash(k) >> 40) as f64 + 0.5)
    });
    let engine = ServeEngine::start(
        Box::new(model),
        Arc::new(AtomicCache::serving_default()),
        ServeConfig::default(),
        &Registry::noop(),
    );
    let mut input = String::new();
    for (id, k) in kernels.iter().enumerate() {
        let compact_line = protocol::predict_request_line(id as u64, k);
        let compact = serde_json::to_string(&dump_computation(&k.computation)).unwrap();
        let full = serde_json::to_string(&dump_full(&k.computation)).unwrap();
        let full_line = compact_line.replacen(&compact, &full, 1);
        assert_ne!(full_line, compact_line);
        // The full form first: the compact line must hit what it left.
        input += &(full_line + "\n" + &compact_line + "\n");
    }
    let mut out = Vec::new();
    serve_ndjson(&engine, Cursor::new(input), &mut out).expect("serve io");
    let replies = String::from_utf8(out).unwrap();
    let replies: Vec<&str> = replies.lines().collect();
    assert_eq!(replies.len(), 2 * kernels.len());
    for pair in replies.chunks(2) {
        assert!(pair[0].contains("\"ns\":"), "{}", pair[0]);
        assert_eq!(pair[0], pair[1]);
    }
    let stats = engine.stats().predict;
    let n = kernels.len() as u64;
    assert_eq!((stats.model_evals, stats.cache_hits), (n, n));
    engine.shutdown();
}
