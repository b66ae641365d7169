//! `build_datasets`: generate the fusion dataset as a streaming
//! `tpu-ds.v1` file (`fusion.tpuds`), written record-by-record during
//! generation so peak RSS never holds the corpus — the file
//! `DatasetReader` and `train_stream` read.
//!
//! ```text
//! cargo run -p tpu-dataset --release --bin build_datasets -- \
//!     [--out DIR] [--scale tiny|full|large] [--configs N] [--quick]
//! ```
//!
//! `--quick` shrinks the per-program config count for CI smoke runs.

use std::path::PathBuf;
use tpu_dataset::{
    stream_corpus, Corpus, CorpusScale, DatasetWriter, FusionDatasetConfig, StreamGenConfig,
};

fn main() {
    let mut out = PathBuf::from("datasets");
    let mut scale = CorpusScale::Full;
    let mut configs = 40usize;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = PathBuf::from(it.next().expect("--out needs a dir")),
            "--tiny" => scale = CorpusScale::Tiny,
            "--scale" => {
                scale = match it.next().as_deref() {
                    Some("tiny") => CorpusScale::Tiny,
                    Some("full") => CorpusScale::Full,
                    Some("large") => CorpusScale::Large,
                    other => {
                        eprintln!("--scale needs tiny|full|large, got {other:?}");
                        std::process::exit(1);
                    }
                }
            }
            "--configs" => {
                configs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--configs needs a number")
            }
            "--quick" => configs = 4,
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(1);
            }
        }
    }
    std::fs::create_dir_all(&out).expect("create output dir");

    let corpus = Corpus::build(scale);
    println!("corpus: {} programs ({scale:?})", corpus.len());

    let t0 = std::time::Instant::now();
    let path = out.join("fusion.tpuds");
    let mut writer = DatasetWriter::create(&path).expect("create dataset file");
    let cfg = StreamGenConfig {
        fusion: FusionDatasetConfig {
            configs_per_program: configs,
            ..Default::default()
        },
        ..Default::default()
    };
    let summary = stream_corpus(&corpus, &cfg, &mut writer).expect("stream corpus");
    let n = writer.finish().expect("finish dataset file");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "streamed {} records ({} kernel examples, {} whole-graph) \
         to {} ({:.1} MiB) in {:?}",
        n,
        summary.kernel_examples,
        summary.whole_graph_examples,
        path.display(),
        bytes as f64 / (1024.0 * 1024.0),
        t0.elapsed()
    );
}
