//! What a warm `tpu-serve` hit saves by probing the cache with its text
//! key: per request line, the cost of hashing the escaped kernel text
//! (`KernelRef::text_key`) against the cost of unescaping, parsing and
//! canonically hashing it (`KernelRef::to_hashed`), which a text hit skips.
//! Both sides include the scan of the line.
//!
//! The lines are the `tpu-perf` serve pool's first 256 kernels: the
//! held-out kernels of the Full corpus's fusion dataset (8 configurations
//! a program, seed 2), rendered as predict request lines.
//!
//! ```text
//! cargo run --release --example serve_text_key
//! ```

use std::hint::black_box;
use std::time::Instant;
use tpu_repro::dataset::{build_fusion_dataset, Corpus, CorpusScale, FusionDatasetConfig};
use tpu_repro::serve::protocol::{predict_request_line, scan_request};
use tpu_repro::serve::RequestRef;

const KERNELS: usize = 256;
const ROUNDS: usize = 200;

/// Fastest-round time per line, in µs, of `f` over every line.
fn per_line_us(lines: &[String], mut f: impl FnMut(&str) -> u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for line in lines {
            black_box(f(black_box(line)));
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best / lines.len() as f64 * 1e6
}

fn main() {
    let seed = 2;
    let corpus = Corpus::build(CorpusScale::Full);
    let dataset = build_fusion_dataset(
        &corpus,
        &FusionDatasetConfig {
            configs_per_program: 8,
            seed,
            ..Default::default()
        },
    );
    let (_, _, test) = dataset.split(&corpus.random_split(seed));
    let lines: Vec<String> = test
        .iter()
        .take(KERNELS)
        .enumerate()
        .map(|(i, ex)| predict_request_line(i as u64, &ex.kernel))
        .collect();
    let bytes = lines.iter().map(String::len).sum::<usize>() / lines.len();

    let key_us = per_line_us(&lines, |line| match scan_request(line) {
        Ok(RequestRef::Predict { spec, .. }) => spec.text_key(),
        _ => unreachable!("a rendered predict line scans"),
    });
    let mut scratch = String::new();
    let parse_us = per_line_us(&lines, |line| match scan_request(line) {
        Ok(RequestRef::Predict { spec, .. }) => spec
            .to_hashed(&mut scratch)
            .expect("a pool kernel parses")
            .hash(),
        _ => unreachable!("a rendered predict line scans"),
    });
    let scan_us = per_line_us(&lines, |line| scan_request(line).map_or(0, |r| r.id()));
    println!(
        "{} lines, {bytes} B mean; fastest of {ROUNDS} rounds, per line:",
        lines.len()
    );
    println!("  scan                      {scan_us:.3} us");
    println!(
        "  scan + text_key           {key_us:.3} us  (key {:.3} us)",
        key_us - scan_us
    );
    println!(
        "  scan + to_hashed          {parse_us:.3} us  (unescape + parse + hash {:.3} us)",
        parse_us - scan_us
    );
}
