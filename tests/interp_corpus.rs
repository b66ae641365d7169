//! Execute every model-family generator through the reference interpreter:
//! all declared shapes must match computed shapes, and outputs must be
//! finite where the math is bounded.

use tpu_repro::dataset::{Corpus, CorpusScale};
use tpu_repro::hlo::interp::evaluate_seeded;

#[test]
fn every_tiny_corpus_program_executes() {
    let corpus = Corpus::build(CorpusScale::Tiny);
    for entry in &corpus.entries {
        let out = evaluate_seeded(&entry.program.computation, 11)
            .unwrap_or_else(|e| panic!("{} failed to execute: {e}", entry.program.name));
        assert_eq!(
            out.dims(),
            entry
                .program
                .computation
                .node(entry.program.computation.root())
                .shape
                .dims(),
            "{}: root shape mismatch",
            entry.program.name
        );
    }
}

#[test]
fn softmax_outputs_are_probabilities_in_generated_models() {
    // The MLP family ends in a softmax; the interpreter output must be a
    // row-stochastic matrix.
    let p = tpu_repro::dataset::models::mlp("m", 8, &[32, 64]);
    let out = evaluate_seeded(&p.computation, 21).unwrap();
    assert_eq!(out.dims(), &[8, 10]);
    for r in 0..8 {
        let row_sum: f32 = (0..10).map(|c| out.at(&[r, c])).sum();
        assert!((row_sum - 1.0).abs() < 1e-3, "row {r} sums to {row_sum}");
        for c in 0..10 {
            assert!(out.at(&[r, c]) >= 0.0);
        }
    }
}
