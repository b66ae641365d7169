//! Inspect the IR: dump a generated model-family program in the text
//! format, round-trip it through the parser, and show fusion decisions.
//!
//! ```text
//! cargo run --release --example dump_ir
//! ```

use tpu_repro::fusion::{default_space_and_config, fused_fraction};
use tpu_repro::hlo::{canonical_hash, dump_computation, parse_computation};

fn main() {
    // A small transformer block from the corpus generators.
    let program = tpu_repro::dataset::models::transformer("demo", 1, 8, 32, 2);
    println!(
        "program `{}`: {} nodes, {} edges\n",
        program.name,
        program.computation.num_nodes(),
        program.computation.num_edges()
    );

    // Dump the first 25 lines of the text format.
    let text = dump_computation(&program.computation);
    for line in text.lines().take(25) {
        println!("{line}");
    }
    let total_lines = text.lines().count();
    if total_lines > 25 {
        println!("  … ({} more lines)", total_lines - 25);
    }

    // Round-trip through the parser.
    let parsed = parse_computation(&text).expect("round-trip parse");
    assert_eq!(
        canonical_hash(&parsed),
        canonical_hash(&program.computation)
    );
    println!("\nround-trip parse: OK (canonical hashes match)");

    // Fusion search space for this program.
    let (space, config) = default_space_and_config(&program.computation);
    println!(
        "fusion search space: {} edges -> 2^{} configurations",
        space.num_edges(),
        space.num_edges()
    );
    println!(
        "default heuristic fuses {:.0}% of fusible edges",
        100.0 * fused_fraction(&config)
    );
}
