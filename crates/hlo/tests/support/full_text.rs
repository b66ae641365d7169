//! The text format with nothing left out, as older clients send it: every
//! node's layout, and an `attrs=` on every node with all its keys, as the
//! derive writes them. `dump_computation` leaves out what the reader
//! restores; the suites mutate and compare both forms. Also compiled into
//! the `tpu-serve` suites, by path, next to `node_attrs`.

use super::node_attrs::NodeAttrs;
use std::fmt::Write as _;
use tpu_hlo::Computation;

/// `c` in the full text form.
pub fn dump_full(c: &Computation) -> String {
    let mut out = format!("computation {} root={} {{\n", c.name(), c.root());
    for n in c.nodes() {
        let _ = write!(
            out,
            "  {} = {} {}{}{}",
            n.id, n.opcode, n.dtype, n.shape, n.layout
        );
        for op in &n.operands {
            let _ = write!(out, " {op}");
        }
        if !n.name.is_empty() {
            let _ = write!(out, " name={}", serde_json::to_string(&n.name).unwrap());
        }
        let attrs = serde_json::to_string(&NodeAttrs::of(n)).unwrap();
        let _ = writeln!(out, " attrs={attrs}");
    }
    out.push_str("}\n");
    out
}
