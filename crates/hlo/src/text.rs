//! A human-readable text format for computations, with a round-tripping
//! parser. Useful for debugging dataset kernels and for golden tests, and
//! the form a kernel takes on the `tpu-serve` wire.
//!
//! ```text
//! computation softmax root=%4 {
//!   %0 = parameter f32[4,10]{1,0} name="x"
//!   %1 = exp f32[4,10]{1,0} %0
//!   %2 = reduce f32[4]{0} %1 attrs={"reduce_dims":[1]}
//!   %3 = broadcast f32[4,10]{1,0} %2 attrs={"broadcast_dims":[0]}
//!   %4 = divide f32[4,10]{1,0} %1 %3
//! }
//! ```

use crate::attrs::NodeAttrs;
use crate::dtype::DType;
use crate::error::{HloError, Result};
use crate::graph::Computation;
use crate::node::{Node, NodeId};
use crate::opcode::Opcode;
use crate::shape::{Layout, Shape, MAX_RANK};
use serde_json::Scanner;
use std::fmt::Write as _;

/// Render a computation in the text format.
pub fn dump_computation(c: &Computation) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "computation {} root={} {{", c.name(), c.root());
    for n in c.nodes() {
        let _ = write!(out, "  {} = {} {}{}", n.id, n.opcode, n.dtype, n.shape);
        let _ = write!(out, "{}", n.layout);
        for op in &n.operands {
            let _ = write!(out, " {op}");
        }
        if !n.name.is_empty() {
            // Names are whitespace-split by the parser; sanitize.
            let safe: String = n
                .name
                .chars()
                .map(|ch| if ch.is_whitespace() { '_' } else { ch })
                .collect();
            let _ = write!(out, " name={}", serde_json::to_string(&safe).unwrap());
        }
        if n.attrs != NodeAttrs::default() {
            let _ = write!(
                out,
                " attrs={}",
                serde_json::to_string(&n.attrs).expect("attrs serialize")
            );
        }
        let _ = writeln!(out);
    }
    out.push_str("}\n");
    out
}

fn parse_err(line: usize, reason: impl Into<String>) -> HloError {
    HloError::Parse {
        line,
        reason: reason.into(),
    }
}

fn parse_node_id(tok: &str, line: usize) -> Result<NodeId> {
    let digits = tok
        .strip_prefix('%')
        .ok_or_else(|| parse_err(line, format!("expected %id, got `{tok}`")))?;
    digits
        .parse::<u32>()
        .map(NodeId)
        .map_err(|_| parse_err(line, format!("bad node id `{tok}`")))
}

/// The comma-separated indices of `list` (none if it is empty), at most
/// [`MAX_RANK`] of them: a longer list is refused before it is stored, in
/// a message that does not quote it.
fn parse_indices(list: &str, what: &str, line: usize) -> Result<Vec<usize>> {
    if list.is_empty() {
        return Ok(Vec::new());
    }
    let mut out = Vec::with_capacity(MAX_RANK);
    for d in list.split(',') {
        if out.len() == MAX_RANK {
            return Err(parse_err(
                line,
                format!("{what} list longer than {MAX_RANK}"),
            ));
        }
        let d = d.parse::<usize>();
        out.push(d.map_err(|_| parse_err(line, format!("bad {what} in `{list}`")))?);
    }
    Ok(out)
}

/// Parse `f32[4,10]{1,0}` into (dtype, shape, layout).
fn parse_type(tok: &str, line: usize) -> Result<(DType, Shape, Layout)> {
    let lb = tok
        .find('[')
        .ok_or_else(|| parse_err(line, format!("missing `[` in type `{tok}`")))?;
    let dtype = DType::parse(&tok[..lb])
        .ok_or_else(|| parse_err(line, format!("unknown dtype in `{tok}`")))?;
    let rb = tok
        .find(']')
        .ok_or_else(|| parse_err(line, format!("missing `]` in type `{tok}`")))?;
    let bad = |reason: String| parse_err(line, format!("bad type `{tok}`: {reason}"));
    let shape = Shape::try_new(parse_indices(&tok[lb + 1..rb], "dim", line)?).map_err(bad)?;
    // Sizes downstream are byte counts in `u64`.
    if shape
        .elem_count()
        .checked_mul(dtype.size_bytes() as u64)
        .is_none()
    {
        return Err(bad("byte size overflows u64".to_string()));
    }
    let rest = &tok[rb + 1..];
    let layout = if rest.is_empty() {
        Layout::default_for_rank(shape.rank())
    } else {
        let inner = rest
            .strip_prefix('{')
            .and_then(|r| r.strip_suffix('}'))
            .ok_or_else(|| parse_err(line, format!("bad layout `{rest}`")))?;
        Layout::try_new(parse_indices(inner, "layout index", line)?).map_err(bad)?
    };
    Ok((dtype, shape, layout))
}

/// The string a `name=` token carries, as JSON.
fn parse_name(json: &str) -> std::result::Result<String, serde_json::Error> {
    let mut sc = Scanner::new(json);
    let name = sc.string()?;
    sc.finish()?;
    Ok(name.unescape())
}

/// Index of the first byte of `bytes` that is at most `b' '` or not ASCII
/// — the only bytes a whitespace character can start with — eight bytes
/// at a time.
fn find_ws_candidate(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    let mut chunks = bytes.chunks_exact(8);
    let mut at = 0;
    for chunk in chunks.by_ref() {
        let w = u64::from_le_bytes(chunk.try_into().expect("chunks of eight"));
        // A byte's top bit ends up set where the byte is below 0x21 (the
        // subtraction borrows) or is not ASCII.
        if (w.wrapping_sub(ONES * 0x21) | w) & (ONES * 0x80) != 0 {
            break;
        }
        at += 8;
    }
    let is_candidate = |&b: &u8| b <= b' ' || !b.is_ascii();
    bytes[at..].iter().position(is_candidate).map(|i| at + i)
}

/// The tokens `str::split_whitespace` would yield.
struct Tokens<'a>(&'a str);

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let s = self.0.trim_start();
        if s.is_empty() {
            return None;
        }
        let mut end = 0;
        while let Some(at) = find_ws_candidate(&s.as_bytes()[end..]) {
            end += at;
            let c = s[end..].chars().next().expect("end is a char boundary");
            if c.is_whitespace() {
                let (tok, rest) = s.split_at(end);
                self.0 = rest;
                return Some(tok);
            }
            end += c.len_utf8();
        }
        self.0 = "";
        Some(s)
    }
}

/// Parse the text format back into a [`Computation`]. Validates the result.
///
/// The text may come from the network (`tpu-serve` hands it every predict
/// request's `kernel.text`): any input gives a computation or an error,
/// never a panic, and nothing is allocated beyond the size of the text.
///
/// # Errors
///
/// Returns [`HloError::Parse`] on malformed input and any validation error
/// on structurally invalid graphs.
pub fn parse_computation(text: &str) -> Result<Computation> {
    let mut lines = text.lines().enumerate();
    let (header_line_no, header) = lines
        .by_ref()
        .map(|(i, l)| (i + 1, l.trim()))
        .find(|(_, l)| !l.is_empty())
        .ok_or_else(|| parse_err(0, "empty input"))?;

    let header = header
        .strip_prefix("computation ")
        .ok_or_else(|| parse_err(header_line_no, "expected `computation <name> root=%N {`"))?;
    let mut parts = Tokens(header);
    let name = parts
        .next()
        .ok_or_else(|| parse_err(header_line_no, "missing name"))?
        .to_string();
    let root_tok = parts
        .next()
        .and_then(|t| t.strip_prefix("root="))
        .ok_or_else(|| parse_err(header_line_no, "missing root=%N"))?;
    let root = parse_node_id(root_tok, header_line_no)?;

    let mut nodes = Vec::new();
    for (i, raw) in lines {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if line == "}" {
            break;
        }
        // `%id = opcode type [operands...] [name=..] [attrs=..]`
        let (lhs, rhs) = line
            .split_once('=')
            .ok_or_else(|| parse_err(line_no, "missing `=`"))?;
        let id = parse_node_id(lhs.trim(), line_no)?;
        let mut toks = Tokens(rhs);
        let op_tok = toks
            .next()
            .ok_or_else(|| parse_err(line_no, "missing opcode"))?;
        let opcode = Opcode::parse(op_tok)
            .ok_or_else(|| parse_err(line_no, format!("unknown opcode `{op_tok}`")))?;
        let type_tok = toks
            .next()
            .ok_or_else(|| parse_err(line_no, "missing type"))?;
        let (dtype, shape, layout) = parse_type(type_tok, line_no)?;

        let mut operands = Vec::new();
        let mut name_field = String::new();
        let mut attrs = NodeAttrs::default();
        for tok in toks {
            if let Some(rest) = tok.strip_prefix("name=") {
                name_field =
                    parse_name(rest).map_err(|e| parse_err(line_no, format!("bad name: {e}")))?;
            } else if let Some(rest) = tok.strip_prefix("attrs=") {
                attrs = NodeAttrs::from_json(rest)
                    .map_err(|e| parse_err(line_no, format!("bad attrs: {e}")))?;
            } else {
                operands.push(parse_node_id(tok, line_no)?);
            }
        }
        if id.index() != nodes.len() {
            return Err(parse_err(
                line_no,
                format!("node ids must be dense and ordered; got {id}"),
            ));
        }
        nodes.push(Node {
            id,
            opcode,
            dtype,
            shape,
            layout,
            operands,
            attrs,
            name: name_field,
        });
    }

    Computation::from_parts(name, nodes, root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::hashing::canonical_hash;

    fn softmax_graph() -> Computation {
        let mut b = GraphBuilder::new("softmax");
        let x = b.parameter("x", Shape::matrix(4, 10), DType::F32);
        let s = b.softmax(x);
        b.finish(s)
    }

    #[test]
    fn dump_contains_all_nodes() {
        let c = softmax_graph();
        let text = dump_computation(&c);
        assert!(text.contains("computation softmax"));
        for n in c.nodes() {
            assert!(text.contains(&n.id.to_string()));
        }
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let c = softmax_graph();
        let parsed = parse_computation(&dump_computation(&c)).unwrap();
        assert_eq!(parsed.num_nodes(), c.num_nodes());
        assert_eq!(parsed.root(), c.root());
        assert_eq!(canonical_hash(&parsed), canonical_hash(&c));
        assert_eq!(parsed.name(), "softmax");
    }

    #[test]
    fn roundtrip_with_dot_and_conv() {
        let mut b = GraphBuilder::new("mixed");
        let x = b.parameter("x", Shape::new(vec![1, 8, 8, 4]), DType::F32);
        let w = b.parameter("w", Shape::new(vec![3, 3, 4, 8]), DType::F32);
        let y = b.convolution(x, w, crate::attrs::ConvAttrs::same_strided(3, 2));
        let flat = b.reshape(y, Shape::matrix(1, 4 * 4 * 8));
        let m = b.parameter("m", Shape::matrix(128, 16), DType::F32);
        let d = b.dot(flat, m);
        let c = b.finish(d);
        let parsed = parse_computation(&dump_computation(&c)).unwrap();
        assert_eq!(canonical_hash(&parsed), canonical_hash(&c));
    }

    #[test]
    fn parse_rejects_unknown_opcode() {
        let text = "computation t root=%0 {\n  %0 = frobnicate f32[2]{0}\n}\n";
        assert!(matches!(
            parse_computation(text),
            Err(HloError::Parse { .. })
        ));
    }

    #[test]
    fn parse_rejects_bad_root() {
        let text = "computation t root=%9 {\n  %0 = parameter f32[2]{0} name=\"x\"\n}\n";
        assert!(matches!(
            parse_computation(text),
            Err(HloError::BadRoot { .. })
        ));
    }

    #[test]
    fn parse_scalar_type() {
        let text = "computation t root=%0 {\n  %0 = constant f32[]{}\n}\n";
        let c = parse_computation(text).unwrap();
        assert!(c.node(NodeId(0)).shape.is_scalar());
    }

    #[test]
    fn names_roundtrip_with_sanitization() {
        let mut b = GraphBuilder::new("t");
        let x = b.parameter("weird name", Shape::vector(4), DType::F32);
        let y = b.tanh(x);
        let c = b.finish(y);
        let parsed = parse_computation(&dump_computation(&c)).unwrap();
        assert_eq!(parsed.node(NodeId(0)).name, "weird_name");
    }
}
