//! A human-readable text format for computations, with a round-tripping
//! parser. Useful for debugging dataset kernels and for golden tests, and
//! the form a kernel takes on the `tpu-serve` wire.
//!
//! ```text
//! computation softmax root=%4 {
//!   %0 = parameter f32[4,10] name="x"
//!   %1 = exp f32[4,10] %0
//!   %2 = reduce f32[4] %1 attrs={"reduce_dims":[1]}
//!   %3 = broadcast f32[4,10] %2 attrs={"broadcast_dims":[0]}
//!   %4 = divide f32[4,10] %1 %3 attrs={"is_output":true}
//! }
//! ```
//!
//! An `attrs=` object holds the node's [`OpAttrs`] under its key and
//! `"is_output":true` on an output node. The writer leaves out what the
//! reader restores: a layout that is the row-major default of its rank, an
//! empty index list, and `attrs=` itself when nothing is left. Text that
//! spells these out reads the same, as does the full form older clients
//! send, with all eleven keys; one of another opcode is refused unless it
//! holds its default.

use crate::attrs::OpAttrs;
use crate::dtype::DType;
use crate::error::{HloError, Result};
use crate::graph::Computation;
use crate::node::{Node, NodeId};
use crate::opcode::Opcode;
use crate::shape::{Layout, Shape, MAX_RANK};
use serde::Serialize;
use serde_json::Scanner;
use std::fmt::Write as _;

/// Render a computation in the text format.
pub fn dump_computation(c: &Computation) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "computation {} root={} {{", token(c.name()), c.root());
    for n in c.nodes() {
        let _ = write!(out, "  {} = {} {}{}", n.id, n.opcode, n.dtype, n.shape);
        if !n.layout.is_default() {
            let _ = write!(out, "{}", n.layout);
        }
        for op in &n.operands {
            let _ = write!(out, " {op}");
        }
        if !n.name.is_empty() {
            let name = serde_json::to_string(&token(&n.name)).unwrap();
            let _ = write!(out, " name={name}");
        }
        let field = n.attrs.key().zip(attrs_value(&n.attrs));
        if field.is_some() || n.is_output {
            out.push_str(" attrs={");
            if let Some((key, value)) = &field {
                let _ = write!(out, "\"{key}\":{value}");
            }
            if n.is_output {
                let comma = if field.is_some() { "," } else { "" };
                let _ = write!(out, "{comma}\"is_output\":true");
            }
            out.push('}');
        }
        out.push('\n');
    }
    out.push_str("}\n");
    out
}

/// The JSON `attrs` is written as under its key, or `None` when it is
/// the default the reader restores: no attributes, an empty index list.
fn attrs_value(attrs: &OpAttrs) -> Option<String> {
    let value = match attrs {
        OpAttrs::None => return None,
        OpAttrs::Reduce(d) | OpAttrs::Transpose(d) | OpAttrs::Broadcast(d) => {
            if d.is_empty() {
                return None;
            }
            d.to_value()
        }
        OpAttrs::Dot(d) => d.to_value(),
        OpAttrs::Conv(c) => c.to_value(),
        OpAttrs::Slice(s) => s.to_value(),
        OpAttrs::Pad(p) => p.to_value(),
        OpAttrs::Concat(d) => d.to_value(),
        OpAttrs::Compare(c) => c.to_value(),
        &OpAttrs::Window(h, w, sh, sw) => (h, w, sh, sw).to_value(),
    };
    Some(serde_json::value_to_string(&value))
}

/// `name` as one token of the text: whitespace, at which the parser
/// splits tokens, becomes `_`, and so does an empty name.
fn token(name: &str) -> String {
    if name.is_empty() {
        return "_".to_string();
    }
    name.chars()
        .map(|ch| if ch.is_whitespace() { '_' } else { ch })
        .collect()
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
/// [`MAX_RANK`] of them, read in place into an array with their count: a
/// longer list is refused before it is stored, in a message that does not
/// quote it.
fn parse_indices(list: &str, what: &str, line: usize) -> Result<([usize; MAX_RANK], usize)> {
    let mut out = [0; MAX_RANK];
    if list.is_empty() {
        return Ok((out, 0));
    }
    let mut len = 0;
    for d in list.split(',') {
        if len == MAX_RANK {
            return Err(parse_err(
                line,
                format!("{what} list longer than {MAX_RANK}"),
            ));
        }
        let d = d.parse::<usize>();
        out[len] = d.map_err(|_| parse_err(line, format!("bad {what} in `{list}`")))?;
        len += 1;
    }
    Ok((out, len))
}

/// Parse `f32[4,10]{1,0}` into (dtype, shape, layout).
fn parse_type(tok: &str, line: usize) -> Result<(DType, Shape, Layout)> {
    let bytes = tok.as_bytes();
    let lb = bytes
        .iter()
        .position(|&b| b == b'[')
        .ok_or_else(|| parse_err(line, format!("missing `[` in type `{tok}`")))?;
    let dtype = DType::parse(&tok[..lb])
        .ok_or_else(|| parse_err(line, format!("unknown dtype in `{tok}`")))?;
    // No dtype holds a `]`: the first one after the `[` is the token's first.
    let rb = bytes[lb..]
        .iter()
        .position(|&b| b == b']')
        .map(|at| lb + at)
        .ok_or_else(|| parse_err(line, format!("missing `]` in type `{tok}`")))?;
    let bad = |reason: String| parse_err(line, format!("bad type `{tok}`: {reason}"));
    let (dims, rank) = parse_indices(&tok[lb + 1..rb], "dim", line)?;
    let shape = Shape::try_new(&dims[..rank]).map_err(bad)?;
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
        let (m2m, rank) = parse_indices(inner, "layout index", line)?;
        Layout::try_new(&m2m[..rank]).map_err(bad)?
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

/// A forward cursor over the text that counts the lines it passes.
/// Whitespace is what `char::is_whitespace` says it is: an ASCII byte is
/// classified as it stands, and only a byte of 0x80 or more has its
/// character decoded (U+00A0 splits tokens as a space does). Only `\n`
/// ends a line, as in `str::lines`, whose `\r` is whitespace anyway.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    /// The 1-based number of the line `pos` is on.
    line: usize,
}

impl<'a> Cursor<'a> {
    /// Whether the character at `at` (a char boundary, not the end) is
    /// whitespace, and its length in bytes.
    fn char_at(&self, at: usize) -> (bool, usize) {
        let b = self.text.as_bytes()[at];
        if b.is_ascii() {
            (matches!(b, b'\t'..=b'\r' | b' '), 1)
        } else {
            let c = self.text[at..].chars().next().expect("a char boundary");
            (c.is_whitespace(), c.len_utf8())
        }
    }

    /// Skip whitespace, line ends included; whether anything follows.
    fn skip_blank(&mut self) -> bool {
        while self.pos < self.text.len() {
            match self.char_at(self.pos) {
                (true, len) => {
                    if self.text.as_bytes()[self.pos] == b'\n' {
                        self.line += 1;
                    }
                    self.pos += len;
                }
                (false, _) => return true,
            }
        }
        false
    }

    /// Skip whitespace up to the end of the line; whether the line ends
    /// here.
    fn skip_space(&mut self) -> bool {
        while self.pos < self.text.len() && self.text.as_bytes()[self.pos] != b'\n' {
            match self.char_at(self.pos) {
                (true, len) => self.pos += len,
                (false, _) => return false,
            }
        }
        true
    }

    /// The next token of this line: the characters up to the next
    /// whitespace.
    fn token(&mut self) -> Option<&'a str> {
        if self.skip_space() {
            return None;
        }
        let start = self.pos;
        while let Some(at) = find_ws_candidate(&self.text.as_bytes()[self.pos..]) {
            self.pos += at;
            match self.char_at(self.pos) {
                (true, _) => return Some(&self.text[start..self.pos]),
                (false, len) => self.pos += len,
            }
        }
        self.pos = self.text.len();
        Some(&self.text[start..])
    }

    /// Whether the rest of this line is a lone `}`.
    fn at_closing_brace(&mut self) -> bool {
        if self.text.as_bytes()[self.pos] != b'}' {
            return false;
        }
        let brace = self.pos;
        self.pos += 1;
        let alone = self.skip_space();
        self.pos = brace;
        alone
    }

    /// Move past the end of this line.
    fn next_line(&mut self) {
        match self.text.as_bytes()[self.pos..]
            .iter()
            .position(|&b| b == b'\n')
        {
            Some(at) => {
                self.pos += at + 1;
                self.line += 1;
            }
            None => self.pos = self.text.len(),
        }
    }
}

/// The fewest bytes a node line can take (`%0=or u8[]`): a text has room
/// for no more nodes than its remaining length over this, which caps what
/// the node list reserves.
const MIN_NODE_LINE: usize = 10;

/// Parse the text format back into a [`Computation`]. Validates the result.
///
/// The text may come from the network (`tpu-serve` hands it every predict
/// request's `kernel.text`): any input gives a computation or an error,
/// never a panic, and nothing is allocated beyond the size of the text.
/// One forward pass reads it, with integers read where they stand: a node
/// allocates only its operand list, its name and the lists of its
/// attributes, when it has them.
///
/// # Errors
///
/// Returns [`HloError::Parse`] on malformed input and any validation error
/// on structurally invalid graphs.
pub fn parse_computation(text: &str) -> Result<Computation> {
    let mut cur = Cursor {
        text,
        pos: 0,
        line: 1,
    };
    if !cur.skip_blank() {
        return Err(parse_err(0, "empty input"));
    }
    let header_line_no = cur.line;
    let bad_header = || parse_err(header_line_no, "expected `computation <name> root=%N {`");
    // The line, trimmed, must go on past the prefix's space.
    if !text[cur.pos..].starts_with("computation ") {
        return Err(bad_header());
    }
    cur.pos += "computation ".len();
    let name = cur.token().ok_or_else(bad_header)?;
    let root_tok = cur
        .token()
        .and_then(|t| t.strip_prefix("root="))
        .ok_or_else(|| parse_err(header_line_no, "missing root=%N"))?;
    let root = parse_node_id(root_tok, header_line_no)?;
    cur.next_line();

    let mut nodes: Vec<Node> = Vec::new();
    while cur.skip_blank() {
        let line_no = cur.line;
        if cur.at_closing_brace() {
            break;
        }
        // `%id = opcode type [operands...] [name=..] [attrs=..]`
        let eq = text.as_bytes()[cur.pos..]
            .iter()
            .position(|&b| b == b'=' || b == b'\n')
            .map(|at| cur.pos + at)
            .filter(|&at| text.as_bytes()[at] == b'=')
            .ok_or_else(|| parse_err(line_no, "missing `=`"))?;
        let id = parse_node_id(text[cur.pos..eq].trim_end(), line_no)?;
        cur.pos = eq + 1;
        let op_tok = cur
            .token()
            .ok_or_else(|| parse_err(line_no, "missing opcode"))?;
        let opcode = Opcode::parse(op_tok)
            .ok_or_else(|| parse_err(line_no, format!("unknown opcode `{op_tok}`")))?;
        let type_tok = cur
            .token()
            .ok_or_else(|| parse_err(line_no, "missing type"))?;
        let (dtype, shape, layout) = parse_type(type_tok, line_no)?;

        // Operands are gathered on the stack, so that the list is
        // allocated once, at its length (past `head`'s room, a vector
        // grows instead).
        let (mut head, mut count, mut spill) = ([NodeId(0); 16], 0, Vec::new());
        let mut name_field = String::new();
        let (mut attrs, mut is_output) = (OpAttrs::absent(opcode), false);
        while let Some(tok) = cur.token() {
            if let Some(rest) = tok.strip_prefix("name=") {
                name_field =
                    parse_name(rest).map_err(|e| parse_err(line_no, format!("bad name: {e}")))?;
            } else if let Some(rest) = tok.strip_prefix("attrs=") {
                (attrs, is_output) = OpAttrs::from_json(rest, opcode)
                    .map_err(|e| parse_err(line_no, format!("bad attrs: {e}")))?;
            } else {
                let op = parse_node_id(tok, line_no)?;
                match head.get_mut(count) {
                    Some(slot) => *slot = op,
                    None if spill.is_empty() => spill = [&head[..], &[op]].concat(),
                    None => spill.push(op),
                }
                count += 1;
            }
        }
        let operands = if count <= head.len() {
            head[..count].to_vec()
        } else {
            spill
        };
        if id.index() != nodes.len() {
            return Err(parse_err(
                line_no,
                format!("node ids must be dense and ordered; got {id}"),
            ));
        }
        if nodes.capacity() == 0 {
            // Room up to the root, which a written kernel puts last, but
            // never for more nodes than the rest of the text can hold.
            let room = (text.len() - eq) / MIN_NODE_LINE + 1;
            nodes.reserve_exact(root.index().saturating_add(1).min(room));
        }
        nodes.push(Node {
            id,
            opcode,
            dtype,
            shape,
            layout,
            operands,
            is_output,
            attrs,
            name: name_field,
        });
    }

    Computation::from_parts(name.to_string(), nodes, root)
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
    fn dump_is_the_module_doc_example() {
        let doc: String = include_str!("text.rs")
            .lines()
            .skip_while(|l| *l != "//! ```text")
            .skip(1)
            .take_while(|l| *l != "//! ```")
            .map(|l| format!("{}\n", l.trim_start_matches("//! ")))
            .collect();
        assert_eq!(dump_computation(&softmax_graph()), doc);
    }

    #[test]
    fn a_layout_other_than_the_default_is_written() {
        let mut c = softmax_graph();
        c.node_mut(NodeId(1)).layout = Layout::new(vec![0, 1]);
        let text = dump_computation(&c);
        assert!(text.contains("%1 = exp f32[4,10]{0,1} %0\n"), "{text}");
        assert_eq!(parse_computation(&text).unwrap(), c);
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
