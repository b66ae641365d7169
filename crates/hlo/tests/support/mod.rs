//! Support for the adversarial and differential suites of the text
//! format: the two readers the one-pass reader replaced (the oracles), the
//! generators of hostile inputs, the writer of the full text form
//! ([`full_text`]) and the attribute struct the nodes carried before each
//! opcode held its own shape of attributes ([`node_attrs`]).
//!
//! [`tokens`] is the reader as it was before it read bytes in one pass;
//! the one-pass reader must answer exactly as it does, errors included.
//! [`parse_computation`] here is the parser before that one, moved here
//! unchanged, on the crate's public API: `split_whitespace` tokens,
//! `split(',').collect()` per type field, `Shape::new` / `Layout::new`
//! (which panic), and `serde_json::from_str` — a `Value` tree and the
//! derived `Deserialize` — for every `name=` and `attrs=`. Two rules are
//! newer than that parser: an absent top-level `attrs=` key is its default
//! ([`node_attrs::attrs_from_str`]), since the writer leaves out the keys
//! whose value is; and a node keeps the attributes of its own opcode
//! ([`node_attrs::NodeAttrs::into_op_attrs`]). Nothing but these tests
//! calls either.
#![allow(dead_code)]

pub mod full_text;
pub mod node_attrs;
pub mod tokens;

use node_attrs::op_attrs_from_str;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use tpu_hlo::{Computation, DType, HloError, Layout, Node, NodeId, Opcode, Shape};

type Result<T> = std::result::Result<T, HloError>;

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
    let dims_str = &tok[lb + 1..rb];
    let dims: Vec<usize> = if dims_str.is_empty() {
        Vec::new()
    } else {
        dims_str
            .split(',')
            .map(|d| {
                d.parse::<usize>()
                    .map_err(|_| parse_err(line, format!("bad dim `{d}`")))
            })
            .collect::<Result<_>>()?
    };
    let rest = &tok[rb + 1..];
    let layout = if rest.is_empty() {
        Layout::default_for_rank(dims.len())
    } else {
        let inner = rest
            .strip_prefix('{')
            .and_then(|r| r.strip_suffix('}'))
            .ok_or_else(|| parse_err(line, format!("bad layout `{rest}`")))?;
        let m2m: Vec<usize> = if inner.is_empty() {
            Vec::new()
        } else {
            inner
                .split(',')
                .map(|d| {
                    d.parse::<usize>()
                        .map_err(|_| parse_err(line, format!("bad layout index `{d}`")))
                })
                .collect::<Result<_>>()?
        };
        Layout::new(m2m)
    };
    Ok((dtype, Shape::new(dims), layout))
}

/// `tpu_hlo::parse_computation` as it was.
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
    let mut parts = header.split_whitespace();
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
        let mut toks = rhs.split_whitespace();
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
        // No `attrs=` reads as an empty object.
        let (mut attrs, mut is_output) = op_attrs_from_str("{}", opcode).unwrap();
        for tok in toks {
            if let Some(rest) = tok.strip_prefix("name=") {
                name_field = serde_json::from_str(rest)
                    .map_err(|e| parse_err(line_no, format!("bad name: {e}")))?;
            } else if let Some(rest) = tok.strip_prefix("attrs=") {
                (attrs, is_output) = op_attrs_from_str(rest, opcode)
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
            is_output,
            attrs,
            name: name_field,
        });
    }

    Computation::from_parts(name, nodes, root)
}

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Run `f`, turning a panic into `None` without printing it (the oracle
/// panics on inputs the suites feed it on purpose).
pub fn catch_quietly<T>(f: impl FnOnce() -> T) -> Option<T> {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                default(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let out = catch_unwind(AssertUnwindSafe(f)).ok();
    QUIET.with(|q| q.set(false));
    out
}

/// Every way of damaging `input` by one edit that the suites use: cut at
/// every byte, every bit of every `stride`-th byte flipped, every
/// `stride`-th byte deleted, and each of `inserts` put in before every
/// `stride`-th byte. Bytes, not text: an edit may break the UTF-8.
pub fn mutations(input: &[u8], stride: usize, inserts: &[&[u8]]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..input.len()).map(|cut| input[..cut].to_vec()).collect();
    for at in (0..input.len()).step_by(stride) {
        for bit in 0..8 {
            let mut m = input.to_vec();
            m[at] ^= 1 << bit;
            out.push(m);
        }
        let mut m = input.to_vec();
        m.remove(at);
        out.push(m);
        for insert in inserts {
            let mut m = input.to_vec();
            m.splice(at..at, insert.iter().copied());
            out.push(m);
        }
    }
    out
}
