//! The reader that read the text format line by line, as it was before it
//! read the text's bytes in one pass: `lines()` and `trim`, `split_once`
//! at the `=`, a whitespace tokenizer over each line, and a `Vec` per
//! index list. It is the differential oracle of that one-pass reader:
//! on any text the two must give the same [`Computation`] or the same
//! [`HloError`], variant, line and message.
//!
//! It is moved here as it was, on the crate's public API: the shape and
//! layout checks it called are restated with their messages
//! ([`shape_try_new`], [`layout_try_new`]), and the `attrs=` reader, which
//! both readers share, is asked through a one-node text for its verdict
//! ([`attrs_from_json`]).

use super::node_attrs::op_attrs_from_str;
use serde_json::Scanner;
use tpu_hlo::{
    Computation, DType, HloError, Layout, Node, NodeId, OpAttrs, Opcode, Shape, MAX_RANK,
};

type Result<T> = std::result::Result<T, HloError>;

/// `Shape::try_new` as the reader called it.
fn shape_try_new(dims: Vec<usize>) -> std::result::Result<Shape, String> {
    if dims.len() > MAX_RANK {
        return Err(format!("rank {} exceeds MAX_RANK", dims.len()));
    }
    let mut count = Some(1u64);
    for &d in &dims {
        if d == 0 {
            return Err(format!("zero-sized dimension in {dims:?}"));
        }
        count = count.and_then(|n| n.checked_mul(d as u64));
    }
    if count.is_none() {
        return Err(format!("element count of {dims:?} overflows u64"));
    }
    Ok(Shape::new(dims))
}

/// `Layout::try_new` as the reader called it.
fn layout_try_new(minor_to_major: Vec<usize>) -> std::result::Result<Layout, String> {
    if minor_to_major.len() > MAX_RANK {
        return Err(format!(
            "layout rank {} exceeds MAX_RANK",
            minor_to_major.len()
        ));
    }
    let mut seen = [false; MAX_RANK];
    for &d in &minor_to_major {
        if d >= minor_to_major.len() {
            return Err(format!("layout index {d} out of range"));
        }
        if std::mem::replace(&mut seen[d], true) {
            return Err(format!("duplicate layout index {d}"));
        }
    }
    Ok(Layout::new(minor_to_major))
}

/// The crate's `attrs=` reader on `json` (a token: no whitespace) as the
/// attributes of a lone node of `opcode`: the message it refuses it with,
/// or, when it takes it, the attributes the reference reads (a lone node
/// of most opcodes does not validate, so the crate's are not to be had;
/// the attrs suites hold the two readers to the same values).
fn attrs_from_json(json: &str, opcode: Opcode) -> std::result::Result<(OpAttrs, bool), String> {
    let text = format!("computation t root=%0 {{\n  %0 = {opcode} f32[1] attrs={json}\n}}\n");
    match tpu_hlo::parse_computation(&text) {
        Err(HloError::Parse { line: 2, reason }) => Err(reason
            .strip_prefix("bad attrs: ")
            .unwrap_or_else(|| panic!("not an attrs error: {reason}"))
            .to_string()),
        _ => Ok(op_attrs_from_str(json, opcode).unwrap_or_else(|e| {
            panic!("the reader takes attrs={json} on {opcode}, the reference says {e}")
        })),
    }
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
    let shape = shape_try_new(parse_indices(&tok[lb + 1..rb], "dim", line)?).map_err(bad)?;
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
        layout_try_new(parse_indices(inner, "layout index", line)?).map_err(bad)?
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

/// `tpu_hlo::parse_computation` as it was.
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
        // No `attrs=` reads as an empty object.
        let (mut attrs, mut is_output) = op_attrs_from_str("{}", opcode).unwrap();
        for tok in toks {
            if let Some(rest) = tok.strip_prefix("name=") {
                name_field =
                    parse_name(rest).map_err(|e| parse_err(line_no, format!("bad name: {e}")))?;
            } else if let Some(rest) = tok.strip_prefix("attrs=") {
                (attrs, is_output) = attrs_from_json(rest, opcode)
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
