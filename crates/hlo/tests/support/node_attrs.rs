//! The attribute struct every node carried before each opcode held its own
//! shape of attributes ([`OpAttrs`]): eleven fields, each read for one
//! opcode family, with the derived `Serialize` and `Deserialize` the text
//! format's `attrs=` object was written and read with. It is the reference
//! the reader is compared with: [`attrs_from_str`] reads an object as the
//! derive did, [`NodeAttrs::into_op_attrs`] keeps what a node of an opcode
//! carries, as the reader must, and [`NodeAttrs::of`] gives a node's
//! attributes back in the old fields, which `full_text` spells out. Also
//! compiled into the `tpu-serve` suites, by path.
#![allow(dead_code)]

use serde::{Deserialize, Serialize, Value};
use tpu_hlo::{
    Comparison, ConvAttrs, Dims, DotDims, Node, OpAttrs, Opcode, PadConfig, SliceAttrs, MAX_RANK,
};

/// The full attribute bag of a node. Most fields are `None`/empty for most
/// opcodes.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct NodeAttrs {
    pub dot: Option<DotDims>,
    pub conv: Option<ConvAttrs>,
    pub reduce_dims: Vec<usize>,
    pub transpose_perm: Vec<usize>,
    pub broadcast_dims: Vec<usize>,
    pub slice: Option<SliceAttrs>,
    pub pad: Option<PadConfig>,
    pub concat_dim: Option<usize>,
    pub comparison: Option<Comparison>,
    pub window: Option<(usize, usize, usize, usize)>,
    pub is_output: bool,
}

impl NodeAttrs {
    /// `n`'s attributes in their field, and its output mark.
    pub fn of(n: &Node) -> NodeAttrs {
        let mut bag = NodeAttrs {
            is_output: n.is_output,
            ..NodeAttrs::default()
        };
        match &n.attrs {
            OpAttrs::None => {}
            OpAttrs::Dot(d) => bag.dot = Some(d.clone()),
            OpAttrs::Conv(c) => bag.conv = Some(c.clone()),
            OpAttrs::Reduce(d) => bag.reduce_dims = d.to_vec(),
            OpAttrs::Transpose(d) => bag.transpose_perm = d.to_vec(),
            OpAttrs::Broadcast(d) => bag.broadcast_dims = d.to_vec(),
            OpAttrs::Slice(s) => bag.slice = Some(s.clone()),
            OpAttrs::Pad(p) => bag.pad = Some(p.clone()),
            &OpAttrs::Concat(d) => bag.concat_dim = Some(d),
            &OpAttrs::Compare(c) => bag.comparison = Some(c),
            &OpAttrs::Window(h, w, sh, sw) => bag.window = Some((h, w, sh, sw)),
        }
        bag
    }

    /// What a node of `opcode` keeps of the bag, and its output mark: the
    /// field `opcode` reads. Refused, with the reader's message, when an
    /// index list holds more than [`MAX_RANK`] entries or another field
    /// holds more than its default.
    pub fn into_op_attrs(mut self, opcode: Opcode) -> Result<(OpAttrs, bool), String> {
        let lists = [
            &self.reduce_dims,
            &self.transpose_perm,
            &self.broadcast_dims,
        ];
        if lists.iter().any(|list| list.len() > MAX_RANK) {
            return Err(format!("index list longer than {MAX_RANK}"));
        }
        let dims = |list: &mut Vec<usize>| Dims::try_from(&std::mem::take(list)[..]).unwrap();
        let attrs = match opcode {
            Opcode::Dot => self.dot.take().map(OpAttrs::Dot),
            Opcode::Convolution => self.conv.take().map(OpAttrs::Conv),
            Opcode::Reduce => Some(OpAttrs::Reduce(dims(&mut self.reduce_dims))),
            Opcode::Transpose => Some(OpAttrs::Transpose(dims(&mut self.transpose_perm))),
            Opcode::Broadcast => Some(OpAttrs::Broadcast(dims(&mut self.broadcast_dims))),
            Opcode::Slice => self.slice.take().map(OpAttrs::Slice),
            Opcode::Pad => self.pad.take().map(OpAttrs::Pad),
            Opcode::Concatenate => self.concat_dim.take().map(OpAttrs::Concat),
            Opcode::Compare => self.comparison.take().map(OpAttrs::Compare),
            Opcode::ReduceWindow => {
                let window = self.window.take();
                window.map(|(h, w, sh, sw)| OpAttrs::Window(h, w, sh, sw))
            }
            _ => None,
        }
        .unwrap_or(OpAttrs::None);
        let is_output = std::mem::take(&mut self.is_output);
        let (Value::Object(rest), Value::Object(defaults)) =
            (self.to_value(), NodeAttrs::default().to_value())
        else {
            unreachable!("the derive writes a struct as an object")
        };
        match rest
            .iter()
            .zip(&defaults)
            .find(|(field, default)| field != default)
        {
            Some(((key, _), _)) => Err(format!("`{key}` is not an attribute of `{opcode}`")),
            None => Ok((attrs, is_output)),
        }
    }
}

/// What the derived `Deserialize` of [`NodeAttrs`] makes of `json` once
/// every top-level key the object lacks is added with its default value:
/// the keys it has keep their place (so the first of a repeated one still
/// wins), and a nested struct still needs every field.
pub fn attrs_from_str(json: &str) -> Result<NodeAttrs, serde_json::Error> {
    let mut value = serde_json::parse_value_str(json)?;
    if let (Value::Object(fields), Value::Object(defaults)) =
        (&mut value, NodeAttrs::default().to_value())
    {
        for (key, default) in defaults {
            if !fields.iter().any(|(k, _)| *k == key) {
                fields.push((key, default));
            }
        }
    }
    NodeAttrs::from_value(&value)
}

/// The reference reader: `json` read as the `attrs=` of a node of
/// `opcode`, by the derive and then [`NodeAttrs::into_op_attrs`].
pub fn op_attrs_from_str(json: &str, opcode: Opcode) -> Result<(OpAttrs, bool), String> {
    attrs_from_str(json)
        .map_err(|e| e.to_string())?
        .into_op_attrs(opcode)
}
