//! Support for the adversarial and differential suites of the NDJSON
//! frontend: `parse_request` as it was before it scanned (the oracle), and
//! the generator of damaged lines.
//!
//! The oracle is the old function moved here unchanged, on the crate's
//! public API: it builds a `serde::Value` tree of the whole line (a
//! `String` per key), looks fields up in it, and copies the kernel text
//! out. Nothing but these tests calls it.
#![allow(dead_code)]

use serde::Value;
use tpu_hlo::KernelKind;
use tpu_serve::protocol::{MAX_DEADLINE_MS, MAX_LINE_BYTES, MAX_PATH_BYTES, MAX_TILE_DIMS};
use tpu_serve::{KernelSpec, Request, WireError};

fn bad_request(id: Option<u64>, message: impl Into<String>) -> WireError {
    WireError {
        id,
        code: "bad_request",
        message: message.into(),
    }
}

fn parse_kind(name: &str) -> Option<KernelKind> {
    Some(match name {
        "single" => KernelKind::Single,
        "loop_fusion" => KernelKind::LoopFusion,
        "input_fusion" => KernelKind::InputFusion,
        "output_fusion" => KernelKind::OutputFusion,
        "convolution" => KernelKind::Convolution,
        _ => return None,
    })
}

fn field<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    serde::get_field(fields, key)
}

fn parse_id(fields: &[(String, Value)]) -> Result<u64, WireError> {
    match field(fields, "id") {
        Some(v) => match v.as_int() {
            Some(n) if n >= 0 && n <= u64::MAX as i128 => Ok(n as u64),
            _ => Err(bad_request(None, "\"id\" must be a non-negative integer")),
        },
        None => Err(bad_request(None, "missing \"id\" field")),
    }
}

/// `tpu_serve::parse_request` as it was.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(bad_request(
            None,
            format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        ));
    }
    let value = serde_json::parse_value_str(line).map_err(|e| WireError {
        id: None,
        code: "parse",
        message: format!("invalid JSON: {e}"),
    })?;
    let fields = value
        .as_object()
        .ok_or_else(|| bad_request(None, "request must be a JSON object"))?;
    let id = parse_id(fields)?;
    let op = field(fields, "op")
        .and_then(Value::as_str)
        .ok_or_else(|| bad_request(Some(id), "missing or non-string \"op\" field"))?;
    match op {
        "stats" => Ok(Request::Stats { id }),
        "ping" => Ok(Request::Ping { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "reload" => {
            let path = field(fields, "path")
                .and_then(Value::as_str)
                .ok_or_else(|| bad_request(Some(id), "reload requires a string \"path\" field"))?;
            if path.len() > MAX_PATH_BYTES {
                return Err(bad_request(
                    Some(id),
                    format!("reload path exceeds {MAX_PATH_BYTES} bytes"),
                ));
            }
            Ok(Request::Reload {
                id,
                path: path.to_string(),
            })
        }
        "predict" => {
            let kernel = field(fields, "kernel")
                .and_then(Value::as_object)
                .ok_or_else(|| bad_request(Some(id), "predict requires a \"kernel\" object"))?;
            let text = field(kernel, "text")
                .and_then(Value::as_str)
                .ok_or_else(|| bad_request(Some(id), "kernel requires a string \"text\" field"))?
                .to_string();
            let kind = match field(kernel, "kind") {
                None | Some(Value::Null) => None,
                Some(v) => {
                    let name = v
                        .as_str()
                        .ok_or_else(|| bad_request(Some(id), "kernel \"kind\" must be a string"))?;
                    Some(parse_kind(name).ok_or_else(|| {
                        bad_request(Some(id), format!("unknown kernel kind {name:?}"))
                    })?)
                }
            };
            let tile = match field(kernel, "tile") {
                None | Some(Value::Null) => None,
                Some(v) => {
                    let dims = v
                        .as_array()
                        .ok_or_else(|| bad_request(Some(id), "kernel \"tile\" must be an array"))?;
                    if dims.len() > MAX_TILE_DIMS {
                        return Err(bad_request(
                            Some(id),
                            format!("tile has more than {MAX_TILE_DIMS} extents"),
                        ));
                    }
                    let mut extents = Vec::with_capacity(dims.len());
                    for d in dims {
                        match d.as_int() {
                            Some(n) if n > 0 => extents.push(n as usize),
                            _ => {
                                return Err(bad_request(
                                    Some(id),
                                    "tile extents must be positive integers",
                                ))
                            }
                        }
                    }
                    Some(extents)
                }
            };
            let deadline_ms = match field(fields, "deadline_ms") {
                None | Some(Value::Null) => None,
                Some(v) => match v.as_int() {
                    Some(n) if n >= 0 && n <= MAX_DEADLINE_MS as i128 => Some(n as u64),
                    _ => {
                        return Err(bad_request(
                            Some(id),
                            format!("\"deadline_ms\" must be an integer in 0..={MAX_DEADLINE_MS}"),
                        ))
                    }
                },
            };
            Ok(Request::Predict {
                id,
                spec: KernelSpec { text, kind, tile },
                deadline_ms,
            })
        }
        other => Err(bad_request(Some(id), format!("unknown op {other:?}"))),
    }
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
