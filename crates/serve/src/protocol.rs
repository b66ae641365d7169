//! The `tpu-serve` wire protocol: newline-delimited JSON.
//!
//! Each request is one JSON object on one line; each reply is one JSON
//! object on one line, in request order. The schema is deliberately small:
//!
//! ```json
//! {"op":"predict","id":1,"kernel":{"text":"computation ...","kind":"loop_fusion","tile":[8,128]},"deadline_ms":50}
//! {"op":"stats","id":2}
//! {"op":"ping","id":3}
//! {"op":"reload","id":4,"path":"/models/new.blob"}
//! {"op":"shutdown","id":5}
//! ```
//!
//! Replies echo the request `id` and carry `"ok":true` with the payload
//! (`ns` for predictions — a float, or `null` when no backend can score
//! the kernel), or `"ok":false` with an `error` object:
//!
//! ```json
//! {"id":1,"ok":true,"ns":10642.5}
//! {"id":2,"ok":true,"ns":10642.5,"degraded":true}
//! {"id":9,"ok":false,"error":{"code":"overloaded","message":"..."}}
//! {"id":4,"ok":false,"error":{"code":"reload_rejected","reason":"tau","message":"..."}}
//! ```
//!
//! `"degraded":true` marks predictions served while the backend circuit
//! breaker was open (the fallback answered, not the primary); the field
//! is omitted on the healthy path.
//!
//! The `stats` reply's `cache_entries` counts cache slots, not kernels: a
//! kernel served from text holds its canonical slot plus one slot per
//! distinct text (escaping, names, whitespace) it arrived as.
//!
//! Error codes: `parse` (line is not valid JSON), `bad_request` (JSON is
//! valid but the fields are not — also oversized or non-UTF-8 lines),
//! `hlo` (the kernel text does not parse), `overloaded` (admission
//! control rejected the request), `budget` (the model-evaluation budget
//! is spent and the kernel missed the cache), `deadline` (the request's
//! deadline expired before an answer was ready), `backend_panic` (the
//! backend panicked while scoring this batch), `reload_rejected` (a hot
//! reload failed admission; `reason` is one of `disabled`/`io`/`parse`/
//! `non_finite`/`tau`/`shutdown`), and `shutdown` (the engine is
//! draining).
//!
//! Input limits: a request line longer than [`MAX_LINE_BYTES`], a tile
//! with more than [`MAX_TILE_DIMS`] extents, or a reload path longer
//! than [`MAX_PATH_BYTES`] is refused with `bad_request` — the daemon
//! never buffers unboundedly on behalf of a client.
//!
//! A request line is read in one pass and copied nowhere:
//! [`scan_request`] walks it with the pull [`Scanner`], noting the fields
//! it needs and leaving `kernel.text` as a validated span of the line
//! ([`KernelRef`]). [`KernelRef::text_key`] hashes that span as it stands,
//! with the kind and tile, and the engine probes its cache with that key
//! first: a warm line is answered without unescaping or parsing. On a
//! miss, [`KernelRef::to_hashed`] unescapes the span into a buffer the
//! connection reuses, parses it and hashes the kernel, and the
//! [`HashedKernel`] goes to the engine. No `Value` tree, no `String` per
//! key, no owned copy of the text. [`parse_request`] / [`KernelSpec`] are
//! the owning form of the same scan, for callers that keep a request.
//! The predict reply is written straight into the connection's output
//! buffer ([`write_predict_reply`]); the rare replies (`stats`, errors,
//! reload) are built as [`serde::Value`] trees. Both print through the one
//! vendored serializer, so the byte layout is deterministic — the golden
//! test in `tests/serve_protocol.rs` pins it.

use serde::Value;
use serde_json::{Kind, RawStr, Scanner};
use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::Hasher;
use tpu_hlo::{dump_computation, parse_computation, HashedKernel, Kernel, KernelKind, TileSize};

/// Longest accepted request line, in bytes. Anything longer is refused
/// with `bad_request` instead of being buffered.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Most tile extents accepted in a predict request (real tile sizes have
/// a handful; an adversarial array must not allocate on our side).
pub const MAX_TILE_DIMS: usize = 16;

/// Longest accepted `reload` path, in bytes.
pub const MAX_PATH_BYTES: usize = 4096;

/// Highest accepted `deadline_ms` (24 hours — anything longer is a
/// client bug, not a deadline).
pub const MAX_DEADLINE_MS: u64 = 86_400_000;

/// A parsed client request; `K` is the form its kernel payload takes —
/// the owning [`KernelSpec`], or the [`KernelRef`] of a [`RequestRef`].
#[derive(Debug, Clone, PartialEq)]
pub enum Request<K = KernelSpec> {
    /// Score one kernel, optionally under a deadline.
    Predict {
        id: u64,
        spec: K,
        /// Per-request deadline; `None` inherits the server default.
        deadline_ms: Option<u64>,
    },
    /// Report serving counters.
    Stats { id: u64 },
    /// Liveness check.
    Ping { id: u64 },
    /// Hot-reload the serving model from a `tpu-frozen.v2` blob.
    Reload { id: u64, path: String },
    /// Ask the daemon to drain and exit.
    Shutdown { id: u64 },
}

/// A request as [`scan_request`] found it, borrowing the line.
pub type RequestRef<'a> = Request<KernelRef<'a>>;

impl<K> Request<K> {
    /// The request id, echoed in every reply.
    pub fn id(&self) -> u64 {
        match self {
            Request::Predict { id, .. }
            | Request::Stats { id }
            | Request::Ping { id }
            | Request::Reload { id, .. }
            | Request::Shutdown { id } => *id,
        }
    }
}

/// The kernel payload of a predict request: HLO text plus optional
/// kind override and tile size.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// HLO text, as produced by [`dump_computation`].
    pub text: String,
    /// Kernel kind; when absent the kind is re-classified from the text.
    pub kind: Option<KernelKind>,
    /// Tile extents, minor-most first.
    pub tile: Option<Vec<usize>>,
}

impl KernelSpec {
    /// Capture a kernel as a wire spec (inverse of [`KernelSpec::to_kernel`]).
    pub fn from_kernel(kernel: &Kernel) -> KernelSpec {
        KernelSpec {
            text: dump_computation(&kernel.computation),
            kind: Some(kernel.kind),
            tile: kernel.tile.as_ref().map(|t| t.dims().to_vec()),
        }
    }

    /// Materialize the kernel, parsing the HLO text.
    pub fn to_kernel(&self) -> Result<Kernel, String> {
        build_kernel(&self.text, self.kind, self.tile.as_deref())
    }
}

fn build_kernel(
    text: &str,
    kind: Option<KernelKind>,
    tile: Option<&[usize]>,
) -> Result<Kernel, String> {
    let computation = parse_computation(text).map_err(|e| e.to_string())?;
    let mut kernel = Kernel::new(computation);
    if let Some(kind) = kind {
        kernel.kind = kind;
    }
    if let Some(tile) = tile {
        kernel = kernel.with_tile(TileSize(tile.to_vec()));
    }
    Ok(kernel)
}

/// The kernel payload of a predict request as [`scan_request`] found it:
/// the text still escaped, in the line; the tile inline.
#[derive(Debug, Clone, Copy)]
pub struct KernelRef<'a> {
    text: RawStr<'a>,
    kind: Option<KernelKind>,
    tile: Option<Tile>,
}

/// The `tile` array as scanned, without a heap allocation: its first
/// [`MAX_TILE_DIMS`] extents, how many elements it had, and whether any
/// was not a positive integer. A [`KernelRef`] holds only a valid one.
#[derive(Debug, Clone, Copy)]
struct Tile {
    dims: [usize; MAX_TILE_DIMS],
    count: usize,
    bad_extent: bool,
}

/// The leading byte of a [`KernelRef::text_key`]'s stream, which keeps
/// it apart from every canonical key's.
const TEXT_KEY_DOMAIN: u8 = b'T';

impl KernelRef<'_> {
    fn tile(&self) -> Option<&[usize]> {
        self.tile.as_ref().map(|t| &t.dims[..t.count])
    }

    /// The key of the request's kernel bytes: SipHash over a domain byte,
    /// the text as it stands in the line (still escaped), the kind or its
    /// absence, and the tile's count and extents. The kernel is a pure
    /// function of those, so one text key names one kernel and can stand
    /// for its canonical key in the cache; nothing is unescaped, parsed
    /// or allocated.
    pub fn text_key(&self) -> u64 {
        let mut h = DefaultHasher::new();
        h.write_u8(TEXT_KEY_DOMAIN);
        let raw = self.text.raw().as_bytes();
        h.write_usize(raw.len());
        h.write(raw);
        h.write_usize(self.kind.map_or(0, |k| 1 + k.index()));
        match self.tile() {
            None => h.write_u8(0),
            Some(dims) => {
                h.write_u8(1);
                h.write_usize(dims.len());
                for &d in dims {
                    h.write_usize(d);
                }
            }
        }
        h.finish()
    }

    /// Unescape the text into `scratch` (cleared first; a connection
    /// reuses one), parse it, and hash the kernel where it was parsed.
    pub fn to_hashed(&self, scratch: &mut String) -> Result<HashedKernel, String> {
        scratch.clear();
        self.text.unescape_into(scratch);
        build_kernel(scratch, self.kind, self.tile()).map(HashedKernel::new)
    }

    fn to_spec(self) -> KernelSpec {
        KernelSpec {
            text: self.text.unescape(),
            kind: self.kind,
            tile: self.tile().map(<[usize]>::to_vec),
        }
    }
}

/// A protocol-level failure: everything needed to build the error reply.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Request id, when it could be recovered from the line.
    pub id: Option<u64>,
    /// Stable machine-readable code (see module docs).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    fn bad_request(id: Option<u64>, message: impl Into<String>) -> WireError {
        WireError {
            id,
            code: "bad_request",
            message: message.into(),
        }
    }
}

/// Wire name of a [`KernelKind`].
fn kind_name(kind: KernelKind) -> &'static str {
    match kind {
        KernelKind::Single => "single",
        KernelKind::LoopFusion => "loop_fusion",
        KernelKind::InputFusion => "input_fusion",
        KernelKind::OutputFusion => "output_fusion",
        KernelKind::Convolution => "convolution",
    }
}

fn parse_kind(name: RawStr<'_>) -> Option<KernelKind> {
    KernelKind::all()
        .iter()
        .copied()
        .find(|&kind| name == kind_name(kind))
}

/// One field of interest as the scan found it. The first occurrence of a
/// key wins, as in a `Value` tree read with `serde::get_field`.
#[derive(Debug, Clone, Copy, Default)]
enum Field<T> {
    #[default]
    Absent,
    Null,
    /// Present, but not of the kind the field must have.
    Wrong,
    Is(T),
}

impl<T> Field<T> {
    /// Fill from the value at `sc` if this is the key's first occurrence
    /// and the value is of `kind`; any other value is skipped, its syntax
    /// checked.
    fn read<'a>(
        &mut self,
        sc: &mut Scanner<'a>,
        kind: Kind,
        read: impl FnOnce(&mut Scanner<'a>) -> Result<T, serde::Error>,
    ) -> Result<(), serde::Error> {
        if !matches!(self, Field::Absent) {
            return sc.skip_value();
        }
        *self = match sc.peek()? {
            Kind::Null => {
                sc.null()?;
                Field::Null
            }
            k if k == kind => Field::Is(read(sc)?),
            _ => {
                sc.skip_value()?;
                Field::Wrong
            }
        };
        Ok(())
    }

    fn is(self) -> Option<T> {
        match self {
            Field::Is(v) => Some(v),
            _ => None,
        }
    }
}

fn read_tile(sc: &mut Scanner<'_>) -> Result<Tile, serde::Error> {
    let mut tile = Tile {
        dims: [0; MAX_TILE_DIMS],
        count: 0,
        bad_extent: false,
    };
    sc.enter_array()?;
    while sc.next_element()? {
        let extent = match sc.peek()? {
            Kind::Number => sc.number()?.as_int().filter(|&n| n > 0),
            _ => sc.skip_value().map(|()| None)?,
        };
        match (extent, tile.dims.get_mut(tile.count)) {
            (Some(n), Some(slot)) => *slot = n as usize,
            (Some(_), None) => {}
            (None, _) => tile.bad_extent = true,
        }
        tile.count += 1;
    }
    Ok(tile)
}

/// The fields of the `kernel` object.
#[derive(Debug, Clone, Copy, Default)]
struct KernelFields<'a> {
    text: Field<RawStr<'a>>,
    kind: Field<RawStr<'a>>,
    tile: Field<Tile>,
}

fn read_kernel<'a>(sc: &mut Scanner<'a>) -> Result<KernelFields<'a>, serde::Error> {
    let mut k = KernelFields::default();
    sc.enter_object()?;
    while let Some(key) = sc.next_key()? {
        if key == "text" {
            k.text.read(sc, Kind::String, Scanner::string)?;
        } else if key == "kind" {
            k.kind.read(sc, Kind::String, Scanner::string)?;
        } else if key == "tile" {
            k.tile.read(sc, Kind::Array, read_tile)?;
        } else {
            sc.skip_value()?;
        }
    }
    Ok(k)
}

/// The fields of the request object; `None` if the line is some other
/// JSON value.
#[derive(Debug, Clone, Copy, Default)]
struct RequestFields<'a> {
    /// `Value::as_int` of the number, as for `deadline_ms`.
    id: Field<Option<i128>>,
    op: Field<RawStr<'a>>,
    kernel: Field<KernelFields<'a>>,
    deadline_ms: Field<Option<i128>>,
    path: Field<RawStr<'a>>,
}

fn read_int(sc: &mut Scanner<'_>) -> Result<Option<i128>, serde::Error> {
    sc.number().map(|n| n.as_int())
}

fn read_fields(line: &str) -> Result<Option<RequestFields<'_>>, serde::Error> {
    let sc = &mut Scanner::new(line);
    if sc.peek()? != Kind::Object {
        sc.skip_value()?;
        sc.finish()?;
        return Ok(None);
    }
    let mut f = RequestFields::default();
    sc.enter_object()?;
    while let Some(key) = sc.next_key()? {
        if key == "id" {
            f.id.read(sc, Kind::Number, read_int)?;
        } else if key == "op" {
            f.op.read(sc, Kind::String, Scanner::string)?;
        } else if key == "kernel" {
            f.kernel.read(sc, Kind::Object, read_kernel)?;
        } else if key == "deadline_ms" {
            f.deadline_ms.read(sc, Kind::Number, read_int)?;
        } else if key == "path" {
            f.path.read(sc, Kind::String, Scanner::string)?;
        } else {
            sc.skip_value()?;
        }
    }
    sc.finish()?;
    Ok(Some(f))
}

fn predict_fields<'a>(
    id: u64,
    f: &RequestFields<'a>,
) -> Result<(KernelRef<'a>, Option<u64>), WireError> {
    let bad = |message: String| WireError::bad_request(Some(id), message);
    let kernel = f
        .kernel
        .is()
        .ok_or_else(|| bad("predict requires a \"kernel\" object".into()))?;
    let text = kernel
        .text
        .is()
        .ok_or_else(|| bad("kernel requires a string \"text\" field".into()))?;
    let kind = match kernel.kind {
        Field::Absent | Field::Null => None,
        Field::Wrong => return Err(bad("kernel \"kind\" must be a string".into())),
        Field::Is(name) => Some(
            parse_kind(name)
                .ok_or_else(|| bad(format!("unknown kernel kind {:?}", name.unescape())))?,
        ),
    };
    let tile = match kernel.tile {
        Field::Absent | Field::Null => None,
        Field::Wrong => return Err(bad("kernel \"tile\" must be an array".into())),
        Field::Is(t) if t.count > MAX_TILE_DIMS => {
            return Err(bad(format!("tile has more than {MAX_TILE_DIMS} extents")))
        }
        Field::Is(t) if t.bad_extent => {
            return Err(bad("tile extents must be positive integers".into()))
        }
        Field::Is(t) => Some(t),
    };
    let deadline_ms = match f.deadline_ms {
        Field::Absent | Field::Null => None,
        Field::Is(Some(n)) if n >= 0 && n <= MAX_DEADLINE_MS as i128 => Some(n as u64),
        _ => {
            return Err(bad(format!(
                "\"deadline_ms\" must be an integer in 0..={MAX_DEADLINE_MS}"
            )))
        }
    };
    Ok((KernelRef { text, kind, tile }, deadline_ms))
}

/// Scan one request line, borrowing from it: no `Value` tree is built and
/// no string is copied. What the line must hold, and every error and its
/// precedence, is [`parse_request`]'s: a syntax error anywhere in the line
/// comes before any complaint about a field.
pub fn scan_request(line: &str) -> Result<RequestRef<'_>, WireError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(WireError::bad_request(
            None,
            format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        ));
    }
    let f = read_fields(line)
        .map_err(|e| WireError {
            id: None,
            code: "parse",
            message: format!("invalid JSON: {e}"),
        })?
        .ok_or_else(|| WireError::bad_request(None, "request must be a JSON object"))?;
    let id = match f.id {
        Field::Absent => return Err(WireError::bad_request(None, "missing \"id\" field")),
        Field::Is(Some(n)) => u64::try_from(n).ok(),
        _ => None,
    }
    .ok_or_else(|| WireError::bad_request(None, "\"id\" must be a non-negative integer"))?;
    let bad = |message: String| WireError::bad_request(Some(id), message);
    let op =
        f.op.is()
            .ok_or_else(|| bad("missing or non-string \"op\" field".into()))?;
    if op == "stats" {
        Ok(RequestRef::Stats { id })
    } else if op == "ping" {
        Ok(RequestRef::Ping { id })
    } else if op == "shutdown" {
        Ok(RequestRef::Shutdown { id })
    } else if op == "reload" {
        let path = f
            .path
            .is()
            .ok_or_else(|| bad("reload requires a string \"path\" field".into()))?
            .unescape();
        if path.len() > MAX_PATH_BYTES {
            return Err(bad(format!("reload path exceeds {MAX_PATH_BYTES} bytes")));
        }
        Ok(RequestRef::Reload { id, path })
    } else if op == "predict" {
        let (spec, deadline_ms) = predict_fields(id, &f)?;
        Ok(RequestRef::Predict {
            id,
            spec,
            deadline_ms,
        })
    } else {
        Err(bad(format!("unknown op {:?}", op.unescape())))
    }
}

/// Parse one request line into an owned [`Request`].
///
/// On failure the returned [`WireError`] carries the request id when the
/// line was at least well-formed enough to recover it, so the error reply
/// can still be correlated by the client.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    Ok(match scan_request(line)? {
        RequestRef::Predict {
            id,
            spec,
            deadline_ms,
        } => Request::Predict {
            id,
            spec: spec.to_spec(),
            deadline_ms,
        },
        RequestRef::Stats { id } => Request::Stats { id },
        RequestRef::Ping { id } => Request::Ping { id },
        RequestRef::Reload { id, path } => Request::Reload { id, path },
        RequestRef::Shutdown { id } => Request::Shutdown { id },
    })
}

fn render(value: &Value) -> String {
    serde_json::value_to_string(value)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Build a predict request line (used by the load generator and tests).
pub fn predict_request_line(id: u64, kernel: &Kernel) -> String {
    predict_request_line_with_deadline(id, kernel, None)
}

/// Build a predict request line carrying an explicit `deadline_ms`.
pub fn predict_request_line_with_deadline(
    id: u64,
    kernel: &Kernel,
    deadline_ms: Option<u64>,
) -> String {
    let spec = KernelSpec::from_kernel(kernel);
    let mut k = vec![("text", Value::Str(spec.text))];
    if let Some(kind) = spec.kind {
        k.push(("kind", Value::Str(kind_name(kind).to_string())));
    }
    if let Some(tile) = spec.tile {
        k.push((
            "tile",
            Value::Array(tile.into_iter().map(|d| Value::UInt(d as u64)).collect()),
        ));
    }
    let mut fields = vec![
        ("op", Value::Str("predict".to_string())),
        ("id", Value::UInt(id)),
        ("kernel", obj(k)),
    ];
    if let Some(d) = deadline_ms {
        fields.push(("deadline_ms", Value::UInt(d)));
    }
    render(&obj(fields))
}

/// Build a reload request line.
pub fn reload_request_line(id: u64, path: &str) -> String {
    render(&obj(vec![
        ("op", Value::Str("reload".to_string())),
        ("id", Value::UInt(id)),
        ("path", Value::Str(path.to_string())),
    ]))
}

/// Build a request line for an argument-free op (`stats`/`ping`/`shutdown`).
pub fn simple_request_line(op: &str, id: u64) -> String {
    render(&obj(vec![
        ("op", Value::Str(op.to_string())),
        ("id", Value::UInt(id)),
    ]))
}

/// Append a successful predict reply to `out`, byte for byte what the
/// `Value` tree `{"id":…,"ok":true,"ns":…[,"degraded":true]}` renders as.
/// `degraded` marks answers served while the circuit breaker was open;
/// the field is omitted on the healthy path so pre-breaker reply bytes are
/// unchanged.
pub fn write_predict_reply(out: &mut String, id: u64, ns: Option<f64>, degraded: bool) {
    let _ = write!(out, "{{\"id\":{id},\"ok\":true,\"ns\":");
    // A non-finite `ns` prints as `null`, like a missing one.
    serde_json::write_float(ns.unwrap_or(f64::NAN), out);
    if degraded {
        out.push_str(",\"degraded\":true");
    }
    out.push('}');
}

/// [`write_predict_reply`] into a fresh `String`.
pub fn predict_reply(id: u64, ns: Option<f64>, degraded: bool) -> String {
    // Room for the longest reply: 20 id digits, 24 for the float.
    let mut out = String::with_capacity(80);
    write_predict_reply(&mut out, id, ns, degraded);
    out
}

/// Reload acknowledgement: the new model epoch now serving.
pub(crate) fn reload_reply(id: u64, epoch: u64) -> String {
    render(&obj(vec![
        ("id", Value::UInt(id)),
        ("ok", Value::Bool(true)),
        ("reloaded", Value::Bool(true)),
        ("epoch", Value::UInt(epoch)),
    ]))
}

/// Reload rejection with its typed reason (`disabled`/`io`/`parse`/
/// `non_finite`/`tau`/`shutdown`).
pub(crate) fn reload_rejected_reply(id: u64, reason: &str, message: &str) -> String {
    render(&obj(vec![
        ("id", Value::UInt(id)),
        ("ok", Value::Bool(false)),
        (
            "error",
            obj(vec![
                ("code", Value::Str("reload_rejected".to_string())),
                ("reason", Value::Str(reason.to_string())),
                ("message", Value::Str(message.to_string())),
            ]),
        ),
    ]))
}

/// Ping reply.
pub(crate) fn ping_reply(id: u64) -> String {
    render(&obj(vec![
        ("id", Value::UInt(id)),
        ("ok", Value::Bool(true)),
        ("pong", Value::Bool(true)),
    ]))
}

/// Shutdown acknowledgement.
pub(crate) fn shutdown_reply(id: u64) -> String {
    render(&obj(vec![
        ("id", Value::UInt(id)),
        ("ok", Value::Bool(true)),
        ("shutdown", Value::Bool(true)),
    ]))
}

/// Stats reply over a [`ServeStats`](crate::ServeStats) snapshot.
/// `backend` names the serving cost model (engine `backend()`), so
/// drive artifacts record which model answered.
pub(crate) fn stats_reply(id: u64, stats: &crate::ServeStats, backend: &str) -> String {
    let body = obj(vec![
        ("backend", Value::Str(backend.to_string())),
        ("submitted", Value::UInt(stats.submitted)),
        ("answered", Value::UInt(stats.answered)),
        ("rejected", Value::UInt(stats.rejected)),
        ("budget_denied", Value::UInt(stats.budget_denied)),
        ("batches", Value::UInt(stats.batches)),
        ("deadline_expired", Value::UInt(stats.deadline_expired)),
        ("deadline_shed", Value::UInt(stats.deadline_shed)),
        ("backend_panics", Value::UInt(stats.backend_panics)),
        ("reloads", Value::UInt(stats.reloads)),
        ("reloads_rejected", Value::UInt(stats.reloads_rejected)),
        ("epoch", Value::UInt(stats.epoch)),
        (
            "breaker",
            Value::Str(stats.breaker_state_name().to_string()),
        ),
        ("breaker_trips", Value::UInt(stats.breaker_trips)),
        (
            "breaker_open_served",
            Value::UInt(stats.breaker_open_served),
        ),
        ("kernels", Value::UInt(stats.predict.kernels)),
        ("cache_hits", Value::UInt(stats.predict.cache_hits)),
        ("model_evals", Value::UInt(stats.predict.model_evals)),
        ("model_batches", Value::UInt(stats.predict.model_batches)),
        ("cache_entries", Value::UInt(stats.cache_entries as u64)),
        ("cache_evictions", Value::UInt(stats.cache_evictions)),
    ]);
    render(&obj(vec![
        ("id", Value::UInt(id)),
        ("ok", Value::Bool(true)),
        ("stats", body),
    ]))
}

/// Error reply; `id` is `null` when it could not be recovered.
pub(crate) fn error_reply(id: Option<u64>, code: &str, message: &str) -> String {
    let id = match id {
        Some(id) => Value::UInt(id),
        None => Value::Null,
    };
    render(&obj(vec![
        ("id", id),
        ("ok", Value::Bool(false)),
        (
            "error",
            obj(vec![
                ("code", Value::Str(code.to_string())),
                ("message", Value::Str(message.to_string())),
            ]),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_hlo::{DType, GraphBuilder, Shape};

    fn demo_kernel() -> Kernel {
        let mut b = GraphBuilder::new("proto_demo");
        let x = b.parameter("x", Shape::matrix(64, 128), DType::F32);
        let t = b.tanh(x);
        Kernel::new(b.finish(t)).with_tile(TileSize(vec![8, 128]))
    }

    #[test]
    fn predict_request_round_trips() {
        let kernel = demo_kernel();
        let line = predict_request_line(7, &kernel);
        let parsed = parse_request(&line).expect("round trip parses");
        match parsed {
            Request::Predict {
                id,
                spec,
                deadline_ms,
            } => {
                assert_eq!(id, 7);
                assert_eq!(deadline_ms, None);
                let back = spec.to_kernel().expect("kernel parses");
                assert_eq!(
                    tpu_hlo::canonical_kernel_hash(&back),
                    tpu_hlo::canonical_kernel_hash(&kernel),
                );
                assert_eq!(back.kind, kernel.kind);
                assert_eq!(back.tile, kernel.tile);
            }
            other => panic!("expected predict, got {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_keep_recoverable_ids() {
        let err = parse_request("not json").unwrap_err();
        assert_eq!(err.code, "parse");
        assert_eq!(err.id, None);

        let err = parse_request("{\"op\":\"predict\",\"id\":3}").unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert_eq!(err.id, Some(3));

        let err = parse_request("{\"op\":\"warble\",\"id\":4}").unwrap_err();
        assert_eq!(err.id, Some(4));
    }

    #[test]
    fn simple_ops_parse() {
        for (op, want) in [
            ("stats", Request::Stats { id: 2 }),
            ("ping", Request::Ping { id: 2 }),
            ("shutdown", Request::Shutdown { id: 2 }),
        ] {
            assert_eq!(parse_request(&simple_request_line(op, 2)).unwrap(), want);
        }
    }

    #[test]
    fn deadline_field_round_trips_and_is_bounded() {
        let kernel = demo_kernel();
        let line = predict_request_line_with_deadline(9, &kernel, Some(50));
        match parse_request(&line).unwrap() {
            Request::Predict { deadline_ms, .. } => assert_eq!(deadline_ms, Some(50)),
            other => panic!("expected predict, got {other:?}"),
        }
        // Zero is a valid (immediately-expiring) deadline.
        let line = predict_request_line_with_deadline(9, &kernel, Some(0));
        match parse_request(&line).unwrap() {
            Request::Predict { deadline_ms, .. } => assert_eq!(deadline_ms, Some(0)),
            other => panic!("expected predict, got {other:?}"),
        }
        // Negative or absurd deadlines are bad requests.
        let err = parse_request(
            "{\"op\":\"predict\",\"id\":9,\"kernel\":{\"text\":\"x\"},\"deadline_ms\":-1}",
        )
        .unwrap_err();
        assert_eq!((err.code, err.id), ("bad_request", Some(9)));
        let err = parse_request(
            "{\"op\":\"predict\",\"id\":9,\"kernel\":{\"text\":\"x\"},\"deadline_ms\":99999999999}",
        )
        .unwrap_err();
        assert_eq!(err.code, "bad_request");
    }

    #[test]
    fn reload_parses_and_caps_the_path() {
        let line = reload_request_line(5, "/models/new.blob");
        assert_eq!(
            parse_request(&line).unwrap(),
            Request::Reload {
                id: 5,
                path: "/models/new.blob".to_string()
            }
        );
        let err = parse_request("{\"op\":\"reload\",\"id\":5}").unwrap_err();
        assert_eq!((err.code, err.id), ("bad_request", Some(5)));
        let long = "x".repeat(MAX_PATH_BYTES + 1);
        let err = parse_request(&reload_request_line(5, &long)).unwrap_err();
        assert_eq!(err.code, "bad_request");
    }

    #[test]
    fn oversized_lines_and_tiles_are_bad_requests() {
        // A line over the cap is refused before JSON parsing (the padding
        // is valid JSON whitespace, so the cap is what rejects it).
        let mut line = " ".repeat(MAX_LINE_BYTES);
        line.push_str("{\"op\":\"ping\",\"id\":1}");
        let err = parse_request(&line).unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert!(err.message.contains("exceeds"));

        let dims = vec!["2"; MAX_TILE_DIMS + 1].join(",");
        let line = format!(
            "{{\"op\":\"predict\",\"id\":3,\"kernel\":{{\"text\":\"x\",\"tile\":[{dims}]}}}}"
        );
        let err = parse_request(&line).unwrap_err();
        assert_eq!((err.code, err.id), ("bad_request", Some(3)));
    }

    #[test]
    fn degraded_marker_only_appears_when_set() {
        assert!(!predict_reply(1, Some(2.0), false).contains("degraded"));
        assert!(predict_reply(1, Some(2.0), true).contains("\"degraded\":true"));
        assert!(predict_reply(1, None, true).contains("\"ns\":null"));
    }
}
