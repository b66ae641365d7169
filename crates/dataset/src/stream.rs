//! `tpu-ds.v1`: the streaming binary dataset format.
//!
//! The paper's 207M-example corpus (§5) cannot be materialized in memory;
//! its successor dataset TpuGraphs moves to whole-graph examples of
//! 10⁴–10⁵ nodes. This module is the on-disk data path for both: training
//! examples are written as fixed-layout little-endian records **during**
//! generation (no whole-corpus buffering) and read back one batch at a
//! time, so peak training RSS is set by the model and one batch — not by
//! the corpus.
//!
//! # File layout
//!
//! ```text
//! header   (32 B)  magic "TPUDS1\r\n" · version u32 · feature_dim u32
//!                  · num_records u64 · index_pos u64
//! records  (×N)    record header (36 B):
//!                      num_nodes u32 · num_edges u32 · program_id u32
//!                      · group u64 · runtime_ns f64 · target_log_ns f64
//!                  payload:
//!                      opcode_ids  u16 × num_nodes
//!                      features    f32 × num_nodes × feature_dim
//!                      edges       (u32, u32) × num_edges
//! index    (×N)    per-record entry (32 B): offset u64 · num_nodes u32
//!                  · num_edges u32 · program_id u32 · reserved u32
//!                  · group u64
//! ```
//!
//! Everything is plain byte reads/writes (`to_le_bytes`/`from_le_bytes`)
//! of `repr(C)`-layout structs — no unsafe, no serde. The header's
//! `num_records`/`index_pos` are written as sentinels at create time and
//! patched by [`DatasetWriter::finish`], so a crash mid-generation leaves
//! a file that [`DatasetReader::open`] rejects with a typed error instead
//! of a truncated dataset that silently trains on partial data.

use crate::corpus::Corpus;
use crate::fusion_ds::{measured_program_kernels, FusionDatasetConfig};
use std::collections::HashSet;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;
use tpu_hlo::Kernel;
use tpu_learned_cost::{BatchSource, ExampleMeta, Prepared, Sample};
use tpu_sim::TpuDevice;

/// File magic: `TPUDS1` plus `\r\n` to catch text-mode corruption.
pub const MAGIC: [u8; 8] = *b"TPUDS1\r\n";
/// Format version written by this build.
pub const VERSION: u32 = 1;
/// Sentinel `num_records` of an unfinished file.
const UNFINISHED: u64 = u64::MAX;

const HEADER_LEN: u64 = 32;
const RECORD_HEADER_LEN: usize = 36;
const INDEX_ENTRY_LEN: usize = 32;

/// Typed errors of the `tpu-ds.v1` reader/writer.
#[derive(Debug)]
pub enum StreamError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic([u8; 8]),
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file's feature width differs from this build's featurizer.
    FeatureDimMismatch {
        /// Width recorded in the file.
        file: u32,
        /// Width this build would produce.
        expected: u32,
    },
    /// The file ends before the data it promises (interrupted write or
    /// truncated copy).
    Truncated {
        /// Bytes the structure requires.
        needed: u64,
        /// Bytes actually present.
        have: u64,
    },
    /// Structurally invalid content (bad sentinel, index/record
    /// disagreement, overlapping records, …).
    Corrupt(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "i/o error: {e}"),
            StreamError::BadMagic(m) => write!(f, "bad magic {m:02x?}, not a tpu-ds.v1 file"),
            StreamError::UnsupportedVersion(v) => write!(f, "unsupported tpu-ds version {v}"),
            StreamError::FeatureDimMismatch { file, expected } => write!(
                f,
                "feature dim mismatch: file has {file}, this build expects {expected}"
            ),
            StreamError::Truncated { needed, have } => {
                write!(f, "truncated file: needs {needed} bytes, has {have}")
            }
            StreamError::Corrupt(msg) => write!(f, "corrupt dataset: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> StreamError {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StreamError::Truncated { needed: 0, have: 0 }
        } else {
            StreamError::Io(e)
        }
    }
}

/// One record's fixed metadata, duplicated in the trailing index so the
/// reader can plan epochs (grouping, segment decisions, batch shapes)
/// without touching record payloads.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct RecordMeta {
    /// Byte offset of the record in the file.
    pub offset: u64,
    /// Graph node count.
    pub num_nodes: u32,
    /// Directed edge count.
    pub num_edges: u32,
    /// Source program index in the corpus.
    pub program_id: u32,
    /// Rank-loss group id (`u64::MAX` = its own group, fusion task).
    pub group: u64,
}

impl RecordMeta {
    fn payload_len(&self, feature_dim: u32) -> u64 {
        RECORD_HEADER_LEN as u64
            + self.num_nodes as u64 * 2
            + self.num_nodes as u64 * feature_dim as u64 * 4
            + self.num_edges as u64 * 8
    }
}

fn group_to_u64(group: usize) -> u64 {
    if group == usize::MAX {
        u64::MAX
    } else {
        group as u64
    }
}

fn group_from_u64(group: u64) -> usize {
    if group == u64::MAX {
        usize::MAX
    } else {
        group as usize
    }
}

/// Writes a `tpu-ds.v1` file record by record, designed to be fed
/// *during* dataset generation: only the trailing index (32 B/record) is
/// buffered in memory, never example payloads.
pub struct DatasetWriter {
    w: BufWriter<File>,
    feature_dim: u32,
    index: Vec<RecordMeta>,
    pos: u64,
}

impl DatasetWriter {
    /// Create a dataset file, replacing any existing one. The header is
    /// written with an `UNFINISHED` sentinel that [`DatasetWriter::finish`]
    /// replaces.
    ///
    /// An existing file is unlinked, not truncated: a [`DatasetReader`]
    /// still open on it keeps reading the old bytes, and the new file does
    /// not wait for the old one's pending writeback (a truncate over a
    /// freshly written multi-MiB file stalls for hundreds of ms on ext4).
    ///
    /// # Errors
    ///
    /// [`StreamError::Io`] on filesystem failure.
    pub fn create(path: &Path) -> Result<DatasetWriter, StreamError> {
        let feature_dim = tpu_learned_cost::features::FEATURE_DIM as u32;
        match std::fs::remove_file(path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
            _ => {}
        }
        let f = File::create(path)?;
        let mut w = BufWriter::new(f);
        w.write_all(&MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&feature_dim.to_le_bytes())?;
        w.write_all(&UNFINISHED.to_le_bytes())?;
        w.write_all(&0u64.to_le_bytes())?;
        Ok(DatasetWriter {
            w,
            feature_dim,
            index: Vec::new(),
            pos: HEADER_LEN,
        })
    }

    /// Number of records appended so far.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no record has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Append one featurized example.
    ///
    /// # Errors
    ///
    /// [`StreamError::Io`] on write failure; [`StreamError::Corrupt`] if
    /// the example's feature width does not match the file header.
    pub fn append(&mut self, p: &Prepared, program_id: u32) -> Result<(), StreamError> {
        let (rows, cols) = p.features.shape();
        if cols != self.feature_dim as usize || rows != p.num_nodes() {
            return Err(StreamError::Corrupt(format!(
                "example features are {rows}x{cols}, file expects {}x{}",
                p.num_nodes(),
                self.feature_dim
            )));
        }
        let meta = RecordMeta {
            offset: self.pos,
            num_nodes: p.num_nodes() as u32,
            num_edges: p.edges.len() as u32,
            program_id,
            group: group_to_u64(p.group),
        };
        self.w.write_all(&meta.num_nodes.to_le_bytes())?;
        self.w.write_all(&meta.num_edges.to_le_bytes())?;
        self.w.write_all(&meta.program_id.to_le_bytes())?;
        self.w.write_all(&meta.group.to_le_bytes())?;
        self.w.write_all(&p.runtime_ns.to_le_bytes())?;
        let log_ns = p.runtime_ns.max(1.0).ln();
        self.w.write_all(&log_ns.to_le_bytes())?;
        for &op in &p.opcode_ids {
            self.w.write_all(&(op as u16).to_le_bytes())?;
        }
        for &v in p.features.data() {
            self.w.write_all(&v.to_le_bytes())?;
        }
        for &(a, b) in &p.edges {
            self.w.write_all(&(a as u32).to_le_bytes())?;
            self.w.write_all(&(b as u32).to_le_bytes())?;
        }
        self.pos += meta.payload_len(self.feature_dim);
        self.index.push(meta);
        Ok(())
    }

    /// Write the trailing index, patch the header, and flush. Returns the
    /// record count.
    ///
    /// # Errors
    ///
    /// [`StreamError::Io`] on write/seek failure.
    pub fn finish(mut self) -> Result<usize, StreamError> {
        let index_pos = self.pos;
        for m in &self.index {
            self.w.write_all(&m.offset.to_le_bytes())?;
            self.w.write_all(&m.num_nodes.to_le_bytes())?;
            self.w.write_all(&m.num_edges.to_le_bytes())?;
            self.w.write_all(&m.program_id.to_le_bytes())?;
            self.w.write_all(&0u32.to_le_bytes())?;
            self.w.write_all(&m.group.to_le_bytes())?;
        }
        let n = self.index.len();
        self.w.flush()?;
        let f = self.w.get_mut();
        f.seek(SeekFrom::Start(16))?;
        f.write_all(&(n as u64).to_le_bytes())?;
        f.write_all(&index_pos.to_le_bytes())?;
        f.flush()?;
        Ok(n)
    }
}

fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

fn read_f64(buf: &[u8], at: usize) -> f64 {
    f64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

/// Reads a finished `tpu-ds.v1` file: metadata for every record is loaded
/// up front from the trailing index (32 B per record), payloads are read
/// on demand per batch — the whole-corpus feature matrices never live in
/// memory at once.
#[derive(Debug)]
pub struct DatasetReader {
    file: Mutex<File>,
    metas: Vec<RecordMeta>,
    feature_dim: u32,
    file_len: u64,
}

impl DatasetReader {
    /// Open and validate a dataset file.
    ///
    /// # Errors
    ///
    /// - [`StreamError::BadMagic`] / [`StreamError::UnsupportedVersion`]
    ///   for files that are not (this version of) `tpu-ds.v1`,
    /// - [`StreamError::FeatureDimMismatch`] when the file was written by
    ///   a build with a different feature extractor,
    /// - [`StreamError::Corrupt`] for unfinished files (writer crashed
    ///   before `finish`) and index inconsistencies,
    /// - [`StreamError::Truncated`] when the file is shorter than its
    ///   header and index claim,
    /// - [`StreamError::Io`] on filesystem failure.
    pub fn open(path: &Path) -> Result<DatasetReader, StreamError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut r = BufReader::new(file);
        if file_len < HEADER_LEN {
            return Err(StreamError::Truncated {
                needed: HEADER_LEN,
                have: file_len,
            });
        }
        let mut header = [0u8; HEADER_LEN as usize];
        r.read_exact(&mut header)?;
        if header[..8] != MAGIC {
            return Err(StreamError::BadMagic(header[..8].try_into().expect("8")));
        }
        let version = read_u32(&header, 8);
        if version != VERSION {
            return Err(StreamError::UnsupportedVersion(version));
        }
        let feature_dim = read_u32(&header, 12);
        if feature_dim as usize != tpu_learned_cost::features::FEATURE_DIM {
            return Err(StreamError::FeatureDimMismatch {
                file: feature_dim,
                expected: tpu_learned_cost::features::FEATURE_DIM as u32,
            });
        }
        let num_records = read_u64(&header, 16);
        let index_pos = read_u64(&header, 24);
        if num_records == UNFINISHED {
            return Err(StreamError::Corrupt(
                "unfinished dataset (writer never called finish)".to_string(),
            ));
        }
        let index_len = num_records
            .checked_mul(INDEX_ENTRY_LEN as u64)
            .ok_or_else(|| StreamError::Corrupt("record count overflows index".into()))?;
        let needed = index_pos
            .checked_add(index_len)
            .ok_or_else(|| StreamError::Corrupt("index position overflows file".into()))?;
        if needed > file_len {
            return Err(StreamError::Truncated {
                needed,
                have: file_len,
            });
        }

        r.seek(SeekFrom::Start(index_pos))?;
        let mut metas = Vec::with_capacity(num_records as usize);
        let mut entry = [0u8; INDEX_ENTRY_LEN];
        let mut expected_offset = HEADER_LEN;
        for i in 0..num_records {
            r.read_exact(&mut entry)?;
            let meta = RecordMeta {
                offset: read_u64(&entry, 0),
                num_nodes: read_u32(&entry, 8),
                num_edges: read_u32(&entry, 12),
                program_id: read_u32(&entry, 16),
                group: read_u64(&entry, 24),
            };
            if meta.offset != expected_offset {
                return Err(StreamError::Corrupt(format!(
                    "record {i} offset {} does not follow previous record (expected {})",
                    meta.offset, expected_offset
                )));
            }
            expected_offset = expected_offset
                .checked_add(meta.payload_len(feature_dim))
                .ok_or_else(|| {
                    StreamError::Corrupt(format!("record {i} payload length overflows the file"))
                })?;
            metas.push(meta);
        }
        if expected_offset != index_pos {
            return Err(StreamError::Corrupt(format!(
                "records end at {expected_offset} but index starts at {index_pos}"
            )));
        }
        let file = r.into_inner();
        Ok(DatasetReader {
            file: Mutex::new(file),
            metas,
            feature_dim,
            file_len,
        })
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Whether the dataset has no records.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Per-node feature width the file was written with (always matches
    /// the crate's `FEATURE_DIM`; [`DatasetReader::open`] rejects others).
    pub fn feature_dim(&self) -> usize {
        self.feature_dim as usize
    }

    /// Read record `i` back as a [`Prepared`] example, bit-identical to
    /// the example that was appended.
    ///
    /// # Errors
    ///
    /// [`StreamError::Truncated`] / [`StreamError::Corrupt`] when the
    /// payload disagrees with the index; [`StreamError::Io`] on read
    /// failure. Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> Result<Prepared, StreamError> {
        let meta = self.metas[i];
        let len = meta.payload_len(self.feature_dim);
        if meta.offset + len > self.file_len {
            return Err(StreamError::Truncated {
                needed: meta.offset + len,
                have: self.file_len,
            });
        }
        let mut buf = vec![0u8; len as usize];
        {
            let mut f = self.file.lock().expect("reader mutex");
            f.seek(SeekFrom::Start(meta.offset))?;
            f.read_exact(&mut buf)?;
        }
        self.decode(i, &meta, &buf)
    }

    fn decode(&self, i: usize, meta: &RecordMeta, buf: &[u8]) -> Result<Prepared, StreamError> {
        let num_nodes = read_u32(buf, 0);
        let num_edges = read_u32(buf, 4);
        let program_id = read_u32(buf, 8);
        let group = read_u64(buf, 12);
        if num_nodes != meta.num_nodes
            || num_edges != meta.num_edges
            || program_id != meta.program_id
            || group != meta.group
        {
            return Err(StreamError::Corrupt(format!(
                "record {i} header disagrees with index entry"
            )));
        }
        let runtime_ns = read_f64(buf, 20);
        let n = num_nodes as usize;
        let fd = self.feature_dim as usize;
        let mut at = RECORD_HEADER_LEN;
        let mut opcode_ids = Vec::with_capacity(n);
        for _ in 0..n {
            opcode_ids.push(u16::from_le_bytes(buf[at..at + 2].try_into().expect("2")) as usize);
            at += 2;
        }
        let mut data = Vec::with_capacity(n * fd);
        for _ in 0..n * fd {
            data.push(f32::from_le_bytes(buf[at..at + 4].try_into().expect("4")));
            at += 4;
        }
        let mut edges = Vec::with_capacity(num_edges as usize);
        for _ in 0..num_edges {
            let a = read_u32(buf, at) as usize;
            let b = read_u32(buf, at + 4) as usize;
            if a >= n || b >= n {
                return Err(StreamError::Corrupt(format!(
                    "record {i} edge ({a}, {b}) out of range for {n} nodes"
                )));
            }
            edges.push((a, b));
            at += 8;
        }
        if n == 0 {
            // Defensive: a record claiming zero nodes would produce an
            // unpackable batch entry.
            return Err(StreamError::Corrupt(format!("record {i} has zero nodes")));
        }
        Ok(Prepared {
            opcode_ids,
            features: tpu_learned_cost::Tensor::from_vec(n, fd, data),
            edges,
            runtime_ns,
            group: group_from_u64(group),
        })
    }

    /// Program id of record `i` (from the index; no I/O).
    pub fn program_id(&self, i: usize) -> usize {
        self.metas[i].program_id as usize
    }
}

impl BatchSource for DatasetReader {
    fn num_examples(&self) -> usize {
        self.len()
    }

    fn meta(&self, i: usize) -> ExampleMeta {
        let m = &self.metas[i];
        ExampleMeta {
            group: group_from_u64(m.group),
            num_nodes: m.num_nodes as usize,
        }
    }

    fn load(&self, idxs: &[usize]) -> Result<Vec<Prepared>, String> {
        idxs.iter()
            .map(|&i| self.get(i).map_err(|e| format!("record {i}: {e}")))
            .collect()
    }
}

/// Parameters of [`stream_corpus`].
#[derive(Debug, Clone)]
pub struct StreamGenConfig {
    /// Per-kernel fusion pipeline parameters (shared with
    /// [`crate::build_fusion_dataset`], so the streamed examples match the
    /// in-memory pipeline bit for bit).
    pub fusion: FusionDatasetConfig,
    /// Programs with more nodes than this are additionally emitted as one
    /// **whole-graph example** (TpuGraphs-style): the full pre-fusion
    /// graph as a single record whose target is the program's total
    /// default-fusion runtime.
    pub whole_graph_nodes: usize,
}

impl Default for StreamGenConfig {
    fn default() -> Self {
        StreamGenConfig {
            fusion: FusionDatasetConfig::default(),
            whole_graph_nodes: 420,
        }
    }
}

/// Per-corpus generation summary returned by [`stream_corpus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Deduplicated kernel examples written.
    pub kernel_examples: usize,
    /// Whole-graph examples written.
    pub whole_graph_examples: usize,
}

/// Generate the fusion dataset straight into `writer`, one program at a
/// time — the streaming replacement for
/// [`crate::build_fusion_dataset`] + export.
///
/// Per fusion-eligible program the kernels and measurements come from the
/// generation step [`crate::build_fusion_dataset`] itself runs, and the
/// global dedup follows it the same way, so training from the streamed
/// file is bit-identical to training from the in-memory dataset. Programs
/// above [`StreamGenConfig::whole_graph_nodes`] nodes are additionally
/// emitted as single whole-graph records (group = own, target = sum of measured
/// default-fusion kernel runtimes) — the TpuGraphs-scale examples that
/// motivate graph-segment training. Only one program's examples are ever
/// buffered.
///
/// # Errors
///
/// Propagates [`StreamError`] from `writer`.
pub fn stream_corpus(
    corpus: &Corpus,
    cfg: &StreamGenConfig,
    writer: &mut DatasetWriter,
) -> Result<StreamSummary, StreamError> {
    let eligible: HashSet<usize> = corpus.fusion_eligible().into_iter().collect();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut summary = StreamSummary {
        kernel_examples: 0,
        whole_graph_examples: 0,
    };
    for pi in 0..corpus.len() {
        let program = &corpus.entries[pi].program;
        if eligible.contains(&pi) {
            let samples: Vec<Sample> = measured_program_kernels(program, pi, &cfg.fusion)
                .into_iter()
                .filter(|(k, _)| seen.insert(k.hash()))
                .map(|(k, runtime_ns)| Sample::new(k.into_kernel(), runtime_ns))
                .collect();
            for p in Prepared::from_samples(&samples) {
                writer.append(&p, pi as u32)?;
                summary.kernel_examples += 1;
            }
        }
        if program.num_nodes() > cfg.whole_graph_nodes {
            let p = whole_graph_example(program, &cfg.fusion);
            writer.append(&p, pi as u32)?;
            summary.whole_graph_examples += 1;
        }
    }
    Ok(summary)
}

/// Featurize a whole program as one training graph: the full pre-fusion
/// computation as a single [`Prepared`] whose target is the sum of the
/// min-of-`runs` runtimes of its default-fusion kernels ("one kernel is
/// executed at a time", §3.3 — program runtime is the sum).
pub fn whole_graph_example(program: &tpu_hlo::Program, cfg: &FusionDatasetConfig) -> Prepared {
    let (space, default_cfg) = tpu_fusion::default_space_and_config(&program.computation);
    let fused = tpu_fusion::apply_fusion(program, &space, &default_cfg);
    // Sequential: the device's noise RNG is a single stream, so kernel
    // order must be fixed for the target to be reproducible.
    let device = TpuDevice::with_config(cfg.machine.clone(), cfg.seed);
    let total_ns: f64 = fused
        .kernels
        .iter()
        .map(|k| device.measure_kernel(k, cfg.runs))
        .sum();
    let whole = Kernel::new(program.computation.clone());
    Prepared::from_sample(&Sample::new(whole, total_ns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusScale;
    use tpu_hlo::{DType, GraphBuilder, Shape};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tpu_stream_test_{}_{name}", std::process::id()))
    }

    fn tiny_prepared(cols: usize, runtime: f64, group: usize) -> Prepared {
        let mut b = GraphBuilder::new("k");
        let x = b.parameter("x", Shape::matrix(8, cols), DType::F32);
        let t = b.tanh(x);
        let e = b.exp(t);
        Prepared::from_sample(&Sample::grouped(Kernel::new(b.finish(e)), runtime, group))
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let path = tmp("roundtrip.tpuds");
        let examples = [
            tiny_prepared(64, 1234.5, usize::MAX),
            tiny_prepared(128, 9.25, 3),
            tiny_prepared(256, 1e9, 0),
        ];
        let mut w = DatasetWriter::create(&path).unwrap();
        for (i, p) in examples.iter().enumerate() {
            w.append(p, i as u32).unwrap();
        }
        assert_eq!(w.finish().unwrap(), 3);

        let r = DatasetReader::open(&path).unwrap();
        assert_eq!(r.len(), 3);
        for (i, expect) in examples.iter().enumerate() {
            let got = r.get(i).unwrap();
            assert_eq!(got.opcode_ids, expect.opcode_ids);
            assert_eq!(got.edges, expect.edges);
            assert_eq!(got.group, expect.group);
            assert_eq!(got.runtime_ns.to_bits(), expect.runtime_ns.to_bits());
            let a: Vec<u32> = got.features.data().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = expect.features.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b);
            assert_eq!(r.program_id(i), i);
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn unfinished_file_is_a_typed_error() {
        let path = tmp("unfinished.tpuds");
        let mut w = DatasetWriter::create(&path).unwrap();
        w.append(&tiny_prepared(64, 1.0, usize::MAX), 0).unwrap();
        drop(w); // never finish()ed
        match DatasetReader::open(&path) {
            Err(StreamError::Corrupt(msg)) => assert!(msg.contains("unfinished"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn stream_corpus_writes_and_reads_back() {
        let corpus = Corpus::build(CorpusScale::Tiny);
        let small = Corpus {
            entries: corpus.entries[..2].to_vec(),
        };
        let cfg = StreamGenConfig {
            fusion: FusionDatasetConfig {
                configs_per_program: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        let path = tmp("gen.tpuds");
        let mut w = DatasetWriter::create(&path).unwrap();
        let summary = stream_corpus(&small, &cfg, &mut w).unwrap();
        w.finish().unwrap();
        assert!(summary.kernel_examples > 10);

        let r = DatasetReader::open(&path).unwrap();
        assert_eq!(
            r.len(),
            summary.kernel_examples + summary.whole_graph_examples
        );
        let p = r.get(0).unwrap();
        assert!(p.runtime_ns > 0.0);
        assert!(p.num_nodes() > 0);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn streamed_examples_match_in_memory_pipeline() {
        let corpus = Corpus::build(CorpusScale::Tiny);
        let small = Corpus {
            entries: corpus.entries[..2].to_vec(),
        };
        let fcfg = FusionDatasetConfig {
            configs_per_program: 3,
            ..Default::default()
        };
        let in_mem = crate::build_fusion_dataset(&small, &fcfg);
        let path = tmp("parity.tpuds");
        let mut w = DatasetWriter::create(&path).unwrap();
        let cfg = StreamGenConfig {
            fusion: fcfg,
            whole_graph_nodes: usize::MAX,
        };
        stream_corpus(&small, &cfg, &mut w).unwrap();
        w.finish().unwrap();
        let r = DatasetReader::open(&path).unwrap();
        assert_eq!(r.len(), in_mem.examples.len());
        for (i, ex) in in_mem.examples.iter().enumerate() {
            let got = r.get(i).unwrap();
            let expect = Prepared::from_sample(&ex.sample());
            assert_eq!(
                got.runtime_ns.to_bits(),
                expect.runtime_ns.to_bits(),
                "record {i}"
            );
            assert_eq!(got.opcode_ids, expect.opcode_ids, "record {i}");
            assert_eq!(r.program_id(i), ex.program_idx, "record {i}");
        }
        let _ = std::fs::remove_file(path);
    }
}
