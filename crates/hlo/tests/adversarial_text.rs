//! Adversarial-input and differential suite for the HLO text reader.
//!
//! [`parse_computation`] faces the network: `tpu-serve` hands it the
//! `kernel.text` of every predict request, in stdin mode on the thread
//! that *is* the daemon. Whatever the text, the answer must be a valid
//! [`Computation`] or a typed [`HloError`] — never a panic, never a stack
//! overflow (which no `catch_unwind` sees), never an allocation the text
//! cannot back. Pinned here:
//!
//! - the inputs that used to kill or degrade the daemon, one by one;
//! - every truncation, bit flip, byte deletion and byte insertion of
//!   kernels that between them carry every attribute struct, each in the
//!   compact form `dump_computation` writes and in the full one
//!   (`support::full_text`: every layout and every `attrs=` key spelled
//!   out);
//! - the reader against the line reader it replaced (`support::tokens`):
//!   the same [`Computation`] and canonical hash, or the same error,
//!   variant, line and message;
//! - the reader against the first parser (`support`, the oracle): `Ok` ⇒
//!   the same [`Computation`] and canonical hash, `Err` ⇒ `Err`, except on
//!   the listed inputs the oracle panicked on or wrongly took;
//! - the `attrs=` reader against the derived `Deserialize` of the
//!   eleven-field attribute struct nodes carried before each opcode held
//!   its own shape of attributes, with every absent top-level key taken as
//!   its default and the node keeping what its opcode carries
//!   (`support::node_attrs`), on every attrs object the Full corpus's
//!   default fusion emits and on generated ones — each on a node of its
//!   opcode — in the writer's compact form and with every key spelled
//!   out, damaged and not;
//! - a key of another opcode that holds more than its default, and an
//!   index list longer than `MAX_RANK`, are typed errors.

mod support;

use proptest::prelude::*;
use proptest::TestRng;
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;
use support::full_text::dump_full;
use support::node_attrs::{op_attrs_from_str, NodeAttrs};
use support::{catch_quietly, mutations};
use tpu_dataset::{Corpus, CorpusScale};
use tpu_fusion::{apply_fusion, default_space_and_config};
use tpu_hlo::{
    canonical_hash, dump_computation, parse_computation, Comparison, Computation, ConvAttrs, DType,
    Dims, DotDims, GraphBuilder, HloError, Layout, NodeId, OpAttrs, Opcode, PadConfig, Shape,
    SliceAttrs, MAX_RANK,
};

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// Counts the bytes each thread asks for, so a test can bound what one
/// parse allocates by the size of its input.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// thread-local `Cell` with no destructor, touched by nothing else.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes this thread allocated while `f` ran.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// Kernels that between them carry every attribute struct, every dtype,
/// a name that needs escaping and layouts other than the default.
fn seed_computations() -> Vec<Computation> {
    let mut out = Vec::new();
    {
        let mut b = GraphBuilder::new("golden");
        let x = b.parameter("x", Shape::matrix(32, 64), DType::F32);
        let t = b.tanh(x);
        out.push(b.finish(t));
    }
    {
        let mut b = GraphBuilder::new("mixed");
        let x = b.parameter("in\"put\\", Shape::new(vec![1, 8, 8, 4]), DType::F32);
        let w = b.parameter("w", Shape::new(vec![3, 3, 4, 8]), DType::BF16);
        let y = b.convolution(x, w, ConvAttrs::same_strided(3, 2));
        let init = b.scalar_constant();
        let pooled = b.reduce_window(y, init, (2, 2, 2, 2));
        let flat = b.reshape(pooled, Shape::matrix(1, 2 * 2 * 8));
        let m = b.parameter("m", Shape::matrix(32, 16), DType::F32);
        let d = b.dot(flat, m);
        let mut c = b.finish(d);
        c.node_mut(w).layout = Layout::new(vec![1, 0, 3, 2]);
        out.push(c);
    }
    {
        let mut b = GraphBuilder::new("movement");
        let x = b.parameter("x", Shape::matrix(6, 10), DType::S32);
        let s = b.slice(
            x,
            SliceAttrs {
                starts: vec![0, 2],
                limits: vec![4, 10],
                strides: vec![1, 2],
            },
        );
        let p = b.pad(
            s,
            PadConfig {
                dims: vec![(1, 1, 0), (0, 2, 1)],
            },
        );
        let t = b.transpose(p, vec![1, 0]);
        let c = b.concatenate(&[t, t], 0);
        let r = b.reduce(c, vec![1]);
        let bc = b.broadcast(r, Shape::matrix(18, 3), vec![0]);
        let cmp = b.compare(bc, bc, Comparison::Le);
        let sel = b.select(cmp, bc, bc);
        let mut c = b.finish(sel);
        // A column-major transpose: the one layout the writer spells out.
        c.node_mut(t).layout = Layout::new(vec![0, 1]);
        out.push(c);
    }
    {
        let mut b = GraphBuilder::new("batched");
        let a = b.parameter("a", Shape::new(vec![2, 4, 8]), DType::F32);
        let c = b.parameter("c", Shape::new(vec![2, 8, 4]), DType::F32);
        let d = b.dot_general(a, c, DotDims::batch_matmul());
        let u = b.convert(d, DType::U8);
        out.push(b.finish(u));
    }
    out
}

/// Every kernel the default fusion makes of the Full corpus's programs.
fn corpus_computations() -> Vec<Computation> {
    let corpus = Corpus::build(CorpusScale::Full);
    let mut out = Vec::new();
    for entry in &corpus.entries {
        let (space, config) = default_space_and_config(&entry.program.computation);
        for kernel in apply_fusion(&entry.program, &space, &config).kernels {
            out.push(kernel.computation);
        }
    }
    out
}

fn node_text(ty: &str) -> String {
    format!("computation t root=%0 {{\n  %0 = parameter {ty} name=\"x\"\n}}\n")
}

/// Whether the oracle took a text the reader must refuse: a layout of
/// another rank than its shape (it panicked later, on the worker), or a
/// tensor whose byte size does not fit `u64` (it wrapped).
fn oracle_wrongly_accepted(c: &Computation) -> bool {
    c.nodes().iter().any(|n| {
        n.layout.rank() != n.shape.rank()
            || n.shape
                .dims()
                .iter()
                .try_fold(n.dtype.size_bytes() as u64, |b, &d| b.checked_mul(d as u64))
                .is_none()
    })
}

/// Parse `text` with the reader and both oracles and hold them to the
/// differential contracts; returns the reader's verdict.
fn check_against_oracle(text: &str) -> Result<Computation, HloError> {
    let new = parse_computation(text);
    let line_reader = support::tokens::parse_computation(text);
    assert_eq!(
        new, line_reader,
        "reader and line reader disagree on {text:?}"
    );
    if let (Ok(new), Ok(old)) = (&new, &line_reader) {
        assert_eq!(canonical_hash(new), canonical_hash(old));
    }
    match (&new, catch_quietly(|| support::parse_computation(text))) {
        (Ok(new), Some(Ok(old))) => {
            assert_eq!(new, &old, "reader and oracle disagree on {text:?}");
            assert_eq!(canonical_hash(new), canonical_hash(&old));
        }
        (Err(_), Some(Err(_))) => {}
        // The oracle panicked: zero dim, rank over MAX_RANK, a layout that
        // is no permutation.
        (Err(_), None) => {}
        (Err(_), Some(Ok(old))) => assert!(
            oracle_wrongly_accepted(&old),
            "the reader refuses what the oracle parses: {text:?}: {new:?}"
        ),
        (Ok(_), Some(Err(e))) => panic!("the reader takes {text:?}, the oracle said {e}"),
        (Ok(_), None) => panic!("the reader takes {text:?}, the oracle panicked"),
    }
    new
}

/// What every accepted text must satisfy: it validates, every node is
/// within the limits the rest of the stack relies on, and it survives
/// dump → parse unchanged.
fn check_accepted(c: &Computation) {
    c.validate().expect("parsed computations validate");
    for n in c.nodes() {
        assert!(n.shape.rank() <= MAX_RANK && n.layout.rank() == n.shape.rank());
        assert!(n.shape.dims().iter().all(|&d| d > 0));
        // Neither panics (the strides used to, on the serve worker).
        let _ = (n.output_bytes(), n.layout.strides(&n.shape));
    }
    let again = parse_computation(&dump_computation(c)).expect("a dump parses");
    assert_eq!(canonical_hash(&again), canonical_hash(c));
}

#[test]
fn the_inputs_that_killed_or_degraded_the_daemon_are_typed_errors() {
    // Each of these panicked inside `parse_computation` (on the connection
    // thread — in stdin mode, the daemon)...
    for ty in [
        "f32[0]{0}",
        "f32[1,1,1,1,1,1,1,1,1,1,1,1]{11,10,9,8,7,6,5,4,3,2,1,0}",
        "f32[1,1,1,1,1,1]",
        "f32[2,2]{5,7}",
        "f32[2,2]{0,0}",
    ] {
        let text = node_text(ty);
        assert!(
            matches!(
                parse_computation(&text),
                Err(HloError::Parse { line: 2, .. })
            ),
            "{ty}: {:?}",
            parse_computation(&text)
        );
        assert!(
            catch_quietly(|| support::parse_computation(&text)).is_none(),
            "{ty} no longer panics the oracle: drop it from this list"
        );
    }
    // ...this one parsed, validated, and panicked in `Layout::strides` on
    // the worker, force-tripping the breaker for every client...
    for ty in [
        "f32[2,2]{0}",
        "f32[2]{1,0}",
        "f32[]{0}",
        "f32[2,2]{0,1,2,3,4,5}",
    ] {
        let text = node_text(ty);
        let err = parse_computation(&text).expect_err(ty);
        assert!(
            !matches!(err, HloError::Parse { line: 0, .. }),
            "{ty}: {err}"
        );
        check_against_oracle(&text).expect_err(ty);
    }
    // ...and these were accepted with a size that wrapped.
    for ty in [
        "f32[4294967296,4294967296,4294967296]",
        "f32[4294967296,4294967296]",
        "f32[4611686018427387904]",
        "f32[9223372036854775808]",
        "u8[18446744073709551615,2]",
        "f32[18446744073709551616]",
    ] {
        let text = node_text(ty);
        assert!(
            matches!(parse_computation(&text), Err(HloError::Parse { .. })),
            "{ty}"
        );
        check_against_oracle(&text).expect_err(ty);
    }
    // The largest tensors that do fit are still taken.
    for ty in [
        "u8[18446744073709551615]",
        "f32[4611686018427387903]",
        "bf16[2147483648,4294967295]",
    ] {
        check_accepted(&check_against_oracle(&node_text(ty)).expect(ty));
    }
}

#[test]
fn attribute_values_outside_their_operands_are_shape_errors() {
    // Parsed and validated before: the cost models then computed garbage
    // in a release build and overflowed in one with overflow checks, on
    // the worker, where the panic tripped the breaker for every client.
    let mut b = GraphBuilder::new("conv");
    let x = b.parameter("x", Shape::new(vec![1, 8, 8, 4]), DType::F32);
    let w = b.parameter("w", Shape::new(vec![3, 3, 4, 8]), DType::F32);
    let y = b.convolution(x, w, ConvAttrs::valid(3));
    let conv = b.finish(y);
    check_accepted(&check_against_oracle(&dump_computation(&conv)).expect("the unedited conv"));
    // A filter larger than its input; a filter window of 2^32 x 2^32 over
    // a 3x3 filter; a 2^63 stride.
    let mut large = conv.clone();
    large.node_mut(x).shape = Shape::new(vec![1, 2, 2, 4]);
    let conv_of = |c: &mut Computation, edit: fn(&mut ConvAttrs)| {
        let OpAttrs::Conv(attrs) = &mut c.node_mut(y).attrs else {
            unreachable!("a convolution")
        };
        edit(attrs);
    };
    let mut huge = conv.clone();
    conv_of(&mut huge, |a| (a.filter_h, a.filter_w) = (1 << 32, 1 << 32));
    let mut strided = conv.clone();
    conv_of(&mut strided, |a| a.stride_h = 1 << 63);
    for c in [large, huge, strided] {
        let text = dump_computation(&c);
        let result = check_against_oracle(&text);
        assert!(
            matches!(result, Err(HloError::ShapeMismatch { node, .. }) if node == y),
            "{text}: {result:?}"
        );
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    // `attrs=[[[[…` and `name=[[[[…` went through a recursive JSON parser
    // with no bound: 100,000 brackets overflowed the stack, which aborts
    // the process. (The oracle is not asked: it parses JSON with today's
    // depth-capped lexer, so it no longer shows the old failure.)
    for key in ["attrs", "name"] {
        for depth in [129, 1_000_000] {
            for open in ["[", "{\"a\":"] {
                let text = format!(
                    "computation t root=%0 {{\n  %0 = parameter f32[2]{{0}} {key}={}\n}}\n",
                    open.repeat(depth)
                );
                let (result, bytes) = allocated_by(|| parse_computation(&text));
                assert!(matches!(result, Err(HloError::Parse { line: 2, .. })));
                assert!(
                    bytes < 4096,
                    "{bytes} bytes allocated to refuse {depth} x {open}"
                );
            }
        }
    }
    // 128 levels inside an unknown key are skipped, as the derive skips them.
    let attrs = serde_json::to_string(&NodeAttrs::default()).unwrap();
    let padded = attrs.replacen(
        '{',
        &format!("{{\"x\":{}{},", "[".repeat(127), "]".repeat(127)),
        1,
    );
    let text =
        format!("computation t root=%0 {{\n  %0 = parameter f32[2]{{0}} attrs={padded}\n}}\n");
    check_accepted(&check_against_oracle(&text).expect("127 levels under the object"));
}

#[test]
fn ids_operands_and_roots_are_checked() {
    let body = |lines: &str| format!("computation t root=%1 {{\n{lines}}}\n");
    let cases = [
        // Duplicate and skipped ids.
        (
            "  %0 = parameter f32[2]{0}\n  %0 = tanh f32[2]{0} %0\n",
            false,
        ),
        (
            "  %0 = parameter f32[2]{0}\n  %2 = tanh f32[2]{0} %0\n",
            false,
        ),
        // A self operand is a cycle; so is a two-node loop.
        (
            "  %0 = parameter f32[2]{0}\n  %1 = tanh f32[2]{0} %1\n",
            false,
        ),
        (
            "  %0 = tanh f32[2]{0} %1\n  %1 = tanh f32[2]{0} %0\n",
            false,
        ),
        // A forward operand without a cycle is a valid (if unusual) graph.
        (
            "  %0 = tanh f32[2]{0} %1\n  %1 = parameter f32[2]{0}\n",
            true,
        ),
        // Operand and id out of range: of the graph, of u32.
        (
            "  %0 = parameter f32[2]{0}\n  %1 = tanh f32[2]{0} %7\n",
            false,
        ),
        (
            "  %0 = parameter f32[2]{0}\n  %1 = tanh f32[2]{0} %4294967296\n",
            false,
        ),
        (
            "  %0 = parameter f32[2]{0}\n  %9223372036854775808 = tanh f32[2]{0} %0\n",
            false,
        ),
        (
            "  %0 = parameter f32[2]{0}\n  %18446744073709551616 = tanh f32[2]{0} %0\n",
            false,
        ),
        // Arity, and a required attribute left out.
        (
            "  %0 = parameter f32[2]{0}\n  %1 = tanh f32[2]{0} %0 %0\n",
            false,
        ),
        (
            "  %0 = parameter f32[2,2]{1,0}\n  %1 = dot f32[2,2]{1,0} %0 %0\n",
            false,
        ),
    ];
    for (lines, ok) in cases {
        let text = body(lines);
        let result = check_against_oracle(&text);
        assert_eq!(result.is_ok(), ok, "{text}: {result:?}");
        if let Ok(c) = result {
            check_accepted(&c);
        }
    }
    let bad_root = "computation t root=%4294967296 {\n  %0 = parameter f32[2]{0}\n}\n";
    check_against_oracle(bad_root).expect_err("a root beyond u32");
    check_against_oracle("computation t root=%3 {\n  %0 = parameter f32[2]{0}\n}\n")
        .expect_err("a root beyond the graph");
}

#[test]
fn every_one_edit_mutation_is_an_error_or_a_valid_computation() {
    let (mut accepted, mut refused) = (0usize, 0usize);
    // Each seed in both forms: the compact one the writer makes, and the
    // full one, whose every layout and spelled-out default is damaged too.
    let texts = seed_computations()
        .iter()
        .flat_map(|seed| [dump_computation(seed), dump_full(seed)])
        .collect::<Vec<_>>();
    for text in texts {
        check_accepted(&check_against_oracle(&text).expect("the seed parses"));
        // Among the inserts: a lone continuation byte (breaks the UTF-8);
        // U+00A0 and U+2028, whitespace that is not ASCII (the second no
        // line end); and `\x0b` and `\r`, ASCII whitespace that a byte
        // reader could take for none or for a line end.
        let inserts: [&[u8]; 15] = [
            b"\"",
            b"\\",
            b"[",
            b"{",
            b",",
            b"=",
            b"%",
            b" ",
            b"+",
            b"\n",
            b"\x80",
            "\u{a0}".as_bytes(),
            "\u{2028}".as_bytes(),
            b"\x0b",
            b"\r",
        ];
        for mutant in mutations(text.as_bytes(), 1, &inserts) {
            // The reader takes `&str`: bytes that are not UTF-8 never
            // reach it (`serve_ndjson` refuses the whole line).
            let Ok(mutant) = String::from_utf8(mutant) else {
                continue;
            };
            let (result, bytes) = allocated_by(|| parse_computation(&mutant));
            assert!(
                bytes <= 256 * mutant.len() + 4096,
                "{bytes} bytes allocated for {} bytes of text",
                mutant.len()
            );
            drop(result);
            match check_against_oracle(&mutant) {
                Ok(c) => {
                    check_accepted(&c);
                    accepted += 1;
                }
                Err(_) => refused += 1,
            }
        }
    }
    // Both arms are exercised: a flipped digit still parses, a cut does not.
    assert!(
        accepted > 1000 && refused > 1000,
        "{accepted} accepted, {refused} refused"
    );
}

#[test]
fn allocation_is_bounded_by_the_text() {
    // Lists that are refused for their length are refused before they are
    // stored; a header alone allocates nothing to speak of.
    let dims = vec!["1"; 200_000].join(",");
    for ty in [format!("f32[{dims}]"), format!("f32[2]{{{dims}}}")] {
        let text = node_text(&ty);
        let (result, bytes) = allocated_by(|| parse_computation(&text));
        assert!(matches!(result, Err(HloError::Parse { line: 2, .. })));
        assert!(
            bytes < 4096,
            "{bytes} bytes allocated to refuse a 200,000-entry list"
        );
    }
    let blank = "computation t root=%0 {".to_string() + &"\n".repeat(1 << 20);
    let (result, bytes) = allocated_by(|| parse_computation(&blank));
    assert_eq!(result, Err(HloError::Empty));
    assert!(
        bytes < 4096,
        "{bytes} bytes allocated for a megabyte of blank lines"
    );
}

#[test]
fn the_full_corpus_reads_as_the_oracle_read_it() {
    let kernels = corpus_computations();
    assert!(
        kernels.len() > 1000,
        "only {} corpus kernels",
        kernels.len()
    );
    for c in &kernels {
        let [compact, full] = [dump_computation(c), dump_full(c)].map(|text| {
            let parsed = check_against_oracle(&text).expect("a corpus kernel parses");
            assert_eq!(canonical_hash(&parsed), canonical_hash(c), "{text}");
            assert_eq!(parsed.root(), c.root());
            parsed
        });
        // All eleven keys spelled out read to the computation the compact
        // form reads to, with every node's attributes as the kernel's.
        assert_eq!(full, compact);
        for (read, node) in full.nodes().iter().zip(c.nodes()) {
            assert_eq!((&read.attrs, read.is_output), (&node.attrs, node.is_output));
        }
    }
}

/// The shapes of the operands a node of `opcode` reads in the attrs
/// suites, and its own: what its attributes index (a batched rank-3 dot,
/// an NHWC convolution and pooling, a rank-2 slice).
fn context(opcode: Opcode) -> (Vec<Shape>, Shape) {
    let s = |dims: &[usize]| Shape::from(dims);
    match opcode {
        Opcode::Dot => (vec![s(&[2, 3, 4]), s(&[2, 4, 5])], s(&[2, 3, 5])),
        Opcode::Convolution => (vec![s(&[1, 8, 8, 4]), s(&[3, 3, 4, 8])], s(&[1, 8, 8, 8])),
        Opcode::ReduceWindow => (vec![s(&[1, 8, 8, 4]), Shape::scalar()], s(&[1, 4, 4, 4])),
        Opcode::Concatenate | Opcode::Compare => (vec![s(&[6, 10]); 2], s(&[6, 10])),
        Opcode::Parameter => (Vec::new(), s(&[6, 10])),
        _ => (vec![s(&[6, 10])], s(&[6, 10])),
    }
}

/// A node of `opcode` holding `attrs` and the output mark `is_output`, as
/// the root of a computation over parameters of its context's shapes. It
/// need not validate: the reader must then refuse its text as validation
/// refuses it.
fn attrs_computation(opcode: Opcode, attrs: OpAttrs, is_output: bool) -> Computation {
    let (operands, out) = context(opcode);
    let mut b = GraphBuilder::new("t");
    let ids = operands
        .into_iter()
        .map(|shape| b.parameter("", shape, DType::F32))
        .collect();
    let root = b.parameter("", out, DType::F32);
    let mut c = b.finish(root);
    let n = c.node_mut(root);
    (n.opcode, n.operands, n.attrs, n.is_output) = (opcode, ids, attrs, is_output);
    c
}

/// What reading `c` back from text must give: `c`, or the error
/// validation refuses it with.
fn expected(c: &Computation) -> Result<Computation, HloError> {
    c.validate().map(|()| c.clone())
}

/// The text of `c` with `attrs={json}` on its root, the last line.
fn with_root_attrs(c: &Computation, json: &str) -> String {
    let text = dump_computation(c);
    let (head, root_line) = text
        .trim_end_matches("}\n")
        .trim_end()
        .rsplit_once('\n')
        .expect("a root line");
    let stem = root_line.split(" attrs=").next().expect("a line");
    format!("{head}\n{stem} attrs={json}\n}}\n")
}

/// The JSON the writer puts after `attrs=` on `c`'s root (`{}` when it
/// leaves `attrs=` out, as it does when there is nothing to write).
fn written_attrs(c: &Computation) -> String {
    let text = dump_computation(c);
    let root_line = text.lines().nth(1 + c.root().index()).expect("a root line");
    root_line
        .split_once(" attrs=")
        .map_or("{}", |(_, json)| json)
        .to_string()
}

/// The JSON the derive wrote for `c`'s root: every key spelled out.
fn full_attrs(c: &Computation) -> String {
    serde_json::to_string(&NodeAttrs::of(c.node(c.root()))).unwrap()
}

/// The reader on `c`'s text with `json` as its root's `attrs=`, held to
/// the readers it replaced (`check_against_oracle`) and to the derive: it
/// refuses the object exactly when the derive does, or the derive's node
/// keeps other attributes than it; and the attributes it reads are the
/// derive's.
fn check_attrs(c: &Computation, json: &str) {
    // A token of the text format holds no whitespace: JSON that does is
    // cut short by the tokenizer before either reader sees it.
    if json.contains(char::is_whitespace) {
        return;
    }
    let opcode = c.node(c.root()).opcode;
    let result = check_against_oracle(&with_root_attrs(c, json));
    let reference = op_attrs_from_str(json, opcode);
    let refused = matches!(
        &result,
        Err(HloError::Parse { reason, .. }) if reason.starts_with("bad attrs: ")
    );
    assert_eq!(
        refused,
        reference.is_err(),
        "{json} on {opcode}: reader {result:?}, derive {reference:?}"
    );
    if let (Ok(read), Ok((attrs, is_output))) = (&result, &reference) {
        let root = read.node(read.root());
        assert_eq!((&root.attrs, root.is_output), (attrs, *is_output), "{json}");
    }
}

/// The opcode and attributes of the root of `attrs_computation`, read
/// from `json`.
fn read_attrs(opcode: Opcode, json: &str) -> Result<(OpAttrs, bool), HloError> {
    let text = with_root_attrs(&attrs_computation(opcode, OpAttrs::None, false), json);
    parse_computation(&text).map(|c| {
        let root = c.node(c.root());
        (root.attrs.clone(), root.is_output)
    })
}

#[test]
fn the_attrs_reader_agrees_with_the_derive_on_every_corpus_attrs_object() {
    let mut distinct = std::collections::BTreeSet::new();
    for c in corpus_computations().iter().chain(&seed_computations()) {
        for node in c.nodes() {
            if node.attrs != OpAttrs::None || node.is_output {
                let json = serde_json::to_string(&NodeAttrs::of(node)).unwrap();
                distinct.insert((node.opcode, json));
            }
        }
    }
    assert!(
        distinct.len() > 50,
        "only {} distinct attrs objects",
        distinct.len()
    );
    for (opcode, json) in &distinct {
        let (attrs, is_output) = op_attrs_from_str(json, *opcode).unwrap();
        let c = attrs_computation(*opcode, attrs, is_output);
        assert_eq!(parse_computation(&with_root_attrs(&c, json)), expected(&c));
        let compact = written_attrs(&c);
        assert!(compact.len() < json.len(), "{compact}");
        assert_eq!(parse_computation(&dump_computation(&c)), expected(&c));
        check_attrs(&c, json);
        check_attrs(&c, &compact);
    }
}

/// An opcode with attributes of its own shape, and an output mark. Half
/// the integers are below 4, so that the attributes often fit their
/// context and are compared read for read; the rest are any size.
fn random_attrs(rng: &mut TestRng) -> (Opcode, OpAttrs, bool) {
    let n = |rng: &mut TestRng| match rng.below(2) {
        0 => rng.below(4) as usize,
        _ => (rng.next_u64() >> rng.below(64)) as usize,
    };
    let ns = |rng: &mut TestRng| (0..rng.below(4)).map(|_| n(rng)).collect::<Vec<usize>>();
    let dims = |rng: &mut TestRng| {
        let list: Vec<usize> = (0..rng.below(MAX_RANK as u64 + 1))
            .map(|_| n(rng))
            .collect();
        Dims::try_from(&list[..]).unwrap()
    };
    let (opcode, attrs) = match rng.below(11) {
        0 => (Opcode::Tanh, OpAttrs::None),
        1 => (
            Opcode::Dot,
            OpAttrs::Dot(DotDims {
                lhs_contracting: n(rng),
                rhs_contracting: n(rng),
                lhs_batch: ns(rng),
                rhs_batch: ns(rng),
            }),
        ),
        2 => (
            Opcode::Convolution,
            OpAttrs::Conv(ConvAttrs {
                filter_h: n(rng),
                filter_w: n(rng),
                stride_h: n(rng),
                stride_w: n(rng),
                pad_h: (n(rng), n(rng)),
                pad_w: (n(rng), n(rng)),
                feature_groups: n(rng),
            }),
        ),
        3 => (Opcode::Reduce, OpAttrs::Reduce(dims(rng))),
        4 => (Opcode::Transpose, OpAttrs::Transpose(dims(rng))),
        5 => (Opcode::Broadcast, OpAttrs::Broadcast(dims(rng))),
        6 => (
            Opcode::Slice,
            OpAttrs::Slice(SliceAttrs {
                starts: ns(rng),
                limits: ns(rng),
                strides: ns(rng),
            }),
        ),
        7 => (
            Opcode::Pad,
            OpAttrs::Pad(PadConfig {
                dims: (0..rng.below(3))
                    .map(|_| (n(rng), n(rng), n(rng)))
                    .collect(),
            }),
        ),
        8 => (Opcode::Concatenate, OpAttrs::Concat(n(rng))),
        9 => {
            use Comparison::*;
            let cmp = [Eq, Ne, Lt, Le, Gt, Ge][rng.below(6) as usize];
            (Opcode::Compare, OpAttrs::Compare(cmp))
        }
        _ => (
            Opcode::ReduceWindow,
            OpAttrs::Window(n(rng), n(rng), n(rng), n(rng)),
        ),
    };
    (opcode, attrs, rng.below(2) == 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Generated attrs, each on a node of its opcode, round-trip through
    /// the reader, written by the writer and by the derive; and after one
    /// edit of either — a cut, an overwritten or inserted byte, a
    /// swapped-in fragment, a dropped key — reader and derive still agree,
    /// `Ok` or `Err`.
    #[test]
    fn the_attrs_reader_agrees_with_the_derive_on_generated_attrs(seed in any::<u64>()) {
        let rng = &mut TestRng::new(seed);
        let (opcode, attrs, is_output) = random_attrs(rng);
        let c = attrs_computation(opcode, attrs, is_output);
        for json in [written_attrs(&c), full_attrs(&c)] {
            prop_assert_eq!(parse_computation(&with_root_attrs(&c, &json)), expected(&c));
            check_edits(rng, &c, &json);
        }
    }
}

/// [`check_attrs`] on 16 one-edit variants of `json` on `c`'s root.
fn check_edits(rng: &mut TestRng, c: &Computation, json: &str) {
    let fragments: [&str; 15] = [
        "null",
        "1.0",
        "1e2",
        "-1",
        "1.5",
        "18446744073709551616",
        "\"Eq\"",
        "\"Xx\"",
        "[]",
        "[1,2]",
        "[0,0,0,0,0,0]",
        "{}",
        "true",
        "\"dot\":null,",
        "\"\\u0064ot\":7,",
    ];
    for _ in 0..16 {
        let at = rng.below(json.len() as u64 + 1) as usize;
        let fragment = fragments[rng.below(fragments.len() as u64) as usize];
        let mut edited = json.to_string();
        match rng.below(4) {
            0 => edited.truncate(at),
            1 => edited.insert_str(at, fragment),
            2 => {
                // Replace the value after a colon.
                if let Some(colon) = json[at..].find(':').map(|i| at + i + 1) {
                    let end = json[colon..]
                        .find([',', '}'])
                        .map_or(json.len(), |i| colon + i);
                    edited.replace_range(colon..end, fragment);
                }
            }
            _ => {
                // Drop one key with its value (when it is a scalar).
                if let Some(start) = json[at..].find(",\"").map(|i| at + i) {
                    if let Some(end) = json[start + 1..].find(',').map(|i| start + 1 + i) {
                        edited.replace_range(start..end, "");
                    }
                }
            }
        }
        check_attrs(c, &edited);
    }
}

#[test]
fn first_key_wins_unknown_keys_are_skipped_and_an_absent_key_is_its_default() {
    let param = attrs_computation(Opcode::Parameter, OpAttrs::None, false);
    let full = full_attrs(&param);
    let none = Ok((OpAttrs::None, false));
    // A repeated key: the first one counts, the second is not even typed.
    let twice = full.replacen(
        "\"is_output\":false",
        "\"is_output\":true,\"is_output\":7",
        1,
    );
    assert_eq!(
        read_attrs(Opcode::Parameter, &twice),
        Ok((OpAttrs::None, true))
    );
    check_attrs(&param, &twice);
    // An escaped key is the key it decodes to.
    let escaped = full.replacen("\"dot\"", "\"\\u0064ot\"", 1);
    assert_eq!(read_attrs(Opcode::Parameter, &escaped), none);
    check_attrs(&param, &escaped);
    // Unknown keys, of any shape, are skipped.
    let extra = full.replacen('{', "{\"later\":{\"a\":[1,{\"b\":null}]},", 1);
    assert_eq!(read_attrs(Opcode::Parameter, &extra), none);
    check_attrs(&param, &extra);
    // An absent top-level key is its default: the writer leaves out every
    // key whose value is.
    for field in [
        "\"dot\":null,",
        "\"reduce_dims\":[],",
        ",\"is_output\":false",
    ] {
        let missing = full.replacen(field, "", 1);
        assert_ne!(missing, full);
        assert_eq!(read_attrs(Opcode::Parameter, &missing), none, "{field}");
        check_attrs(&param, &missing);
    }
    assert_eq!(read_attrs(Opcode::Parameter, "{}"), none);
    let output = attrs_computation(Opcode::Parameter, OpAttrs::None, true);
    assert_eq!(written_attrs(&output), "{\"is_output\":true}");
    assert_eq!(
        read_attrs(Opcode::Parameter, "{\"is_output\":true}"),
        Ok((OpAttrs::None, true))
    );
    // An empty index list is the default the writer leaves out.
    let reduce = attrs_computation(Opcode::Reduce, OpAttrs::Reduce(Dims::default()), false);
    assert_eq!(written_attrs(&reduce), "{}");
    assert_eq!(
        parse_computation(&dump_computation(&reduce)),
        Ok(reduce.clone())
    );
    // A present key is typed as before: `null` is no list and no bool.
    for (c, json) in [
        (&reduce, "{\"reduce_dims\":null}"),
        (&param, "{\"reduce_dims\":null}"),
        (&param, "{\"is_output\":null}"),
        (&param, "{\"is_output\":0}"),
    ] {
        let opcode = c.node(c.root()).opcode;
        read_attrs(opcode, json).expect_err(json);
        check_attrs(c, json);
    }
    // A nested struct still needs every field, as in the derive.
    let nested = [
        (
            Opcode::Dot,
            "\"dot\":",
            "{\"lhs_contracting\":2,\"rhs_contracting\":1,\"lhs_batch\":[0],\"rhs_batch\":[0]}",
        ),
        (
            Opcode::Convolution,
            "\"conv\":",
            "{\"filter_h\":3,\"filter_w\":3,\"stride_h\":1,\"stride_w\":1,\"pad_h\":[1,1],\"pad_w\":[1,1],\"feature_groups\":1}",
        ),
        (
            Opcode::Slice,
            "\"slice\":",
            "{\"starts\":[0,2],\"limits\":[4,10],\"strides\":[1,2]}",
        ),
        (Opcode::Pad, "\"pad\":", "{\"dims\":[[1,1,0],[0,2,1]]}"),
    ];
    for (opcode, key, value) in nested {
        let c = attrs_computation(opcode, OpAttrs::None, false);
        let whole = format!("{{{key}{value}}}");
        let (attrs, _) = read_attrs(opcode, &whole).expect(&whole);
        assert_eq!(attrs.clone(), op_attrs_from_str(&whole, opcode).unwrap().0);
        assert_ne!(attrs, OpAttrs::None);
        check_attrs(&c, &whole);
        // Drop each field in turn.
        let fields = &value[1..value.len() - 1];
        for (at, _) in fields.match_indices("\"").step_by(2) {
            let end = fields[at..]
                .find(",\"")
                .map_or(fields.len(), |i| at + i + 1);
            let without = format!("{{{}{}}}", &fields[..at], &fields[end..]).replace(",}", "}");
            let json = format!("{{{key}{without}}}");
            serde_json::parse_value_str(&json).expect(&json);
            read_attrs(opcode, &json).expect_err(&json);
            check_attrs(&c, &json);
        }
    }
    // Integral floats are integers.
    let concat = attrs_computation(Opcode::Concatenate, OpAttrs::None, false);
    let float = full.replacen("\"concat_dim\":null", "\"concat_dim\":3.0", 1);
    assert_eq!(
        read_attrs(Opcode::Concatenate, &float),
        Ok((OpAttrs::Concat(3), false))
    );
    check_attrs(&concat, &float);
    for json in ["[]", "null", "7", "\"x\"", "{}x", ""] {
        check_attrs(&param, json);
    }
}

#[test]
fn a_key_of_another_opcode_is_a_typed_error_unless_it_holds_its_default() {
    let matmul = serde_json::to_string(&DotDims::matmul()).unwrap();
    let foreign = [
        (Opcode::Tanh, format!("{{\"dot\":{matmul}}}"), "dot"),
        (Opcode::Parameter, "{\"concat_dim\":0}".to_string(), "concat_dim"),
        (Opcode::Reduce, "{\"reduce_dims\":[1],\"transpose_perm\":[1,0]}".to_string(), "transpose_perm"),
        // The dot's own key left at its default takes no other in its place.
        (Opcode::Dot, "{\"dot\":null,\"conv\":{\"filter_h\":3,\"filter_w\":3,\"stride_h\":1,\"stride_w\":1,\"pad_h\":[1,1],\"pad_w\":[1,1],\"feature_groups\":1}}".to_string(), "conv"),
        (Opcode::Compare, "{\"comparison\":\"Lt\",\"window\":[2,2,2,2]}".to_string(), "window"),
    ];
    for (opcode, json, key) in foreign {
        let err = read_attrs(opcode, &json).unwrap_err();
        assert_eq!(
            err,
            HloError::Parse {
                line: 2 + context(opcode).0.len(),
                reason: format!("bad attrs: `{key}` is not an attribute of `{opcode}`"),
            }
        );
        check_attrs(&attrs_computation(opcode, OpAttrs::None, false), &json);
    }
    // Every key at its default, as the full form writes them, is taken.
    let tanh = attrs_computation(Opcode::Tanh, OpAttrs::None, true);
    let full = full_attrs(&tanh);
    assert!(full.contains("\"dot\":null") && full.contains("\"reduce_dims\":[]"));
    assert_eq!(
        parse_computation(&with_root_attrs(&tanh, &full)),
        Ok(tanh.clone())
    );
    check_attrs(&tanh, &full);
    // A node validated by hand holds its own opcode's attributes only.
    let mut dotted = tanh.clone();
    dotted.node_mut(NodeId(1)).attrs = OpAttrs::Dot(DotDims::matmul());
    assert_eq!(
        dotted.validate(),
        Err(HloError::ForeignAttr {
            node: NodeId(1),
            attr: "dot"
        })
    );
}

#[test]
fn an_index_list_longer_than_max_rank_is_a_typed_error() {
    let five = Dims::try_from(&[0, 1, 0, 1, 0][..]).unwrap();
    assert_eq!(
        read_attrs(Opcode::Transpose, "{\"transpose_perm\":[0,1,0,1,0]}"),
        Ok((OpAttrs::Transpose(five), false))
    );
    for (opcode, json) in [
        (Opcode::Reduce, "{\"reduce_dims\":[0,0,0,0,0,0]}"),
        (Opcode::Broadcast, "{\"broadcast_dims\":[0,1,0,1,0,1,0]}"),
        // Refused for its length before its key is weighed.
        (Opcode::Tanh, "{\"transpose_perm\":[0,0,0,0,0,0]}"),
    ] {
        assert_eq!(
            read_attrs(opcode, json),
            Err(HloError::Parse {
                line: 3,
                reason: format!("bad attrs: index list longer than {MAX_RANK}"),
            }),
            "{json}"
        );
        check_attrs(&attrs_computation(opcode, OpAttrs::None, false), json);
    }
    // A long list is refused before it is stored.
    let json = format!("{{\"reduce_dims\":[{}]}}", vec!["1"; 200_000].join(","));
    let reduce = attrs_computation(Opcode::Reduce, OpAttrs::None, false);
    let text = with_root_attrs(&reduce, &json);
    let (result, bytes) = allocated_by(|| parse_computation(&text));
    assert!(matches!(result, Err(HloError::Parse { line: 3, .. })));
    assert!(
        bytes < 4096,
        "{bytes} bytes allocated to refuse a 200,000-entry list"
    );
}
