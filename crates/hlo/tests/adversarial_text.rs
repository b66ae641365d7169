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
//!   kernels that between them carry every attribute struct;
//! - the reader against the parser it replaced (`support`, the oracle):
//!   `Ok` ⇒ the same [`Computation`] and canonical hash, `Err` ⇒ `Err`,
//!   except on the listed inputs the oracle panicked on or wrongly took;
//! - the `attrs=` reader against the derived `Deserialize` of
//!   [`NodeAttrs`], on every attrs object the Full corpus's default fusion
//!   emits and on generated ones, damaged and not.

mod support;

use proptest::prelude::*;
use proptest::TestRng;
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;
use support::{catch_quietly, mutations};
use tpu_dataset::{Corpus, CorpusScale};
use tpu_fusion::{apply_fusion, default_space_and_config};
use tpu_hlo::{
    canonical_hash, dump_computation, parse_computation, Comparison, Computation, ConvAttrs, DType,
    DotDims, GraphBuilder, HloError, NodeAttrs, NodeId, PadConfig, Shape, SliceAttrs, MAX_RANK,
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

/// Kernels that between them carry every attribute struct, every dtype
/// and a name that needs escaping.
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
        out.push(b.finish(d));
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
        out.push(b.finish(sel));
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

/// Parse `text` with the reader and the oracle and hold them to the
/// differential contract; returns the reader's verdict.
fn check_against_oracle(text: &str) -> Result<Computation, HloError> {
    let new = parse_computation(text);
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
    let mut huge = conv.clone();
    let attrs = huge.node_mut(y).attrs.conv.as_mut().unwrap();
    (attrs.filter_h, attrs.filter_w) = (1 << 32, 1 << 32);
    let mut strided = conv.clone();
    strided.node_mut(y).attrs.conv.as_mut().unwrap().stride_h = 1 << 63;
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
    for seed in seed_computations() {
        let text = dump_computation(&seed);
        check_accepted(&check_against_oracle(&text).expect("the seed parses"));
        // Among the inserts: a lone continuation byte (breaks the UTF-8)
        // and U+00A0, whitespace that is not ASCII.
        let inserts: [&[u8]; 12] = [
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
        let text = dump_computation(c);
        let parsed = check_against_oracle(&text).expect("a corpus kernel parses");
        assert_eq!(canonical_hash(&parsed), canonical_hash(c), "{text}");
        assert_eq!(parsed.root(), c.root());
    }
}

/// The `NodeAttrs` of the single node of a computation whose `attrs=` is
/// `json`: the reader's way in, as the oracle's is `from_str`.
fn read_attrs(json: &str) -> Result<NodeAttrs, HloError> {
    let text = format!("computation t root=%0 {{\n  %0 = parameter f32[2]{{0}} attrs={json}\n}}\n");
    parse_computation(&text).map(|c| c.node(NodeId(0)).attrs.clone())
}

/// Reader and derive agree on `json`: the same attrs, or both refuse.
fn check_attrs(json: &str) {
    // A token of the text format holds no whitespace: JSON that does is
    // cut short by the tokenizer before either reader sees it.
    if json.contains(char::is_whitespace) {
        return;
    }
    match (read_attrs(json), serde_json::from_str::<NodeAttrs>(json)) {
        (Ok(new), Ok(old)) => assert_eq!(new, old, "{json}"),
        (Err(_), Err(_)) => {}
        (new, old) => panic!("{json}: reader {new:?}, derive {old:?}"),
    }
}

#[test]
fn the_attrs_reader_agrees_with_the_derive_on_every_corpus_attrs_object() {
    let mut distinct = std::collections::BTreeSet::new();
    for c in corpus_computations().iter().chain(&seed_computations()) {
        for node in c.nodes() {
            if node.attrs != NodeAttrs::default() {
                distinct.insert(serde_json::to_string(&node.attrs).unwrap());
            }
        }
    }
    assert!(
        distinct.len() > 50,
        "only {} distinct attrs objects",
        distinct.len()
    );
    for json in &distinct {
        assert_eq!(
            read_attrs(json).unwrap(),
            serde_json::from_str(json).unwrap()
        );
    }
}

fn random_attrs(rng: &mut TestRng) -> NodeAttrs {
    let n = |rng: &mut TestRng| (rng.next_u64() >> rng.below(64)) as usize;
    let ns = |rng: &mut TestRng| (0..rng.below(4)).map(|_| n(rng)).collect::<Vec<usize>>();
    let some = |rng: &mut TestRng| rng.below(2) == 1;
    NodeAttrs {
        dot: some(rng).then(|| DotDims {
            lhs_contracting: n(rng),
            rhs_contracting: n(rng),
            lhs_batch: ns(rng),
            rhs_batch: ns(rng),
        }),
        conv: some(rng).then(|| ConvAttrs {
            filter_h: n(rng),
            filter_w: n(rng),
            stride_h: n(rng),
            stride_w: n(rng),
            pad_h: (n(rng), n(rng)),
            pad_w: (n(rng), n(rng)),
            feature_groups: n(rng),
        }),
        reduce_dims: ns(rng),
        transpose_perm: ns(rng),
        broadcast_dims: ns(rng),
        slice: some(rng).then(|| SliceAttrs {
            starts: ns(rng),
            limits: ns(rng),
            strides: ns(rng),
        }),
        pad: some(rng).then(|| PadConfig {
            dims: (0..rng.below(3))
                .map(|_| (n(rng), n(rng), n(rng)))
                .collect(),
        }),
        concat_dim: some(rng).then(|| n(rng)),
        comparison: some(rng).then(|| {
            use Comparison::*;
            [Eq, Ne, Lt, Le, Gt, Ge][rng.below(6) as usize]
        }),
        window: some(rng).then(|| (n(rng), n(rng), n(rng), n(rng))),
        is_output: some(rng),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Generated attrs round-trip through the reader as through the
    /// derive; and after one edit — a cut, an overwritten or inserted
    /// byte, a swapped-in fragment — the two still agree, `Ok` or `Err`.
    #[test]
    fn the_attrs_reader_agrees_with_the_derive_on_generated_attrs(seed in any::<u64>()) {
        let rng = &mut TestRng::new(seed);
        let attrs = random_attrs(rng);
        let json = serde_json::to_string(&attrs).unwrap();
        prop_assert_eq!(read_attrs(&json).unwrap(), attrs);
        let fragments: [&str; 14] = [
            "null", "1.0", "1e2", "-1", "1.5", "18446744073709551616", "\"Eq\"", "\"Xx\"", "[]",
            "[1,2]", "{}", "true", "\"dot\":null,", "\"\\u0064ot\":7,",
        ];
        for _ in 0..16 {
            let at = rng.below(json.len() as u64 + 1) as usize;
            let fragment = fragments[rng.below(fragments.len() as u64) as usize];
            let mut edited = json.clone();
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
            check_attrs(&edited);
        }
    }
}

#[test]
fn first_key_wins_unknown_keys_are_skipped_and_every_field_is_required() {
    let full = serde_json::to_string(&NodeAttrs::default()).unwrap();
    // A repeated key: the first one counts, the second is not even typed.
    let twice = full.replacen(
        "\"is_output\":false",
        "\"is_output\":true,\"is_output\":7",
        1,
    );
    assert!(read_attrs(&twice).unwrap().is_output);
    check_attrs(&twice);
    // An escaped key is the key it decodes to.
    let escaped = full.replacen("\"dot\"", "\"\\u0064ot\"", 1);
    assert_eq!(read_attrs(&escaped).unwrap(), NodeAttrs::default());
    check_attrs(&escaped);
    // Unknown keys, of any shape, are skipped.
    let extra = full.replacen('{', "{\"later\":{\"a\":[1,{\"b\":null}]},", 1);
    assert_eq!(read_attrs(&extra).unwrap(), NodeAttrs::default());
    check_attrs(&extra);
    // Every field is required, as in the derive; integral floats are integers.
    for field in [
        "\"dot\":null,",
        "\"reduce_dims\":[],",
        ",\"is_output\":false",
    ] {
        let missing = full.replacen(field, "", 1);
        assert_ne!(missing, full);
        read_attrs(&missing).expect_err(field);
        check_attrs(&missing);
    }
    let float = full.replacen("\"concat_dim\":null", "\"concat_dim\":3.0", 1);
    assert_eq!(read_attrs(&float).unwrap().concat_dim, Some(3));
    check_attrs(&float);
    for json in ["[]", "null", "7", "\"x\"", "{}x", ""] {
        check_attrs(json);
    }
}
