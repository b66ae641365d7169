//! Property-based tests for shapes, layouts, and the text format.

use proptest::prelude::*;
use tpu_hlo::{DType, GraphBuilder, Layout, Shape};

fn arb_dims() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..64, 0..5)
}

fn arb_perm(rank: usize) -> Vec<usize> {
    // Deterministic "reverse" permutation per rank; randomness comes from
    // rank itself.
    (0..rank).rev().collect()
}

/// Characters a builder name may hold, the ones the text format splits
/// or escapes at first; past them, any `char`.
const NAME_CHARS: [char; 12] = [
    ' ', '\t', '\n', '\r', '\u{a0}', '\u{2028}', '"', '\\', '{', '%', '=', 'a',
];

fn arb_name() -> impl Strategy<Value = String> {
    prop::collection::vec((0..NAME_CHARS.len() + 1, any::<u32>()), 0..12).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(i, code)| {
                NAME_CHARS
                    .get(i)
                    .copied()
                    .unwrap_or_else(|| char::from_u32(code % 0x11_0000).unwrap_or('?'))
            })
            .collect()
    })
}

/// The name a graph built under `name`, its one parameter under `param`,
/// reads back with from the dump: one non-empty token, and otherwise the
/// same graph.
fn read_back_name(name: &str, param: &str) -> String {
    let mut b = GraphBuilder::new(name);
    let x = b.parameter(param, Shape::matrix(4, 8), DType::F32);
    let y = b.tanh(x);
    let c = b.finish(y);
    let parsed = tpu_hlo::parse_computation(&tpu_hlo::dump_computation(&c)).unwrap();
    assert_eq!(
        tpu_hlo::canonical_hash(&parsed),
        tpu_hlo::canonical_hash(&c)
    );
    assert_eq!(parsed.nodes().len(), c.nodes().len());
    assert!(!parsed.name().is_empty() && !parsed.name().contains(char::is_whitespace));
    parsed.name().to_string()
}

#[test]
fn names_that_are_no_token_read_back_sanitized() {
    for (name, read) in [
        ("my kernel", "my_kernel"),
        ("", "_"),
        ("tab\tname", "tab_name"),
    ] {
        assert_eq!(read_back_name(name, "x"), read);
    }
}

proptest! {
    /// Whatever the builder was named, and its nodes, the dump reads back;
    /// a name that is already one token keeps it.
    #[test]
    fn any_names_roundtrip_through_the_text(name in arb_name(), param in arb_name()) {
        let read = read_back_name(&name, &param);
        if !name.is_empty() && !name.contains(char::is_whitespace) {
            prop_assert_eq!(read, name);
        }
    }

    #[test]
    fn elem_count_is_product(dims in arb_dims()) {
        let s = Shape::new(dims.clone());
        let expected: u64 = dims.iter().map(|&d| d as u64).product();
        prop_assert_eq!(s.elem_count(), expected);
        prop_assert_eq!(s.byte_size(DType::F32), expected * 4);
        prop_assert_eq!(s.byte_size(DType::BF16), expected * 2);
    }

    #[test]
    fn default_layout_strides_decrease(dims in prop::collection::vec(1usize..64, 1..5)) {
        let s = Shape::new(dims);
        let l = Layout::default_for_rank(s.rank());
        let strides = l.strides(&s);
        // Row-major: stride of dim d >= stride of dim d+1, and minor has
        // stride 1.
        prop_assert_eq!(strides[s.rank() - 1], 1);
        for w in strides.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn stride_times_dim_covers_all_elements(dims in prop::collection::vec(1usize..32, 1..5)) {
        let s = Shape::new(dims);
        let l = Layout::default_for_rank(s.rank());
        let strides = l.strides(&s);
        // Address of the last element + 1 equals elem_count.
        let last: u64 = strides
            .iter()
            .zip(s.dims())
            .map(|(&st, &d)| st * (d as u64 - 1))
            .sum();
        prop_assert_eq!(last + 1, s.elem_count());
    }

    #[test]
    fn reversed_layout_strides_valid(dims in prop::collection::vec(1usize..32, 1..5)) {
        let s = Shape::new(dims);
        let perm = arb_perm(s.rank());
        let l = Layout::new(perm);
        let strides = l.strides(&s);
        // All strides distinct unless some dim is 1.
        let max_addr: u64 = strides
            .iter()
            .zip(s.dims())
            .map(|(&st, &d)| st * (d as u64 - 1))
            .sum();
        prop_assert_eq!(max_addr + 1, s.elem_count());
    }

    #[test]
    fn builder_chain_always_validates(ops in prop::collection::vec(0u8..6, 1..30),
                                      cols in 1usize..128) {
        let mut b = GraphBuilder::new("p");
        let mut v = b.parameter("x", Shape::matrix(8, cols), DType::F32);
        for op in ops {
            v = match op {
                0 => b.tanh(v),
                1 => b.exp(v),
                2 => b.abs(v),
                3 => b.relu(v),
                4 => b.logistic(v),
                _ => b.negate(v),
            };
        }
        let c = b.finish(v);
        prop_assert!(c.validate().is_ok());
        prop_assert_eq!(c.root(), v);
        // Text roundtrip.
        let parsed = tpu_hlo::parse_computation(&tpu_hlo::dump_computation(&c)).unwrap();
        prop_assert_eq!(
            tpu_hlo::canonical_hash(&parsed),
            tpu_hlo::canonical_hash(&c)
        );
    }

    #[test]
    fn with_dim_preserves_other_dims(dims in prop::collection::vec(1usize..64, 1..5),
                                     new_size in 1usize..64) {
        let s = Shape::new(dims.clone());
        for d in 0..s.rank() {
            let s2 = s.with_dim(d, new_size);
            prop_assert_eq!(s2.dim(d), new_size);
            for o in 0..s.rank() {
                if o != d {
                    prop_assert_eq!(s2.dim(o), s.dim(o));
                }
            }
        }
    }
}
