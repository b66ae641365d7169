//! Property-based tests for shapes, layouts, the text format and the
//! canonical hash.

#[path = "support/hash_oracle.rs"]
mod hash_oracle;

use proptest::prelude::*;
use tpu_hlo::{
    canonical_hash, canonical_kernel_hash, Comparison, Computation, ConvAttrs, DType, Dims,
    DotDims, GraphBuilder, Kernel, KernelKind, Layout, NodeId, OpAttrs, Opcode, PadConfig, Shape,
    SliceAttrs, TileSize, MAX_RANK,
};

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

fn opt<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), inner).prop_map(|(some, v)| some.then_some(v))
}

fn arb_usizes() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(any::<usize>(), 0..4)
}

fn arb_index_list() -> impl Strategy<Value = Dims> {
    prop::collection::vec(any::<usize>(), 0..MAX_RANK + 1)
        .prop_map(|dims| Dims::try_from(&dims[..]).unwrap())
}

/// An opcode with attributes of its own shape, each family with any value
/// of every hashed field, and a comparison (which the key leaves out).
fn arb_attrs() -> impl Strategy<Value = (Opcode, OpAttrs)> {
    let u = || any::<usize>();
    let dot = (u(), u(), arb_usizes(), arb_usizes()).prop_map(
        |(lhs_contracting, rhs_contracting, lhs_batch, rhs_batch)| {
            let dims = DotDims {
                lhs_contracting,
                rhs_contracting,
                lhs_batch,
                rhs_batch,
            };
            (Opcode::Dot, OpAttrs::Dot(dims))
        },
    );
    let conv = ((u(), u(), u(), u()), ((u(), u()), (u(), u()), u())).prop_map(
        |((filter_h, filter_w, stride_h, stride_w), (pad_h, pad_w, feature_groups))| {
            let conv = ConvAttrs {
                filter_h,
                filter_w,
                stride_h,
                stride_w,
                pad_h,
                pad_w,
                feature_groups,
            };
            (Opcode::Convolution, OpAttrs::Conv(conv))
        },
    );
    let slice = (arb_usizes(), arb_usizes(), arb_usizes()).prop_map(|(starts, limits, strides)| {
        let slice = SliceAttrs {
            starts,
            limits,
            strides,
        };
        (Opcode::Slice, OpAttrs::Slice(slice))
    });
    let pad = prop::collection::vec((u(), u(), u()), 0..4)
        .prop_map(|dims| (Opcode::Pad, OpAttrs::Pad(PadConfig { dims })));
    let comparison = (0usize..6).prop_map(|i| {
        use Comparison::*;
        (
            Opcode::Compare,
            OpAttrs::Compare([Eq, Ne, Lt, Le, Gt, Ge][i]),
        )
    });
    OneOf(vec![
        Box::new(Just((Opcode::Tanh, OpAttrs::None))),
        Box::new(dot),
        Box::new(conv),
        Box::new(arb_index_list().prop_map(|d| (Opcode::Reduce, OpAttrs::Reduce(d)))),
        Box::new(arb_index_list().prop_map(|d| (Opcode::Transpose, OpAttrs::Transpose(d)))),
        Box::new(arb_index_list().prop_map(|d| (Opcode::Broadcast, OpAttrs::Broadcast(d)))),
        Box::new(slice),
        Box::new(pad),
        Box::new(u().prop_map(|d| (Opcode::Concatenate, OpAttrs::Concat(d)))),
        Box::new(comparison),
        Box::new(
            (u(), u(), u(), u())
                .prop_map(|(h, w, sh, sw)| (Opcode::ReduceWindow, OpAttrs::Window(h, w, sh, sw))),
        ),
    ])
}

/// A value of one of the strategies, picked uniformly.
struct OneOf<T>(Vec<Box<dyn Strategy<Value = T>>>);

impl<T> Strategy for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut proptest::TestRng) -> T {
        self.0[rng.below(self.0.len() as u64) as usize].generate(rng)
    }
}

/// A shape and a layout of its rank, drawn from one list of keys: the
/// dims are the keys folded into `1..=64`, the layout sorts the dims by
/// key, so most layouts are not the default.
fn arb_shape_layout() -> impl Strategy<Value = (Shape, Layout)> {
    prop::collection::vec(any::<u32>(), 0..MAX_RANK + 1).prop_map(|keys| {
        let dims = keys.iter().map(|&k| 1 + k as usize % 64).collect();
        let mut perm: Vec<usize> = (0..keys.len()).collect();
        perm.sort_by_key(|&d| keys[d]);
        (Shape::new(dims), Layout::new(perm))
    })
}

/// A builder-made chain over unary, binary and compare ops whose nodes
/// then take any opcode with attributes of its own, output mark, shape,
/// layout and dtype: the hash reads those fields without validating them.
fn arb_computation() -> impl Strategy<Value = Computation> {
    let node = (
        (0u8..6, any::<usize>()),
        opt((
            (arb_attrs(), any::<bool>()),
            arb_shape_layout(),
            0..DType::all().len(),
        )),
    );
    (1usize..128, prop::collection::vec(node, 1..12)).prop_map(|(cols, steps)| {
        let mut b = GraphBuilder::new("h");
        let mut v = b.parameter("x", Shape::matrix(8, cols), DType::F32);
        let mut ids = vec![v];
        for ((op, pick), _) in &steps {
            let other = ids[pick % ids.len()];
            v = match op {
                0 => b.tanh(v),
                1 => b.exp(v),
                2 => b.add(v, other),
                3 => b.multiply(other, v),
                4 => b.compare(v, other, Comparison::Lt),
                _ => b.negate(v),
            };
            ids.push(v);
        }
        let mut c = b.finish(v);
        // Node 0 is the parameter; step i made node i + 1.
        for (i, (_, over)) in steps.into_iter().enumerate() {
            if let Some((((opcode, attrs), is_output), (shape, layout), dtype)) = over {
                let n = c.node_mut(NodeId(i as u32 + 1));
                (n.opcode, n.attrs, n.is_output) = (opcode, attrs, is_output);
                n.shape = shape;
                n.layout = layout;
                n.dtype = DType::all()[dtype];
            }
        }
        c
    })
}

fn arb_kernel() -> impl Strategy<Value = Kernel> {
    (
        arb_computation(),
        0..KernelKind::all().len(),
        opt(prop::collection::vec(1usize..512, 0..MAX_RANK + 1)),
    )
        .prop_map(|(computation, kind, tile)| Kernel {
            computation,
            kind: KernelKind::all()[kind],
            tile: tile.map(TileSize),
            source_root: None,
        })
}

fn assert_hash_matches_oracle(k: &Kernel) {
    assert_eq!(
        canonical_hash(&k.computation),
        hash_oracle::canonical_hash(&k.computation)
    );
    assert_eq!(
        canonical_kernel_hash(k),
        hash_oracle::canonical_kernel_hash(k)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one-write hash is the per-field hash, bit for bit, over any
    /// value of every hashed field.
    #[test]
    fn one_write_hash_equals_the_per_field_oracle(k in arb_kernel()) {
        assert_hash_matches_oracle(&k);
    }
}

/// Builder-made graphs holding every attribute the key reads, as real
/// programs carry them, under every kernel kind with and without a tile.
#[test]
fn every_attribute_and_kind_hashes_as_the_oracle_does() {
    let mut b = GraphBuilder::new("batched");
    let x = b.parameter("x", Shape::new(vec![2, 8, 16]), DType::F32);
    let y = b.parameter("y", Shape::new(vec![2, 16, 4]), DType::BF16);
    let d = b.dot_general(x, y, DotDims::batch_matmul());
    let t = b.transpose(d, vec![0, 2, 1]);
    let s = b.slice_dim(t, 2, 1, 7);
    let p = b.pad(
        s,
        PadConfig {
            dims: vec![(0, 0, 0), (1, 2, 0), (0, 1, 1)],
        },
    );
    let r = b.reduce(p, vec![2]);
    let bc = b.broadcast(r, Shape::new(vec![2, 7, 3]), vec![0, 1]);
    let cat = b.concatenate(&[bc, bc], 2);
    let cmp = b.compare(cat, cat, Comparison::Ge);
    let mut batched = b.finish(cmp);
    batched.node_mut(t).layout = Layout::new(vec![0, 2, 1]);

    let mut b = GraphBuilder::new("conv");
    let img = b.parameter("img", Shape::new(vec![1, 8, 8, 4]), DType::F32);
    let filt = b.parameter("filt", Shape::new(vec![3, 3, 4, 8]), DType::F32);
    let cv = b.convolution(img, filt, ConvAttrs::same_strided(3, 2));
    let init = b.scalar_constant();
    let rw = b.reduce_window(cv, init, (2, 2, 1, 1));
    let conv = b.finish(rw);

    for c in [batched, conv] {
        for &kind in KernelKind::all() {
            for tile in [None, Some(TileSize(vec![8, 128])), Some(TileSize(vec![]))] {
                assert_hash_matches_oracle(&Kernel {
                    computation: c.clone(),
                    kind,
                    tile,
                    source_root: None,
                });
            }
        }
    }
}
