//! Property-based tests for tensor algebra.

use proptest::prelude::*;
use tpu_nn::Tensor;

fn arb_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(rows, cols, data))
}

proptest! {
    #[test]
    fn matmul_identity_is_noop(a in arb_tensor(4, 4)) {
        let mut eye = Tensor::zeros(4, 4);
        for i in 0..4 {
            eye.set(i, i, 1.0);
        }
        let out = a.matmul(&eye);
        for (x, y) in out.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_distributes_over_addition(a in arb_tensor(3, 4),
                                        b in arb_tensor(4, 2),
                                        c in arb_tensor(4, 2)) {
        // a(b + c) == ab + ac
        let bc = b.zip(&c, |x, y| x + y);
        let lhs = a.matmul(&bc);
        let rhs = {
            let ab = a.matmul(&b);
            let ac = a.matmul(&c);
            ab.zip(&ac, |x, y| x + y)
        };
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn transpose_respects_matmul(a in arb_tensor(3, 5), b in arb_tensor(5, 2)) {
        // (ab)^T == b^T a^T
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn sum_of_axpy_is_linear(a in arb_tensor(4, 4), b in arb_tensor(4, 4),
                             alpha in -5.0f32..5.0) {
        let mut acc = a.clone();
        acc.axpy(alpha, &b);
        let expected = a.sum() + alpha * b.sum();
        prop_assert!((acc.sum() - expected).abs() <= 1e-3 * (1.0 + expected.abs()));
    }

    #[test]
    fn sq_norm_nonnegative_and_zero_only_for_zero(a in arb_tensor(3, 3)) {
        prop_assert!(a.sq_norm() >= 0.0);
        if a.sq_norm() == 0.0 {
            prop_assert!(a.data().iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn map_then_map_composes(a in arb_tensor(2, 6)) {
        let one = a.map(|x| x * 2.0).map(|x| x + 1.0);
        let fused = a.map(|x| x * 2.0 + 1.0);
        prop_assert_eq!(one.data(), fused.data());
    }
}

/// Assert two tensors are equal down to the bit pattern of every element
/// (stricter than `==`, which calls `0.0 == -0.0` equal).
fn assert_bits_equal(got: &Tensor, want: &Tensor) {
    assert_eq!(got.shape(), want.shape());
    for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "element {i} differs: {x} vs {y}");
    }
}

/// How the second operand of a generated matmul pair is laid out.
#[derive(Clone, Copy)]
enum MmLayout {
    /// `a: [m×k]`, `b: [k×n]` — plain `matmul`.
    Plain,
    /// `a: [k×m]`, `b: [k×n]` — fused `matmul_at`.
    ATransposed,
    /// `a: [m×k]`, `b: [n×k]` — fused `matmul_bt`.
    BTransposed,
}

/// Strategy for matmul operand pairs with *dependent* shapes (the stub
/// proptest has no `prop_flat_map`). Dimension ranges are chosen so
/// full 4×16 register tiles, their 4- and 1-wide remainders and degenerate
/// rows/cols (0 and 1) all come up.
struct MmPair(MmLayout);

impl proptest::strategy::Strategy for MmPair {
    type Value = (Tensor, Tensor);

    fn generate(&self, rng: &mut proptest::TestRng) -> (Tensor, Tensor) {
        let m = rng.below(96) as usize;
        let k = rng.below(96) as usize;
        let n = rng.below(48) as usize;
        let mut fill = |rows: usize, cols: usize| {
            let data = (0..rows * cols)
                .map(|_| (rng.unit_f64() * 20.0 - 10.0) as f32)
                .collect();
            Tensor::from_vec(rows, cols, data)
        };
        match self.0 {
            MmLayout::Plain => (fill(m, k), fill(k, n)),
            MmLayout::ATransposed => (fill(k, m), fill(k, n)),
            MmLayout::BTransposed => (fill(m, k), fill(n, k)),
        }
    }
}

proptest! {
    #[test]
    fn blocked_matmul_is_bit_identical_to_reference((a, b) in MmPair(MmLayout::Plain)) {
        assert_bits_equal(&a.matmul(&b), &a.matmul_reference(&b));
    }

    #[test]
    fn matmul_at_is_bit_identical_to_transposed_reference(
        (a, b) in MmPair(MmLayout::ATransposed)
    ) {
        // a: [k×m] here — matmul_at contracts over rows.
        assert_bits_equal(&a.matmul_at(&b), &a.transpose().matmul_reference(&b));
    }

    #[test]
    fn matmul_bt_is_bit_identical_to_transposed_reference(
        (a, bt) in MmPair(MmLayout::BTransposed)
    ) {
        assert_bits_equal(&a.matmul_bt(&bt), &a.matmul_reference(&bt.transpose()));
    }
}

#[test]
fn matmul_edge_shapes_match_reference() {
    let shapes: &[(usize, usize, usize)] = &[
        (0, 0, 0),
        (0, 5, 3),
        (3, 0, 2),
        (2, 4, 0),
        (1, 1, 1),
        (1, 300, 1),
        (1, 64, 48), // single output row
        (48, 64, 1), // single output column
        (4, 4, 4),
        (63, 33, 47), // ragged in every dimension
        (64, 32, 64), // whole tiles only
        (65, 40, 70), // one row and six columns over
        (5, 1000, 3), // long k, narrower than one column tile
        // Over 2^20 multiply-adds each:
        (128, 128, 128), // whole tiles only
        (257, 80, 70),   // one row and six columns over
        (97, 120, 140),  // one row and twelve columns over
    ];
    for &(m, k, n) in shapes {
        let a = Tensor::from_vec(m, k, (0..m * k).map(|i| (i as f32).sin()).collect());
        let b = Tensor::from_vec(k, n, (0..k * n).map(|i| (i as f32).cos()).collect());
        let got = a.matmul(&b);
        let want = a.matmul_reference(&b);
        assert_eq!(got.shape(), want.shape(), "{m}x{k}·{k}x{n}");
        for (x, y) in got.data().iter().zip(want.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k}·{k}x{n}");
        }
        let at = a.transpose();
        let got = at.matmul_at(&b);
        for (x, y) in got.data().iter().zip(want.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "at {m}x{k}·{k}x{n}");
        }
        let bt = b.transpose();
        let got = a.matmul_bt(&bt);
        for (x, y) in got.data().iter().zip(want.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "bt {m}x{k}·{k}x{n}");
        }
    }
}
