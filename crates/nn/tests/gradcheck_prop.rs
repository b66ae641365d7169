//! Property-based gradient checks: random small networks must match
//! central finite differences.

use proptest::prelude::*;
use tpu_nn::{ParamStore, Recorder, Reduction, Tape, Tensor, Var};

/// Finite-difference check for a scalar function of one parameter matrix.
fn check<F>(init: Tensor, f: F) -> Result<(), String>
where
    F: Fn(&mut Tape, Var) -> Var,
{
    let mut store = ParamStore::new();
    let p = store.register("p", init.clone());

    let mut tape = Tape::new();
    let pv = tape.param(&store, p);
    let loss = f(&mut tape, pv);
    tape.backward(loss, &mut store);
    let analytic = store.grad(p).clone();

    let eps = 1e-2f32;
    for r in 0..init.rows() {
        for c in 0..init.cols() {
            let mut eval = |delta: f32| -> f32 {
                let old = store.value(p).get(r, c);
                store.value_mut(p).set(r, c, old + delta);
                let mut tape = Tape::new();
                let pv = tape.param(&store, p);
                let loss = f(&mut tape, pv);
                let out = tape.value(loss).item();
                store.value_mut(p).set(r, c, old);
                out
            };
            let numeric = (eval(eps) - eval(-eps)) / (2.0 * eps);
            let a = analytic.get(r, c);
            if (a - numeric).abs() > 0.05 * (1.0 + numeric.abs()) {
                return Err(format!(
                    "grad mismatch at ({r},{c}): analytic={a} numeric={numeric}"
                ));
            }
        }
    }
    Ok(())
}

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-1.5f32..1.5, rows * cols)
        .prop_map(move |data| Tensor::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_two_layer_net_gradients(w in arb_matrix(3, 3)) {
        let x = Tensor::from_rows(&[&[0.3, -0.7, 1.1], &[0.9, 0.2, -0.4]]);
        check(w, move |t, p| {
            let xv = t.input(x.clone());
            let h = t.matmul(xv, p);
            let a = t.tanh(h);
            let sq = t.square(a);
            t.mean_all(sq)
        }).unwrap();
    }

    #[test]
    fn random_activation_stack_gradients(w in arb_matrix(1, 6)) {
        check(w, |t, p| {
            let s = t.sigmoid(p);
            let sp = t.softplus(s);
            let r = t.relu(sp);
            let sq = t.square(r);
            t.mean_all(sq)
        }).unwrap();
    }

    #[test]
    fn random_segment_pipeline_gradients(w in arb_matrix(4, 3)) {
        use std::sync::Arc;
        let seg = Arc::new(vec![0usize, 1, 0, 1]);
        check(w, move |t, p| {
            let summed = t.segment(Reduction::Sum, p, seg.clone(), 2);
            let m = t.segment(Reduction::Mean, p, seg.clone(), 2);
            let cat = t.concat(&[summed, m]);
            let sq = t.square(cat);
            t.mean_all(sq)
        }).unwrap();
    }

    #[test]
    fn random_l2norm_gradients(w in arb_matrix(2, 4)) {
        // Keep away from the zero-norm singularity.
        let w = w.map(|x| x + if x >= 0.0 { 0.5 } else { -0.5 });
        check(w, |t, p| {
            let n = t.l2_normalize(p);
            let sq = t.square(n);
            t.mean_all(sq)
        }).unwrap();
    }
}
