//! Loss functions for the two tasks of the paper (§4.2).

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use std::sync::Arc;

/// The φ of the pairwise rank loss (Eq. 2), "tuned via hyperparameter
/// search".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankPhi {
    /// Hinge: `φ(z) = max(0, 1 − z)`.
    Hinge,
    /// Logistic: `φ(z) = ln(1 + e^{−z})`.
    Logistic,
}

/// Mean squared error between `pred` and `target` (both `[n×1]`): the
/// fusion-task loss, applied against log-transformed targets by the caller
/// ("we train the neural network model using the common squared error loss
/// … against log-transformed targets", §4.2).
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn mse_loss(tape: &mut Tape, pred: Var, target: Var) -> Var {
    let d = tape.sub(pred, target);
    let sq = tape.square(d);
    tape.mean_all(sq)
}

/// Weighted MSE: elementwise weights (no gradient through weights). Used
/// for the tile-size task's MSE alternative, "weight a loss value of each
/// sample appropriately so that the model is optimized for all kernels
/// equally" (§4.2).
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn weighted_mse_loss(tape: &mut Tape, pred: Var, target: Var, weights: Arc<Tensor>) -> Var {
    let d = tape.sub(pred, target);
    let sq = tape.square(d);
    let w = tape.mul_const(sq, weights);
    tape.mean_all(w)
}

/// The pairwise rank loss of Eq. 2 over a batch of predictions `pred
/// [n×1]` with ground-truth runtimes `targets`, restricted to pairs within
/// the same group (the per-kernel batching of §4.2: a group holds "samples
/// of different tile sizes of the same kernel").
///
/// Every ordered pair `(i, j)` of one group with `targets[i] > targets[j]`
/// contributes `φ(pred_i − pred_j)`; the loss is the mean over those pairs.
///
/// Returns `None` when no ordered pairs exist (e.g. all targets equal).
///
/// # Panics
///
/// Panics if lengths disagree with `pred`'s row count.
pub fn grouped_pairwise_rank_loss(
    tape: &mut Tape,
    pred: Var,
    targets: &[f64],
    groups: &[usize],
    phi: RankPhi,
) -> Option<Var> {
    let n = tape.value(pred).rows();
    assert_eq!(targets.len(), n, "one target per prediction");
    assert_eq!(groups.len(), n, "one group per prediction");
    let mut hi = Vec::new(); // rows with the larger target
    let mut lo = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if groups[i] == groups[j] && targets[i] > targets[j] {
                hi.push(i);
                lo.push(j);
            }
        }
    }
    if hi.is_empty() {
        return None;
    }
    let slow = tape.gather_rows(pred, Arc::new(hi));
    let fast = tape.gather_rows(pred, Arc::new(lo));
    // z = pred_slow − pred_fast; we want z to be *positive* (slower sample
    // predicted slower), so penalize small z with φ(z).
    let z = tape.sub(slow, fast);
    let per_pair = match phi {
        RankPhi::Hinge => {
            let neg = tape.scale(z, -1.0);
            let one_minus = tape.add_scalar(neg, 1.0);
            tape.relu(one_minus)
        }
        RankPhi::Logistic => {
            let neg = tape.scale(z, -1.0);
            tape.softplus(neg)
        }
    };
    Some(tape.mean_all(per_pair))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;

    #[test]
    fn mse_zero_when_equal() {
        let mut tape = Tape::new();
        let a = tape.input(Tensor::from_rows(&[&[1.0], &[2.0]]));
        let b = tape.input(Tensor::from_rows(&[&[1.0], &[2.0]]));
        let l = mse_loss(&mut tape, a, b);
        assert_eq!(tape.value(l).item(), 0.0);
    }

    #[test]
    fn mse_value() {
        let mut tape = Tape::new();
        let a = tape.input(Tensor::from_rows(&[&[1.0], &[2.0]]));
        let b = tape.input(Tensor::from_rows(&[&[3.0], &[2.0]]));
        let l = mse_loss(&mut tape, a, b);
        assert_eq!(tape.value(l).item(), 2.0);
    }

    #[test]
    fn weighted_mse_respects_weights() {
        let mut tape = Tape::new();
        let a = tape.input(Tensor::from_rows(&[&[1.0], &[2.0]]));
        let b = tape.input(Tensor::from_rows(&[&[3.0], &[5.0]]));
        let w = Arc::new(Tensor::from_rows(&[&[1.0], &[0.0]]));
        let l = weighted_mse_loss(&mut tape, a, b, w);
        assert_eq!(tape.value(l).item(), 2.0); // only the first pair counts
    }

    #[test]
    fn rank_loss_prefers_correct_order() {
        // Correctly ordered predictions give smaller loss than inverted.
        let targets = [10.0, 1.0];
        for phi in [RankPhi::Hinge, RankPhi::Logistic] {
            let mut tape = Tape::new();
            let good = tape.input(Tensor::from_rows(&[&[5.0], &[0.0]]));
            let lg = grouped_pairwise_rank_loss(&mut tape, good, &targets, &[0, 0], phi).unwrap();
            let good_loss = tape.value(lg).item();

            let mut tape = Tape::new();
            let bad = tape.input(Tensor::from_rows(&[&[0.0], &[5.0]]));
            let lb = grouped_pairwise_rank_loss(&mut tape, bad, &targets, &[0, 0], phi).unwrap();
            let bad_loss = tape.value(lb).item();
            assert!(good_loss < bad_loss, "{phi:?}: {good_loss} vs {bad_loss}");
        }
    }

    #[test]
    fn rank_loss_none_when_all_tied() {
        let mut tape = Tape::new();
        let p = tape.input(Tensor::from_rows(&[&[0.1], &[0.4]]));
        assert!(
            grouped_pairwise_rank_loss(&mut tape, p, &[2.0, 2.0], &[0, 0], RankPhi::Hinge)
                .is_none()
        );
    }

    #[test]
    fn grouped_rank_loss_ignores_cross_group_pairs() {
        // Two groups; within each group predictions are correct, across
        // groups they would be "wrong" — grouped loss must not care.
        let targets = [10.0, 1.0, 1000.0, 100.0];
        let groups = [0, 0, 1, 1];
        let mut tape = Tape::new();
        let p = tape.input(Tensor::from_rows(&[&[9.0], &[5.0], &[2.0], &[-2.0]]));
        let l =
            grouped_pairwise_rank_loss(&mut tape, p, &targets, &groups, RankPhi::Logistic).unwrap();
        let grouped = tape.value(l).item();
        // Same predictions scored as one group: cross-group inversions
        // (e.g. target 1000 predicted 2.0 < target 10 predicted 9.0) hurt.
        let mut tape2 = Tape::new();
        let p2 = tape2.input(Tensor::from_rows(&[&[9.0], &[5.0], &[2.0], &[-2.0]]));
        let l2 = grouped_pairwise_rank_loss(&mut tape2, p2, &targets, &[0; 4], RankPhi::Logistic)
            .unwrap();
        let ungrouped = tape2.value(l2).item();
        assert!(grouped < ungrouped);
    }

    #[test]
    fn rank_loss_trains_a_parameter() {
        // One scalar "score offset" parameter must learn to separate two
        // samples via the rank loss.
        let mut store = ParamStore::new();
        let p = store.register("w", Tensor::scalar(0.0));
        let targets = [10.0, 1.0];
        let mut last = f32::INFINITY;
        for _ in 0..100 {
            let mut tape = Tape::new();
            let w = tape.param(&store, p);
            let zero = tape.input(Tensor::scalar(0.0));
            // pred = [w, 0]: rank loss pushes w upward.
            let pred = {
                let rows = tape.concat_cols(&[w, zero]);
                // reshape [1x2] to [2x1] via gather on transpose-like trick:
                // simpler: build two rows by gathering columns is not
                // available; instead score = [w; 0] using slice of a 2x1.
                let _ = rows;
                let wcol = tape.gather_rows(w, Arc::new(vec![0, 0]));
                tape.mul_const(wcol, Arc::new(Tensor::from_rows(&[&[1.0], &[0.0]])))
            };
            let loss =
                grouped_pairwise_rank_loss(&mut tape, pred, &targets, &[0, 0], RankPhi::Logistic)
                    .unwrap();
            last = tape.value(loss).item();
            store.zero_grads();
            tape.backward(loss, &mut store);
            let g = store.grad(p).item();
            let v = store.value(p).item();
            store.value_mut(p).set(0, 0, v - 0.5 * g);
        }
        assert!(store.value(p).item() > 1.0, "w={}", store.value(p).item());
        assert!(last < 0.5);
    }
}
