//! The Adam optimizer and gradient clipping.

use crate::params::ParamStore;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Adam (Kingma & Ba) with bias correction and optional decoupled weight
/// decay.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Builder-style: set decoupled weight decay (AdamW).
    pub fn with_weight_decay(mut self, wd: f32) -> Adam {
        self.weight_decay = wd;
        self
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Snapshot the full optimizer state (hyperparameters, step count,
    /// first/second-moment accumulators) for checkpointing. Restoring via
    /// [`Adam::from_state`] continues optimization bit-identically.
    pub fn state(&self) -> AdamState {
        AdamState {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            weight_decay: self.weight_decay,
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Rebuild an optimizer from a [`AdamState`] snapshot.
    pub fn from_state(state: AdamState) -> Adam {
        Adam {
            lr: state.lr,
            beta1: state.beta1,
            beta2: state.beta2,
            eps: state.eps,
            weight_decay: state.weight_decay,
            t: state.t,
            m: state.m,
            v: state.v,
        }
    }
}

/// Serializable snapshot of an [`Adam`] optimizer (see [`Adam::state`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdamState {
    /// Learning rate at snapshot time (rollback backoff mutates this).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator epsilon.
    pub eps: f32,
    /// Decoupled weight decay (AdamW).
    pub weight_decay: f32,
    /// Completed optimization steps (drives bias correction).
    pub t: u64,
    /// Per-parameter first-moment accumulators.
    pub m: Vec<Tensor>,
    /// Per-parameter second-moment accumulators.
    pub v: Vec<Tensor>,
}

impl Adam {
    /// Apply one update from the store's accumulated gradients. Gradients
    /// are *not* zeroed; call [`ParamStore::zero_grads`] before the next
    /// forward pass.
    pub fn step(&mut self, store: &mut ParamStore) {
        if self.m.is_empty() {
            for id in store.ids() {
                let val = store.value(id);
                self.m.push(Tensor::zeros(val.rows(), val.cols()));
                self.v.push(Tensor::zeros(val.rows(), val.cols()));
            }
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for id in store.ids().collect::<Vec<_>>() {
            let g = store.grad(id).clone();
            let m = &mut self.m[id.0];
            let v = &mut self.v[id.0];
            for ((mi, vi), &gi) in m.data_mut().iter_mut().zip(v.data_mut()).zip(g.data()) {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            }
            let lr = self.lr;
            let eps = self.eps;
            let wd = self.weight_decay;
            let mdata = m.data().to_vec();
            let vdata = v.data().to_vec();
            let val = store.value_mut(id);
            for ((x, mi), vi) in val.data_mut().iter_mut().zip(mdata).zip(vdata) {
                let mhat = mi / bc1;
                let vhat = vi / bc2;
                *x -= lr * (mhat / (vhat.sqrt() + eps) + wd * *x);
            }
        }
    }
}

/// Clip gradients to a maximum global L2 norm; returns the pre-clip norm.
pub fn clip_grad_norm(store: &mut ParamStore, max_norm: f32) -> f32 {
    let norm = store.grad_norm();
    if norm > max_norm && norm > 0.0 {
        store.scale_grads(max_norm / norm);
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    fn quadratic_step(store: &mut ParamStore, opt: &mut Adam) -> f32 {
        // loss = (p - 3)^2 for a single scalar param.
        let id = store.ids().next().unwrap();
        let mut tape = Tape::new();
        let p = tape.param(store, id);
        let t = tape.add_scalar(p, -3.0);
        let sq = tape.square(t);
        let loss = tape.sum_all(sq);
        let l = tape.value(loss).item();
        store.zero_grads();
        tape.backward(loss, store);
        opt.step(store);
        l
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        store.register("p", Tensor::scalar(-5.0));
        let mut opt = Adam::new(0.3);
        let mut loss = f32::INFINITY;
        for _ in 0..200 {
            loss = quadratic_step(&mut store, &mut opt);
        }
        assert!(loss < 1e-4, "loss={loss}");
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut store = ParamStore::new();
        let id = store.register("p", Tensor::scalar(1.0));
        let mut opt = Adam::new(0.0).with_weight_decay(0.5);
        // Zero gradient; only decay acts.
        opt.step(&mut store);
        let _ = id;
        // lr is 0 so decay (lr*wd*x) is 0 too — use nonzero lr.
        let mut store = ParamStore::new();
        let id = store.register("p", Tensor::scalar(1.0));
        let mut opt = Adam::new(0.1).with_weight_decay(0.5);
        opt.step(&mut store);
        assert!(store.value(id).item() < 1.0);
    }

    #[test]
    fn clip_grad_norm_caps() {
        let mut store = ParamStore::new();
        let id = store.register("p", Tensor::zeros(1, 4));
        store.grad_mut(id).axpy(1.0, &Tensor::full(1, 4, 3.0));
        let pre = clip_grad_norm(&mut store, 1.0);
        assert_eq!(pre, 6.0);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
        // Below the cap: unchanged.
        let pre2 = clip_grad_norm(&mut store, 10.0);
        assert!((pre2 - 1.0).abs() < 1e-5);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn adam_state_round_trip_continues_bit_identically() {
        let mut store_a = ParamStore::new();
        store_a.register("p", Tensor::scalar(-5.0));
        let mut opt_a = Adam::new(0.3).with_weight_decay(0.01);
        for _ in 0..10 {
            quadratic_step(&mut store_a, &mut opt_a);
        }

        // Snapshot both, keep stepping the original, then resume the copy.
        let mut store_b = store_a.clone();
        let mut opt_b = Adam::from_state(opt_a.state());
        assert_eq!(opt_a.state(), opt_b.state());
        for _ in 0..10 {
            let la = quadratic_step(&mut store_a, &mut opt_a);
            let lb = quadratic_step(&mut store_b, &mut opt_b);
            assert_eq!(la.to_bits(), lb.to_bits());
        }
        let ia = store_a.ids().next().unwrap();
        let ib = store_b.ids().next().unwrap();
        assert_eq!(
            store_a.value(ia).item().to_bits(),
            store_b.value(ib).item().to_bits()
        );
    }
}
