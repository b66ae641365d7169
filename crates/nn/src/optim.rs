//! The Adam optimizer and gradient clipping.

use crate::params::ParamStore;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
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
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
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
    ///
    /// # Panics
    ///
    /// Panics if the store's parameter count or shapes changed since the
    /// first step.
    pub fn step(&mut self, store: &mut ParamStore) {
        if self.m.is_empty() {
            for id in store.ids() {
                let val = store.value(id);
                self.m.push(Tensor::zeros(val.rows(), val.cols()));
                self.v.push(Tensor::zeros(val.rows(), val.cols()));
            }
        }
        assert_eq!(self.m.len(), store.num_params(), "Adam state per parameter");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        let moments = self.m.iter_mut().zip(&mut self.v);
        for ((x, g), (m, v)) in store.values_and_grads_mut().zip(moments) {
            assert_eq!(m.len(), x.len(), "Adam state shape");
            let elems = x.data_mut().iter_mut().zip(g.data());
            for ((xi, &gi), (mi, vi)) in elems.zip(m.data_mut().iter_mut().zip(v.data_mut())) {
                *mi = beta1 * *mi + (1.0 - beta1) * gi;
                *vi = beta2 * *vi + (1.0 - beta2) * gi * gi;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *xi -= lr * (mhat / (vhat.sqrt() + eps));
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
        let loss = tape.mean_all(sq);
        let l = tape.value(loss).item();
        store.zero_grads();
        tape.backward(loss, store);
        opt.step(store);
        l
    }

    /// The three-pass update `Adam::step` replaced (moments, then a copy
    /// of them, then the parameters), kept as the bit-exact oracle.
    fn step_three_pass(opt: &mut Adam, store: &mut ParamStore) {
        if opt.m.is_empty() {
            for id in store.ids() {
                let val = store.value(id);
                opt.m.push(Tensor::zeros(val.rows(), val.cols()));
                opt.v.push(Tensor::zeros(val.rows(), val.cols()));
            }
        }
        opt.t += 1;
        let bc1 = 1.0 - opt.beta1.powi(opt.t as i32);
        let bc2 = 1.0 - opt.beta2.powi(opt.t as i32);
        for id in store.ids().collect::<Vec<_>>() {
            let g = store.grad(id).clone();
            let m = &mut opt.m[id.0];
            let v = &mut opt.v[id.0];
            for ((mi, vi), &gi) in m.data_mut().iter_mut().zip(v.data_mut()).zip(g.data()) {
                *mi = opt.beta1 * *mi + (1.0 - opt.beta1) * gi;
                *vi = opt.beta2 * *vi + (1.0 - opt.beta2) * gi * gi;
            }
            let (lr, eps) = (opt.lr, opt.eps);
            let mdata = m.data().to_vec();
            let vdata = v.data().to_vec();
            let val = store.value_mut(id);
            for ((x, mi), vi) in val.data_mut().iter_mut().zip(mdata).zip(vdata) {
                let mhat = mi / bc1;
                let vhat = vi / bc2;
                *x -= lr * (mhat / (vhat.sqrt() + eps));
            }
        }
    }

    fn bits<'a>(ts: impl IntoIterator<Item = &'a Tensor>) -> Vec<u32> {
        ts.into_iter()
            .flat_map(|t| t.data().iter().map(|x| x.to_bits()))
            .collect()
    }

    fn value_bits(store: &ParamStore) -> Vec<u32> {
        bits(store.ids().map(|id| store.value(id)))
    }

    #[test]
    fn fused_step_is_bit_identical_to_three_pass_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let mut fused_store = ParamStore::new();
        for (i, (r, c)) in [(3, 5), (1, 7), (16, 4), (1, 1)].into_iter().enumerate() {
            fused_store.register(format!("p{i}"), Tensor::uniform(r, c, 1.0, &mut rng));
        }
        let mut oracle_store = fused_store.clone();
        let mut fused = Adam::new(3e-2);
        let mut oracle = fused.clone();
        for step in 0..20 {
            fused_store.zero_grads();
            oracle_store.zero_grads();
            for id in fused_store.ids().collect::<Vec<_>>() {
                let (r, c) = fused_store.value(id).shape();
                // Gradients span six decades; every fifth one is zero.
                let scale = 10f32.powi(rng.gen_range(-4..3));
                let mut g = Tensor::uniform(r, c, scale, &mut rng);
                g.data_mut().iter_mut().step_by(5).for_each(|x| *x = 0.0);
                fused_store.grad_mut(id).axpy(1.0, &g);
                oracle_store.grad_mut(id).axpy(1.0, &g);
            }
            fused.step(&mut fused_store);
            step_three_pass(&mut oracle, &mut oracle_store);
            let (fv, ov) = (value_bits(&fused_store), value_bits(&oracle_store));
            assert_eq!(fv, ov, "values, step {step}");
            assert_eq!(bits(&fused.m), bits(&oracle.m), "first moment, step {step}");
            assert_eq!(
                bits(&fused.v),
                bits(&oracle.v),
                "second moment, step {step}"
            );
        }
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
        let mut opt_a = Adam::new(0.3);
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
