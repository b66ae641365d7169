//! Trainable parameter storage.

use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Identifier of a parameter within a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub usize);

/// Holds all trainable parameters of a model and their gradient
/// accumulators. Layers register parameters here; the tape reads values at
/// forward time and [`crate::Tape::backward`] accumulates gradients.
///
/// # Example
///
/// ```
/// use tpu_nn::{ParamStore, Tensor};
/// let mut store = ParamStore::new();
/// let w = store.register("w", Tensor::zeros(4, 4));
/// assert_eq!(store.value(w).shape(), (4, 4));
/// assert_eq!(store.num_params(), 1);
/// assert_eq!(store.num_scalars(), 16);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Tensor>,
    grads: Vec<Tensor>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> ParamStore {
        ParamStore::default()
    }

    /// Register a parameter, returning its id.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.values.len());
        self.grads.push(Tensor::zeros(value.rows(), value.cols()));
        self.values.push(value);
        self.names.push(name.into());
        id
    }

    /// Number of registered parameter tensors.
    pub fn num_params(&self) -> usize {
        self.values.len()
    }

    /// Total number of trainable scalars.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Value of a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable value (used by optimizers).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// Gradient accumulator of a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Mutable gradient accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.grads[id.0]
    }

    /// Name of a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterate over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len()).map(ParamId)
    }

    /// Look up a parameter by its registered name. Layer constructors use
    /// deterministic names (`"f1.w"`, `"hop0.f2.b"`, …), so this is the
    /// export path for tools that freeze trained weights into artifacts
    /// that do not depend on this crate.
    pub fn find(&self, name: &str) -> Option<ParamId> {
        self.names.iter().position(|n| n == name).map(ParamId)
    }

    /// Zero all gradient accumulators.
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.fill_zero();
        }
    }

    /// Global L2 norm of all gradients.
    pub fn grad_norm(&self) -> f32 {
        self.grads.iter().map(Tensor::sq_norm).sum::<f32>().sqrt()
    }

    /// Scale all gradients in place (used for clipping).
    pub fn scale_grads(&mut self, s: f32) {
        for g in &mut self.grads {
            for x in g.data_mut() {
                *x *= s;
            }
        }
    }

    /// Serialize all parameter values to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("params serialize")
    }

    /// Restore from [`ParamStore::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a serde error message on malformed input.
    pub fn from_json(s: &str) -> Result<ParamStore, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_access() {
        let mut s = ParamStore::new();
        let a = s.register("a", Tensor::ones(2, 3));
        let b = s.register("b", Tensor::zeros(1, 4));
        assert_eq!(s.num_params(), 2);
        assert_eq!(s.num_scalars(), 10);
        assert_eq!(s.name(a), "a");
        assert_eq!(s.value(b).shape(), (1, 4));
        assert_eq!(s.grad(a).shape(), (2, 3));
    }

    #[test]
    fn zero_and_scale_grads() {
        let mut s = ParamStore::new();
        let a = s.register("a", Tensor::ones(2, 2));
        s.grad_mut(a).axpy(1.0, &Tensor::full(2, 2, 3.0));
        assert_eq!(s.grad_norm(), 6.0);
        s.scale_grads(0.5);
        assert_eq!(s.grad_norm(), 3.0);
        s.zero_grads();
        assert_eq!(s.grad_norm(), 0.0);
    }

    #[test]
    fn json_roundtrip() {
        let mut s = ParamStore::new();
        s.register("w", Tensor::from_rows(&[&[1.5, -2.0]]));
        let json = s.to_json();
        let restored = ParamStore::from_json(&json).unwrap();
        assert_eq!(restored.num_params(), 1);
        assert_eq!(restored.value(ParamId(0)).get(0, 1), -2.0);
    }

    #[test]
    fn bad_json_is_an_error() {
        assert!(ParamStore::from_json("not json").is_err());
    }
}
