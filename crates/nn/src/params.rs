//! Trainable parameter storage.

use crate::tensor::Tensor;
use serde::{field_required, Deserialize, Error, Serialize, Value};
use std::sync::atomic::{AtomicU64, Ordering};

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
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Tensor>,
    grads: Vec<Tensor>,
    /// Names the current values: taken from a process-wide counter by
    /// every change to them and by deserialization, so two stores with
    /// equal stamps hold equal values (a clone keeps its original's stamp
    /// until either side changes). Never serialized. The tape keys its
    /// cached weight transposes on it.
    stamp: u64,
}

/// The derive's object of `names`, `values` and `grads`, without the stamp.
impl Serialize for ParamStore {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (String::from("names"), self.names.to_value()),
            (String::from("values"), self.values.to_value()),
            (String::from("grads"), self.grads.to_value()),
        ])
    }
}

/// Reads what [`Serialize`] writes, under a fresh stamp; a name and a
/// gradient for every value.
impl Deserialize for ParamStore {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let fields = v
            .as_object()
            .ok_or_else(|| Error::expected("object", "ParamStore"))?;
        let store = ParamStore {
            names: field_required(fields, "names", "ParamStore")?,
            values: field_required(fields, "values", "ParamStore")?,
            grads: field_required(fields, "grads", "ParamStore")?,
            stamp: next_stamp(),
        };
        if store.names.len() != store.values.len() || store.grads.len() != store.values.len() {
            return Err(Error::expected("a name and a grad per value", "ParamStore"));
        }
        Ok(store)
    }
}

/// A stamp no store has held yet. Stamps start at 1; only an empty
/// [`ParamStore::default`] holds 0.
fn next_stamp() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // Relaxed: a stamp only has to be unique, and publishes no other data.
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> ParamStore {
        ParamStore::default()
    }

    /// Register a parameter, returning its id.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.values.len());
        self.stamp = next_stamp();
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
        self.stamp = next_stamp();
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
    pub(crate) fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.grads[id.0]
    }

    /// Every `(value, gradient)` pair in id order, values mutable — the
    /// optimizer's single pass.
    pub(crate) fn values_and_grads_mut(&mut self) -> impl Iterator<Item = (&mut Tensor, &Tensor)> {
        self.stamp = next_stamp();
        self.values.iter_mut().zip(&self.grads)
    }

    /// The stamp of the current values (see the field's doc).
    pub(crate) fn stamp(&self) -> u64 {
        self.stamp
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
    pub(crate) fn grad_norm(&self) -> f32 {
        self.grads.iter().map(Tensor::sq_norm).sum::<f32>().sqrt()
    }

    /// Scale all gradients in place (used for clipping).
    pub(crate) fn scale_grads(&mut self, s: f32) {
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

    #[test]
    fn a_value_without_a_name_or_gradient_is_an_error() {
        let mut s = ParamStore::new();
        s.register("w", Tensor::from_rows(&[&[1.5, -2.0]]));
        let json = s.to_json();
        assert!(ParamStore::from_json(&json).is_ok());
        for cut in [r#"["w"]"#, r#"[{"rows":1,"cols":2,"data":[0.0,0.0]}]"#] {
            let ragged = json.replacen(cut, "[]", 1);
            assert_ne!(ragged, json, "{cut} not found in {json}");
            assert!(ParamStore::from_json(&ragged).is_err(), "{ragged}");
        }
    }
}
