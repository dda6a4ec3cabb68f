//! Parameter storage shared by all layers of a model.

use ema_autodiff::{Tape, Var};
use ema_tensor::Tensor;

/// Identifies a parameter within a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(usize);

impl ParamId {
    /// The raw index into the store.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Crate-internal constructor used by optimizers to index their state.
pub(crate) fn param_id_from_index(index: usize) -> ParamId {
    ParamId(index)
}

#[derive(Debug, Clone)]
struct ParamSlot {
    name: String,
    value: Tensor,
}

/// Owns every trainable tensor of a model, independent of any tape.
///
/// Layers register parameters at construction time and hold the returned
/// [`ParamId`]s; each training step binds the current values onto a fresh
/// tape via [`ParamStore::bind`]. A clone is a snapshot of every
/// parameter, which [`ParamStore::restore`] copies back into a store of
/// the same layout (a cluster warm start).
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    slots: Vec<ParamSlot>,
}

impl ParamStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter with a diagnostic name, returning its id.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.slots.push(ParamSlot {
            name: name.into(),
            value,
        });
        ParamId(self.slots.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no parameters are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The current value of a parameter.
    ///
    /// # Panics
    /// Panics if `id` is not from this store.
    #[must_use]
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.slots[id.0].value
    }

    /// Mutable access to a parameter's value (used by optimizers).
    ///
    /// # Panics
    /// Panics if `id` is not from this store.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.slots[id.0].value
    }

    /// The diagnostic name of a parameter.
    ///
    /// # Panics
    /// Panics if `id` is not from this store.
    #[must_use]
    pub fn name(&self, id: ParamId) -> &str {
        &self.slots[id.0].name
    }

    /// All parameter ids, in registration order.
    #[must_use]
    pub fn ids(&self) -> Vec<ParamId> {
        (0..self.slots.len()).map(ParamId).collect()
    }

    /// Inserts every parameter as a leaf on `tape`, returning the
    /// id → var mapping used during the forward pass.
    #[must_use]
    pub fn bind(&self, tape: &Tape) -> Binding {
        let vars = self
            .slots
            .iter()
            .map(|s| tape.leaf(s.value.clone()))
            .collect();
        Binding { vars }
    }

    /// Copies every parameter value into `into`, bit for bit and in
    /// place, when `into` has this store's layout: the same parameter
    /// count and, in registration order, the same names and shapes (the
    /// same model architecture and config).
    ///
    /// # Errors
    /// Names the first mismatch. The whole layout is checked before any
    /// value is written, so a rejected restore leaves `into` untouched.
    pub fn restore(&self, into: &mut ParamStore) -> Result<(), String> {
        if self.slots.len() != into.slots.len() {
            return Err(format!(
                "source has {} parameters, target has {}",
                self.slots.len(),
                into.slots.len()
            ));
        }
        for (src, dst) in self.slots.iter().zip(&into.slots) {
            if src.name != dst.name {
                return Err(format!(
                    "parameter name mismatch: source {:?} vs target {:?}",
                    src.name, dst.name
                ));
            }
            if src.value.dims() != dst.value.dims() {
                return Err(format!(
                    "shape mismatch for {:?}: source {:?} vs target {:?}",
                    src.name,
                    src.value.dims(),
                    dst.value.dims()
                ));
            }
        }
        for (src, dst) in self.slots.iter().zip(&mut into.slots) {
            dst.value.data_mut().copy_from_slice(src.value.data());
        }
        Ok(())
    }
}

/// Maps [`ParamId`]s to the [`Var`]s of one particular tape binding.
pub struct Binding {
    vars: Vec<Var>,
}

impl Binding {
    /// The tape variable bound to `id` for this step.
    ///
    /// # Panics
    /// Panics if `id` was registered after this binding was created.
    #[must_use]
    pub fn var(&self, id: ParamId) -> Var {
        self.vars[id.index()]
    }

    /// Iterates over `(ParamId, Var)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, Var)> + '_ {
        self.vars.iter().enumerate().map(|(i, &v)| (ParamId(i), v))
    }

    /// Number of bound parameters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// True when nothing is bound.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_read_back() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::ones(&[2, 3]));
        assert_eq!(store.value(id).dims(), &[2, 3]);
        assert_eq!(store.name(id), "w");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn bind_exposes_current_values() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::filled(&[2], 5.0));
        let tape = Tape::new();
        let binding = store.bind(&tape);
        assert_eq!(tape.value(binding.var(id)).data(), &[5.0, 5.0]);
        // Mutate after binding: the bound leaf keeps the old value.
        store.value_mut(id).data_mut()[0] = 9.0;
        assert_eq!(tape.value(binding.var(id)).data(), &[5.0, 5.0]);
    }

    #[test]
    fn rejected_restore_leaves_the_target_untouched() {
        let store = |names: [&str; 2], last: &[usize], fill: f64| {
            let mut s = ParamStore::new();
            s.register(names[0], Tensor::filled(&[2, 2], fill));
            s.register(names[1], Tensor::filled(last, fill));
            s
        };
        let source = store(["w", "b"], &[3], 1.5);
        let bits = |s: &ParamStore| -> Vec<u64> {
            s.slots
                .iter()
                .flat_map(|slot| slot.value.data().iter().map(|v| v.to_bits()))
                .collect()
        };
        // Each target matches the source at parameter 0 and differs
        // later, so a restore that wrote as it checked would already
        // have overwritten `w`.
        let mut short = ParamStore::new();
        short.register("w", Tensor::filled(&[2, 2], -0.0));
        for mut target in [
            store(["w", "b"], &[4], -0.0),
            store(["w", "c"], &[3], -0.0),
            short,
        ] {
            let before = bits(&target);
            assert!(source.restore(&mut target).is_err());
            assert_eq!(bits(&target), before, "a rejected restore wrote values");
        }
        let mut target = store(["w", "b"], &[3], -0.0);
        source.restore(&mut target).unwrap();
        assert_eq!(bits(&target), bits(&source));
    }

    #[test]
    fn ids_cover_all_params() {
        let mut store = ParamStore::new();
        let a = store.register("a", Tensor::zeros(&[1]));
        let b = store.register("b", Tensor::zeros(&[1]));
        assert_eq!(store.ids(), vec![a, b]);
    }
}
