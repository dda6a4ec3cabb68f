//! Model checkpointing: serialise a [`ParamStore`] to JSON and restore
//! it, so a personalized model trained once can be reused (e.g. the
//! Experiment-C plumbing, or deployment after a study).

use crate::Json;
use ema_nn::ParamStore;
use ema_tensor::Tensor;
use std::io;
use std::path::Path;

/// Serialisable snapshot of every parameter in a store.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Parameter entries in registration order.
    pub params: Vec<ParamEntry>,
}

/// One named tensor.
#[derive(Debug, Clone)]
pub struct ParamEntry {
    /// Diagnostic name (e.g. `"lstm.w_ih"`).
    pub name: String,
    /// Tensor dims.
    pub dims: Vec<usize>,
    /// Row-major data.
    pub data: Vec<f64>,
}

impl Checkpoint {
    /// Captures the current parameter values of a store.
    #[must_use]
    pub fn capture(store: &ParamStore) -> Self {
        let params = store
            .ids()
            .into_iter()
            .map(|id| {
                let t = store.value(id);
                ParamEntry {
                    name: store.name(id).to_string(),
                    dims: t.dims().to_vec(),
                    data: t.data().to_vec(),
                }
            })
            .collect();
        Self { params }
    }

    /// Restores the snapshot into a store with an *identical layout*
    /// (same registration order, names and shapes — i.e. the same model
    /// architecture and config).
    ///
    /// # Errors
    /// Returns `io::Error` with `InvalidData` on any name/shape
    /// mismatch, leaving already-written parameters in place.
    pub fn restore(&self, store: &mut ParamStore) -> io::Result<()> {
        let ids = store.ids();
        if ids.len() != self.params.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint has {} params, store has {}",
                    self.params.len(),
                    ids.len()
                ),
            ));
        }
        for (id, entry) in ids.into_iter().zip(self.params.iter()) {
            if store.name(id) != entry.name {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "parameter name mismatch: store {:?} vs checkpoint {:?}",
                        store.name(id),
                        entry.name
                    ),
                ));
            }
            if store.value(id).dims() != entry.dims.as_slice() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "shape mismatch for {:?}: {:?} vs {:?}",
                        entry.name,
                        store.value(id).dims(),
                        entry.dims
                    ),
                ));
            }
            let tensor = Tensor::from_vec(&entry.dims, entry.data.clone())
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            store.load(id, tensor);
        }
        Ok(())
    }

    /// Serialises to pretty JSON: `{"params": [{"name", "dims",
    /// "data"}, ...]}` with bit-exact f64 round-tripping.
    #[must_use]
    pub fn to_json(&self) -> String {
        Json::obj(vec![(
            "params",
            Json::Arr(
                self.params
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("name", Json::Str(p.name.clone())),
                            (
                                "dims",
                                Json::Arr(p.dims.iter().map(|&d| Json::Num(d as f64)).collect()),
                            ),
                            (
                                "data",
                                Json::Arr(p.data.iter().map(|&v| Json::Num(v)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
        .pretty()
    }

    /// Parses a checkpoint from JSON.
    ///
    /// # Errors
    /// Returns `io::Error` with `InvalidData` on malformed JSON or a
    /// wrong shape.
    pub fn from_json(json: &str) -> io::Result<Self> {
        let invalid =
            |e: crate::JsonError| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
        let v = Json::parse(json).map_err(invalid)?;
        let mut params = Vec::new();
        for entry in v
            .require("params")
            .map_err(invalid)?
            .to_arr()
            .map_err(invalid)?
        {
            let name = entry
                .require("name")
                .and_then(Json::to_str)
                .map_err(invalid)?
                .to_string();
            let dims = entry
                .require("dims")
                .and_then(Json::to_arr)
                .map_err(invalid)?
                .iter()
                .map(Json::to_usize)
                .collect::<Result<Vec<_>, _>>()
                .map_err(invalid)?;
            let data = entry
                .require("data")
                .and_then(Json::to_arr)
                .map_err(invalid)?
                .iter()
                .map(Json::to_f64)
                .collect::<Result<Vec<_>, _>>()
                .map_err(invalid)?;
            params.push(ParamEntry { name, dims, data });
        }
        Ok(Self { params })
    }

    /// Writes the checkpoint to a file.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads a checkpoint from a file.
    ///
    /// # Errors
    /// Propagates filesystem and parse errors.
    pub fn load(path: &Path) -> io::Result<Self> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::predict_all;
    use ema_data::make_windows;
    use ema_models::{Forecaster, LstmForecaster, ModelConfig, VarForecaster};
    use ema_tensor::Rng64;

    #[test]
    fn capture_restore_round_trip_preserves_predictions() {
        let mut model = LstmForecaster::new(4, &ModelConfig::tiny(1));
        let mut rng = Rng64::seed_from(2);
        let windows = make_windows(&Tensor::rand_normal(&[4, 4], 0.0, 1.0, &mut rng), 2);
        let predict = |model: &LstmForecaster| {
            predict_all(std::slice::from_ref(model), std::slice::from_ref(&windows))
                .pop()
                .expect("one prediction per model")
        };
        let before = predict(&model);

        let ckpt = Checkpoint::capture(model.params());
        // Scramble the parameters, then restore.
        for id in model.params().ids() {
            let dims = model.params().value(id).dims().to_vec();
            model
                .params_mut()
                .load(id, Tensor::rand_normal(&dims, 0.0, 1.0, &mut rng));
        }
        let scrambled = predict(&model);
        assert_ne!(before.data(), scrambled.data());

        ckpt.restore(model.params_mut()).unwrap();
        let after = predict(&model);
        assert_eq!(before.data(), after.data());
    }

    #[test]
    fn json_round_trip() {
        let model = VarForecaster::new(3, 2, &ModelConfig::tiny(3));
        let ckpt = Checkpoint::capture(model.params());
        let parsed = Checkpoint::from_json(&ckpt.to_json()).unwrap();
        assert_eq!(parsed.params.len(), ckpt.params.len());
        assert_eq!(parsed.params[0].name, ckpt.params[0].name);
        assert_eq!(parsed.params[0].data, ckpt.params[0].data);
    }

    #[test]
    fn json_round_trip_is_bit_exact_on_edge_values() {
        // Hand-built checkpoint carrying every awkward f64 we can emit.
        let ckpt = Checkpoint {
            params: vec![ParamEntry {
                name: "edge.w".into(),
                dims: vec![2, 3],
                data: vec![-0.0, 5e-324, 1e308, -1e-308, 0.1 + 0.2, 2f64.powi(53) - 1.0],
            }],
        };
        let parsed = Checkpoint::from_json(&ckpt.to_json()).unwrap();
        assert_eq!(parsed.params[0].name, "edge.w");
        assert_eq!(parsed.params[0].dims, vec![2, 3]);
        for (a, b) in ckpt.params[0].data.iter().zip(parsed.params[0].data.iter()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{a:e} lost bits in JSON round trip"
            );
        }
        assert!(parsed.params[0].data[0].is_sign_negative());
    }

    #[test]
    fn from_json_rejects_malformed_checkpoints() {
        for bad in [
            "not json",
            "{}",
            r#"{"params": 3}"#,
            r#"{"params": [{"name": "w", "dims": [2.5], "data": []}]}"#,
            r#"{"params": [{"name": "w", "dims": [1]}]}"#,
        ] {
            assert!(Checkpoint::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn restore_rejects_architecture_mismatch() {
        let small = LstmForecaster::new(3, &ModelConfig::tiny(4));
        let mut big = LstmForecaster::new(5, &ModelConfig::tiny(4));
        let ckpt = Checkpoint::capture(small.params());
        let err = ckpt.restore(big.params_mut()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn restore_rejects_wrong_model_kind() {
        let lstm = LstmForecaster::new(4, &ModelConfig::tiny(5));
        let mut var = VarForecaster::new(4, 2, &ModelConfig::tiny(5));
        let ckpt = Checkpoint::capture(lstm.params());
        assert!(ckpt.restore(var.params_mut()).is_err());
    }

    #[test]
    fn file_round_trip() {
        let model = VarForecaster::new(2, 1, &ModelConfig::tiny(6));
        let ckpt = Checkpoint::capture(model.params());
        let dir = std::env::temp_dir().join("ema_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.params.len(), ckpt.params.len());
        let _ = std::fs::remove_file(path);
    }
}
