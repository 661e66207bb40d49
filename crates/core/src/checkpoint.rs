//! Parameter checkpointing.
//!
//! Trained model + detector weights serialize to a single JSON document so
//! experiments are resumable and results shippable. The format is
//! deliberately simple (names, shapes, row-major values); loading restores
//! a [`ParamSet`] whose registration order — and therefore every
//! [`ParamId`](dota_autograd::ParamId) handed out by re-initialized models
//! and hooks with the same construction order — matches the saved one.
//!
//! Two robustness properties matter for the crash-resume and watchdog
//! paths:
//!
//! * **Crash-safe writes** — [`save_params`] writes to a temp file in the
//!   destination directory and atomically renames it into place, so a
//!   crash mid-write can never leave a truncated checkpoint under the
//!   final name (a reader sees the old file or the new file, nothing in
//!   between).
//! * **Bit-exact values** — format v2 stores each `f32` as its raw bit
//!   pattern (`data_bits`), so NaN/Inf parameters (e.g. captured by the
//!   divergence watchdog for post-mortem) round-trip exactly; the JSON
//!   layer would otherwise collapse non-finite floats to `null`. Format
//!   v1 (`data` as plain floats) is still loaded.

use dota_autograd::ParamSet;
use dota_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// One serialized parameter (format v2: raw `f32` bit patterns).
#[derive(Debug, Serialize, Deserialize)]
struct SavedParam {
    name: String,
    rows: usize,
    cols: usize,
    data_bits: Vec<u32>,
}

/// The on-disk checkpoint document (format v2).
#[derive(Debug, Serialize, Deserialize)]
struct Checkpoint {
    format_version: u32,
    params: Vec<SavedParam>,
}

/// One serialized parameter in the legacy v1 format (plain floats; cannot
/// represent NaN/Inf).
#[derive(Debug, Deserialize)]
struct SavedParamV1 {
    name: String,
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

#[derive(Debug, Deserialize)]
struct CheckpointV1 {
    #[allow(dead_code)]
    format_version: u32,
    params: Vec<SavedParamV1>,
}

/// Minimal probe to dispatch on the version before a full parse.
#[derive(Debug, Deserialize)]
struct VersionProbe {
    format_version: u32,
}

const FORMAT_VERSION: u32 = 2;

/// Errors from loading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file is not a valid checkpoint document.
    Parse(String),
    /// The document's format version is not supported.
    Version(u32),
    /// A parameter's data length disagrees with its shape.
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Parse(e) => write!(f, "invalid checkpoint document: {e}"),
            CheckpointError::Version(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Corrupt(name) => {
                write!(f, "parameter `{name}` has inconsistent shape/data")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

pub use dota_metrics::write_atomic;

/// Serializes every parameter of `params` to JSON at `path`, crash-safely
/// (temp file + atomic rename; see [`write_atomic`]). Values are stored as
/// raw bit patterns, so non-finite parameters survive the round trip.
///
/// # Errors
///
/// Returns a [`CheckpointError`] on filesystem failure.
pub fn save_params(params: &ParamSet, path: &Path) -> Result<(), CheckpointError> {
    let doc = Checkpoint {
        format_version: FORMAT_VERSION,
        params: params
            .ids()
            .map(|id| {
                let m = params.value(id);
                SavedParam {
                    name: params.name(id).to_owned(),
                    rows: m.rows(),
                    cols: m.cols(),
                    data_bits: m.as_slice().iter().map(|v| v.to_bits()).collect(),
                }
            })
            .collect(),
    };
    let json = serde_json::to_string(&doc).map_err(|e| CheckpointError::Parse(e.to_string()))?;
    write_atomic(path, &json)?;
    Ok(())
}

/// Loads a checkpoint into a fresh [`ParamSet`], preserving registration
/// order (so ids line up with a model/hook built in the same order).
/// Understands the current bit-exact v2 format and the legacy v1 float
/// format.
///
/// # Errors
///
/// Returns a [`CheckpointError`] if the file is missing, malformed, from an
/// unsupported version, or internally inconsistent.
pub fn load_params(path: &Path) -> Result<ParamSet, CheckpointError> {
    let json = std::fs::read_to_string(path)?;
    let probe: VersionProbe =
        serde_json::from_str(&json).map_err(|e| CheckpointError::Parse(e.to_string()))?;
    let params: Vec<(String, usize, usize, Vec<f32>)> = match probe.format_version {
        1 => {
            let doc: CheckpointV1 =
                serde_json::from_str(&json).map_err(|e| CheckpointError::Parse(e.to_string()))?;
            doc.params
                .into_iter()
                .map(|p| (p.name, p.rows, p.cols, p.data))
                .collect()
        }
        2 => {
            let doc: Checkpoint =
                serde_json::from_str(&json).map_err(|e| CheckpointError::Parse(e.to_string()))?;
            doc.params
                .into_iter()
                .map(|p| {
                    let data = p.data_bits.iter().map(|&b| f32::from_bits(b)).collect();
                    (p.name, p.rows, p.cols, data)
                })
                .collect()
        }
        v => return Err(CheckpointError::Version(v)),
    };
    let mut set = ParamSet::new();
    for (name, rows, cols, data) in params {
        if data.len() != rows * cols {
            return Err(CheckpointError::Corrupt(name));
        }
        let m = Matrix::from_vec(rows, cols, data)
            .map_err(|_| CheckpointError::Corrupt(name.clone()))?;
        set.add(&name, m);
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{self, TrainOptions};
    use dota_transformer::NoHook;
    use dota_workloads::{Benchmark, TaskSpec};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dota_ckpt_{name}_{}.json", std::process::id()));
        p
    }

    #[test]
    fn round_trip_preserves_everything() {
        let spec = TaskSpec::tiny(Benchmark::Text, 20, 1);
        let (_, params) = experiments::build_model(&spec, 1);
        let path = tmp("roundtrip");
        save_params(&params, &path).unwrap();
        let loaded = load_params(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(params.len(), loaded.len());
        for (a, b) in params.ids().zip(loaded.ids()) {
            assert_eq!(params.name(a), loaded.name(b));
            assert_eq!(params.value(a), loaded.value(b));
        }
    }

    #[test]
    fn non_finite_values_round_trip_bit_exactly() {
        let mut params = ParamSet::new();
        let values = vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::MIN_POSITIVE / 2.0, // subnormal
            1.5,
        ];
        params.add("weird", Matrix::from_vec(2, 3, values.clone()).unwrap());
        let path = tmp("nonfinite");
        save_params(&params, &path).unwrap();
        let loaded = load_params(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let id = loaded.ids().next().unwrap();
        let got = loaded.value(id).as_slice().to_vec();
        for (a, b) in values.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn truncated_file_is_parse_error_not_panic() {
        let spec = TaskSpec::tiny(Benchmark::Text, 20, 1);
        let (_, params) = experiments::build_model(&spec, 1);
        let path = tmp("truncated");
        save_params(&params, &path).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        // A crash mid-write of a *non-atomic* writer: half the document.
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = load_params(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, CheckpointError::Parse(_)), "{err}");
    }

    #[test]
    fn legacy_v1_documents_still_load() {
        let path = tmp("v1");
        std::fs::write(
            &path,
            r#"{"format_version":1,"params":[{"name":"w","rows":1,"cols":2,"data":[1.5,-2.0]}]}"#,
        )
        .unwrap();
        let loaded = load_params(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let id = loaded.ids().next().unwrap();
        assert_eq!(loaded.name(id), "w");
        assert_eq!(loaded.value(id).as_slice(), &[1.5, -2.0]);
    }

    #[test]
    fn atomic_write_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("dota_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        write_atomic(&path, "{\"ok\":true}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\":true}");
        let others: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "ckpt.json")
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        assert!(others.is_empty(), "leftover temp files: {others:?}");
    }

    #[test]
    fn reloaded_model_gives_identical_predictions() {
        let spec = TaskSpec::tiny(Benchmark::Text, 20, 2);
        let (train, test) = spec.generate_split(60, 20);
        let (model, mut params) = experiments::build_model(&spec, 2);
        experiments::train_dense(
            &model,
            &mut params,
            &train,
            &TrainOptions {
                epochs: 4,
                ..Default::default()
            },
        );
        let path = tmp("predictions");
        save_params(&params, &path).unwrap();
        let loaded = load_params(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for s in test.iter().take(5) {
            let a = model.infer(&params, &s.ids, &NoHook);
            let b = model.infer(&loaded, &s.ids, &NoHook);
            assert_eq!(a.logits, b.logits);
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_params(Path::new("/nonexistent/dota.json")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    }

    #[test]
    fn malformed_document_is_parse_error() {
        let path = tmp("malformed");
        std::fs::write(&path, "not json").unwrap();
        let err = load_params(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, CheckpointError::Parse(_)), "{err}");
    }

    #[test]
    fn corrupt_shape_detected() {
        let path = tmp("corrupt");
        std::fs::write(
            &path,
            r#"{"format_version":2,"params":[{"name":"w","rows":2,"cols":2,"data_bits":[0]}]}"#,
        )
        .unwrap();
        let err = load_params(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
    }

    #[test]
    fn future_version_rejected() {
        let path = tmp("version");
        std::fs::write(&path, r#"{"format_version":999,"params":[]}"#).unwrap();
        let err = load_params(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, CheckpointError::Version(999)), "{err}");
    }
}
