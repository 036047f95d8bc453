//! The model registry: named models, checkpoint loading with metadata
//! verification, and atomic hot-swap.
//!
//! Each registered name owns a [`ModelEntry`] whose current network sits
//! behind `RwLock<Arc<BikeCap>>`. Readers (`ModelEntry::current`) clone the
//! inner `Arc` under a read lock held for nanoseconds, so in-flight batches
//! keep using the network they grabbed while [`ModelEntry::hot_swap`]
//! atomically installs a replacement — no request ever observes a
//! half-loaded model.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use bikecap_core::{BikeCap, BikeCapConfig, ShapeError};
use bikecap_nn::serialize::LoadParamsError;

/// Errors surfaced by registry operations.
#[derive(Debug)]
pub enum RegistryError {
    /// No model registered under the requested name.
    UnknownModel(String),
    /// Loading the checkpoint failed (I/O, parse, shape or config mismatch).
    Load(LoadParamsError),
    /// The requested configuration fails the static shape-contract check, so
    /// no model was built (and nothing was registered or swapped).
    InvalidConfig(ShapeError),
    /// The swap itself failed after a successful load (today only via the
    /// `serve.reload.swap` failpoint); the slot keeps serving its last
    /// known-good model and is marked degraded.
    SwapFailed(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownModel(name) => write!(f, "unknown model '{name}'"),
            RegistryError::Load(e) => write!(f, "checkpoint load failed: {e}"),
            RegistryError::InvalidConfig(e) => write!(f, "invalid model configuration: {e}"),
            RegistryError::SwapFailed(msg) => write!(f, "hot-swap failed: {msg}"),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Load(e) => Some(e),
            RegistryError::InvalidConfig(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LoadParamsError> for RegistryError {
    fn from(e: LoadParamsError) -> Self {
        RegistryError::Load(e)
    }
}

impl From<ShapeError> for RegistryError {
    fn from(e: ShapeError) -> Self {
        RegistryError::InvalidConfig(e)
    }
}

/// One named model slot.
#[derive(Debug)]
pub struct ModelEntry {
    name: String,
    config: BikeCapConfig,
    model: RwLock<Arc<BikeCap>>,
    checkpoint: RwLock<Option<PathBuf>>,
    swaps: AtomicU64,
    degraded: AtomicBool,
}

impl ModelEntry {
    /// The entry's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The architecture this slot serves. Immutable for the entry's lifetime;
    /// hot-swaps must match it.
    pub fn config(&self) -> &BikeCapConfig {
        &self.config
    }

    /// The checkpoint path last loaded into this slot, if any.
    pub fn checkpoint(&self) -> Option<PathBuf> {
        self.checkpoint
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// How many times this slot's network has been hot-swapped.
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Whether this slot is degraded: its most recent reload failed, so it
    /// is pinned to the last known-good network until a reload succeeds.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// A reference to the current network. In-flight work holds its own
    /// `Arc`, so a concurrent hot-swap never invalidates it.
    pub fn current(&self) -> Arc<BikeCap> {
        Arc::clone(&self.model.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Atomically replaces this slot's network.
    ///
    /// # Panics
    ///
    /// Panics if `model`'s configuration differs from the slot's — swaps must
    /// not change the served architecture (register a new name instead).
    pub fn hot_swap(&self, model: BikeCap) {
        assert_eq!(
            model.config(),
            &self.config,
            "hot_swap must preserve the slot's architecture"
        );
        let next = Arc::new(model);
        *self.model.write().unwrap_or_else(|e| e.into_inner()) = next;
        self.swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// Loads `path` into a fresh network and hot-swaps it in. The running
    /// model is untouched if the load fails; a failed reload additionally
    /// marks the slot degraded (cleared again by the next success), so
    /// `/healthz` surfaces that the slot is pinned to a stale network.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::Load`] when the checkpoint cannot be read or
    /// disagrees with this slot's configuration, and
    /// [`RegistryError::SwapFailed`] when the `serve.reload.swap` failpoint
    /// fires after a successful load.
    pub fn reload(&self, path: impl AsRef<Path>) -> Result<(), RegistryError> {
        let outcome = (|| {
            let mut fresh = BikeCap::build_seeded(self.config.clone(), 0)?;
            fresh.load_checkpoint(path.as_ref())?;
            if let Some(fault) = bikecap_faults::hit("serve.reload.swap") {
                return Err(RegistryError::SwapFailed(fault.to_string()));
            }
            self.hot_swap(fresh);
            *self.checkpoint.write().unwrap_or_else(|e| e.into_inner()) =
                Some(path.as_ref().to_path_buf());
            Ok(())
        })();
        self.degraded.store(outcome.is_err(), Ordering::Relaxed);
        outcome
    }
}

/// Thread-safe collection of named [`ModelEntry`]s.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    entries: RwLock<HashMap<String, Arc<ModelEntry>>>,
}

/// The model name used when a request doesn't specify one.
pub const DEFAULT_MODEL: &str = "default";

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `model` under `name`, replacing any existing entry wholesale
    /// (for same-architecture updates prefer [`ModelEntry::hot_swap`], which
    /// in-flight batches observe atomically).
    pub fn insert(&self, name: impl Into<String>, model: BikeCap) -> Arc<ModelEntry> {
        let name = name.into();
        let entry = Arc::new(ModelEntry {
            name: name.clone(),
            config: model.config().clone(),
            model: RwLock::new(Arc::new(model)),
            checkpoint: RwLock::new(None),
            swaps: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
        });
        self.entries
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name, Arc::clone(&entry));
        entry
    }

    /// Builds a model for `config`, loads the checkpoint at `path` into it
    /// (verifying metadata), and registers it under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::InvalidConfig`] when `config` fails the
    /// static shape-contract check, and [`RegistryError::Load`] when the
    /// checkpoint cannot be read or was saved from a different architecture;
    /// nothing is registered in either case.
    pub fn load_checkpoint(
        &self,
        name: impl Into<String>,
        config: BikeCapConfig,
        path: impl AsRef<Path>,
    ) -> Result<Arc<ModelEntry>, RegistryError> {
        let mut model = BikeCap::build_seeded(config, 0)?;
        model.load_checkpoint(path.as_ref())?;
        let entry = self.insert(name, model);
        *entry.checkpoint.write().unwrap_or_else(|e| e.into_inner()) =
            Some(path.as_ref().to_path_buf());
        Ok(entry)
    }

    /// Looks up a model by name; `None` falls back to [`DEFAULT_MODEL`].
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownModel`] when nothing is registered
    /// under the resolved name.
    pub fn get(&self, name: Option<&str>) -> Result<Arc<ModelEntry>, RegistryError> {
        let name = name.unwrap_or(DEFAULT_MODEL);
        self.entries
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
            .ok_or_else(|| RegistryError::UnknownModel(name.to_string()))
    }

    /// Whether any registered slot is degraded (pinned to a stale network
    /// after a failed reload).
    pub fn any_degraded(&self) -> bool {
        self.entries
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .any(|entry| entry.is_degraded())
    }

    /// All registered model names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .entries
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bikecap_tensor::Tensor;

    fn tiny_config() -> BikeCapConfig {
        BikeCapConfig::new(4, 4)
            .history(4)
            .horizon(2)
            .pyramid_size(2)
            .capsule_dim(2)
            .out_capsule_dim(2)
            .decoder_channels(2)
    }

    #[test]
    fn insert_get_and_names() {
        let reg = ModelRegistry::new();
        assert!(matches!(
            reg.get(None),
            Err(RegistryError::UnknownModel(_))
        ));
        reg.insert(DEFAULT_MODEL, BikeCap::seeded(tiny_config(), 1));
        reg.insert("shadow", BikeCap::seeded(tiny_config(), 2));
        assert_eq!(reg.names(), vec!["default".to_string(), "shadow".into()]);
        assert_eq!(reg.get(None).unwrap().name(), "default");
        assert_eq!(reg.get(Some("shadow")).unwrap().name(), "shadow");
    }

    #[test]
    fn hot_swap_changes_predictions_atomically() {
        let reg = ModelRegistry::new();
        let entry = reg.insert(DEFAULT_MODEL, BikeCap::seeded(tiny_config(), 1));
        let x = Tensor::ones(&[1, 4, 4, 4, 4]);
        let before = entry.current().predict(&x);

        // A reader holding the old Arc keeps a consistent model across a swap.
        let held = entry.current();
        entry.hot_swap(BikeCap::seeded(tiny_config(), 99));
        assert_eq!(entry.swap_count(), 1);
        assert_eq!(held.predict(&x).as_slice(), before.as_slice());
        let after = entry.current().predict(&x);
        assert!(before.sub(&after).abs().sum() > 0.0, "swap must take effect");
    }

    #[test]
    #[should_panic(expected = "hot_swap must preserve")]
    fn hot_swap_rejects_architecture_change() {
        let reg = ModelRegistry::new();
        let entry = reg.insert(DEFAULT_MODEL, BikeCap::seeded(tiny_config(), 1));
        entry.hot_swap(BikeCap::seeded(tiny_config().capsule_dim(3), 1));
    }

    #[test]
    fn quantized_checkpoint_loads_and_reports_precision() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("bikecap-registry-{}.q8", std::process::id()));
        let trained = BikeCap::seeded(tiny_config(), 7);
        trained
            .save_quantized_checkpoint(&path, bikecap_quant::QuantFormat::Q8_0)
            .unwrap();

        let reg = ModelRegistry::new();
        let entry = reg
            .load_checkpoint(DEFAULT_MODEL, tiny_config(), &path)
            .unwrap();
        let model = entry.current();
        assert!(model.precision().starts_with("q8_0"), "{}", model.precision());
        // Quantized models predict on their dequantized weights without
        // panicking and stay finite (accuracy is gated by
        // `bikecap-check quant-eval`).
        let x = Tensor::ones(&[1, 4, 4, 4, 4]);
        assert!(model.predict(&x).all_finite());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_checkpoint_rejects_invalid_config_with_typed_error() {
        let reg = ModelRegistry::new();
        let err = reg
            .load_checkpoint("zero-horizon", tiny_config().horizon(0), "/nonexistent")
            .unwrap_err();
        assert!(matches!(err, RegistryError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("horizon must be >= 1"), "{err}");
        assert!(reg.names().is_empty(), "nothing may be registered");
    }

    #[test]
    fn checkpoint_load_and_reload() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("bikecap-registry-{}.ckpt", std::process::id()));
        let trained = BikeCap::seeded(tiny_config(), 7);
        trained.save_checkpoint(&path).unwrap();

        let reg = ModelRegistry::new();
        let entry = reg
            .load_checkpoint(DEFAULT_MODEL, tiny_config(), &path)
            .unwrap();
        assert_eq!(entry.checkpoint().as_deref(), Some(path.as_path()));
        let x = Tensor::ones(&[1, 4, 4, 4, 4]);
        assert_eq!(
            entry.current().predict(&x).as_slice(),
            trained.predict(&x).as_slice()
        );

        // Wrong architecture: typed error, nothing registered.
        let err = reg
            .load_checkpoint("bad", tiny_config().capsule_dim(3), &path)
            .unwrap_err();
        assert!(matches!(err, RegistryError::Load(_)), "{err}");
        assert!(reg.get(Some("bad")).is_err());

        // Reload into the existing entry = hot swap.
        entry.reload(&path).unwrap();
        assert_eq!(entry.swap_count(), 1);
        std::fs::remove_file(path).ok();
    }
}
