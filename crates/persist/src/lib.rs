//! # e2nvm-persist — crash-consistent persistence for the E2-NVM stack
//!
//! One versioned facade over everything the serving stack must remember
//! across a restart — the only place the workspace touches files:
//!
//! * [`Wal`] / [`replay_and_truncate`] — a per-shard write-ahead log of
//!   KV mutations: length-prefixed CRC-checksummed records, group-commit
//!   fsync under a configurable [`FlushPolicy`], torn-tail truncation on
//!   replay.
//! * [`StoreSnapshot`] — an atomic full-system snapshot: per shard, the
//!   device image (contents, wear counters, fault state) plus the
//!   engine's [`e2nvm_core::EngineState`] (model weights, retirement,
//!   key index).
//! * [`PersistenceConfig`] — a validated builder (`data_dir`, flush
//!   policy, snapshot period), like `E2Config` and `ServerConfig`.
//! * [`save_model`]/[`load_model`], [`save_device`]/[`load_device`] —
//!   file helpers over `E2Model::{to_bytes,from_bytes}` and
//!   `e2nvm_sim::snapshot::{to_image,from_image}`.
//!
//! The recovery protocol built on these pieces (snapshot load → WAL
//! replay → attach) lives in `e2nvm_kvstore::ShardedE2KvStore::recover`;
//! DESIGN.md §14 documents the format and crash-ordering argument.

#![warn(missing_docs)]

mod config;
mod crc;
mod error;
mod snapshot;
mod telemetry;
mod wal;

pub use config::{FlushPolicy, PersistenceConfig, PersistenceConfigBuilder};
pub use crc::crc32;
pub use error::{PersistError, Result};
pub use snapshot::{ShardState, StoreSnapshot};
pub use telemetry::PersistTelemetry;
pub use wal::{
    decode_records, encode_record, replay_and_truncate, Replay, SyncPort, Wal, WalOp, WalSyncer,
    MAX_RECORD_PAYLOAD,
};

use e2nvm_core::E2Model;
use e2nvm_sim::NvmDevice;
use std::path::Path;

/// Save a trained model artifact to a file.
pub fn save_model(model: &E2Model, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path, model.to_bytes()).map_err(PersistError::Io)
}

/// Load a model artifact from a file.
pub fn load_model(path: impl AsRef<Path>) -> Result<E2Model> {
    let bytes = std::fs::read(path)?;
    E2Model::from_bytes(&bytes).map_err(|e| PersistError::Corrupt(format!("model artifact: {e}")))
}

/// Save a device image (contents + wear + fault state) to a file.
pub fn save_device(device: &NvmDevice, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path, e2nvm_sim::snapshot::to_image(device)).map_err(PersistError::Io)
}

/// Load a device image from a file.
pub fn load_device(path: impl AsRef<Path>) -> Result<NvmDevice> {
    let bytes = std::fs::read(path)?;
    e2nvm_sim::snapshot::from_image(&bytes)
        .map_err(|e| PersistError::Corrupt(format!("device image: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2nvm_sim::DeviceConfig;

    #[test]
    fn device_file_helpers_roundtrip() {
        let dir = std::env::temp_dir().join("e2nvm_persist_facade");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dev.img");
        let mut dev = NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(64)
                .num_segments(4)
                .block_bytes(64)
                .build()
                .unwrap(),
        );
        dev.seed_segment(e2nvm_sim::PhysicalSegment(1), &[7u8; 64])
            .unwrap();
        save_device(&dev, &path).unwrap();
        let restored = load_device(&path).unwrap();
        assert_eq!(restored.peek(e2nvm_sim::PhysicalSegment(1)), &[7u8; 64]);
        std::fs::remove_file(&path).ok();
        assert!(load_device(&path).is_err());
    }

    #[test]
    fn model_file_helpers_roundtrip() {
        let dir = std::env::temp_dir().join("e2nvm_persist_facade");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        let mut rng = e2nvm_ml::rng::seeded(10);
        // Two content families, so the classification is not vacuous.
        let contents: Vec<Vec<u8>> = (0..40)
            .map(|i| vec![if i % 2 == 0 { 0x00 } else { 0xFF }; 16])
            .collect();
        let cfg = e2nvm_core::E2Config::builder()
            .fast(16, 2)
            .pretrain_epochs(8)
            .joint_epochs(2)
            .build()
            .unwrap();
        let model = E2Model::train(&cfg, &contents, &mut rng);
        save_model(&model, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(
            loaded.classify_segments(&contents),
            model.classify_segments(&contents)
        );
        std::fs::remove_file(&path).ok();
        assert!(load_model(&path).is_err());
    }
}
