//! # e2nvm — umbrella crate for the E2-NVM reproduction
//!
//! Re-exports the public API of every workspace crate so that examples,
//! integration tests, and downstream users can depend on a single crate.
//!
//! * [`sim`] — the PCM/Optane device model, memory controller, wear
//!   leveling, energy/latency accounting.
//! * [`ml`] — from-scratch ML substrate: VAE, joint VAE+K-means, K-means,
//!   PCA, LSTM, and the `Placer` both the VAE and PNW's PCA + K-means
//!   compile into.
//! * [`baselines`] — DCW, Flip-N-Write, MinShift, Captopril, DATACON,
//!   Hamming-Tree.
//! * [`core`] — the paper's contribution: the E2-NVM placement engine.
//! * [`kvstore`] — the persistent KV store and NVM index structures.
//! * [`persist`] — crash-consistent persistence: per-shard write-ahead
//!   logs, atomic full-system snapshots, and the unified save/load
//!   facade behind `PersistenceConfig` (DESIGN.md §14).
//! * [`workloads`] — YCSB and synthetic dataset generators.
//! * [`telemetry`] — lock-free metrics registry + event journal.
//! * [`server`] — the TCP serving layer: length-prefixed binary wire
//!   protocol (PROTOCOL.md), epoll-reactor pipelined server, blocking
//!   client.
//!
//! The [`prelude`] pulls in the types almost every integration needs:
//!
//! ```
//! use e2nvm::prelude::*;
//! use e2nvm::sim::{DeviceConfig, MemoryController, NvmDevice};
//!
//! let device = NvmDevice::new(
//!     DeviceConfig::builder().segment_bytes(64).num_segments(64).build().unwrap(),
//! );
//! let cfg = E2Config::builder()
//!     .fast(64, 2)
//!     .padding_type(PaddingType::Zero)
//!     .build()
//!     .unwrap();
//! let mut engine = E2Engine::new(
//!     MemoryController::without_wear_leveling(device),
//!     cfg,
//! ).unwrap();
//! engine.train().unwrap();
//! let registry = TelemetryRegistry::new();
//! let engine = ShardedEngine::new(vec![engine]); // one shard
//! engine.attach_telemetry(&registry);
//! engine.put(42, b"value").unwrap();
//! assert_eq!(engine.get(42).unwrap(), b"value");
//! assert!(registry.render_prometheus().contains("e2nvm_device_writes_total"));
//! ```

pub use e2nvm_baselines as baselines;
pub use e2nvm_core as core;
pub use e2nvm_kvstore as kvstore;
pub use e2nvm_ml as ml;
pub use e2nvm_persist as persist;
pub use e2nvm_server as server;
pub use e2nvm_sim as sim;
pub use e2nvm_telemetry as telemetry;
pub use e2nvm_workloads as workloads;

/// The types almost every user of the reproduction touches: engine +
/// config construction, the KV trait and stores, and the telemetry
/// surface.
pub mod prelude {
    pub use e2nvm_core::{
        E2Config, E2ConfigBuilder, E2Engine, E2Error, PaddingLocation, PaddingType, PlacementModel,
        ShardedEngine,
    };
    pub use e2nvm_kvstore::{
        CacheConfig, CacheConfigBuilder, CacheStats, CachedKvStore, HotCache, NvmKvStore,
        ShardedE2KvStore, StoreError,
    };
    pub use e2nvm_persist::{FlushPolicy, PersistenceConfig, PersistenceConfigBuilder};
    pub use e2nvm_server::{Client, Server, ServerConfig, ServerConfigBuilder, ServerHandle};
    pub use e2nvm_sim::{
        DeviceConfig, DeviceStats, FaultConfig, LogicalSegment, MemoryController, NvmDevice,
        PhysicalSegment, SegmentRemap,
    };
    pub use e2nvm_telemetry::{Event, EventJournal, TelemetryRegistry};
}

/// Compile-checks every Rust code block in the README as a doctest, so
/// the documented examples can never drift from the real API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
