//! # e2nvm-core — the E2-NVM storage layer (the paper's contribution)
//!
//! E2-NVM reduces NVM bit flips — and with them write energy and wear —
//! by *choosing where to write*: free memory segments are clustered by
//! content similarity — by PCA + K-means by default, or by the paper's
//! jointly trained VAE + K-means ([`PlacementModel`]) — and
//! each incoming value is routed to a free segment whose resident
//! content already resembles it, so the data-comparison write programs
//! only a few bits.
//!
//! The moving parts, matching the paper's Figure 3:
//!
//! * [`E2Model`] — the trained projection (PCA or the VAE's encoder to
//!   μ) + centroids ([`model`]).
//! * [`DynamicAddressPool`] — cluster → free-address lists ([`dap`]).
//! * [`Padder`] — fitting variable-size values to the fixed model input
//!   ([`padding`]; 7 types × 3 locations, §4 of the paper).
//! * [`E2Engine`] — Algorithms 1 & 2 (write/delete) plus GET/SCAN over a
//!   simulated NVM device ([`engine`]).
//! * [`retrain::BackgroundRetrainer`] — lazy retraining when a cluster's
//!   free list runs low (§4.1.4).
//! * [`ShardedEngine`] — the thread-safe serving handle (§5.1): N
//!   mutex-guarded engines over disjoint segment partitions with
//!   hash-routed keys, each with its own background retrainer; a
//!   single engine is the one-shard case ([`sharded`]).
//! * [`kselect`] — SSE elbow + energy valley for picking K (Figure 8).
//! * [`ScanBuffer`] — the reusable working set of a range scan, one
//!   lazy merge over the shards' index cursors whose winners are
//!   visited straight from device memory ([`scan`]).
//!
//! ```no_run
//! use e2nvm_core::{E2Config, E2Engine};
//! use e2nvm_sim::{DeviceConfig, MemoryController, NvmDevice};
//!
//! let device = NvmDevice::new(
//!     DeviceConfig::builder().segment_bytes(256).num_segments(1024).build().unwrap(),
//! );
//! let mut engine = E2Engine::new(
//!     MemoryController::without_wear_leveling(device),
//!     E2Config::default(),
//! ).unwrap();
//! engine.train().unwrap();
//! engine.put(42, b"value").unwrap();
//! assert_eq!(engine.get(42).unwrap(), b"value");
//! ```

// The engine reaches the device's prefetch hint only through
// `e2nvm-sim`'s safe API.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod dap;
pub mod engine;
pub mod error;
pub mod kselect;
pub mod model;
pub mod padding;
pub mod retrain;
pub mod scan;
pub mod sharded;
pub mod telemetry;

pub use config::{E2Config, E2ConfigBuilder, PlacementModel};
pub use dap::{DapError, DynamicAddressPool};
pub use engine::{E2Engine, EngineState, PredictionStats};
pub use error::{E2Error, Result};
pub use kselect::{sweep_k, KSelection, KSweepPoint};
pub use model::{E2Model, PlacementScratch};
pub use padding::{Padder, PaddingLocation, PaddingType};
pub use retrain::BackgroundRetrainer;
pub use scan::ScanBuffer;
pub use sharded::ShardedEngine;
pub use telemetry::{EngineTelemetry, Stage};
