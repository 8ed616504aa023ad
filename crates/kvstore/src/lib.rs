//! # e2nvm-kvstore — persistent KV stores and NVM index structures
//!
//! Two roles in the reproduction:
//!
//! 1. The paper's own system (Figure 3): [`ShardedE2KvStore`] — an
//!    ordered DRAM key index per shard over values placed on NVM by
//!    the E2-NVM engine, optionally crash-consistent (WAL + snapshots)
//!    and cached ([`CachedKvStore`]).
//! 2. The augmentation targets of Figure 12: [`BPlusTree`], [`WiscKey`],
//!    [`PathHashing`], [`FpTree`], and [`NoveLsm`], each runnable over a
//!    [`DirectNodeStore`] (update-in-place, arbitrary placement) or an
//!    [`E2NodeStore`] (copy-on-write placement through E2-NVM) so "bare
//!    vs plugged into E2-NVM" is a one-line switch.

#![warn(missing_docs)]

pub mod btree;
pub mod cache;
pub mod e2store;
pub mod fptree;
pub mod novelsm;
pub mod path_hashing;
pub mod store;
pub mod telemetry;
pub mod traits;
pub mod wisckey;

pub use btree::BPlusTree;
pub use cache::{CacheConfig, CacheConfigBuilder, CacheStats, CachedKvStore, HotCache};
pub use e2store::{RecoveryReport, ShardedE2KvStore, WearSummary};
pub use fptree::FpTree;
pub use novelsm::NoveLsm;
pub use path_hashing::PathHashing;
pub use store::{DirectNodeStore, E2NodeStore, NodeId, NodeStore, StoreError};
pub use telemetry::StoreTelemetry;
pub use traits::NvmKvStore;
pub use wisckey::WiscKey;
