//! The benchmark's fixed geometry. These are constants, not flags: a
//! number in `BENCH.json` only compares with another one if both ran
//! this exact shape. `BENCHMARK.json` and the README repeat them.

use e2nvm_core::{E2Config, PaddingType};
use e2nvm_kvstore::CacheConfig;
use e2nvm_persist::FlushPolicy;
use e2nvm_sim::{DeviceConfig, WearTracking};

/// Store shards (= CPUs of the reference sandbox; the benchmark itself
/// runs on one of them).
pub const SHARDS: usize = 2;
/// Device segments across all shards.
pub const SEGMENTS: usize = 16_384;
/// Bytes per segment.
pub const SEGMENT_BYTES: usize = 128;
/// K-means clusters per shard model.
pub const K: usize = 10;
/// Records loaded before any pass (25 % of the segments).
pub const RECORDS: usize = 4_096;
/// Items in the value pool PUTs draw from.
pub const POOL_ITEMS: usize = 4_096;
/// Bytes per value (one MNIST-like item).
pub const VALUE_BYTES: usize = 98;
/// Zipfian skew of key choice.
pub const ZIPF_THETA: f64 = 0.99;
/// Client connections of the timed pass.
pub const CONNECTIONS: usize = 2;
/// Requests in flight per connection.
pub const PIPELINE_DEPTH: usize = 16;
/// Target payload per SCAN_STREAM chunk frame.
pub const SCAN_CHUNK_BYTES: usize = 4_096;
/// Longest scan, in records.
pub const SCAN_MAX_RECORDS: u32 = 100;
/// Seed of everything that is set-up state rather than workload input:
/// the device's initial contents and the models trained on them.
pub const GEOMETRY_SEED: u64 = 0xE2_2023;

/// Ops generated per connection; the timed pass cycles through them.
pub const TRACE_OPS_PER_CONN: usize = 65_536;
/// Ops of the counted pass: the whole trace once.
pub const COUNTED_OPS: usize = CONNECTIONS * TRACE_OPS_PER_CONN;
/// Ops replayed at each depth of the traced pass.
pub const TRACED_OPS: usize = 50_000;

/// Timed repetitions per contract run; the reported value is their
/// median. Many short ones, each bracketed by calibration readings,
/// proved steadier on a shared host than a few long ones (the sandbox
/// changes speed from one second to the next).
pub const SLICES: usize = 50;
/// Set-ups per run in `--trace 0` mode; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// DRAM charged per cached record: the value plus the cache's fixed
/// per-entry overhead (`ENTRY_OVERHEAD_BYTES` in `kvstore::cache`).
const CACHE_BYTES_PER_RECORD: usize = VALUE_BYTES + 48;

/// The engine configuration every shard trains with.
pub fn e2_config() -> E2Config {
    E2Config::builder()
        .k(K)
        .segment_bytes(SEGMENT_BYTES)
        .hidden(vec![64])
        .latent_dim(10)
        .pretrain_epochs(10)
        .joint_epochs(4)
        .train_sample_cap(1_024)
        .retrain_min_free(0)
        .padding_type(PaddingType::Zero)
        .seed(GEOMETRY_SEED)
        .build()
        .expect("benchmark engine config is valid")
}

/// The simulated device: fault-free, no wear leveling, per-segment wear
/// counters on so `wear_max_over_mean` can be read back.
pub fn device_config() -> DeviceConfig {
    DeviceConfig::builder()
        .segment_bytes(SEGMENT_BYTES)
        .num_segments(SEGMENTS)
        .wear_tracking(WearTracking::PerSegment)
        .build()
        .expect("benchmark device config is valid")
}

/// WAL flush policy: the store's default.
pub fn flush_policy() -> FlushPolicy {
    FlushPolicy::default()
}

/// A cache that holds `records` records. `exact` sizes the byte budget
/// to the records alone (the cache then evicts); otherwise the budget
/// is doubled so no shard of the cache evicts under hash imbalance.
pub fn cache_config(records: usize, exact: bool) -> CacheConfig {
    let bytes = records * CACHE_BYTES_PER_RECORD * if exact { 1 } else { 2 };
    CacheConfig::builder()
        .capacity_bytes(bytes)
        .build()
        .expect("benchmark cache config is valid")
}
