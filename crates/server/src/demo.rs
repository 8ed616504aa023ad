//! A ready-to-serve store for binaries, examples, tests, and docs: a
//! partitioned device seeded with two content families, one trained
//! placement engine per shard, wrapped in a [`ShardedE2KvStore`].
//!
//! This is the boot sequence every embedder of the server repeats, so
//! it lives here once; production embedders would substitute their own
//! device configuration and training corpus.

use e2nvm_core::{E2Config, PaddingType, ShardedEngine};
use e2nvm_kvstore::ShardedE2KvStore;
use e2nvm_sim::{
    partition_controllers, DeviceConfig, FaultConfig, LogicalSegment, MemoryController,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build and train a `shards`-way [`ShardedE2KvStore`] over
/// `total_segments` segments of `seg_bytes` bytes.
///
/// Each shard's pool is seeded with two content families (mostly-0x00
/// and mostly-0xFF images) so the per-shard models — PCA + K-means, the
/// engine's default — have structure to learn.
/// Deterministic in `seed`.
///
/// # Panics
/// Panics on invalid geometry (e.g. `total_segments` not divisible
/// into `shards` non-empty partitions) — this is a bootstrap helper,
/// not a validation layer.
pub fn demo_store(
    shards: usize,
    total_segments: usize,
    seg_bytes: usize,
    seed: u64,
) -> ShardedE2KvStore {
    demo_store_with_fault(shards, total_segments, seg_bytes, seed, None)
}

/// [`demo_store`] over a device with optional fault injection (finite
/// per-segment endurance): a server whose segments genuinely retire, so
/// its HEALTH frame reports real `retired_segments` growth.
pub fn demo_store_with_fault(
    shards: usize,
    total_segments: usize,
    seg_bytes: usize,
    seed: u64,
    fault: Option<FaultConfig>,
) -> ShardedE2KvStore {
    let mut builder = DeviceConfig::builder()
        .segment_bytes(seg_bytes)
        .num_segments(total_segments);
    if let Some(fault) = fault {
        builder = builder.fault(fault);
    }
    let dev_cfg = builder.build().expect("valid device config");
    let cfg = demo_config(seg_bytes, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let controllers: Vec<MemoryController> = partition_controllers(&dev_cfg, shards)
        .expect("partition")
        .into_iter()
        .map(|(_, mut mc)| {
            for i in 0..mc.num_segments() {
                let base = if i % 2 == 0 { 0x00u8 } else { 0xFF };
                let content: Vec<u8> = (0..seg_bytes)
                    .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
                    .collect();
                mc.seed(LogicalSegment(i), &content).expect("seed segment");
            }
            mc
        })
        .collect();
    ShardedE2KvStore::new(ShardedEngine::train(controllers, &cfg).expect("train shards"))
}

/// The engine configuration [`demo_store`] trains with, exposed so a
/// restarting server can hand the *same* configuration to
/// [`ShardedE2KvStore::recover`] — recovery rebuilds engines from
/// snapshotted weights instead of retraining, but the structural
/// fields (segment width, clusters, padding) must match the ones the
/// snapshot was taken under.
pub fn demo_config(seg_bytes: usize, seed: u64) -> E2Config {
    E2Config::builder()
        .fast(seg_bytes, 2)
        .retrain_min_free(0)
        .padding_type(PaddingType::Zero)
        .seed(seed)
        .build()
        .expect("valid engine config")
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2nvm_kvstore::NvmKvStore;

    #[test]
    fn demo_store_serves_crud() {
        let mut store = demo_store(2, 32, 32, 11);
        store.put(1, b"one").unwrap();
        assert_eq!(store.get(1).unwrap().unwrap(), b"one");
        assert!(store.delete(1).unwrap());
        assert!(store.is_empty());
    }
}
