//! Integration tests for the sharded serving engine: cross-shard
//! correctness under concurrency, per-key consistency, scan merging,
//! and the stats-aggregation property (merged shard stats must equal a
//! single engine's stats for the same write sequence routed to one
//! shard).

use e2nvm::core::{E2Config, E2Engine, PaddingType, ShardedEngine};
use e2nvm::sim::{partition_controllers, DeviceConfig, LogicalSegment, MemoryController};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const SEG_BYTES: usize = 32;

fn test_config() -> E2Config {
    E2Config::builder()
        .fast(SEG_BYTES, 2)
        .pretrain_epochs(4)
        .joint_epochs(1)
        // No background retraining: keeps placement deterministic so the
        // stats property below is exact.
        .retrain_min_free(0)
        .padding_type(PaddingType::Zero)
        .build()
        .unwrap()
}

/// Seed a shard's pool with two content families from a per-shard RNG
/// stream, so shard `i` of a partitioned device has the same resident
/// content as a standalone device built with `seed_pool(mc, 100 + i)`.
fn seed_pool(mc: &mut MemoryController, stream: u64) {
    let mut rng = StdRng::seed_from_u64(stream);
    for i in 0..mc.num_segments() {
        let base = if i % 2 == 0 { 0x00u8 } else { 0xFF };
        let content: Vec<u8> = (0..SEG_BYTES)
            .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
            .collect();
        mc.seed(LogicalSegment(i), &content).unwrap();
    }
}

fn sharded(num_shards: usize, total_segments: usize) -> ShardedEngine {
    let dev_cfg = DeviceConfig::builder()
        .segment_bytes(SEG_BYTES)
        .num_segments(total_segments)
        .build()
        .unwrap();
    let controllers: Vec<MemoryController> = partition_controllers(&dev_cfg, num_shards)
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(i, (_, mut mc))| {
            seed_pool(&mut mc, 100 + i as u64);
            mc
        })
        .collect();
    ShardedEngine::train(controllers, &test_config()).unwrap()
}

/// Two-family values keyed by parity, so placement always has a close
/// cluster and neither cluster drains.
fn value_for(key: u64, tag: u8) -> Vec<u8> {
    let base = if key.is_multiple_of(2) { 0x00u8 } else { 0xFF };
    let mut v = vec![base; 24];
    v[0] = tag;
    v
}

#[test]
fn concurrent_disjoint_writers_read_their_own_writes() {
    let engine = sharded(4, 256);
    let threads: Vec<_> = (0..8u64)
        .map(|t| {
            let e = engine.clone();
            std::thread::spawn(move || {
                for i in 0..20u64 {
                    let key = t * 1000 + i;
                    e.put(key, &value_for(key, t as u8)).unwrap();
                    // Read-your-writes must hold per key regardless of
                    // which shard the key landed on.
                    assert_eq!(e.get(key).unwrap(), value_for(key, t as u8));
                    if i % 4 == 0 {
                        assert!(e.delete(key).unwrap());
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(engine.len(), 8 * 15);
    for t in 0..8u64 {
        for i in 0..20u64 {
            let key = t * 1000 + i;
            if i % 4 == 0 {
                assert!(engine.get(key).is_err());
            } else {
                assert_eq!(engine.get(key).unwrap(), value_for(key, t as u8));
            }
        }
    }
}

#[test]
fn concurrent_same_key_writes_stay_atomic() {
    // All threads hammer one key: every read must observe one of the
    // written values in full (the key's shard serialises the writes),
    // never a torn or stale-length value.
    let engine = sharded(4, 128);
    let key = 42u64;
    engine.put(key, &value_for(key, 0xEE)).unwrap();
    let threads: Vec<_> = (0..4u8)
        .map(|t| {
            let e = engine.clone();
            std::thread::spawn(move || {
                for _ in 0..15 {
                    e.put(key, &value_for(key, t)).unwrap();
                    let got = e.get(key).unwrap();
                    assert_eq!(got.len(), 24);
                    assert!(got[0] == 0xEE || got[0] < 4, "torn tag {}", got[0]);
                    assert!(got[1..].iter().all(|&b| b == 0x00), "torn body");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(engine.len(), 1);
    // Exactly one segment is held: updates recycled their predecessors.
    assert_eq!(engine.free_count(), 128 - 1);
}

#[test]
fn scan_merges_across_shards_in_key_order() {
    let engine = sharded(3, 192);
    let keys = [44u64, 2, 17, 90, 33, 8, 61, 25];
    for &k in &keys {
        engine.put(k, &value_for(k, 1)).unwrap();
    }
    let got: Vec<u64> = engine
        .scan(5, 70)
        .unwrap()
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    assert_eq!(got, vec![8, 17, 25, 33, 44, 61]);
}

#[test]
fn sharded_matches_shadow_map_under_mixed_ops() {
    let engine = sharded(4, 256);
    let mut shadow: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(9);
    for op in 0..500 {
        let key = rng.gen_range(0..48u64);
        match rng.gen_range(0..10) {
            0..=5 => {
                let v = value_for(key, rng.gen());
                engine.put(key, &v).unwrap();
                shadow.insert(key, v);
            }
            6..=7 => match shadow.get(&key) {
                Some(v) => assert_eq!(&engine.get(key).unwrap(), v, "op {op}"),
                None => assert!(engine.get(key).is_err(), "op {op}"),
            },
            8 => {
                assert_eq!(
                    engine.delete(key).unwrap(),
                    shadow.remove(&key).is_some(),
                    "op {op}"
                );
            }
            _ => {
                let lo = key.saturating_sub(10);
                let got: Vec<u64> = engine
                    .scan(lo, key)
                    .unwrap()
                    .into_iter()
                    .map(|(k, _)| k)
                    .collect();
                let expect: Vec<u64> = shadow.range(lo..=key).map(|(&k, _)| k).collect();
                assert_eq!(got, expect, "op {op}");
            }
        }
    }
    assert_eq!(engine.len(), shadow.len());
}

/// Build the single-engine twin of shard 0 of `sharded(num_shards, total)`:
/// same pool content, same config and seed, so placements are
/// bit-identical as long as no background retraining fires.
fn shard0_twin(num_shards: usize, total_segments: usize) -> E2Engine {
    let ranges = e2nvm::sim::partition_segments(total_segments, num_shards).unwrap();
    let dev_cfg = DeviceConfig::builder()
        .segment_bytes(SEG_BYTES)
        .num_segments(ranges[0].len)
        .build()
        .unwrap();
    let mut mc = MemoryController::without_wear_leveling(e2nvm::sim::NvmDevice::new(dev_cfg));
    seed_pool(&mut mc, 100);
    let mut engine = E2Engine::new(mc, test_config()).unwrap();
    engine.train().unwrap();
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole aggregation property: for a write sequence whose
    /// keys all route to shard 0, the ShardedEngine's *merged* stats
    /// (device counters and prediction counts summed over all shards)
    /// equal a standalone engine's stats for the same sequence.
    #[test]
    fn merged_shard_stats_equal_single_engine_stats(
        ops in proptest::collection::vec((0u8..10, 0u64..12, any::<u8>()), 1..36),
    ) {
        const SHARDS: usize = 4;
        const SEGMENTS: usize = 128;
        let sharded = sharded(SHARDS, SEGMENTS);
        let mut single = shard0_twin(SHARDS, SEGMENTS);

        // Map each abstract key to a concrete key that routes to shard 0
        // (probing is deterministic, so both sides see the same keys).
        let key_on_shard0 = |base: u64| -> u64 {
            (0..).map(|i| base + 12 * i).find(|&k| sharded.shard_for(k) == 0).unwrap()
        };

        for &(op, base, tag) in &ops {
            let key = key_on_shard0(base);
            if op < 7 {
                let v = value_for(key, tag);
                let a = sharded.put(key, &v).unwrap();
                let b = single.put(key, &v).unwrap();
                prop_assert_eq!(a.bits_flipped, b.bits_flipped);
                prop_assert_eq!(a.lines_written, b.lines_written);
            } else {
                prop_assert_eq!(sharded.delete(key).unwrap(), single.delete(key).unwrap());
            }
        }

        // Precondition for exactness: no background model swap happened
        // (retrain_min_free = 0 and two-family traffic keep every
        // cluster populated).
        prop_assert_eq!(sharded.model_swaps(), 0);

        prop_assert_eq!(sharded.device_stats(), single.device_stats().clone());
        prop_assert_eq!(
            sharded.prediction_stats().predictions,
            single.prediction_stats().predictions
        );
        prop_assert_eq!(sharded.len(), single.len());
        // Merged free count includes the untouched shards' pools.
        let other_free: usize = (1..SHARDS)
            .map(|i| sharded.with_shard_engine(i, |e| e.free_count()))
            .sum();
        prop_assert_eq!(sharded.free_count() - other_free, single.free_count());
    }
}
