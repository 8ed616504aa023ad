//! Observational-equivalence property test for the read-through cache:
//! a [`CachedKvStore`] wrapping a one-shard [`ShardedE2KvStore`] must be
//! indistinguishable from the bare store under any interleaving of
//! puts, gets, deletes and scans — including when the
//! cache budget is tiny enough that the CLOCK hand evicts constantly.
//!
//! The two twins are built from identical seeds, so even their error
//! behaviour (e.g. out-of-space under an overfilled pool) must match
//! exactly, not just their happy paths.

use e2nvm_core::{E2Config, E2Engine, ShardedEngine};
use e2nvm_kvstore::{CacheConfig, CachedKvStore, NvmKvStore, ShardedE2KvStore};
use e2nvm_sim::{DeviceConfig, LogicalSegment, MemoryController, NvmDevice};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One logical store operation, as generated traffic.
#[derive(Debug, Clone)]
enum Op {
    Put(u64, Vec<u8>),
    Get(u64),
    Delete(u64),
    Scan(u64, u64),
    ScanLimit(u64, u64, usize),
}

/// Keys from a small universe (so gets hit, deletes race with fills,
/// and the cache keeps churning the same shard slots) and short values
/// (so the tiny store geometry below doesn't just fill up instantly).
fn arb_op() -> impl Strategy<Value = Op> {
    let value = || proptest::collection::vec(any::<u8>(), 0..24);
    prop_oneof![
        (0u64..12, value()).prop_map(|(k, v)| Op::Put(k, v)),
        (0u64..12).prop_map(Op::Get),
        (0u64..12).prop_map(Op::Delete),
        (0u64..12, 0u64..12).prop_map(|(lo, hi)| Op::Scan(lo.min(hi), lo.max(hi))),
        (0u64..12, 0u64..12, 0usize..4).prop_map(|(lo, hi, limit)| Op::ScanLimit(
            lo.min(hi),
            lo.max(hi),
            limit
        )),
    ]
}

/// A small trained E2 store; every call with the same arguments builds
/// an identical twin (seeded device content, seeded engine).
fn twin_store(segments: usize, seg_bytes: usize) -> ShardedE2KvStore {
    let dev = NvmDevice::new(
        DeviceConfig::builder()
            .segment_bytes(seg_bytes)
            .num_segments(segments)
            .build()
            .unwrap(),
    );
    let cfg = E2Config::builder()
        .fast(seg_bytes, 2)
        .pretrain_epochs(4)
        .joint_epochs(1)
        .padding_type(e2nvm_core::PaddingType::Zero)
        .build()
        .unwrap();
    let mut engine = E2Engine::new(MemoryController::without_wear_leveling(dev), cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(23);
    for i in 0..segments {
        let base = if i % 2 == 0 { 0x00u8 } else { 0xFF };
        let content: Vec<u8> = (0..seg_bytes)
            .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
            .collect();
        engine
            .controller_mut()
            .seed(LogicalSegment(i), &content)
            .unwrap();
    }
    engine.train().unwrap();
    ShardedE2KvStore::new(ShardedEngine::new(vec![engine]))
}

/// Errors compared by display text: the twins run identical engines,
/// so even failure *messages* must line up.
fn show<T: std::fmt::Debug>(r: Result<T, e2nvm_kvstore::StoreError>) -> String {
    match r {
        Ok(v) => format!("Ok({v:?})"),
        Err(e) => format!("Err({e})"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every operation's result — values, not-found, and errors alike —
    /// is identical with and without the cache in front, and so is the
    /// final full-range scan of surviving state.
    #[test]
    fn cached_store_is_observationally_equivalent(
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        let mut bare = twin_store(24, 64);
        // 256 bytes over 2 shards: with ~48 B of bookkeeping per entry
        // the budget holds only a couple of values per shard, so any
        // sustained traffic forces CLOCK evictions.
        let cache_cfg = CacheConfig::builder()
            .capacity_bytes(256)
            .shards(2)
            .build()
            .unwrap();
        let mut cached = CachedKvStore::new(twin_store(24, 64), cache_cfg);

        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Put(key, value) => {
                    prop_assert_eq!(
                        show(bare.put(*key, value)),
                        show(cached.put(*key, value)),
                        "put #{} diverged", i
                    );
                }
                Op::Get(key) => {
                    prop_assert_eq!(
                        show(bare.get(*key)),
                        show(cached.get(*key)),
                        "get #{} diverged", i
                    );
                }
                Op::Delete(key) => {
                    prop_assert_eq!(
                        show(bare.delete(*key)),
                        show(cached.delete(*key)),
                        "delete #{} diverged", i
                    );
                }
                Op::Scan(lo, hi) => {
                    prop_assert_eq!(
                        show(bare.scan(*lo, *hi)),
                        show(cached.scan(*lo, *hi)),
                        "scan #{} diverged", i
                    );
                }
                Op::ScanLimit(lo, hi, limit) => {
                    prop_assert_eq!(
                        show(bare.scan_limit(*lo, *hi, *limit)),
                        show(cached.scan_limit(*lo, *hi, *limit)),
                        "scan_limit #{} diverged", i
                    );
                }
            }
        }

        // Final state: everything still present reads back the same
        // through both fronts.
        prop_assert_eq!(show(bare.scan(0, u64::MAX)), show(cached.scan(0, u64::MAX)));
        prop_assert_eq!(bare.len(), cached.inner().len());
    }
}
