//! Cross-crate integration: every NVM index structure driven by the
//! YCSB generator, bare and plugged into E2-NVM, through the umbrella
//! crate's public API.

use e2nvm::core::{E2Config, E2Engine, PaddingType, ShardedEngine};
use e2nvm::kvstore::{
    BPlusTree, DirectNodeStore, E2NodeStore, FpTree, NoveLsm, NvmKvStore, PathHashing,
    ShardedE2KvStore, WiscKey,
};
use e2nvm::sim::{DeviceConfig, LogicalSegment, MemoryController, NvmDevice};
use e2nvm::workloads::{DatasetKind, Operation, Ycsb};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEGMENT: usize = 128;
const SEGMENTS: usize = 256;
const RECORDS: u64 = 48;

fn device() -> NvmDevice {
    NvmDevice::new(
        DeviceConfig::builder()
            .segment_bytes(SEGMENT)
            .num_segments(SEGMENTS)
            .build()
            .unwrap(),
    )
}

fn direct_store() -> DirectNodeStore {
    DirectNodeStore::new(MemoryController::without_wear_leveling(device()))
}

fn e2_store() -> E2NodeStore {
    let mut controller = MemoryController::without_wear_leveling(device());
    let mut rng = StdRng::seed_from_u64(41);
    let residents = DatasetKind::MnistLike.generate_sized(SEGMENTS, SEGMENT, &mut rng);
    for (i, r) in residents.iter().enumerate() {
        controller.seed(LogicalSegment(i), r).unwrap();
    }
    let cfg = E2Config::builder()
        .fast(SEGMENT, 4)
        .pretrain_epochs(5)
        .joint_epochs(1)
        .padding_type(PaddingType::Zero)
        .build()
        .unwrap();
    let mut engine = E2Engine::new(controller, cfg).unwrap();
    engine.train().unwrap();
    E2NodeStore::new(engine)
}

/// Run a YCSB-A-shaped keyed workload against a store and check every
/// read against a shadow map.
fn drive_ycsb(store: &mut dyn NvmKvStore, seed: u64) {
    let mut workload = Ycsb::a(RECORDS, 24, seed);
    let mut shadow = std::collections::HashMap::new();
    // Load phase.
    let keys: Vec<u64> = workload.load_keys().collect();
    let mut version = 0u32;
    for &key in &keys {
        let value = workload.value_for(key, version);
        store.put(key, &value).unwrap();
        shadow.insert(key, value);
    }
    // Run phase.
    for op in workload.take_ops(300) {
        match op {
            Operation::Read(key) => {
                assert_eq!(
                    store.get(key).unwrap().as_ref(),
                    shadow.get(&key),
                    "{}: read {key}",
                    store.name()
                );
            }
            Operation::Update(key, _) => {
                version += 1;
                let value = workload.value_for(key, version);
                store.put(key, &value).unwrap();
                shadow.insert(key, value);
            }
            _ => unreachable!("workload A is read/update only"),
        }
    }
    assert!(store.stats().bits_flipped > 0);
}

#[test]
fn all_structures_survive_ycsb_direct() {
    let mut stores: Vec<Box<dyn NvmKvStore>> = vec![
        Box::new(BPlusTree::new(direct_store())),
        Box::new(FpTree::new(direct_store(), 24)),
        Box::new(PathHashing::new(direct_store(), 256, 4, 24).unwrap()),
        Box::new(WiscKey::new(direct_store())),
        Box::new(NoveLsm::new(direct_store(), 4)),
    ];
    for (i, store) in stores.iter_mut().enumerate() {
        drive_ycsb(store.as_mut(), 100 + i as u64);
    }
}

#[test]
fn all_structures_survive_ycsb_plugged_into_e2() {
    let mut stores: Vec<Box<dyn NvmKvStore>> = vec![
        Box::new(BPlusTree::new(e2_store())),
        Box::new(FpTree::new(e2_store(), 24)),
        Box::new(PathHashing::new(e2_store(), 128, 3, 24).unwrap()),
        Box::new(WiscKey::new(e2_store())),
        Box::new(NoveLsm::new(e2_store(), 4)),
    ];
    for (i, store) in stores.iter_mut().enumerate() {
        drive_ycsb(store.as_mut(), 200 + i as u64);
        // Maintenance (model retraining) keeps the store consistent.
        store.maintenance();
        let key = e2nvm::workloads::scramble(3);
        let probe: Vec<u8> = (0..24).map(|b| b as u8).collect();
        store.put(key, &probe).unwrap();
        assert_eq!(store.get(key).unwrap().unwrap(), probe);
    }
}

/// Small values take one segment each: every put is one device write
/// and one free segment, and overwriting a key hands its old segment
/// back, so the pool neither leaks nor shares a segment between keys.
#[test]
fn small_values_take_one_segment_each() {
    let mut controller = MemoryController::without_wear_leveling(device());
    let mut rng = StdRng::seed_from_u64(5);
    let residents = DatasetKind::PubMed.generate_sized(SEGMENTS, SEGMENT, &mut rng);
    for (i, r) in residents.iter().enumerate() {
        controller.seed(LogicalSegment(i), r).unwrap();
    }
    let cfg = E2Config::builder()
        .fast(SEGMENT, 4)
        .pretrain_epochs(5)
        .joint_epochs(1)
        .padding_type(PaddingType::Zero)
        .build()
        .unwrap();
    let mut engine = E2Engine::new(controller, cfg).unwrap();
    engine.train().unwrap();

    let small_values: Vec<Vec<u8>> = (0..64)
        .map(|i| (0..20).map(|b| (i * 7 + b) as u8).collect())
        .collect();
    let free_before = engine.free_count();
    for (key, v) in small_values.iter().enumerate() {
        engine.put(key as u64, v).unwrap();
    }
    assert_eq!(engine.device_stats().writes, 64);
    assert_eq!(engine.free_count(), free_before - 64);
    for (key, v) in small_values.iter().enumerate() {
        assert_eq!(&engine.get(key as u64).unwrap(), v, "key {key}");
    }
    // Overwrites recycle the old segment: the pool size holds.
    for (key, v) in small_values.iter().enumerate().take(16) {
        let fresh: Vec<u8> = v.iter().map(|b| b ^ 0xff).collect();
        engine.put(key as u64, &fresh).unwrap();
        assert_eq!(engine.get(key as u64).unwrap(), fresh, "key {key}");
    }
    assert_eq!(engine.free_count(), free_before - 64);
    assert_eq!(engine.len(), 64);
}

/// A store driven by values from each dataset generator round-trips.
#[test]
fn datasets_roundtrip_through_e2_kv() {
    let mut controller = MemoryController::without_wear_leveling(device());
    let mut rng = StdRng::seed_from_u64(17);
    let residents = DatasetKind::CifarLike.generate_sized(SEGMENTS, SEGMENT, &mut rng);
    for (i, r) in residents.iter().enumerate() {
        controller.seed(LogicalSegment(i), r).unwrap();
    }
    let cfg = E2Config::builder()
        .fast(SEGMENT, 4)
        .pretrain_epochs(5)
        .joint_epochs(1)
        .padding_type(PaddingType::Zero)
        .build()
        .unwrap();
    let mut engine = E2Engine::new(controller, cfg).unwrap();
    engine.train().unwrap();
    let mut store = ShardedE2KvStore::new(ShardedEngine::new(vec![engine]));

    let mut key = 0u64;
    for kind in DatasetKind::ALL {
        let len = rng.gen_range(16..SEGMENT);
        for item in kind.generate_sized(4, len, &mut rng) {
            store.put(key, &item).unwrap();
            assert_eq!(store.get(key).unwrap().unwrap(), item, "{}", kind.name());
            key += 1;
        }
    }
    assert_eq!(store.len(), 7 * 4);
}
