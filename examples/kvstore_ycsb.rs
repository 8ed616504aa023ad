//! Run the YCSB core workloads against the E2-NVM key-value store
//! (ordered DRAM index + model-driven placement) and print per-workload
//! device statistics — a miniature of the paper's Figure 11 setup.
//!
//! ```text
//! cargo run --release --example kvstore_ycsb
//! ```

use e2nvm::core::{E2Config, E2Engine, ShardedEngine};
use e2nvm::kvstore::{NvmKvStore, ShardedE2KvStore};
use e2nvm::sim::{DeviceConfig, LogicalSegment, MemoryController, NvmDevice};
use e2nvm::workloads::{Operation, Ycsb};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEGMENT: usize = 128;
const SEGMENTS: usize = 256;
const RECORDS: u64 = 96;
const OPS: usize = 600;

/// Clusterable values: ten content classes, keyed deterministically.
fn value_for(key: u64, version: u32) -> Vec<u8> {
    let class = (key % 10) as u8;
    let mut state = key ^ u64::from(version) << 32;
    (0..SEGMENT)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (state >> 33).is_multiple_of(19) as u8 * (state >> 40) as u8;
            (class * 25).wrapping_add((i as u8) / 16) ^ noise
        })
        .collect()
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2023);
    println!("loading {RECORDS} records into an E2-NVM KV store...");
    let device = NvmDevice::new(
        DeviceConfig::builder()
            .segment_bytes(SEGMENT)
            .num_segments(SEGMENTS)
            .build()
            .expect("device config"),
    );
    let mut controller = MemoryController::without_wear_leveling(device);
    // Seed the pool with class-structured residue.
    for i in 0..SEGMENTS {
        let content = value_for(i as u64, rng.gen());
        controller.seed(LogicalSegment(i), &content).expect("seed");
    }
    let cfg = E2Config::builder()
        .fast(SEGMENT, 10)
        .pretrain_epochs(15)
        .joint_epochs(3)
        .build()
        .expect("config");
    let mut engine = E2Engine::new(controller, cfg).expect("engine");
    engine.train().expect("train");
    let mut store = ShardedE2KvStore::new(ShardedEngine::new(vec![engine]));
    for key in 0..RECORDS {
        store.put(key, &value_for(key, 0)).expect("load");
    }

    println!(
        "{:>9} {:>8} {:>12} {:>14} {:>12}",
        "workload", "writes", "flips/write", "energy/write", "reads"
    );
    for mut w in Ycsb::all(RECORDS, SEGMENT, 99) {
        store.reset_stats();
        let mut version = 1u32;
        for op in w.take_ops(OPS) {
            match op {
                Operation::Read(k) => {
                    let _ = store.get(k % RECORDS);
                }
                Operation::Update(k, _) | Operation::ReadModifyWrite(k, _) => {
                    version += 1;
                    let k = k % RECORDS;
                    store.put(k, &value_for(k, version)).expect("update");
                }
                Operation::Insert(k, _) => {
                    version += 1;
                    let k = k % (RECORDS * 2);
                    store.put(k, &value_for(k, version)).expect("insert");
                }
                Operation::Scan(k, len) => {
                    let lo = k % RECORDS;
                    let _ = store.scan(lo, lo.saturating_add(len as u64));
                }
            }
        }
        let s = store.stats();
        println!(
            "{:>9} {:>8} {:>12.1} {:>11.0} pJ {:>12}",
            w.name(),
            s.writes,
            s.flips_per_write(),
            s.energy_per_write_pj(),
            s.reads,
        );
    }
    println!("\ndone — write-heavy workloads (A, F) show the placement savings most clearly");
}
