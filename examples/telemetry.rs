//! Telemetry tour: attach a registry to a sharded KV store, run a small
//! workload, and render the metrics as Prometheus text exposition and a
//! JSON snapshot.
//!
//! ```text
//! cargo run --release --example telemetry
//! ```
//!
//! The CI smoke step runs this example and checks the exposition for
//! the expected metric families, so the printed sections double as the
//! format contract.

use e2nvm::prelude::*;
use e2nvm::sim::partition_controllers;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEG_BYTES: usize = 64;

fn main() {
    // A 4-shard store over a 256-segment pool, seeded with two content
    // families so the placement model has structure to learn.
    let dev_cfg = DeviceConfig::builder()
        .segment_bytes(SEG_BYTES)
        .num_segments(256)
        .build()
        .expect("device config");
    let mut rng = StdRng::seed_from_u64(11);
    let controllers: Vec<MemoryController> = partition_controllers(&dev_cfg, 4)
        .expect("partition")
        .into_iter()
        .map(|(_, mut mc)| {
            for i in 0..mc.num_segments() {
                let base: u8 = if i % 2 == 0 { 0x00 } else { 0xFF };
                let content: Vec<u8> = (0..SEG_BYTES)
                    .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
                    .collect();
                mc.seed(LogicalSegment(i), &content).expect("seed");
            }
            mc
        })
        .collect();
    let cfg = E2Config::builder()
        .fast(SEG_BYTES, 2)
        .padding_type(PaddingType::Zero)
        .build()
        .expect("config");
    let engine = ShardedEngine::train(controllers, &cfg).expect("train");
    let mut store = ShardedE2KvStore::new(engine);

    // One registry observes everything: KV ops, per-shard engine
    // placement, and per-shard device accounting.
    let registry = TelemetryRegistry::new();
    store.attach_telemetry(&registry);

    // A small mixed workload.
    for i in 0..120u64 {
        let base = if i % 2 == 0 { 0x00u8 } else { 0xFF };
        let mut v = vec![base; 48];
        v[0] = i as u8;
        store.put(i % 40, &v).expect("put");
        if i % 3 == 0 {
            let _ = store.get(i % 40).expect("get");
        }
        if i % 10 == 9 {
            let _ = store.delete(i % 40).expect("delete");
        }
    }
    let _ = store.scan(0, 20).expect("scan");
    store.maintenance();

    println!("\n=== Prometheus exposition ===");
    print!("{}", registry.render_prometheus());

    println!("\n=== JSON snapshot ===");
    println!("{}", registry.snapshot_json());
}
