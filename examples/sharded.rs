//! Sharded serving in a few lines: partition a device into four shards,
//! train one placement engine per shard, and serve hash-routed traffic
//! from multiple threads.
//!
//! ```text
//! cargo run --release --example sharded
//! ```

use e2nvm::core::{E2Config, PaddingType, ShardedEngine};
use e2nvm::sim::{partition_controllers, DeviceConfig, LogicalSegment};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    const SHARDS: usize = 4;
    const SEG_BYTES: usize = 64;

    // One global device config, partitioned into disjoint segment
    // ranges; each shard gets its own controller and device accounting.
    let dev_cfg = DeviceConfig::builder()
        .segment_bytes(SEG_BYTES)
        .num_segments(256)
        .build()
        .expect("valid device config");

    // Seed every shard's pool with two content families so the models
    // have structure to learn.
    let mut rng = StdRng::seed_from_u64(7);
    let controllers: Vec<_> = partition_controllers(&dev_cfg, SHARDS)
        .expect("partition")
        .into_iter()
        .map(|(range, mut mc)| {
            for i in 0..mc.num_segments() {
                let base: u8 = if i % 2 == 0 { 0x11 } else { 0xEE };
                let content: Vec<u8> = (0..SEG_BYTES)
                    .map(|_| if rng.gen::<f32>() < 0.06 { !base } else { base })
                    .collect();
                mc.seed(LogicalSegment(i), &content).expect("seed");
            }
            println!(
                "shard over global segments {}..{} ready",
                range.start,
                range.end()
            );
            mc
        })
        .collect();

    // Train one engine per shard (each with its own placement model,
    // address pool, and background retrainer).
    let cfg = E2Config::builder()
        .fast(SEG_BYTES, 2)
        .padding_type(PaddingType::Zero)
        .build()
        .expect("config");
    println!("training {SHARDS} shard models...");
    let engine = ShardedEngine::train(controllers, &cfg).expect("train");

    // Serve from four threads; keys route to shards by hash, so
    // operations on different shards share no locks.
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            let engine = engine.clone();
            std::thread::spawn(move || {
                for i in 0..32u64 {
                    let key = t * 1000 + i;
                    engine.put(key, &key.to_le_bytes()).expect("put");
                    assert_eq!(engine.get(key).expect("get"), key.to_le_bytes());
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("worker");
    }

    let stats = engine.device_stats();
    println!(
        "\n{} keys across {} shards; {} writes, {:.1} flips/write, {:.1} pJ/write",
        engine.len(),
        engine.num_shards(),
        stats.writes,
        stats.flips_per_write(),
        stats.energy_per_write_pj(),
    );
    let sample = engine.scan(0, 5).expect("scan");
    println!(
        "scan [0,5] -> keys {:?}",
        sample.iter().map(|(k, _)| *k).collect::<Vec<_>>()
    );
}
