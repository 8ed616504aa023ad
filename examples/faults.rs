//! Fault injection and graceful degradation, end to end: a sharded KV
//! store over a device with seeded Weibull endurance limits and
//! transient write failures. Segments wear out mid-workload and are
//! permanently retired; capacity shrinks, but no stored value is ever
//! lost — and when the pool finally runs dry the store reports
//! degraded mode instead of corrupting anything.
//!
//! ```text
//! cargo run --release --example faults
//! ```

use e2nvm::core::{E2Config, PaddingType, ShardedEngine};
use e2nvm::kvstore::{NvmKvStore, ShardedE2KvStore, StoreError};
use e2nvm::sim::{partition_controllers, DeviceConfig, FaultConfig, LogicalSegment};
use e2nvm::telemetry::{Event, TelemetryRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

fn main() {
    const SHARDS: usize = 2;
    const SEG_BYTES: usize = 64;
    const SEGMENTS: usize = 64;

    // A device whose segments carry seeded per-segment endurance limits
    // (Weibull around 6000 programmed bits) and a 5% transient write
    // failure rate. Same seed -> same limits, every run.
    let dev_cfg = DeviceConfig::builder()
        .segment_bytes(SEG_BYTES)
        .num_segments(SEGMENTS)
        .fault(FaultConfig {
            seed: 0xFA_17,
            endurance_bits: 6_000,
            endurance_shape: 3.0,
            transient_rate: 0.05,
        })
        .build()
        .expect("valid device config");

    let mut rng = StdRng::seed_from_u64(11);
    let controllers: Vec<_> = partition_controllers(&dev_cfg, SHARDS)
        .expect("partition")
        .into_iter()
        .map(|(_, mut mc)| {
            for i in 0..mc.num_segments() {
                let base: u8 = if i % 2 == 0 { 0x11 } else { 0xEE };
                let content: Vec<u8> = (0..SEG_BYTES)
                    .map(|_| if rng.gen::<f32>() < 0.06 { !base } else { base })
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
    println!("training {SHARDS} shard models over a fault-injecting device...");
    let mut store = ShardedE2KvStore::new(ShardedEngine::train(controllers, &cfg).expect("train"));
    let registry = TelemetryRegistry::new();
    store.attach_telemetry(&registry);

    // Phase 1: serve a write-heavy workload while segments die under
    // it. Every value is mirrored into a shadow map and read back.
    println!("\n-- phase 1: workload under wear --");
    let mut shadow: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut degraded: Option<StoreError> = None;
    let mut writes = 0usize;
    loop {
        let key = rng.gen_range(0..24u64);
        let value: Vec<u8> = (0..60).map(|_| rng.gen()).collect();
        match store.put(key, &value) {
            Ok(()) => {
                shadow.insert(key, value);
                writes += 1;
            }
            Err(e) => {
                // Phase 2: the pool ran dry — degraded mode.
                degraded = Some(e);
                break;
            }
        }
        if writes.is_multiple_of(400) {
            println!(
                "  {writes:>5} writes served, {} of {SEGMENTS} segments retired",
                store.retired_count()
            );
        }
        if writes >= 20_000 {
            break;
        }
    }

    println!("\n-- phase 2: degraded mode --");
    match &degraded {
        Some(e @ StoreError::Degraded { retired }) => {
            println!("  after {writes} writes: {e}");
            assert!(*retired >= 1, "degraded mode implies retirements");
        }
        Some(e) => panic!("unexpected error: {e}"),
        None => println!("  write budget exhausted before depletion (endurance too generous)"),
    }

    // Phase 3: audit. Every value the store accepted must read back
    // byte-for-byte, retirements notwithstanding.
    println!("\n-- phase 3: audit --");
    for (key, value) in &shadow {
        let got = store.get(*key).expect("get in degraded mode still works");
        assert_eq!(got.as_deref(), Some(value.as_slice()), "key {key} lost");
    }
    println!(
        "  {} surviving keys intact after {} retirements; zero lost values",
        shadow.len(),
        store.retired_count()
    );

    let retire_events = registry
        .journal()
        .snapshot()
        .iter()
        .filter(|e| matches!(e.event, Event::SegmentRetired { .. }))
        .count();
    println!("  telemetry journal recorded {retire_events} segment_retired event(s)");
    assert!(
        store.retired_count() >= 1,
        "expected at least one retirement"
    );
    println!("\ngraceful degradation tour complete");
}
