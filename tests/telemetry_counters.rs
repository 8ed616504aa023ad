//! The telemetry exactness property: the device counter families a
//! scrape reads through the source `attach_telemetry` registers are
//! the device ledger itself, so after *any* CRUD sequence the counter
//! totals equal the stats snapshot field-for-field (integer fields,
//! and per shard the `f64` energy and latency totals bit for bit) — on
//! a one-shard engine and, summed across per-shard label sets, on a
//! sharded engine against its merged stats.

use e2nvm::prelude::*;
use e2nvm::sim::partition_controllers;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEG_BYTES: usize = 32;

fn test_config() -> E2Config {
    E2Config::builder()
        .fast(SEG_BYTES, 2)
        .pretrain_epochs(4)
        .joint_epochs(1)
        .retrain_min_free(0)
        .padding_type(PaddingType::Zero)
        .build()
        .unwrap()
}

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

fn single_engine(segments: usize) -> E2Engine {
    let dev_cfg = DeviceConfig::builder()
        .segment_bytes(SEG_BYTES)
        .num_segments(segments)
        .build()
        .unwrap();
    let mut mc = MemoryController::without_wear_leveling(NvmDevice::new(dev_cfg));
    seed_pool(&mut mc, 7);
    let mut engine = E2Engine::new(mc, test_config()).unwrap();
    engine.train().unwrap();
    engine
}

fn sharded_engine(num_shards: usize, total_segments: usize) -> ShardedEngine {
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

fn value_for(key: u64, tag: u8) -> Vec<u8> {
    let base = if key % 2 == 0 { 0x00u8 } else { 0xFF };
    let mut v = vec![base; 24];
    v[0] = tag;
    v
}

/// Assert every integer `DeviceStats` field equals its counter family's
/// total on `registry` (summed over all label sets).
fn assert_counters_match(
    registry: &TelemetryRegistry,
    stats: &DeviceStats,
) -> Result<(), TestCaseError> {
    let fields: [(&str, u64); 10] = [
        ("e2nvm_device_writes_total", stats.writes),
        ("e2nvm_device_reads_total", stats.reads),
        ("e2nvm_device_swaps_total", stats.swaps),
        ("e2nvm_device_lines_written_total", stats.lines_written),
        ("e2nvm_device_lines_skipped_total", stats.lines_skipped),
        ("e2nvm_device_bits_flipped_total", stats.bits_flipped),
        ("e2nvm_device_bits_set_total", stats.bits_set),
        ("e2nvm_device_bits_reset_total", stats.bits_reset),
        ("e2nvm_device_bits_programmed_total", stats.bits_programmed),
        ("e2nvm_device_bits_requested_total", stats.bits_requested),
    ];
    for (name, expect) in fields {
        prop_assert_eq!(registry.counter_total(name), expect, "family {}", name);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn single_engine_counters_equal_device_stats(
        ops in proptest::collection::vec((0u8..10, 0u64..24, any::<u8>()), 1..48),
    ) {
        let engine = ShardedEngine::new(vec![single_engine(96)]);
        let registry = TelemetryRegistry::new();
        engine.attach_telemetry(&registry);
        for &(op, key, tag) in &ops {
            match op {
                0..=6 => { let _ = engine.put(key, &value_for(key, tag)); }
                7..=8 => { let _ = engine.get(key); }
                _ => { let _ = engine.delete(key); }
            }
        }
        let stats = engine.device_stats();
        prop_assert!(stats.writes > 0);
        assert_counters_match(&registry, &stats)?;
    }

    #[test]
    fn sharded_engine_counters_equal_merged_stats(
        ops in proptest::collection::vec((0u8..10, 0u64..48, any::<u8>()), 1..64),
    ) {
        let engine = sharded_engine(4, 192);
        let registry = TelemetryRegistry::new();
        engine.attach_telemetry(&registry);
        for &(op, key, tag) in &ops {
            match op {
                0..=6 => { let _ = engine.put(key, &value_for(key, tag)); }
                7..=8 => { let _ = engine.get(key); }
                _ => { let _ = engine.delete(key); }
            }
        }
        // Merged stats across all shards must equal the label-summed
        // counter families exactly.
        let stats = engine.device_stats();
        prop_assert!(stats.writes > 0);
        assert_counters_match(&registry, &stats)?;
    }
}

#[test]
fn counters_survive_stats_reset() {
    // Telemetry counters are monotonic: resetting the device stats must
    // not zero them — the two agree only while no reset intervenes.
    let engine = ShardedEngine::new(vec![single_engine(64)]);
    let registry = TelemetryRegistry::new();
    engine.attach_telemetry(&registry);
    engine.put(1, &value_for(1, 9)).unwrap();
    let writes_before = registry.counter_total("e2nvm_device_writes_total");
    assert!(writes_before > 0);
    engine.reset_device_stats();
    assert_eq!(
        registry.counter_total("e2nvm_device_writes_total"),
        writes_before
    );
    assert_eq!(engine.device_stats().writes, 0);
}

#[test]
fn energy_and_latency_totals_equal_each_shards_ledger_bit_for_bit() {
    let engine = sharded_engine(4, 192);
    let registry = TelemetryRegistry::new();
    engine.attach_telemetry(&registry);
    for key in 0..48u64 {
        engine.put(key, &value_for(key, key as u8)).unwrap();
        if key % 3 == 0 {
            engine.get(key / 2).unwrap();
        }
    }
    let text = registry.render_prometheus();
    for shard in 0..engine.num_shards() {
        let s = engine.with_shard_engine(shard, |e| e.device_stats().clone());
        assert!(s.energy_pj > 0.0 && s.latency_ns > 0.0);
        for (family, value) in [("energy_pj", s.energy_pj), ("latency_ns", s.latency_ns)] {
            let series = format!("e2nvm_device_{family}_total{{shard=\"{shard}\"}} ");
            let parsed = text.lines().find_map(|l| l.strip_prefix(series.as_str()));
            let bits = parsed.map(|v| v.parse::<f64>().unwrap().to_bits());
            assert_eq!(bits, Some(value.to_bits()), "{series}\n{text}");
        }
    }
}
