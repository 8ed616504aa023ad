//! Figures 12 and 16: index structures plugged into E2-NVM, and the
//! energy time series across training/writing/retraining phases.

use crate::systems::seeded_device;
use crate::table::{fmt, Table};
use crate::Scale;
use e2nvm_core::E2Engine;
use e2nvm_kvstore::{
    BPlusTree, DirectNodeStore, E2NodeStore, FpTree, NodeStore, NoveLsm, NvmKvStore, PathHashing,
    WiscKey,
};
use e2nvm_sim::{EnergyCategory, EnergyMeter, MemoryController, WearTracking};
use e2nvm_workloads::{DatasetKind, Zipfian};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn direct_store(dev: e2nvm_sim::NvmDevice) -> DirectNodeStore {
    DirectNodeStore::new(MemoryController::without_wear_leveling(dev))
}

fn e2_store(dev: e2nvm_sim::NvmDevice, k: usize) -> E2NodeStore {
    let seg = dev.config().segment_bytes;
    let mut engine = E2Engine::new(
        MemoryController::without_wear_leveling(dev),
        crate::systems::E2System::quick_config(seg, k),
    )
    .expect("engine");
    engine.train().expect("train");
    E2NodeStore::new(engine)
}

/// Drive one KV structure with an insert/delete **churn** workload of
/// clusterable values (a rolling key window, scrambled key order) plus
/// zipfian updates; return flips per written data bit measured over the
/// second half (after a maintenance pass — the paper retrains lazily in
/// the background).
///
/// Churn is what separates the structures: random-position inserts make
/// the sorted B+-tree leaf shift its tail, while slot/append structures
/// write a single cell or record.
fn run_structure(store: &mut dyn NvmKvStore, keys: u64, ops: usize, value_len: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(0x000F_1612);
    let zipf = Zipfian::new(keys as usize);
    let values = DatasetKind::MnistLike.generate_sized(64, value_len, &mut rng);
    let scrambled = e2nvm_workloads::scramble;
    // Logical bits written per put: key + value (the paper's "1 data
    // bit" denominator — device traffic like full-leaf rewrites is the
    // *numerator*'s business).
    let logical_bits_per_put = ((8 + value_len) * 8) as u64;
    // Load a rolling window of keys. Fixed-capacity structures (path
    // hashing) may refuse some keys when a hash path fills; skip them —
    // later deletes of never-inserted keys are harmless no-ops.
    let (mut lo, mut hi) = (0u64, keys);
    for key in lo..hi {
        let v = &values[(key as usize) % values.len()];
        let _ = store.put(scrambled(key) >> 8, v);
    }
    let mut logical_bits = 0u64;
    let mut churn =
        |store: &mut dyn NvmKvStore, ops: usize, rng: &mut StdRng, logical_bits: &mut u64| {
            for i in 0..ops {
                match rng.gen_range(0..10) {
                    // 40% insert a new key (random position in key space).
                    // Structures with fixed capacity (path hashing) may
                    // refuse when a path fills; skip those inserts.
                    0..=3 => {
                        let v = &values[(hi as usize) % values.len()];
                        if store.put(scrambled(hi) >> 8, v).is_ok() {
                            *logical_bits += logical_bits_per_put;
                            hi += 1;
                        }
                    }
                    // 30% delete the oldest live key.
                    4..=6 if hi - lo > keys / 2 => {
                        let _ = store.delete(scrambled(lo) >> 8);
                        lo += 1;
                    }
                    // 30% update a random live key.
                    _ => {
                        let span = (hi - lo).max(1);
                        let key = lo + (zipf.sample(rng) as u64) % span;
                        let v = &values[(i + key as usize) % values.len()];
                        if store.put(scrambled(key) >> 8, v).is_ok() {
                            *logical_bits += logical_bits_per_put;
                        }
                    }
                }
            }
        };
    // Warm half: fills the free pool with recycled node images.
    churn(store, ops / 2, &mut rng, &mut logical_bits);
    // Lazy retraining (no-op for the direct store).
    store.maintenance();
    store.reset_stats();
    logical_bits = 0;
    // Measured half.
    churn(store, ops - ops / 2, &mut rng, &mut logical_bits);
    store.stats().bits_flipped as f64 / logical_bits.max(1) as f64
}

/// Figure 12: bit updates per written data bit for each NVM structure,
/// bare (direct placement) vs plugged into E2-NVM (content-aware
/// copy-on-write placement of node images).
pub fn fig12(scale: Scale) -> Table {
    // Values sized close to the segment, matching the paper's system
    // model where a memory segment holds one data item — so every
    // structural write is a whole-segment placement decision.
    let segment_bytes = 128;
    let num_segments = scale.pick(256, 512);
    let keys = scale.pick(48u64, 96);
    let ops = scale.pick(512, 1280);
    let value_len = 40;
    let k = 8;
    let mut rng = StdRng::seed_from_u64(0x000F_1612 ^ 7);
    // Seed the device with value-like content so the placement model has
    // realistic residents (stands in for a previously used pool).
    let old = DatasetKind::MnistLike.generate_sized(num_segments, segment_bytes, &mut rng);

    let mut table = Table::new(
        "fig12",
        "bit updates per written data bit: bare vs plugged into E2-NVM",
        &["structure", "direct", "e2_plugged", "improvement_pct"],
    );

    type Maker = Box<dyn Fn(Box<dyn NodeStore>) -> Box<dyn NvmKvStore>>;
    let makers: Vec<(&str, Maker)> = vec![
        (
            "B+-Tree",
            Box::new(|s: Box<dyn NodeStore>| Box::new(BPlusTree::new(s)) as Box<dyn NvmKvStore>),
        ),
        (
            "WiscKey",
            Box::new(|s: Box<dyn NodeStore>| Box::new(WiscKey::new(s)) as Box<dyn NvmKvStore>),
        ),
        (
            "Path Hashing",
            Box::new(move |s: Box<dyn NodeStore>| {
                Box::new(PathHashing::new(s, 128, 3, value_len).expect("path hashing"))
                    as Box<dyn NvmKvStore>
            }),
        ),
        (
            "FP-Tree",
            Box::new(move |s: Box<dyn NodeStore>| {
                Box::new(FpTree::new(s, value_len)) as Box<dyn NvmKvStore>
            }),
        ),
        (
            "NoveLSM",
            Box::new(|s: Box<dyn NodeStore>| Box::new(NoveLsm::new(s, 4)) as Box<dyn NvmKvStore>),
        ),
    ];

    for (name, make) in makers {
        let dev = seeded_device(segment_bytes, num_segments, WearTracking::None, &old);
        let mut direct = make(Box::new(direct_store(dev.clone())));
        let direct_ratio = run_structure(direct.as_mut(), keys, ops, value_len);
        let mut plugged = make(Box::new(e2_store(dev, k)));
        let e2_ratio = run_structure(plugged.as_mut(), keys, ops, value_len);
        let improvement = (1.0 - e2_ratio / direct_ratio) * 100.0;
        table.row(vec![
            name.to_string(),
            fmt(direct_ratio),
            fmt(e2_ratio),
            fmt(improvement),
        ]);
    }
    table.note("paper Fig 12: bare B+-Tree is worst (sorted-leaf shifting); plugging into E2-NVM improves every structure (up to 91%)");
    table
}

/// Figure 16: cumulative package energy over time for E2-NVM going
/// through train → write ×5 → retrain → write ×4 phases, vs a
/// wear-leveling-only baseline on the same stream (ImageNet-like).
pub fn fig16(scale: Scale) -> Table {
    let segment_bytes = 128;
    let num_segments = scale.pick(128, 256);
    let rounds_before = 5usize;
    let rounds_after = 4usize;
    let writes_per_round = num_segments / 2;
    let mut rng = StdRng::seed_from_u64(0x000F_1616);
    let old = DatasetKind::ImagenetLike.generate_sized(num_segments, segment_bytes, &mut rng);
    let stream_items = DatasetKind::ImagenetLike.generate_sized(
        (rounds_before + rounds_after) * writes_per_round,
        segment_bytes,
        &mut rng,
    );

    // --- E2-NVM system with an energy meter ---
    let dev = seeded_device(segment_bytes, num_segments, WearTracking::None, &old);
    let mut e2 = crate::systems::E2System::new(
        dev.clone(),
        crate::systems::E2System::quick_config(segment_bytes, 8),
        0.5,
    )
    .expect("e2 system");
    let mut meter = EnergyMeter::new();
    let energy_params = dev.config().energy.clone();
    // Phase 1: initial training (CPU energy + wall time as sim time).
    let train_time = e2.train_time();
    let train_macs = {
        let engine = e2.engine_mut();
        let model = engine.model().expect("trained");
        let epochs = (engine.config().pretrain_epochs + engine.config().joint_epochs) as u64;
        model.train_macs_per_epoch(num_segments.min(engine.config().train_sample_cap)) * epochs
    };
    meter.record(
        EnergyCategory::CpuTrain,
        energy_params.cpu_energy_pj(train_macs),
        train_time.as_nanos() as f64,
    );

    // --- Wear-leveling-only baseline (DCW behind random swap) ---
    let mut wl = crate::systems::InPlaceSystem::new(
        Box::new(e2nvm_baselines::Dcw),
        MemoryController::with_random_swap(dev, 20, 0xE2),
    );
    let mut wl_meter = EnergyMeter::new();

    let mut table = Table::new(
        "fig16",
        "cumulative energy over phases: E2-NVM (train/write/retrain) vs wear-leveling only",
        &["phase", "e2_t_ms", "e2_cum_uj", "wl_t_ms", "wl_cum_uj"],
    );
    let mut stream_pos = 0usize;
    let write_round = |label: &str,
                       e2: &mut crate::systems::E2System,
                       wl: &mut crate::systems::InPlaceSystem,
                       meter: &mut EnergyMeter,
                       wl_meter: &mut EnergyMeter,
                       table: &mut Table,
                       stream_pos: &mut usize| {
        use crate::systems::WriteSystem;
        let slice = &stream_items[*stream_pos..*stream_pos + writes_per_round];
        *stream_pos += writes_per_round;
        let (e_before, l_before) = (e2.stats().energy_pj, e2.stats().latency_ns);
        for v in slice {
            e2.write(v).expect("e2 write");
        }
        meter.record(
            EnergyCategory::NvmWrite,
            e2.stats().energy_pj - e_before,
            e2.stats().latency_ns - l_before,
        );
        let s = meter.sample();
        let (we_before, wl_before) = (wl.stats().energy_pj, wl.stats().latency_ns);
        for v in slice {
            wl.write(v).expect("wl write");
        }
        wl_meter.record(
            EnergyCategory::NvmWrite,
            wl.stats().energy_pj - we_before,
            wl.stats().latency_ns - wl_before,
        );
        let ws = wl_meter.sample();
        table.row(vec![
            label.to_string(),
            fmt(s.t_ns / 1e6),
            fmt(s.cumulative_pj / 1e6),
            fmt(ws.t_ns / 1e6),
            fmt(ws.cumulative_pj / 1e6),
        ]);
    };

    {
        let s = meter.sample();
        let ws = wl_meter.sample();
        table.row(vec![
            "1:train".into(),
            fmt(s.t_ns / 1e6),
            fmt(s.cumulative_pj / 1e6),
            fmt(ws.t_ns / 1e6),
            fmt(ws.cumulative_pj / 1e6),
        ]);
    }
    for round in 0..rounds_before {
        write_round(
            &format!("2:write{}", round + 1),
            &mut e2,
            &mut wl,
            &mut meter,
            &mut wl_meter,
            &mut table,
            &mut stream_pos,
        );
    }
    // Phase 3: retraining.
    {
        let t0 = std::time::Instant::now();
        e2.engine_mut().train().expect("retrain");
        meter.record(
            EnergyCategory::CpuTrain,
            energy_params.cpu_energy_pj(train_macs),
            t0.elapsed().as_nanos() as f64,
        );
        let s = meter.sample();
        let ws = wl_meter.sample();
        table.row(vec![
            "3:retrain".into(),
            fmt(s.t_ns / 1e6),
            fmt(s.cumulative_pj / 1e6),
            fmt(ws.t_ns / 1e6),
            fmt(ws.cumulative_pj / 1e6),
        ]);
    }
    for round in 0..rounds_after {
        write_round(
            &format!("4:write{}", round + 1),
            &mut e2,
            &mut wl,
            &mut meter,
            &mut wl_meter,
            &mut table,
            &mut stream_pos,
        );
    }
    table.note(format!(
        "E2 total {} uJ (incl. training) vs wear-leveling {} uJ — steady-state write energy is lower for E2, amortizing the training spikes",
        fmt(meter.total_pj() / 1e6),
        fmt(wl_meter.total_pj() / 1e6)
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Scale {
        Scale { quick: true }
    }

    #[test]
    fn fig12_e2_helps_where_it_can_and_never_hurts() {
        let t = fig12(quick());
        assert_eq!(t.rows.len(), 5);
        let get = |name: &str, col: usize| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == name)
                .unwrap_or_else(|| panic!("row {name}"))[col]
                .parse()
                .unwrap()
        };
        // Plugging never hurts beyond noise (the integration keeps the
        // in-place write when relocation would not pay).
        for row in &t.rows {
            let improvement: f64 = row[3].parse().unwrap();
            assert!(
                improvement > -3.0,
                "{}: E2 plugging regressed by {improvement}%",
                row[0]
            );
        }
        // The structures that rewrite whole node images benefit most.
        assert!(get("B+-Tree", 3) > 5.0, "B+-Tree: {}", get("B+-Tree", 3));
        assert!(get("FP-Tree", 3) > 5.0, "FP-Tree: {}", get("FP-Tree", 3));
        // Among the bare structures the in-place single-cell hash is the
        // cheapest and the compaction-amplified LSM the most expensive —
        // write amplification shows up as flips.
        assert!(get("Path Hashing", 1) < get("NoveLSM", 1));
    }

    #[test]
    fn fig16_training_spike_then_cheaper_writes() {
        let t = fig16(quick());
        // First row is the training phase: E2 has energy, WL has none.
        let e2_train: f64 = t.rows[0][2].parse().unwrap();
        let wl_train: f64 = t.rows[0][4].parse().unwrap();
        assert!(e2_train > 0.0);
        assert_eq!(wl_train, 0.0);
        // Per-round write energy: E2's increment is smaller than WL's in
        // the later rounds.
        let parse = |r: usize, c: usize| -> f64 { t.rows[r][c].parse().unwrap() };
        let last = t.rows.len() - 1;
        let e2_delta = parse(last, 2) - parse(last - 1, 2);
        let wl_delta = parse(last, 4) - parse(last - 1, 4);
        assert!(
            e2_delta < wl_delta,
            "steady-state: e2 {e2_delta} vs wl {wl_delta}"
        );
    }
}
