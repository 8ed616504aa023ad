//! Figures 7, 10, 11, 13, 17, 19: the E2-NVM engine under workloads.

use crate::systems::{seeded_device, stream, E2System, InPlaceSystem, WriteSystem};
use crate::table::{fmt, Table};
use crate::Scale;
use e2nvm_baselines::{Captopril, Dcw, FlipNWrite, InPlaceScheme, MinShift};
use e2nvm_core::{E2Config, E2Engine, PlacementModel, Stage};
use e2nvm_sim::WearTracking;
use e2nvm_workloads::{DatasetKind, Operation, Ycsb};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Figure 7: DAP memory footprint and write energy vs the number of
/// indexed segments (PubMed-like data), as §4.1.4's incremental
/// indexing grows them on one engine: it trains on the first count's
/// segments, then indexes more up to each count. After each step one
/// new slice of the value stream is PUT over 64 cycling keys. More
/// indexed segments cost DRAM but give the placement more choices.
pub fn fig07(scale: Scale) -> Table {
    let segment_bytes = 64;
    let counts: Vec<usize> = scale.pick(
        vec![128, 512, 2048, 8192],
        vec![256, 1024, 8192, 65536, 262144],
    );
    // PUTs per step. Most values are near-empty rows and a few cost
    // tens of flips, so a slice's mean is noisy: at a fixed pool of 128
    // segments, 384-PUT slices spread by 0.30 flips (10 %) and 4 096-PUT
    // slices by 0.08 (3 %).
    let n_writes = scale.pick(4096, 8192);
    let warmup = 32;
    let keys = 64;
    let mut table = Table::new(
        "fig07",
        "DAP memory + write energy vs #indexed segments (PubMed-like)",
        &[
            "segments",
            "dap_kib",
            "energy_per_write_pj",
            "flips_per_write",
        ],
    );
    let total = *counts.last().expect("a count");
    let mut rng = StdRng::seed_from_u64(0x000F_1607);
    let universe = DatasetKind::PubMed.generate_sized(total.min(4096), segment_bytes, &mut rng);
    let incoming =
        DatasetKind::PubMed.generate_sized(n_writes * counts.len(), segment_bytes, &mut rng);
    let dev = seeded_device(segment_bytes, total, WearTracking::None, &universe);
    let cfg = E2System::quick_config(segment_bytes, 8);
    let mut engine = E2Engine::new(dev.into(), cfg).expect("engine");
    engine.train_partial(counts[0]).expect("train");
    let mut puts = (0..keys).cycle().zip(&incoming);
    let mut indexed = counts[0];
    for &n in &counts {
        indexed += engine.index_more(n - indexed).expect("index");
        for (i, (key, value)) in puts.by_ref().take(n_writes).enumerate() {
            if i == warmup {
                engine.reset_device_stats();
            }
            engine.put(key, value).expect("put");
        }
        let stats = engine.device_stats();
        table.row(vec![
            n.to_string(),
            fmt(engine.dap_memory_bytes() as f64 / 1024.0),
            fmt(stats.energy_per_write_pj()),
            fmt(stats.flips_per_write()),
        ]);
    }
    table.note("paper Fig 7: 100K-1M segments is the sweet spot — MBs of DRAM, no further energy gain beyond");
    table
}

/// Armed placements each `*_pred_us` cell (Fig 10, abl04) averages a
/// stage over: enough that one slow call moves a cell by little (a mean
/// of 16 could read twice the typical value).
pub(crate) const MIN_TIMED: u64 = 256;

/// Figure 10: bits updated per PMem (cache line) access vs k for the
/// RBW baselines, PNW, and E2-NVM across datasets, plus the prediction
/// latency of the two ML methods. PNW and E2-NVM are the same engine
/// over the same device; only the model it trains differs
/// ([`PlacementModel::PcaKMeans`] vs the VAE).
#[allow(clippy::box_default)] // Box::default() cannot infer Box<dyn Trait>
pub fn fig10(scale: Scale) -> Table {
    let segment_bytes = 64;
    let num_segments = scale.pick(128, 256);
    let n_writes = scale.pick(256, 768);
    let ks: Vec<usize> = scale.pick(vec![1, 10, 30], vec![1, 5, 10, 20, 30]);
    let kinds = [
        DatasetKind::AmazonAccess,
        DatasetKind::RoadNetwork,
        DatasetKind::MnistLike,
        DatasetKind::CifarLike,
    ];
    let mut table = Table::new(
        "fig10",
        "bits updated per cache-line access vs k, per dataset",
        &[
            "dataset",
            "k",
            "DCW",
            "MinShift",
            "FNW",
            "Captopril",
            "PNW",
            "E2-NVM",
            "pnw_pred_us",
            "e2_pred_us",
        ],
    );
    for kind in kinds {
        let mut rng = StdRng::seed_from_u64(0x000F_1610 ^ kind.item_bytes() as u64);
        let old = kind.generate_sized(num_segments, segment_bytes, &mut rng);
        let incoming = kind.generate_sized(n_writes, segment_bytes, &mut rng);
        let proto = seeded_device(segment_bytes, num_segments, WearTracking::None, &old);

        let run_inplace = |scheme: Box<dyn InPlaceScheme>| -> f64 {
            let mut sys = InPlaceSystem::new(scheme, proto.clone());
            stream(&mut sys, &incoming, 32)
                .expect("stream")
                .flips_per_line_access()
        };
        let dcw = run_inplace(Box::new(Dcw));
        let ms = run_inplace(Box::new(MinShift::default()));
        let fnw = run_inplace(Box::new(FlipNWrite::default()));
        let cap = run_inplace(Box::new(Captopril::default()));

        let run_engine = |cfg: E2Config| -> (f64, f64) {
            let mut sys = E2System::new(proto.clone(), cfg, 0.5).expect("e2 system");
            let s = stream(&mut sys, &incoming, 32).expect("stream");
            // The engine's stage clock times one placement in 64, its
            // padding + prediction as `order`: keep writing past the
            // counted pass until the mean covers enough of them.
            let order = sys.engine_mut().telemetry().stage_ns(Stage::Order).clone();
            for value in incoming.iter().cycle() {
                if order.count() >= MIN_TIMED {
                    break;
                }
                sys.write(value).expect("write");
            }
            let mean_ns = order.sum() as f64 / order.count() as f64;
            (s.flips_per_line_access(), mean_ns / 1e3)
        };

        for &k in &ks {
            let cfg = E2System::quick_config(segment_bytes, k);
            let (pnw_flips, pnw_us) = run_engine(E2Config {
                model: PlacementModel::PcaKMeans,
                ..cfg.clone()
            });
            let (e2_flips, e2_us) = run_engine(cfg);
            table.row(vec![
                kind.name().to_string(),
                k.to_string(),
                fmt(dcw),
                fmt(ms),
                fmt(fnw),
                fmt(cap),
                fmt(pnw_flips),
                fmt(e2_flips),
                fmt(pnw_us),
                fmt(e2_us),
            ]);
        }
    }
    table.note("paper Fig 10: at k=1 E2/PNW/DCW coincide; E2-NVM improves with k (up to 3.2x over PNW, 4.23x over RBW); E2 prediction is slower than PNW (two-stage). PNW here is the E2-NVM engine trained as PCA-12 + K-means, so the *_pred_us columns compare the two models on one kernel: one 512x12 linear layer against the VAE's 512x64 and 64x8");
    table
}

/// Values for the YCSB figure: class-structured (clusterable) content
/// derived from the key, with per-version perturbation — stands in for
/// the structured 10 GB dataset the paper loads.
struct ClassValues {
    templates: Vec<Vec<u8>>,
}

impl ClassValues {
    fn new(value_len: usize, classes: usize, rng: &mut StdRng) -> Self {
        let templates = (0..classes)
            .map(|_| (0..value_len).map(|_| rng.gen()).collect())
            .collect();
        Self { templates }
    }

    fn value(&self, key: u64, version: u32) -> Vec<u8> {
        let t = &self.templates[(key as usize) % self.templates.len()];
        let mut state = key ^ u64::from(version).wrapping_mul(0x9E37_79B9);
        t.iter()
            .map(|&b| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // ~6% of bytes perturbed per version.
                if (state >> 33).is_multiple_of(16) {
                    b ^ ((state >> 40) as u8)
                } else {
                    b
                }
            })
            .collect()
    }
}

/// Figure 11: average energy per cache-line access vs segment size and
/// k, under the YCSB core workloads.
pub fn fig11(scale: Scale) -> Table {
    let pool_bytes = scale.pick(32 << 10, 128 << 10);
    let seg_sizes: Vec<usize> = scale.pick(vec![64, 256], vec![64, 256, 1024]);
    let ks: Vec<usize> = scale.pick(vec![4, 16], vec![4, 8, 16, 32]);
    let ops_per_workload = scale.pick(300, 1500);
    let mut table = Table::new(
        "fig11",
        "energy per cache-line access vs segment size and k (YCSB A-F)",
        &[
            "workload",
            "segment_bytes",
            "k",
            "energy_per_line_pj",
            "flips_per_line",
        ],
    );
    for &seg in &seg_sizes {
        let num_segments = pool_bytes / seg;
        for &k in &ks {
            let mut rng = StdRng::seed_from_u64(0x000F_1611 ^ (seg * k) as u64);
            let values = ClassValues::new(seg, 10, &mut rng);
            let records = (num_segments / 2) as u64;
            let workloads = Ycsb::all(records, seg, 0x000F_1611);
            for mut w in workloads {
                // Fresh engine per workload: seed pool with the loaded
                // records' content pattern.
                let old: Vec<Vec<u8>> = (0..num_segments)
                    .map(|i| values.value(i as u64, 0))
                    .collect();
                let dev = seeded_device(seg, num_segments, WearTracking::None, &old);
                let mut sys =
                    E2System::new(dev, E2System::quick_config(seg, k), 0.45).expect("e2 system");
                // Load phase via placement stream (keys are implicit).
                let engine = sys.engine_mut();
                for key in 0..records {
                    engine.put(key, &values.value(key, 0)).expect("load put");
                }
                engine.reset_device_stats();
                // Run phase.
                let mut version = 1u32;
                for op in w.take_ops(ops_per_workload) {
                    match op {
                        Operation::Read(kk) => {
                            let _ = engine.get(kk % records);
                        }
                        Operation::Update(kk, _) | Operation::ReadModifyWrite(kk, _) => {
                            version += 1;
                            let kk = kk % records;
                            if engine.put(kk, &values.value(kk, version)).is_err() {
                                break;
                            }
                        }
                        Operation::Insert(kk, _) => {
                            version += 1;
                            // Bounded key space: an insert may replace.
                            if engine
                                .put(kk % (records * 2), &values.value(kk, version))
                                .is_err()
                            {
                                break;
                            }
                        }
                        Operation::Scan(kk, len) => {
                            let lo = kk % records;
                            let _ = engine.scan(lo..lo.saturating_add(len as u64));
                        }
                    }
                }
                let stats = engine.device_stats();
                let lines = stats.lines_written + stats.lines_skipped;
                // Workload C is read-only: the per-write-line metric is
                // undefined there.
                let (energy_cell, flips_cell) = if lines == 0 {
                    ("-".to_string(), "-".to_string())
                } else {
                    (
                        fmt(stats.energy_pj / lines as f64),
                        fmt(stats.bits_flipped as f64 / lines as f64),
                    )
                };
                table.row(vec![
                    w.name().to_string(),
                    seg.to_string(),
                    k.to_string(),
                    energy_cell,
                    flips_cell,
                ]);
            }
        }
    }
    table.note("paper Fig 11: smaller segments and more clusters both reduce energy per access");
    table
}

/// Figure 13: updated-bit ratio and total energy across the segment ×
/// pool size grid, on a mixture of all real-like workloads.
pub fn fig13(scale: Scale) -> Table {
    let seg_sizes: Vec<usize> = scale.pick(vec![64, 256], vec![64, 128, 256, 512]);
    let pool_sizes: Vec<usize> = scale.pick(
        vec![16 << 10, 64 << 10],
        vec![32 << 10, 128 << 10, 512 << 10],
    );
    let n_writes = scale.pick(384, 1024);
    let mut table = Table::new(
        "fig13",
        "updated-bit ratio + energy vs segment and pool size (mixed workloads)",
        &[
            "segment_bytes",
            "pool_kib",
            "segments",
            "flip_ratio",
            "energy_per_write_pj",
        ],
    );
    for &pool in &pool_sizes {
        for &seg in &seg_sizes {
            let num_segments = pool / seg;
            let mut rng = StdRng::seed_from_u64(0x000F_1613 ^ (pool + seg) as u64);
            // Mixture of every dataset family, sized to the segment —
            // old pool contents and the incoming stream are separate
            // draws (writing back the identical items would make
            // placement trivially perfect).
            let mut old = Vec::new();
            let mut mixed = Vec::new();
            for kind in DatasetKind::ALL {
                old.extend(kind.generate_sized((num_segments / 6).max(4), seg, &mut rng));
                mixed.extend(kind.generate_sized(n_writes / 6, seg, &mut rng));
            }
            let dev = seeded_device(seg, num_segments, WearTracking::None, &old);
            let mut sys =
                E2System::new(dev, E2System::quick_config(seg, 8), 0.5).expect("e2 system");
            let stats = stream(&mut sys, &mixed, 32).expect("stream");
            table.row(vec![
                seg.to_string(),
                (pool >> 10).to_string(),
                num_segments.to_string(),
                fmt(stats.flips_per_data_bit()),
                fmt(stats.energy_per_write_pj()),
            ]);
        }
    }
    table.note("paper Fig 13: smaller segment-to-pool ratio -> more choices -> fewer flips and less energy");
    table
}

/// Figure 17: bit updates over time through the five dynamic scenarios
/// (MNIST stream over random content, retrain, Fashion mixture, CIFAR,
/// retrain on CIFAR).
pub fn fig17(scale: Scale) -> Table {
    let segment_bytes = 64;
    let num_segments = scale.pick(128, 256);
    let per_phase = scale.pick(256, 512);
    let chunk = per_phase / 8;
    let mut rng = StdRng::seed_from_u64(0x000F_1617);

    // Random initial content (scenario 1 seeds the zone with "completely
    // random content").
    let random: Vec<Vec<u8>> = (0..num_segments)
        .map(|_| (0..segment_bytes).map(|_| rng.gen()).collect())
        .collect();
    let dev = seeded_device(segment_bytes, num_segments, WearTracking::None, &random);
    let mut sys =
        E2System::new(dev, E2System::quick_config(segment_bytes, 6), 0.5).expect("e2 system");

    let mnist = DatasetKind::MnistLike.generate_sized(per_phase * 2, segment_bytes, &mut rng);
    let fashion = DatasetKind::FashionLike.generate_sized(per_phase, segment_bytes, &mut rng);
    let cifar = DatasetKind::CifarLike.generate_sized(per_phase * 2, segment_bytes, &mut rng);

    let mut table = Table::new(
        "fig17",
        "bit updates per write over time, five scenarios",
        &["phase", "chunk", "avg_flips_per_write"],
    );
    let run_phase =
        |label: &str, values: &[Vec<u8>], sys: &mut E2System, table: &mut Table| -> (f64, f64) {
            let mut chunk_means = Vec::new();
            for (ci, group) in values.chunks(chunk).enumerate() {
                sys.reset_stats();
                for v in group {
                    sys.write(v).expect("write");
                }
                let s = sys.stats();
                let mean = s.flips_per_write();
                chunk_means.push(mean);
                table.row(vec![label.to_string(), ci.to_string(), fmt(mean)]);
            }
            let half = chunk_means.len() / 2;
            let first: f64 = chunk_means[..half].iter().sum::<f64>() / half.max(1) as f64;
            let second: f64 =
                chunk_means[half..].iter().sum::<f64>() / (chunk_means.len() - half).max(1) as f64;
            (first, second)
        };

    // Scenario 1: MNIST over random content (model trained on random).
    let (p1_first, p1_second) =
        run_phase("I:mnist/random", &mnist[..per_phase], &mut sys, &mut table);
    // Scenario 2: retrain on current content, more MNIST.
    sys.engine_mut().train().expect("retrain");
    let (_, p2_second) = run_phase(
        "II:mnist/retrained",
        &mnist[per_phase..],
        &mut sys,
        &mut table,
    );
    // Scenario 3: 1:2 Fashion:MNIST mixture.
    let mix: Vec<Vec<u8>> = fashion
        .iter()
        .zip(mnist.iter().cycle())
        .flat_map(|(f, m)| [f.clone(), m.clone(), m.clone()])
        .take(per_phase)
        .collect();
    let (p3_first, _) = run_phase("III:fashion+mnist", &mix, &mut sys, &mut table);
    // Scenario 4: CIFAR, unseen by the model.
    let (p4_first, _) = run_phase(
        "IV:cifar/stale-model",
        &cifar[..per_phase],
        &mut sys,
        &mut table,
    );
    // Scenario 5: retrain on current (CIFAR-ish) content, more CIFAR.
    sys.engine_mut().train().expect("retrain");
    let (_, p5_second) = run_phase(
        "V:cifar/retrained",
        &cifar[per_phase..],
        &mut sys,
        &mut table,
    );

    table.note(format!(
        "phase means: I {}->{} (fluctuation narrows), II {}, III jumps to {}, IV {}, V settles to {}",
        fmt(p1_first),
        fmt(p1_second),
        fmt(p2_second),
        fmt(p3_first),
        fmt(p4_first),
        fmt(p5_second)
    ));
    table
}

/// Figure 19: wear-leveling CDFs — maximum writes per address and flips
/// per bit after streaming a MNIST+Fashion mixture with k=30.
pub fn fig19(scale: Scale) -> Table {
    let segment_bytes = 64;
    let num_segments = scale.pick(128, 256);
    let warm = scale.pick(128, 280);
    let n_writes = scale.pick(512, 1120);
    let k = scale.pick(10, 30);
    let mut rng = StdRng::seed_from_u64(0x000F_1619);
    let mut items = DatasetKind::MnistLike.generate_sized(warm + n_writes, segment_bytes, &mut rng);
    let fashion = DatasetKind::FashionLike.generate_sized(warm + n_writes, segment_bytes, &mut rng);
    for (i, f) in fashion.into_iter().enumerate() {
        if i % 2 == 0 && i < items.len() {
            items[i] = f;
        }
    }
    let old = &items[..warm.min(items.len())];
    let dev = seeded_device(segment_bytes, num_segments, WearTracking::PerBit, old);
    let mut sys =
        E2System::new(dev, E2System::quick_config(segment_bytes, k), 0.5).expect("e2 system");
    stream(&mut sys, &items, 0).expect("stream");

    let wear = sys.device().wear();
    let addr_cdf = wear.segment_write_cdf();
    let bit_cdf = wear.bit_flip_cdf();
    let mut table = Table::new(
        "fig19",
        "wear CDFs: P(addr written <= x), P(bit flipped <= x)",
        &["x", "p_addr_writes_le_x", "p_bit_flips_le_x"],
    );
    let max_x = addr_cdf
        .last()
        .map(|v| v.0)
        .unwrap_or(0)
        .max(bit_cdf.last().map(|v| v.0).unwrap_or(0));
    let lookup = |cdf: &[(u32, f64)], x: u32| -> f64 {
        cdf.iter()
            .rev()
            .find(|&&(v, _)| v <= x)
            .map(|&(_, p)| p)
            .unwrap_or(0.0)
    };
    for x in 0..=max_x.min(40) {
        table.row(vec![
            x.to_string(),
            fmt(lookup(&addr_cdf, x)),
            fmt(lookup(&bit_cdf, x)),
        ]);
    }
    table.note("paper Fig 19: P(addr<=10)~81%, P(bit<=5)~85%, P(bit<=7)~98% — writes and flips spread across the zone");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Scale {
        Scale { quick: true }
    }

    #[test]
    fn fig07_memory_grows_energy_shrinks() {
        let t = fig07(quick());
        let mem: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(
            mem.windows(2).all(|w| w[0] < w[1]),
            "DAP memory not growing: {mem:?}"
        );
        // Flips saturate with the indexed count: the DAP takes the FIFO
        // head of a cluster rather than searching, so extra segments
        // add candidates it never compares (the paper's "no significant
        // improvements beyond 1M segments").
        let flips: Vec<f64> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(
            *flips.last().unwrap() <= flips.first().unwrap() * 1.15,
            "flips should saturate, not grow: {flips:?}"
        );
    }

    #[test]
    fn fig10_orderings() {
        let t = fig10(quick());
        assert!(!t.rows.is_empty());
        for row in &t.rows {
            let k: usize = row[1].parse().unwrap();
            let dcw: f64 = row[2].parse().unwrap();
            let e2: f64 = row[7].parse().unwrap();
            if k >= 10 && (row[0] == "MNIST" || row[0] == "CIFAR-10") {
                assert!(
                    e2 < dcw,
                    "E2 at k={k} should beat DCW on {}: e2={e2} dcw={dcw}",
                    row[0]
                );
            }
        }
    }

    #[test]
    fn fig11_larger_k_cuts_write_energy() {
        let t = fig11(quick());
        // Compare per-workload energy at k=4 vs k=16 for the same
        // segment size, write-bearing workloads only.
        let mut by_key: std::collections::HashMap<(String, String), Vec<(usize, f64)>> =
            Default::default();
        for row in &t.rows {
            if row[3] == "-" || row[4] == "-" {
                continue; // read-only workload C
            }
            by_key
                .entry((row[0].clone(), row[1].clone()))
                .or_default()
                .push((row[2].parse().unwrap(), row[4].parse().unwrap()));
        }
        let mut improved = 0;
        let mut total = 0;
        for ((w, seg), mut rows) in by_key {
            rows.sort_by_key(|r| r.0);
            let small_k = rows.first().unwrap().1;
            let big_k = rows.last().unwrap().1;
            total += 1;
            if big_k < small_k {
                improved += 1;
            } else {
                eprintln!("workload {w} seg {seg}: k effect absent ({small_k} -> {big_k})");
            }
        }
        assert!(
            improved * 3 >= total * 2,
            "larger k should cut flips in most cells: {improved}/{total}"
        );
    }

    #[test]
    fn fig17_phases_behave() {
        let t = fig17(quick());
        let phase_mean = |prefix: &str| -> f64 {
            let vals: Vec<f64> = t
                .rows
                .iter()
                .filter(|r| r[0].starts_with(prefix))
                .map(|r| r[2].parse().unwrap())
                .collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        };
        let p1_first: f64 = t.rows[0][2].parse().unwrap();
        let p1 = phase_mean("I:");
        let p2 = phase_mean("II:");
        let p4 = phase_mean("IV:");
        // Scenario I settles below its opening chunk; retraining (II)
        // improves further; unseen CIFAR (IV) degrades sharply.
        assert!(p1 < p1_first, "no settling: first={p1_first} mean={p1}");
        assert!(p2 < p1, "retrain did not help: {p2} vs {p1}");
        assert!(p4 > p2 * 1.5, "unseen data should hurt: {p4} vs {p2}");
    }

    #[test]
    fn fig13_more_segments_fewer_flips() {
        let t = fig13(quick());
        // Within the same pool size, the smaller segment (more segments)
        // should have a flip ratio no worse than the bigger segment.
        let mut by_pool: std::collections::HashMap<String, Vec<(usize, f64)>> = Default::default();
        for row in &t.rows {
            by_pool
                .entry(row[1].clone())
                .or_default()
                .push((row[0].parse().unwrap(), row[3].parse().unwrap()));
        }
        for (pool, mut rows) in by_pool {
            rows.sort_by_key(|r| r.0);
            let small_seg = rows.first().unwrap().1;
            let big_seg = rows.last().unwrap().1;
            assert!(
                small_seg <= big_seg * 1.4,
                "pool {pool}: small-seg ratio {small_seg} vs big-seg {big_seg}"
            );
        }
    }

    #[test]
    fn fig19_cdfs_monotone_and_terminal() {
        let t = fig19(quick());
        let addr: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        let bits: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(addr.windows(2).all(|w| w[0] <= w[1]));
        assert!(bits.windows(2).all(|w| w[0] <= w[1]));
        assert!(*addr.last().unwrap() > 0.9);
        assert!(*bits.last().unwrap() > 0.9);
    }
}
