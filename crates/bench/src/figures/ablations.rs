//! Ablations beyond the paper's figures, probing design choices
//! DESIGN.md calls out: the joint VAE+K-means loss, the device's media
//! DCW, the DAP's take-the-first policy, and which model places values.

use crate::figures::engine::MIN_TIMED;
use crate::systems::{seeded_device, E2System};
use crate::table::{fmt, Table};
use crate::Scale;
use e2nvm_core::{
    E2Config, E2Engine, E2Model, PaddingType, PlacementModel, PlacementScratch, Stage,
};
use e2nvm_sim::bitops::hamming;
use e2nvm_sim::{DeviceConfig, NvmDevice, PhysicalSegment, WearTracking};
use e2nvm_workloads::DatasetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::time::Instant;

fn quick_cfg(scale: Scale, segment_bytes: usize, k: usize, gamma: f32) -> E2Config {
    E2Config::builder()
        .fast(segment_bytes, k)
        .model(PlacementModel::Vae)
        .latent_dim(8)
        .hidden(vec![64])
        .pretrain_epochs(scale.pick(15, 25))
        .joint_epochs(scale.pick(5, 8))
        .gamma(gamma)
        .lr(3e-3)
        .beta(0.1)
        .padding_type(PaddingType::Zero)
        .build()
        .unwrap()
}

/// Mean flips when each test item overwrites the rotating first member
/// of its predicted cluster.
fn placement_flips(model: &E2Model, pool: &[Vec<u8>], test: &[Vec<u8>]) -> f64 {
    let assignments = model.classify_segments(pool);
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); model.k()];
    for (i, &c) in assignments.iter().enumerate() {
        groups[c].push(i);
    }
    let mut scratch = PlacementScratch::default();
    let mut total = 0.0;
    let mut count = 0u64;
    for (t, item) in test.iter().enumerate() {
        let c = model.classify(item, &mut scratch);
        let group = &groups[c];
        if group.is_empty() {
            continue;
        }
        let target = group[t % group.len()];
        total += hamming(item, &pool[target]) as f64;
        count += 1;
    }
    total / count.max(1) as f64
}

/// abl01 — γ ablation: does the joint cluster loss (DEC-style
/// fine-tuning, §3.2) buy anything over plain VAE-then-K-means?
pub fn abl01(scale: Scale) -> Table {
    let segment_bytes = 64;
    let n = scale.pick(256, 512);
    let mut table = Table::new(
        "abl01",
        "joint-training ablation: gamma = 0 (VAE then K-means) vs gamma > 0",
        &["gamma", "latent_sse", "expected_flips"],
    );
    for &gamma in &[0.0f32, 0.1, 0.3, 1.0] {
        let mut rng = StdRng::seed_from_u64(0xAB01);
        let pool = DatasetKind::MnistLike.generate_sized(n, segment_bytes, &mut rng);
        let test = DatasetKind::MnistLike.generate_sized(n / 4, segment_bytes, &mut rng);
        let cfg = quick_cfg(scale, segment_bytes, 10, gamma);
        let model = E2Model::train(&cfg, &pool, &mut rng);
        let sse = model.history().sse.last().copied().unwrap_or(f32::NAN);
        table.row(vec![
            format!("{gamma}"),
            fmt(sse as f64),
            fmt(placement_flips(&model, &pool, &test)),
        ]);
    }
    table.note(
        "joint epochs compact the latent clusters (SSE drops with gamma); flips should not regress",
    );
    table
}

/// abl02 — media DCW ablation: how much of the energy win belongs to
/// the device's differential write vs the placement?
pub fn abl02(scale: Scale) -> Table {
    let segment_bytes = 64;
    let n_writes = scale.pick(256, 1024);
    let mut rng = StdRng::seed_from_u64(0xAB02);
    let old = DatasetKind::MnistLike.generate_sized(128, segment_bytes, &mut rng);
    let incoming = DatasetKind::MnistLike.generate_sized(n_writes, segment_bytes, &mut rng);
    let mut table = Table::new(
        "abl02",
        "media DCW ablation: bits programmed per write, DCW on vs off",
        &[
            "media_dcw",
            "bits_programmed_per_write",
            "bits_flipped_per_write",
            "energy_per_write_pj",
        ],
    );
    for dcw in [true, false] {
        let cfg = DeviceConfig::builder()
            .segment_bytes(segment_bytes)
            .num_segments(128)
            .media_dcw(dcw)
            .build()
            .expect("config");
        let mut dev = NvmDevice::new(cfg);
        for (i, c) in old.iter().enumerate() {
            dev.seed_segment(PhysicalSegment(i), c).expect("seed");
        }
        for (i, v) in incoming.iter().enumerate() {
            dev.write(PhysicalSegment(i % 128), v).expect("write");
        }
        let s = dev.stats();
        table.row(vec![
            dcw.to_string(),
            fmt(s.bits_programmed as f64 / s.writes as f64),
            fmt(s.bits_flipped as f64 / s.writes as f64),
            fmt(s.energy_per_write_pj()),
        ]);
    }
    table.note("without DCW every bit of every written line costs a pulse; flips (endurance) are identical");
    table
}

/// abl03 — the paper's §3.3.1 design decision: take the *first* free
/// address of the predicted cluster vs searching the whole cluster for
/// the best match (and, as an upper bound, searching the whole pool).
pub fn abl03(scale: Scale) -> Table {
    let segment_bytes = 64;
    let num_segments = scale.pick(128, 256);
    let n_writes = scale.pick(192, 512);
    let mut rng = StdRng::seed_from_u64(0xAB03);
    let old = DatasetKind::MnistLike.generate_sized(num_segments, segment_bytes, &mut rng);
    let incoming = DatasetKind::MnistLike.generate_sized(n_writes, segment_bytes, &mut rng);

    // Train one model on the pool.
    let cfg = quick_cfg(scale, segment_bytes, 10, 0.2);
    let model = E2Model::train(&cfg, &old, &mut rng);

    #[derive(Clone, Copy, PartialEq)]
    enum Policy {
        FifoHead,
        BestInCluster,
        BestInPool,
    }

    let run = |policy: Policy| -> (f64, f64) {
        let mut dev = seeded_device(segment_bytes, num_segments, WearTracking::None, &old);
        // cluster -> free segment queue.
        let assignments = model.classify_segments(&old);
        let mut pools: Vec<VecDeque<PhysicalSegment>> = vec![VecDeque::new(); model.k()];
        for (i, &c) in assignments.iter().enumerate() {
            pools[c].push_back(PhysicalSegment(i));
        }
        let mut scratch = PlacementScratch::default();
        let mut occupied: VecDeque<PhysicalSegment> = VecDeque::new();
        let mut search_evals = 0u64;
        for item in &incoming {
            if occupied.len() >= num_segments / 2 {
                let seg = occupied.pop_front().expect("nonempty");
                let content = dev.peek(seg).to_vec();
                let c = model.classify(&content, &mut scratch);
                pools[c].push_back(seg);
            }
            let c = model.classify(item, &mut scratch);
            // Candidate clusters nearest-first.
            let order: Vec<usize> = if pools[c].is_empty() {
                (0..model.k()).filter(|&x| !pools[x].is_empty()).collect()
            } else {
                vec![c]
            };
            let cluster = *order.first().expect("some cluster nonempty");
            let seg = match policy {
                Policy::FifoHead => pools[cluster].pop_front().expect("nonempty"),
                Policy::BestInCluster => {
                    let (idx, _) = pools[cluster]
                        .iter()
                        .enumerate()
                        .map(|(i, &s)| {
                            search_evals += 1;
                            (i, hamming(dev.peek(s), item))
                        })
                        .min_by_key(|&(_, d)| d)
                        .expect("nonempty");
                    pools[cluster].remove(idx).expect("valid index")
                }
                Policy::BestInPool => {
                    let (ci, idx, _) = pools
                        .iter()
                        .enumerate()
                        .flat_map(|(ci, q)| q.iter().enumerate().map(move |(i, &s)| (ci, i, s)))
                        .map(|(ci, i, s)| {
                            search_evals += 1;
                            (ci, i, hamming(dev.peek(s), item))
                        })
                        .min_by_key(|&(_, _, d)| d)
                        .expect("pool nonempty");
                    pools[ci].remove(idx).expect("valid index")
                }
            };
            dev.write_at(seg, 0, item).expect("write");
            occupied.push_back(seg);
        }
        (
            dev.stats().flips_per_write(),
            search_evals as f64 / incoming.len() as f64,
        )
    };

    let mut table = Table::new(
        "abl03",
        "DAP policy ablation: first-of-cluster vs best-of-cluster vs best-of-pool",
        &["policy", "flips_per_write", "hamming_evals_per_write"],
    );
    for (name, policy) in [
        ("fifo_head (paper)", Policy::FifoHead),
        ("best_in_cluster", Policy::BestInCluster),
        ("best_in_pool", Policy::BestInPool),
    ] {
        let (flips, evals) = run(policy);
        table.row(vec![name.to_string(), fmt(flips), fmt(evals)]);
    }
    table.note("the paper's claim: taking the first address already captures most of the benefit — the search upside must be small relative to its per-write cost");
    table
}

/// abl04 — which model should the engine train? The paper's VAE, under
/// the benchmark's config and under the figures' `quick_config`, against
/// PCA + K-means (the served default) and against arbitrary placement.
/// Arbitrary is the default engine trained with one cluster: every value
/// takes the next free segment, whatever the model predicts. The
/// engine serves PUTs as the benchmark does: 128-B
/// segments, 98-B values, half the segments live under keys that every
/// PUT past the first round overwrites, and every PUT is counted.
pub fn abl04(scale: Scale) -> Table {
    let segment_bytes = 128;
    let value_bytes = 98;
    let num_segments = scale.pick(1024, 4096);
    let n_writes = scale.pick(2048, 8192);
    let keys = num_segments as u64 / 2;
    let mut table = Table::new(
        "abl04",
        "placement model front at 128-B segments: flips vs model cost",
        &[
            "dataset",
            "k",
            "model",
            "flips_per_write",
            "model_pred_us",
            "train_ms",
            "dap_min_cluster_free",
        ],
    );
    let kinds = [
        DatasetKind::MnistLike,
        DatasetKind::FashionLike,
        DatasetKind::CifarLike,
    ];
    for kind in kinds {
        let mut rng = StdRng::seed_from_u64(0xAB04 ^ kind.item_bytes() as u64);
        let old = kind.generate_sized(num_segments, segment_bytes, &mut rng);
        let incoming = kind.generate_sized(n_writes, value_bytes, &mut rng);
        let proto = seeded_device(segment_bytes, num_segments, WearTracking::None, &old);
        let mut run = |k: usize, model: &str, cfg: E2Config| {
            let mut engine = E2Engine::new(proto.clone().into(), cfg).expect("engine");
            let started = Instant::now();
            engine.train().expect("train");
            let train_ms = started.elapsed().as_secs_f64() * 1e3;
            let mut puts = (0..keys).cycle().zip(incoming.iter().cycle());
            let mut min_free = usize::MAX;
            for (key, value) in puts.by_ref().take(n_writes) {
                engine.put(key, value).expect("put");
                let smallest = engine.dap().occupancy().into_iter().min();
                min_free = min_free.min(smallest.unwrap_or(0));
            }
            let flips = engine.device_stats().flips_per_write();
            // The stage clock times one PUT in 64: keep putting past the
            // counted pass until both means cover enough of them.
            let clocks = [Stage::Order, Stage::Tag].map(|s| engine.telemetry().stage_ns(s).clone());
            for (key, value) in puts {
                if clocks.iter().all(|c| c.count() >= MIN_TIMED) {
                    break;
                }
                engine.put(key, value).expect("put");
            }
            let model_ns: f64 = clocks
                .iter()
                .map(|c| c.sum() as f64 / c.count() as f64)
                .sum();
            table.row(vec![
                kind.name().to_string(),
                k.to_string(),
                model.to_string(),
                fmt(flips),
                fmt(model_ns / 1e3),
                fmt(train_ms),
                min_free.to_string(),
            ]);
        };
        // The benchmark's engine config (`benchmark/src/geometry.rs`).
        let bench = |k: usize, model: PlacementModel| {
            E2Config::builder()
                .k(k)
                .segment_bytes(segment_bytes)
                .model(model)
                .hidden(vec![64])
                .latent_dim(10)
                .pretrain_epochs(10)
                .joint_epochs(4)
                .train_sample_cap(1_024)
                .padding_type(PaddingType::Zero)
                .build()
                .unwrap()
        };
        run(1, "arbitrary", bench(1, PlacementModel::PcaKMeans));
        for k in [10, 30] {
            run(k, "vae (benchmark)", bench(k, PlacementModel::Vae));
            run(k, "vae (quick)", E2System::quick_config(segment_bytes, k));
            run(k, "pca", bench(k, PlacementModel::PcaKMeans));
        }
    }
    table.note("the served default is PCA 12 + K-means, the lowest-SSE of 4 starts; every paper figure keeps the VAE. model_pred_us is the stage clock's order + tag per PUT: padding and prediction, then the resumed pass that tags the written segment");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Scale {
        Scale { quick: true }
    }

    #[test]
    fn abl01_gamma_compacts_latent() {
        let t = abl01(quick());
        let sse: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        // gamma = 1.0 must compact the latent space vs gamma = 0.
        assert!(
            *sse.last().unwrap() < *sse.first().unwrap(),
            "joint loss did not compact: {sse:?}"
        );
        // Flips must not blow up from the extra loss term.
        let flips: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(
            *flips.last().unwrap() < flips.first().unwrap() * 1.25,
            "flips regressed: {flips:?}"
        );
    }

    #[test]
    fn abl02_dcw_cuts_programming_not_flips() {
        let t = abl02(quick());
        let on = &t.rows[0];
        let off = &t.rows[1];
        let prog_on: f64 = on[1].parse().unwrap();
        let prog_off: f64 = off[1].parse().unwrap();
        assert!(prog_on * 2.0 < prog_off, "dcw on={prog_on} off={prog_off}");
        // Endurance-relevant flips identical.
        assert_eq!(on[2], off[2]);
        let e_on: f64 = on[3].parse().unwrap();
        let e_off: f64 = off[3].parse().unwrap();
        assert!(e_on < e_off);
    }

    #[test]
    fn abl03_fifo_captures_most_of_the_benefit() {
        let t = abl03(quick());
        let get = |row: usize, col: usize| -> f64 { t.rows[row][col].parse().unwrap() };
        let fifo = get(0, 1);
        let best_cluster = get(1, 1);
        let best_pool = get(2, 1);
        // Searching can only help.
        assert!(best_pool <= best_cluster * 1.01);
        assert!(best_cluster <= fifo * 1.01);
        // The paper's design decision: the FIFO head is within ~2x of
        // the exhaustive upper bound while doing zero hamming scans.
        assert!(
            fifo <= best_pool * 2.5,
            "fifo {fifo} too far from upper bound {best_pool}"
        );
        assert_eq!(get(0, 2), 0.0, "fifo must not scan");
        assert!(get(2, 2) > get(1, 2), "pool search must scan more");
    }
}
