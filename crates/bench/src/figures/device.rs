//! Figures 1 and 2: raw device behaviour.

use crate::systems::{seeded_device, stream, E2System, InPlaceSystem};
use crate::table::{fmt, Table};
use crate::Scale;
use e2nvm_baselines::{Captopril, Dcw, FlipNWrite, MinShift};
use e2nvm_sim::{DeviceConfig, MemoryController, NvmDevice, PhysicalSegment, WearTracking};
use e2nvm_workloads::DatasetKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Figure 1: latency and energy per round when overwriting 256 B blocks
/// with content that is x% different (hamming) from what is stored.
/// The paper measures ≈56 % energy saving at 0 % difference on real
/// Optane; the simulator's energy model is calibrated to that shape.
pub fn fig01(scale: Scale) -> Table {
    let n_blocks = scale.pick(256, 2048);
    let mut rng = StdRng::seed_from_u64(0x000F_1601);
    let mut table = Table::new(
        "fig01",
        "latency + energy vs content difference (256B blocks)",
        &[
            "diff_pct",
            "avg_latency_ns",
            "avg_energy_pj",
            "energy_saving_pct",
            "latency_saving_pct",
        ],
    );
    // System-level energy/latency calibration (PMDK transaction costs
    // included) — see EnergyParams::system_level().
    let cfg = DeviceConfig::builder()
        .segment_bytes(256)
        .num_segments(n_blocks)
        .energy(e2nvm_sim::EnergyParams::system_level())
        .latency(e2nvm_sim::LatencyParams::system_level())
        .build()
        .expect("valid config");
    let mut base_energy = None;
    let mut base_latency = None;
    let mut rows = Vec::new();
    for diff_pct in (0..=100).step_by(10) {
        let mut dev = NvmDevice::new(cfg.clone());
        // Round setup: random old data in every block.
        let old: Vec<Vec<u8>> = (0..n_blocks)
            .map(|_| (0..256).map(|_| rng.gen()).collect())
            .collect();
        for (i, data) in old.iter().enumerate() {
            dev.seed_segment(PhysicalSegment(i), data).expect("seed");
        }
        // Overwrite with x%-different content: flip exactly x% of bits,
        // uniformly chosen.
        for (i, data) in old.iter().enumerate() {
            let mut new = data.clone();
            let flips = 256 * 8 * diff_pct / 100;
            // Choose distinct bit positions via partial shuffle.
            let mut positions: Vec<usize> = (0..256 * 8).collect();
            for f in 0..flips {
                let j = rng.gen_range(f..positions.len());
                positions.swap(f, j);
                let bit = positions[f];
                new[bit / 8] ^= 1 << (7 - bit % 8);
            }
            dev.write(PhysicalSegment(i), &new).expect("write");
        }
        let stats = dev.stats();
        let avg_energy = stats.energy_pj / n_blocks as f64;
        let avg_latency = stats.latency_ns / n_blocks as f64;
        if diff_pct == 100 {
            base_energy = Some(avg_energy);
            base_latency = Some(avg_latency);
        }
        rows.push((diff_pct, avg_latency, avg_energy));
    }
    let base_e = base_energy.expect("100% row exists");
    let base_l = base_latency.expect("100% row exists");
    let mut max_saving: f64 = 0.0;
    for (diff_pct, lat, en) in rows {
        let e_saving = (1.0 - en / base_e) * 100.0;
        let l_saving = (1.0 - lat / base_l) * 100.0;
        max_saving = max_saving.max(e_saving);
        table.row(vec![
            diff_pct.to_string(),
            fmt(lat),
            fmt(en),
            fmt(e_saving),
            fmt(l_saving),
        ]);
    }
    table.note(format!(
        "max energy saving {}% (paper: up to 56% on real Optane)",
        fmt(max_saving)
    ));
    table
}

/// Figure 2: average bit updates per write vs the wear-leveling swap
/// period ψ, for E2-NVM and the RBW baselines, on Amazon-Access-shaped
/// records. At ψ = 1 the controller swap defeats placement; at normal
/// ψ (tens of writes) E2-NVM's advantage appears.
#[allow(clippy::box_default)] // Box::default() cannot infer Box<dyn Trait>
pub fn fig02(scale: Scale) -> Table {
    let segment_bytes = 64;
    let num_segments = scale.pick(96, 256);
    let n_writes = scale.pick(256, 1024);
    let mut rng = StdRng::seed_from_u64(0x000F_1602);
    let old = DatasetKind::AmazonAccess.generate_sized(num_segments, segment_bytes, &mut rng);
    let incoming = DatasetKind::AmazonAccess.generate_sized(n_writes, segment_bytes, &mut rng);

    let psis: Vec<u64> = scale.pick(vec![1, 5, 20, 50], vec![1, 2, 5, 10, 20, 50]);
    let mut table = Table::new(
        "fig02",
        "avg bit updates per write vs wear-leveling period psi (Amazon Access)",
        &["psi", "DCW", "FNW", "MinShift", "Captopril", "E2-NVM"],
    );
    for &psi in &psis {
        let proto = seeded_device(segment_bytes, num_segments, WearTracking::None, &old);
        let random_swap = || MemoryController::with_random_swap(proto.clone(), psi, 0xE2);
        let run_inplace = |scheme: Box<dyn e2nvm_baselines::InPlaceScheme>| -> f64 {
            let mut sys = InPlaceSystem::new(scheme, random_swap());
            let stats = stream(&mut sys, &incoming, 16).expect("stream");
            stats.flips_per_write()
        };
        let dcw = run_inplace(Box::new(Dcw));
        let fnw = run_inplace(Box::new(FlipNWrite::default()));
        let ms = run_inplace(Box::new(MinShift::default()));
        let cap = run_inplace(Box::new(Captopril::default()));
        let e2 = {
            let mut sys =
                E2System::new(random_swap(), E2System::quick_config(segment_bytes, 6), 0.5)
                    .expect("e2 system");
            let stats = stream(&mut sys, &incoming, 16).expect("stream");
            stats.flips_per_write()
        };
        table.row(vec![
            psi.to_string(),
            fmt(dcw),
            fmt(fnw),
            fmt(ms),
            fmt(cap),
            fmt(e2),
        ]);
    }
    table.note(
        "paper Fig 2: at psi=1 swaps defeat placement; E2-NVM wins at normal psi (10s of writes)",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Scale {
        Scale { quick: true }
    }

    #[test]
    fn fig01_shape() {
        let t = fig01(quick());
        assert_eq!(t.rows.len(), 11);
        // Energy strictly increases with difference.
        let energies: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[2].parse::<f64>().unwrap())
            .collect();
        assert!(energies.windows(2).all(|w| w[0] <= w[1]), "{energies:?}");
        // Headline saving at 0% difference is large (paper: 56%).
        let saving0: f64 = t.rows[0][3].parse().unwrap();
        assert!(
            (45.0..65.0).contains(&saving0),
            "saving at 0% should be near the paper's 56%: {saving0}"
        );
        // Latency also improves, moderately.
        let lat_saving0: f64 = t.rows[0][4].parse().unwrap();
        assert!(lat_saving0 > 20.0, "latency saving {lat_saving0}");
    }

    #[test]
    fn fig02_e2_wins_at_large_psi_not_psi1() {
        let t = fig02(quick());
        let first = &t.rows[0]; // psi = 1
        let last = t.rows.last().unwrap(); // psi = 50
        let dcw_last: f64 = last[1].parse().unwrap();
        let e2_last: f64 = last[5].parse().unwrap();
        assert!(
            e2_last < dcw_last,
            "E2 should win at large psi: e2={e2_last} dcw={dcw_last}"
        );
        // At psi = 1 the advantage shrinks (ratio closer to 1 than at 50).
        let dcw_1: f64 = first[1].parse().unwrap();
        let e2_1: f64 = first[5].parse().unwrap();
        let ratio_1 = e2_1 / dcw_1;
        let ratio_50 = e2_last / dcw_last;
        assert!(
            ratio_1 > ratio_50,
            "advantage should grow with psi: r1={ratio_1} r50={ratio_50}"
        );
    }
}
