//! Endurance / lifetime experiments: how many writes each scheme
//! sustains before the first segment exhausts its (Weibull-drawn)
//! endurance budget. Not a figure from the paper itself, but the
//! direct consequence of its claim: fewer programmed bits per write
//! means proportionally more writes before wear-out.

use crate::systems::{E2System, InPlaceSystem, PlacementSystem, WriteSystem};
use crate::table::{fmt, Table};
use crate::Scale;
use e2nvm_baselines::{Datacon, Dcw, FlipNWrite};
use e2nvm_sim::{
    DeviceConfig, FaultConfig, MemoryController, NvmDevice, PhysicalSegment, WearTracking,
};
use e2nvm_workloads::DatasetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Run one system until its device reports the first worn-out segment
/// (or `cap` writes). Returns (writes to first death, bits programmed,
/// censored?). A baseline's dying write errors — that *is* the death,
/// so errors past the cap check are tolerated here.
fn writes_to_first_death(
    system: &mut dyn WriteSystem,
    values: &[Vec<u8>],
    cap: usize,
) -> (usize, u64, bool) {
    let mut writes = 0usize;
    loop {
        let value = &values[writes % values.len()];
        let _ = system.write(value);
        writes += 1;
        if system.device().worn_out_count() > 0 {
            return (writes, system.stats().bits_programmed, false);
        }
        if writes >= cap {
            return (writes, system.stats().bits_programmed, true);
        }
    }
}

/// Lifetime: writes until the first segment death, per scheme, on one
/// identically seeded fault-injecting device per system. E2-NVM's
/// content-similar placement programs fewer bits per write, which the
/// endurance model converts directly into a longer lifetime.
///
/// Two extra rows run DCW and E2-NVM behind Start-Gap rotation
/// (`+start-gap`): placement decides *logical* targets while the
/// controller rotates the logical→physical remap, so wear spreads
/// across physical slots that placement alone would hammer. The
/// retirement path stays armed throughout — a dying write quarantines
/// the physical slot it actually hit, which is only expressible now
/// that every wear-facing API is keyed on [`PhysicalSegment`].
///
/// The endurance budget is sized so the run spans several full gap
/// rotations (a logical id revisits every physical slot only after
/// ψ·N² writes). Below that horizon start-gap cannot level anything:
/// E2's cluster-concentrated traffic stays pinned to a few physical
/// slots and rotation is pure relocation overhead. Past it, the two
/// mechanisms *compose* — rotation evens the per-slot write rate, so
/// E2's fewer-programmed-bits advantage converts into lifetime at
/// full strength, on top of what it gains alone.
pub fn life01(scale: Scale) -> Table {
    let segment_bytes = 64;
    let num_segments = scale.pick(48, 96);
    let psi: u64 = 16;
    let endurance_bits = scale.pick(24_000u64, 60_000);
    let cap = scale.pick(40_000usize, 200_000);
    let mut rng = StdRng::seed_from_u64(0x11FE_0001);
    let resident = DatasetKind::MnistLike.generate_sized(num_segments, segment_bytes, &mut rng);
    let incoming = DatasetKind::MnistLike.generate_sized(1024, segment_bytes, &mut rng);

    // Every system gets its own device with the *same* geometry, seeded
    // content, and fault seed — identical per-segment endurance limits,
    // so lifetime differences are pure placement policy.
    let make_device = || {
        let cfg = DeviceConfig::builder()
            .segment_bytes(segment_bytes)
            .num_segments(num_segments)
            .wear_tracking(WearTracking::None)
            .fault(FaultConfig {
                seed: 0xE2_FA17,
                endurance_bits,
                endurance_shape: 3.0,
                transient_rate: 0.0,
            })
            .build()
            .expect("valid fault device config");
        let mut dev = NvmDevice::new(cfg);
        for (i, data) in resident.iter().enumerate() {
            dev.seed_segment(PhysicalSegment(i), data).expect("seed");
        }
        dev
    };
    let start_gap = || MemoryController::with_start_gap(make_device(), psi);

    let mut table = Table::new(
        "life01",
        "writes to first segment death per scheme (Weibull endurance)",
        &[
            "scheme",
            "writes_to_first_death",
            "bits_programmed",
            "bits_per_write",
            "lifetime_vs_DCW",
            "censored",
        ],
    );

    let mut results: Vec<(String, usize, u64, bool)> = Vec::new();
    {
        let mut sys = InPlaceSystem::new(Box::new(Dcw), make_device());
        let (w, bits, censored) = writes_to_first_death(&mut sys, &incoming, cap);
        results.push((sys.name(), w, bits, censored));
    }
    {
        let mut sys = InPlaceSystem::new(Box::new(FlipNWrite::default()), make_device());
        let (w, bits, censored) = writes_to_first_death(&mut sys, &incoming, cap);
        results.push((sys.name(), w, bits, censored));
    }
    {
        let mut sys = PlacementSystem::new(Box::new(Datacon::new(false)), make_device(), 0.5, 1);
        let (w, bits, censored) = writes_to_first_death(&mut sys, &incoming, cap);
        results.push((sys.name(), w, bits, censored));
    }
    {
        let mut sys = E2System::new(make_device(), E2System::quick_config(segment_bytes, 4), 0.5)
            .expect("e2 system");
        let (w, bits, censored) = writes_to_first_death(&mut sys, &incoming, cap);
        results.push((sys.name(), w, bits, censored));
    }
    // Wear-leveling-on rows: same devices, same endurance draws, but
    // the controller rotates logical→physical under Start-Gap(ψ).
    {
        let mut sys = InPlaceSystem::new(Box::new(Dcw), start_gap());
        let name = format!("{}+start-gap", sys.name());
        let (w, bits, censored) = writes_to_first_death(&mut sys, &incoming, cap);
        results.push((name, w, bits, censored));
    }
    {
        let mut sys = E2System::new(start_gap(), E2System::quick_config(segment_bytes, 4), 0.5)
            .expect("e2 start-gap system");
        let name = format!("{}+start-gap", sys.name());
        let (w, bits, censored) = writes_to_first_death(&mut sys, &incoming, cap);
        results.push((name, w, bits, censored));
    }

    let dcw_life = results[0].1 as f64;
    for (name, writes, bits, censored) in &results {
        table.row(vec![
            name.clone(),
            writes.to_string(),
            bits.to_string(),
            fmt(*bits as f64 / *writes as f64),
            fmt(*writes as f64 / dcw_life),
            if *censored { "yes".into() } else { "no".into() },
        ]);
    }
    table.note(format!(
        "mean segment endurance {endurance_bits} programmed bits (Weibull k=3, seeded); \
         cap {cap} writes ('censored'=yes means no death before the cap)"
    ));
    table.note(
        "fewer programmed bits per write -> proportionally later first death; \
         placement policy (and, for +start-gap rows, controller rotation) is \
         the only variable across rows",
    );
    table
}

/// Degraded-mode sweep: drive E2-NVM *past* the first death and track
/// how capacity shrinks while serving continues — retired segments vs
/// writes, until the pool is depleted (or the write budget runs out).
///
/// The sweep runs twice over identically seeded devices: once with a
/// pass-through controller (`none`) and once under Start-Gap rotation
/// (`start-gap`). The second run is the full stack the paper's
/// degradation story needs: E2 placement chooses logical targets, the
/// controller rotates the logical→physical remap, and each death
/// retires the logical id from the placement pool *and* quarantines
/// the physical slot the dying write actually hit — all three
/// mechanisms composing over one address-translation layer.
pub fn life02(scale: Scale) -> Table {
    let segment_bytes = 64;
    let num_segments = scale.pick(32, 64);
    let psi: u64 = 16;
    let endurance_bits = scale.pick(4_000u64, 10_000);
    let budget = scale.pick(6_000usize, 50_000);
    let mut rng = StdRng::seed_from_u64(0x11FE_0002);
    let resident = DatasetKind::MnistLike.generate_sized(num_segments, segment_bytes, &mut rng);
    let incoming = DatasetKind::MnistLike.generate_sized(1024, segment_bytes, &mut rng);

    let make_device = || {
        let cfg = DeviceConfig::builder()
            .segment_bytes(segment_bytes)
            .num_segments(num_segments)
            .wear_tracking(WearTracking::None)
            .fault(FaultConfig {
                seed: 0xE2_FA17,
                endurance_bits,
                endurance_shape: 3.0,
                transient_rate: 0.0,
            })
            .build()
            .expect("valid fault device config");
        let mut dev = NvmDevice::new(cfg);
        for (i, data) in resident.iter().enumerate() {
            dev.seed_segment(PhysicalSegment(i), data).expect("seed");
        }
        dev
    };

    let mut table = Table::new(
        "life02",
        "E2-NVM graceful degradation: retired segments vs writes served, \
         with and without start-gap wear leveling",
        &[
            "wear_leveling",
            "writes",
            "retired_segments",
            "live_segments",
            "depleted",
        ],
    );
    let checkpoint = budget / 10;
    let quick_cfg = || E2System::quick_config(segment_bytes, 4);
    let systems: Vec<(&str, E2System)> = vec![
        (
            "none",
            E2System::new(make_device(), quick_cfg(), 0.5).expect("e2 system"),
        ),
        (
            "start-gap",
            E2System::new(
                MemoryController::with_start_gap(make_device(), psi),
                quick_cfg(),
                0.5,
            )
            .expect("e2 start-gap system"),
        ),
    ];
    for (wl, mut sys) in systems {
        // The logical pool the engine degrades through: one slot
        // smaller than the device under start-gap (the reserved gap).
        let pool = sys.engine_mut().controller().num_segments();
        let mut depleted_at = None;
        for w in 0..budget {
            let value = &incoming[w % incoming.len()];
            if let Err(e) = sys.write(value) {
                // Pool dry: every further placement fails the same way.
                depleted_at = Some((w, e));
                break;
            }
            if (w + 1) % checkpoint == 0 {
                let retired = sys.engine_mut().retired_count();
                table.row(vec![
                    wl.into(),
                    (w + 1).to_string(),
                    retired.to_string(),
                    (pool - retired).to_string(),
                    "no".into(),
                ]);
            }
        }
        if let Some((w, e)) = depleted_at {
            let retired = sys.engine_mut().retired_count();
            table.row(vec![
                wl.into(),
                w.to_string(),
                retired.to_string(),
                (pool - retired).to_string(),
                "yes".into(),
            ]);
            table.note(format!("{wl}: pool depleted after {w} writes: {e}"));
        } else {
            table.note(format!(
                "{wl}: write budget {budget} exhausted before depletion ({} segments retired)",
                sys.engine_mut().retired_count()
            ));
        }
    }
    table.note("capacity shrinks monotonically; every served write stayed verifiable");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Scale {
        Scale { quick: true }
    }

    #[test]
    fn life01_e2_outlives_dcw() {
        let t = life01(quick());
        assert_eq!(t.rows.len(), 6);
        let life = |row: &[String]| row[1].parse::<usize>().unwrap();
        let dcw = life(&t.rows[0]);
        let e2 = life(&t.rows[3]);
        assert!(e2 > dcw, "E2-NVM must outlive DCW: e2={e2} dcw={dcw}");
        // The DCW baseline must actually die within the cap, or the
        // comparison is vacuous.
        assert_eq!(t.rows[0][5], "no", "DCW run was censored");
        // Wear-leveling-on rows: same ψ, same devices, so the only
        // variable is placement — E2 behind start-gap must sustain at
        // least as many writes as DCW behind start-gap.
        assert!(t.rows[4][0].contains("start-gap"));
        assert!(t.rows[5][0].starts_with("E2-NVM"));
        let dcw_sg = life(&t.rows[4]);
        let e2_sg = life(&t.rows[5]);
        assert!(
            e2_sg >= dcw_sg,
            "E2+start-gap must not die before DCW+start-gap: e2={e2_sg} dcw={dcw_sg}"
        );
    }

    #[test]
    fn life02_degrades_monotonically() {
        let t = life02(quick());
        assert!(!t.rows.is_empty());
        for wl in ["none", "start-gap"] {
            let rows: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[0] == wl).collect();
            assert!(!rows.is_empty(), "no rows for wear_leveling={wl}");
            let retired: Vec<usize> = rows.iter().map(|r| r[2].parse().unwrap()).collect();
            assert!(
                retired.windows(2).all(|w| w[0] <= w[1]),
                "retired count must be monotone for {wl}: {retired:?}"
            );
            // Live + retired always equals the logical pool size: the
            // full device without wear leveling, one less under
            // start-gap (the controller's reserved gap slot).
            let pool = if wl == "none" { 32 } else { 31 };
            for r in &rows {
                let ret: usize = r[2].parse().unwrap();
                let live: usize = r[3].parse().unwrap();
                assert_eq!(ret + live, pool, "pool size drifted for {wl}");
            }
        }
    }
}
