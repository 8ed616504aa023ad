//! Property tests for the device model: flip accounting must agree with
//! naive XOR popcount, contents must always read back, and the
//! controller's remap must stay a bijection under arbitrary traffic.

use e2nvm_sim::bitops::{hamming, one_to_zero, transitions, zero_to_one};
use e2nvm_sim::{
    DeviceConfig, FaultConfig, LogicalSegment, MemoryController, NvmDevice, PhysicalSegment,
    WearTracking,
};
use proptest::prelude::*;

fn segment_data(len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bits flipped by a full-segment write equals the hamming distance
    /// between old and new content, regardless of line skipping.
    #[test]
    fn flips_equal_hamming(old in segment_data(256), new in segment_data(256)) {
        let cfg = DeviceConfig::builder().segment_bytes(256).num_segments(2).build().unwrap();
        let mut dev = NvmDevice::new(cfg);
        let seg = dev.segment(0);
        dev.seed_segment(seg, &old).unwrap();
        let expected = hamming(&old, &new);
        let r = dev.write(seg, &new).unwrap();
        prop_assert_eq!(r.bits_flipped, expected);
        prop_assert_eq!(dev.peek(seg), &new[..]);
    }

    /// A partial write only changes the addressed range, and its flip
    /// count equals the hamming distance over that range.
    #[test]
    fn partial_write_is_local(
        old in segment_data(256),
        data in proptest::collection::vec(any::<u8>(), 1..64),
        offset in 0usize..200,
    ) {
        prop_assume!(offset + data.len() <= 256);
        let cfg = DeviceConfig::builder().segment_bytes(256).num_segments(1).build().unwrap();
        let mut dev = NvmDevice::new(cfg);
        let seg = dev.segment(0);
        dev.seed_segment(seg, &old).unwrap();
        let r = dev.write_at(seg, offset, &data).unwrap();
        prop_assert_eq!(r.bits_flipped, hamming(&old[offset..offset + data.len()], &data));
        let now = dev.peek(seg);
        prop_assert_eq!(&now[offset..offset + data.len()], &data[..]);
        prop_assert_eq!(&now[..offset], &old[..offset]);
        prop_assert_eq!(&now[offset + data.len()..], &old[offset + data.len()..]);
    }

    /// The one-pass transition count is the three separate passes, on
    /// line pairs that share most bytes as well as on unrelated ones —
    /// and a partial write's report is the per-line sum of them.
    #[test]
    fn write_report_equals_the_three_pass_reference(
        old in segment_data(256),
        noise in segment_data(256),
        keep in proptest::collection::vec(any::<bool>(), 256),
        offset in 0usize..256,
        len in 0usize..257,
    ) {
        let len = len.min(256 - offset);
        let new: Vec<u8> = (0..256).map(|i| if keep[i] { old[i] } else { noise[i] }).collect();
        let (set, reset) = transitions(&old, &new);
        prop_assert_eq!(set, zero_to_one(&old, &new));
        prop_assert_eq!(reset, one_to_zero(&old, &new));
        prop_assert_eq!(set + reset, hamming(&old, &new));

        let cfg = DeviceConfig::builder().segment_bytes(256).num_segments(1).build().unwrap();
        let line = cfg.cache_line_bytes;
        let mut dev = NvmDevice::new(cfg);
        let seg = dev.segment(0);
        dev.seed_segment(seg, &old).unwrap();
        let r = dev.write_at(seg, offset, &new[offset..offset + len]).unwrap();
        let (mut written, mut skipped, mut set, mut reset) = (0, 0, 0, 0);
        for lstart in (0..256).step_by(line) {
            let (a, b) = (offset.max(lstart), (offset + len).min(lstart + line));
            if a >= b {
                continue;
            }
            if old[a..b] == new[a..b] {
                skipped += 1;
            } else {
                written += 1;
                set += zero_to_one(&old[a..b], &new[a..b]);
                reset += one_to_zero(&old[a..b], &new[a..b]);
            }
        }
        prop_assert_eq!(
            (r.lines_written, r.lines_skipped, r.bits_set, r.bits_reset, r.bits_flipped),
            (written, skipped, set, reset, set + reset)
        );
        prop_assert_eq!(r.bits_flipped, hamming(&old[offset..offset + len], &new[offset..offset + len]));
    }

    /// Lines written + lines skipped is the number of lines the write
    /// touches; skipped lines carry zero flips.
    #[test]
    fn line_accounting_totals(old in segment_data(512), new in segment_data(512)) {
        let cfg = DeviceConfig::builder()
            .segment_bytes(512)
            .num_segments(1)
            .build()
            .unwrap();
        let mut dev = NvmDevice::new(cfg);
        let seg = dev.segment(0);
        dev.seed_segment(seg, &old).unwrap();
        let r = dev.write(seg, &new).unwrap();
        prop_assert_eq!(r.lines_written + r.lines_skipped, 8);
        // Per-line check: a line is skipped iff identical.
        let mut expect_written = 0;
        for li in 0..8 {
            if old[li * 64..(li + 1) * 64] != new[li * 64..(li + 1) * 64] {
                expect_written += 1;
            }
        }
        prop_assert_eq!(r.lines_written, expect_written);
    }

    /// Under random-swap wear leveling and arbitrary write traffic, the
    /// logical view is preserved and the remap stays a bijection.
    #[test]
    fn controller_preserves_logical_contents(
        writes in proptest::collection::vec((0usize..6, any::<u8>()), 1..80),
        psi in 1u64..8,
    ) {
        let cfg = DeviceConfig::builder().segment_bytes(128).num_segments(6).build().unwrap();
        let mut mc = MemoryController::with_random_swap(NvmDevice::new(cfg), psi, 42);
        let mut shadow: Vec<Vec<u8>> = vec![vec![0u8; 128]; 6];
        for (seg, fill) in writes {
            let data = vec![fill; 128];
            mc.write(LogicalSegment(seg), &data).unwrap();
            shadow[seg] = data;
            prop_assert!(mc.remap_is_consistent());
        }
        for (i, expect) in shadow.iter().enumerate() {
            prop_assert_eq!(mc.peek(LogicalSegment(i)).unwrap(), &expect[..]);
        }
    }

    /// Start-gap: same preservation property, with one reserved segment.
    #[test]
    fn start_gap_preserves_logical_contents(
        writes in proptest::collection::vec((0usize..5, any::<u8>()), 1..80),
        psi in 1u64..5,
    ) {
        let cfg = DeviceConfig::builder().segment_bytes(128).num_segments(6).build().unwrap();
        let mut mc = MemoryController::with_start_gap(NvmDevice::new(cfg), psi);
        prop_assert_eq!(mc.num_segments(), 5);
        let mut shadow: Vec<Vec<u8>> = vec![vec![0u8; 128]; 5];
        for (seg, fill) in writes {
            let data = vec![fill; 128];
            mc.write(LogicalSegment(seg), &data).unwrap();
            shadow[seg] = data;
            prop_assert!(mc.remap_is_consistent());
        }
        for (i, expect) in shadow.iter().enumerate() {
            prop_assert_eq!(mc.peek(LogicalSegment(i)).unwrap(), &expect[..]);
        }
    }

    /// Per-bit wear counters sum to total flips (small pool).
    #[test]
    fn wear_counters_sum_to_flips(datas in proptest::collection::vec(segment_data(64), 1..20)) {
        let cfg = DeviceConfig::builder()
            .segment_bytes(64)
            .num_segments(2)
            .block_bytes(64)
            .wear_tracking(WearTracking::PerBit)
            .build()
            .unwrap();
        let mut dev = NvmDevice::new(cfg);
        let seg = dev.segment(0);
        for d in &datas {
            dev.write(seg, d).unwrap();
        }
        let total: u64 = dev
            .wear()
            .per_bit_flips()
            .unwrap()
            .iter()
            .map(|&v| v as u64)
            .sum();
        prop_assert_eq!(total, dev.stats().bits_flipped);
    }

    /// Energy is monotone: more flips with the same content length never
    /// costs less.
    #[test]
    fn energy_nonnegative_and_bounded(old in segment_data(256), new in segment_data(256)) {
        let cfg = DeviceConfig::builder().segment_bytes(256).num_segments(1).build().unwrap();
        let mut dev = NvmDevice::new(cfg.clone());
        let seg = dev.segment(0);
        dev.seed_segment(seg, &old).unwrap();
        let r = dev.write(seg, &new).unwrap();
        let worst = cfg.energy.write_energy_pj(4, 256 * 8);
        prop_assert!(r.energy_pj >= 0.0);
        prop_assert!(r.energy_pj <= worst);
    }

    /// Fault injection that cannot fire (zero transient rate, an
    /// endurance budget no workload can reach) is bitwise inert: over
    /// arbitrary write traffic a fault-carrying device produces exactly
    /// the same reports, stats, and contents as a plain one. This pins
    /// the acceptance criterion that faults-disabled behavior is
    /// identical to the pre-fault device.
    #[test]
    fn unreachable_fault_config_is_bitwise_inert(
        writes in proptest::collection::vec(
            (0usize..4, segment_data(128)), 1..40),
    ) {
        let plain_cfg = DeviceConfig::builder()
            .segment_bytes(128)
            .num_segments(4)
            .build()
            .unwrap();
        let guarded_cfg = DeviceConfig::builder()
            .segment_bytes(128)
            .num_segments(4)
            .fault(FaultConfig {
                seed: 7,
                endurance_bits: u64::MAX >> 8,
                endurance_shape: 3.0,
                transient_rate: 0.0,
            })
            .build()
            .unwrap();
        let mut plain = NvmDevice::new(plain_cfg);
        let mut guarded = NvmDevice::new(guarded_cfg);
        for (seg, data) in &writes {
            let a = plain.write(PhysicalSegment(*seg), data).unwrap();
            let b = guarded.write(PhysicalSegment(*seg), data).unwrap();
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(plain.stats(), guarded.stats());
        for seg in 0..4 {
            prop_assert_eq!(plain.peek(PhysicalSegment(seg)), guarded.peek(PhysicalSegment(seg)));
        }
        prop_assert_eq!(guarded.fault_stats(), e2nvm_sim::FaultStats::default());
        prop_assert_eq!(guarded.worn_out_count(), 0);
    }

    /// The fault model is deterministic: two identically configured
    /// devices fed the same traffic fail at exactly the same writes
    /// with exactly the same reported bits.
    #[test]
    fn fault_injection_is_deterministic(
        writes in proptest::collection::vec(
            (0usize..4, segment_data(128)), 1..60),
        seed in any::<u64>(),
    ) {
        let build = || {
            NvmDevice::new(
                DeviceConfig::builder()
                    .segment_bytes(128)
                    .num_segments(4)
                    .fault(FaultConfig {
                        seed,
                        endurance_bits: 40_000,
                        endurance_shape: 3.0,
                        transient_rate: 0.05,
                    })
                    .build()
                    .unwrap(),
            )
        };
        let mut a = build();
        let mut b = build();
        for (seg, data) in &writes {
            let ra = a.write(PhysicalSegment(*seg), data);
            let rb = b.write(PhysicalSegment(*seg), data);
            prop_assert_eq!(ra, rb);
        }
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.fault_stats(), b.fault_stats());
        for seg in 0..4 {
            prop_assert_eq!(a.peek(PhysicalSegment(seg)), b.peek(PhysicalSegment(seg)));
        }
    }

    /// The translation layer stays a bijection under arbitrary
    /// policy-generated SwapAction sequences interleaved with
    /// retirements: every logical id round-trips through the remap, no
    /// two logicals share a physical slot, and a retired physical keeps
    /// (or loses to the gap walk) exactly its own preimage — it is
    /// never silently reassigned to a *different* logical id.
    #[test]
    fn remap_stays_bijective_under_swaps_and_retirement(
        ops in proptest::collection::vec((0usize..5, any::<u8>(), any::<u8>()), 1..120),
        psi in 1u64..4,
        random_swap in any::<bool>(),
    ) {
        let cfg = DeviceConfig::builder().segment_bytes(64).num_segments(6).build().unwrap();
        let mut mc = if random_swap {
            MemoryController::with_random_swap(NvmDevice::new(cfg), psi, 7)
        } else {
            MemoryController::with_start_gap(NvmDevice::new(cfg), psi)
        };
        let logical_n = mc.num_segments();
        let mut retired_owner: Vec<(PhysicalSegment, LogicalSegment)> = Vec::new();
        for (seg, fill, retire_draw) in ops {
            let retire = retire_draw < 13; // ~5% of ops retire
            let seg = seg % logical_n;
            mc.write(LogicalSegment(seg), &[fill; 64]).unwrap();
            if retire {
                let phys = mc.retire(LogicalSegment(seg)).unwrap();
                prop_assert!(mc.is_retired(phys));
                retired_owner.push((phys, LogicalSegment(seg)));
            }
            // Bijection both ways, every step.
            prop_assert!(mc.remap_is_consistent());
            for l in 0..logical_n {
                let p = mc.remap().physical(LogicalSegment(l)).unwrap();
                prop_assert_eq!(mc.remap().logical(p), Some(LogicalSegment(l)));
            }
            // Quarantine sticks to the physical slot, and the slot is
            // never handed to a different logical id.
            for &(phys, owner) in &retired_owner {
                prop_assert!(mc.is_retired(phys));
                let now = mc.remap().logical(phys);
                prop_assert!(
                    now == Some(owner) || now.is_none(),
                    "retired {} reassigned from {} to {:?}", phys, owner, now
                );
            }
        }
        prop_assert_eq!(mc.retired_physical().len(),
            retired_owner.iter().map(|(p, _)| p).collect::<std::collections::HashSet<_>>().len());
    }

    /// A prefetch is only a hint. One random op sequence, run twice on
    /// a start-gap or a pass-through controller with per-bit wear
    /// tracking — once with the controller's `prefetch` and the
    /// device's own (of 0 to 63 bytes and of more than the segment)
    /// interleaved on ids that include the last segment,
    /// `num_segments` and far beyond, while the gap rotates — leaves
    /// identical stats, wear counters, remap and bytes, and nothing
    /// panics.
    #[test]
    fn a_prefetch_is_only_a_hint(
        ops in proptest::collection::vec(
            (0u8..3, 0usize..5, 0usize..64, segment_data(64), hint_id(), hint_id()),
            1..60),
        psi in 1u64..4,
        rotate in any::<bool>(),
    ) {
        let run = |hinted: bool| {
            let cfg = DeviceConfig::builder()
                .segment_bytes(64)
                .num_segments(6)
                .block_bytes(64)
                .wear_tracking(WearTracking::PerBit)
                .build()
                .unwrap();
            let dev = NvmDevice::new(cfg);
            let mut mc = if rotate {
                MemoryController::with_start_gap(dev, psi)
            } else {
                MemoryController::without_wear_leveling(dev)
            };
            for (kind, seg, offset, data, a, b) in &ops {
                if hinted {
                    mc.prefetch(LogicalSegment(*a));
                    mc.device().prefetch(PhysicalSegment(*b), *offset);
                }
                let seg = LogicalSegment(*seg);
                match kind {
                    0 => {
                        mc.write(seg, data).unwrap();
                    }
                    1 => {
                        mc.write_at(seg, *offset, &data[*offset..]).unwrap();
                    }
                    _ => {
                        mc.read(seg).unwrap();
                    }
                }
                if hinted {
                    mc.prefetch(LogicalSegment(*b));
                    mc.device().prefetch(PhysicalSegment(*a), usize::MAX);
                }
            }
            mc
        };
        let (plain, hinted) = (run(false), run(true));
        prop_assert_eq!(plain.stats(), hinted.stats());
        prop_assert_eq!(plain.export_state(), hinted.export_state());
        let (pw, hw) = (plain.device().wear(), hinted.device().wear());
        prop_assert_eq!(pw.per_segment_writes(), hw.per_segment_writes());
        prop_assert_eq!(pw.per_bit_flips(), hw.per_bit_flips());
        for p in 0..6 {
            prop_assert_eq!(plain.device().peek(PhysicalSegment(p)), hinted.device().peek(PhysicalSegment(p)));
        }
    }
}

/// A segment id to prefetch: in range (logical 0–4 under start-gap,
/// physical 0–5), `num_segments` and just past it, far beyond, or the
/// largest ids, whose byte offsets would overflow.
fn hint_id() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..8,
        8usize..100_000,
        Just(usize::MAX / 64),
        Just(usize::MAX - 1),
        Just(usize::MAX),
    ]
}
