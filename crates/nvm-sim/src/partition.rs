//! Partitioning a device's segment space into disjoint shards.
//!
//! The sharded serving layer in `e2nvm-core` gives every shard its own
//! placement state (model, address pool, index) over a *disjoint* slice
//! of the global segment space. This module provides the slicing: a
//! [`SegmentRange`] names a shard's contiguous run of global segment
//! ids, and [`partition_device`] materialises one independent
//! [`NvmDevice`] per shard so that device accounting (flips, energy,
//! latency, wear) stays per-shard and can be re-aggregated with
//! [`DeviceStats::merge`](crate::DeviceStats::merge).
//!
//! Partition math is **logical-space only**: a [`SegmentRange`]
//! names a run of global [`LogicalSegment`]s, and each shard's
//! controller owns its own logical→physical remap below
//! that. The two layers must not be conflated — a shard's *physical*
//! slot count always equals its range length, but its *logical*
//! capacity can be smaller (start-gap reserves one slot), so sizing
//! software structures off `range.len` instead of
//! [`MemoryController::num_segments`] is exactly the logical/physical
//! mixing bug the typed ids exist to prevent.

use crate::addr::LogicalSegment;
use crate::config::DeviceConfig;
use crate::controller::MemoryController;
use crate::device::NvmDevice;
use crate::error::{Result, SimError};

/// A contiguous run of global segment ids owned by one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRange {
    /// First global segment id in the range.
    pub start: usize,
    /// Number of segments in the range.
    pub len: usize,
}

impl SegmentRange {
    /// Whether a global logical segment id falls in this range.
    #[inline]
    pub fn contains(&self, global: LogicalSegment) -> bool {
        let i = global.index();
        i >= self.start && i < self.start + self.len
    }

    /// One-past-the-end global segment id.
    #[inline]
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// Split `total` segments into `shards` contiguous disjoint ranges that
/// cover the whole space. The remainder is spread over the first
/// `total % shards` ranges, so range sizes differ by at most one.
pub fn partition_segments(total: usize, shards: usize) -> Result<Vec<SegmentRange>> {
    if shards == 0 {
        return Err(SimError::InvalidConfig("shards must be >= 1".into()));
    }
    if total < shards {
        return Err(SimError::InvalidConfig(format!(
            "cannot split {total} segments into {shards} shards"
        )));
    }
    let base = total / shards;
    let extra = total % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        out.push(SegmentRange { start, len });
        start += len;
    }
    debug_assert_eq!(start, total);
    Ok(out)
}

/// Build one independent device per shard, each sized to its range of
/// the global segment space described by `cfg`. Geometry, write
/// semantics, and the energy/latency/wear parameters are inherited from
/// `cfg`; only `num_segments` differs.
pub fn partition_device(
    cfg: &DeviceConfig,
    shards: usize,
) -> Result<Vec<(SegmentRange, NvmDevice)>> {
    let ranges = partition_segments(cfg.num_segments, shards)?;
    ranges
        .into_iter()
        .map(|range| {
            let mut shard_cfg = cfg.clone();
            shard_cfg.num_segments = range.len;
            shard_cfg.validate()?;
            Ok((range, NvmDevice::new(shard_cfg)))
        })
        .collect()
}

/// Like [`partition_device`], but wraps each shard device in a
/// pass-through [`MemoryController`] (no wear leveling) — the common
/// case for the sharded serving engine, where interference experiments
/// construct their own controllers.
pub fn partition_controllers(
    cfg: &DeviceConfig,
    shards: usize,
) -> Result<Vec<(SegmentRange, MemoryController)>> {
    partition_controllers_with(cfg, shards, MemoryController::without_wear_leveling)
}

/// Like [`partition_controllers`], but each shard device is wrapped by
/// `make` — e.g. `|dev| MemoryController::with_start_gap(dev, 64)` for
/// a wear-leveled sharded stack. Note a wear-leveling controller may
/// expose *fewer* logical segments than the shard's physical range
/// (start-gap reserves one slot); size software structures off
/// [`MemoryController::num_segments`], never off `range.len`.
pub fn partition_controllers_with(
    cfg: &DeviceConfig,
    shards: usize,
    make: impl Fn(NvmDevice) -> MemoryController,
) -> Result<Vec<(SegmentRange, MemoryController)>> {
    Ok(partition_device(cfg, shards)?
        .into_iter()
        .map(|(range, dev)| (range, make(dev)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysicalSegment;
    use crate::stats::DeviceStats;

    #[test]
    fn ranges_are_disjoint_and_cover() {
        for (total, shards) in [(16, 1), (16, 4), (17, 4), (19, 8), (8, 8)] {
            let ranges = partition_segments(total, shards).unwrap();
            assert_eq!(ranges.len(), shards);
            assert_eq!(ranges[0].start, 0);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end(), pair[1].start, "gap or overlap");
            }
            assert_eq!(ranges.last().unwrap().end(), total);
            let (min, max) = ranges.iter().fold((usize::MAX, 0), |(lo, hi), r| {
                (lo.min(r.len), hi.max(r.len))
            });
            assert!(max - min <= 1, "uneven split: {min}..{max}");
        }
    }

    #[test]
    fn degenerate_partitions_rejected() {
        assert!(partition_segments(4, 0).is_err());
        assert!(partition_segments(3, 4).is_err());
    }

    #[test]
    fn ranges_contain_only_their_own_segments() {
        let r = partition_segments(10, 3).unwrap()[1];
        assert!((r.start..r.end()).all(|i| r.contains(LogicalSegment(i))));
        assert!(!r.contains(LogicalSegment(r.start - 1)));
        assert!(!r.contains(LogicalSegment(r.end())));
    }

    #[test]
    fn shard_devices_are_independent_and_stats_merge() {
        let cfg = DeviceConfig::builder()
            .segment_bytes(64)
            .num_segments(10)
            .build()
            .unwrap();
        let mut shards = partition_device(&cfg, 3).unwrap();
        assert_eq!(
            shards.iter().map(|(r, _)| r.len).sum::<usize>(),
            cfg.num_segments
        );
        // Write to shard 0 only; shard 1 sees no traffic.
        let (_, dev0) = &mut shards[0];
        dev0.write(PhysicalSegment(0), &[0xFF; 64]).unwrap();
        assert_eq!(shards[0].1.stats().writes, 1);
        assert_eq!(shards[1].1.stats().writes, 0);
        // Merged stats equal the sum over shards.
        let mut merged = DeviceStats::default();
        for (_, dev) in &shards {
            merged.merge(dev.stats());
        }
        assert_eq!(merged.writes, 1);
        assert_eq!(merged.bits_flipped, 64 * 8);
    }

    #[test]
    fn partition_controllers_expose_full_capacity() {
        let cfg = DeviceConfig::builder()
            .segment_bytes(64)
            .num_segments(12)
            .build()
            .unwrap();
        let shards = partition_controllers(&cfg, 4).unwrap();
        for (range, mc) in &shards {
            assert_eq!(mc.num_segments(), range.len);
        }
    }

    #[test]
    fn wear_leveled_shards_reserve_gap_capacity() {
        // Regression pin for the logical/physical mixing bug: under
        // start-gap a shard's logical capacity is one less than its
        // physical range, and shard-local logical ids stay valid across
        // relocations.
        let cfg = DeviceConfig::builder()
            .segment_bytes(64)
            .num_segments(12)
            .build()
            .unwrap();
        let mut shards =
            partition_controllers_with(&cfg, 3, |dev| MemoryController::with_start_gap(dev, 1))
                .unwrap();
        for (range, mc) in &mut shards {
            assert_eq!(range.len, 4, "physical slots per shard");
            assert_eq!(mc.num_segments(), 3, "logical capacity excludes the gap");
            for round in 0..10usize {
                for l in 0..mc.num_segments() {
                    mc.write(LogicalSegment(l), &[round as u8; 64]).unwrap();
                }
            }
            assert!(!mc.remap().is_identity(), "psi=1 must have rotated");
            assert!(mc.remap_is_consistent());
            // Every shard-local logical id still resolves; range-sized
            // ids (the old bug) do not.
            for l in 0..mc.num_segments() {
                assert!(mc.peek(LogicalSegment(l)).is_ok());
            }
            assert!(mc.peek(LogicalSegment(range.len - 1)).is_err());
        }
    }
}
