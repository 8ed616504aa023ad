//! The simulated NVM device: a segment pool with cache-line write
//! semantics and full flip/energy/latency accounting.

use crate::addr::PhysicalSegment;
use crate::bitops;
use crate::config::DeviceConfig;
use crate::error::{Result, SimError};
use crate::fault::{FaultModel, FaultStats};
use crate::stats::{DeviceStats, WearCounters};
use crate::telemetry::DeviceTelemetry;
use e2nvm_telemetry::TelemetryRegistry;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Accounting for a single write operation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WriteReport {
    /// Cache lines actually transferred to media.
    pub lines_written: u64,
    /// Cache lines skipped because their content was unchanged.
    pub lines_skipped: u64,
    /// Bits whose stored value changed.
    pub bits_flipped: u64,
    /// 0→1 transitions (SET pulses) among the flipped bits.
    pub bits_set: u64,
    /// 1→0 transitions (RESET pulses) among the flipped bits.
    pub bits_reset: u64,
    /// Bits that received a programming pulse (== `bits_flipped` with
    /// media DCW; every bit of written lines without).
    pub bits_programmed: u64,
    /// Energy consumed, pJ.
    pub energy_pj: f64,
    /// Modeled latency, ns.
    pub latency_ns: f64,
}

impl WriteReport {
    /// Merge another report into this one (summing all counters).
    pub fn merge(&mut self, other: &WriteReport) {
        self.lines_written += other.lines_written;
        self.lines_skipped += other.lines_skipped;
        self.bits_flipped += other.bits_flipped;
        self.bits_set += other.bits_set;
        self.bits_reset += other.bits_reset;
        self.bits_programmed += other.bits_programmed;
        self.energy_pj += other.energy_pj;
        self.latency_ns += other.latency_ns;
    }
}

/// The simulated device.
///
/// All mutation goes through `&mut self`; callers that need sharing wrap
/// the device in a lock (see `e2nvm-core`).
#[derive(Debug, Clone)]
pub struct NvmDevice {
    cfg: DeviceConfig,
    data: Vec<u8>,
    stats: DeviceStats,
    /// Everything accounted before the last [`NvmDevice::reset_stats`]:
    /// touched only there, so the lifetime totals stay monotonic.
    lifetime: DeviceStats,
    wear: WearCounters,
    telemetry: DeviceTelemetry,
    /// Present iff `cfg.fault` is set; `None` keeps every write path
    /// exactly as it was before fault injection existed.
    fault: Option<FaultModel>,
}

impl NvmDevice {
    /// Create a zero-initialized device.
    ///
    /// # Panics
    /// Panics if `cfg` is invalid; validate with
    /// [`DeviceConfig::validate`] (the builder does this) first.
    pub fn new(cfg: DeviceConfig) -> Self {
        cfg.validate().expect("invalid DeviceConfig");
        let pool = cfg.pool_bytes();
        let wear = WearCounters::new(cfg.wear_tracking, cfg.num_segments, pool);
        let fault = cfg
            .fault
            .as_ref()
            .map(|fc| FaultModel::new(fc.clone(), cfg.num_segments));
        Self {
            data: vec![0u8; pool],
            stats: DeviceStats::default(),
            lifetime: DeviceStats::default(),
            wear,
            telemetry: DeviceTelemetry::disconnected(),
            fault,
            cfg,
        }
    }

    /// Register this device's per-write histograms on `registry`
    /// (labeled by `labels`, e.g. `[("shard", "0")]`) and start feeding
    /// them. The counters are read from the ledger instead, by whoever
    /// owns the device (see [`crate::telemetry::emit`]). Cloning the
    /// device shares the handles.
    pub fn attach_telemetry(&mut self, registry: &TelemetryRegistry, labels: &[(&str, &str)]) {
        self.telemetry = DeviceTelemetry::register(registry, labels);
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Number of segments in the pool.
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.cfg.num_segments
    }

    /// Construct a [`PhysicalSegment`], panicking if out of range. Use
    /// [`NvmDevice::try_segment`] for fallible construction.
    #[inline]
    pub fn segment(&self, index: usize) -> PhysicalSegment {
        self.try_segment(index).expect("segment index out of range")
    }

    /// Construct a [`PhysicalSegment`], returning an error if out of range.
    pub fn try_segment(&self, index: usize) -> Result<PhysicalSegment> {
        if index < self.cfg.num_segments {
            Ok(PhysicalSegment(index))
        } else {
            Err(SimError::SegmentOutOfRange {
                segment: index,
                num_segments: self.cfg.num_segments,
            })
        }
    }

    /// Iterator over every segment id.
    pub fn segments(&self) -> impl Iterator<Item = PhysicalSegment> {
        (0..self.cfg.num_segments).map(PhysicalSegment)
    }

    pub(crate) fn check(&self, seg: PhysicalSegment) -> Result<usize> {
        if seg.0 >= self.cfg.num_segments {
            return Err(SimError::SegmentOutOfRange {
                segment: seg.0,
                num_segments: self.cfg.num_segments,
            });
        }
        Ok(seg.0 * self.cfg.segment_bytes)
    }

    /// Read a full segment, with read accounting.
    pub fn read(&mut self, seg: PhysicalSegment) -> Result<&[u8]> {
        let base = self.check(seg)?;
        self.charge_reads(1);
        Ok(&self.data[base..base + self.cfg.segment_bytes])
    }

    /// The one read-accounting path: charge `n` full-segment reads.
    /// The energy and latency totals take `n` separate additions of
    /// the per-read cost, in order, exactly as `n` calls of
    /// [`NvmDevice::read`] would make them — so a run charged at once
    /// leaves [`DeviceStats`] bit for bit where the single reads would
    /// — and the read count takes one addition.
    pub(crate) fn charge_reads(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        let lines = self.cfg.lines_per_segment() as u64;
        let energy = self.cfg.energy.read_energy_pj(lines);
        let latency = self.cfg.latency.read_ns(lines);
        let (mut energy_pj, mut latency_ns) = (self.stats.energy_pj, self.stats.latency_ns);
        for _ in 0..n {
            energy_pj += energy;
            latency_ns += latency;
        }
        self.stats.energy_pj = energy_pj;
        self.stats.latency_ns = latency_ns;
        self.stats.reads += n;
    }

    /// Inspect a segment's content without any accounting. Placement
    /// models use this during training snapshots; it does not model a
    /// media read.
    pub fn peek(&self, seg: PhysicalSegment) -> &[u8] {
        let base = seg.0 * self.cfg.segment_bytes;
        &self.data[base..base + self.cfg.segment_bytes]
    }

    /// Write a full segment. `data.len()` must equal the segment size.
    pub fn write(&mut self, seg: PhysicalSegment, data: &[u8]) -> Result<WriteReport> {
        if data.len() != self.cfg.segment_bytes {
            return Err(SimError::SizeMismatch {
                expected: self.cfg.segment_bytes,
                actual: data.len(),
            });
        }
        self.write_at(seg, 0, data)
    }

    /// Write `data` starting at `offset` within the segment. Writes are
    /// applied at cache-line granularity: a partially covered line is
    /// read-modify-written, and any resulting line identical to the
    /// stored line is skipped entirely.
    pub fn write_at(
        &mut self,
        seg: PhysicalSegment,
        offset: usize,
        data: &[u8],
    ) -> Result<WriteReport> {
        let base = self.check(seg)?;
        if offset + data.len() > self.cfg.segment_bytes {
            return Err(SimError::RangeOutOfBounds {
                offset,
                len: data.len(),
                segment_bytes: self.cfg.segment_bytes,
            });
        }
        // A worn-out segment rejects every write up front: its cells are
        // stuck, no pulses are issued, nothing is accounted.
        if let Some(f) = &mut self.fault {
            if f.is_worn(seg) {
                f.record_rejection();
                return Err(SimError::SegmentWornOut {
                    segment: seg.0,
                    stuck_bits: 0,
                });
            }
        }
        let line = self.cfg.cache_line_bytes;
        let seg_len = self.cfg.segment_bytes;
        let mut report = WriteReport::default();

        if data.is_empty() {
            // A zero-length write still models a request round-trip.
            report.latency_ns = self.cfg.latency.write_ns(0);
            report.energy_pj = self.cfg.energy.write_energy_pj(0, 0);
            self.account(seg, 0, &report);
            return Ok(report);
        }

        // Transient fault pre-stage: a failing write programs only a
        // subset of the differing bytes. The normal loop below then runs
        // on this `effective` buffer — the pulses that did land are
        // accounted at full price — and the write reports the bits that
        // failed program-and-verify.
        let mut transient_failed_bits = 0u64;
        let effective: Option<Vec<u8>> = match &mut self.fault {
            Some(f) => {
                if f.transient_fires() {
                    let old = &self.data[base + offset..base + offset + data.len()];
                    f.corrupt_transient(old, data).map(|(eff, bits)| {
                        transient_failed_bits = bits;
                        eff
                    })
                } else {
                    None
                }
            }
            None => None,
        };
        let write_data: &[u8] = effective.as_deref().unwrap_or(data);

        // Lines the write touches (line grid is segment-relative; for
        // sub-line segments the whole segment is one line).
        let first_line = offset / line;
        let last_line = (offset + data.len() - 1) / line;

        for li in first_line..=last_line {
            let lstart = li * line;
            let lend = (lstart + line).min(seg_len);
            // Overlap of [offset, offset+len) with this line.
            let ostart = offset.max(lstart);
            let oend = (offset + data.len()).min(lend);
            let old_region = &self.data[base + ostart..base + oend];
            let new_region = &write_data[ostart - offset..oend - offset];
            let (set, reset) = bitops::transitions(old_region, new_region);
            let flips = set + reset;
            if flips == 0 {
                report.lines_skipped += 1;
                continue;
            }
            report.lines_written += 1;
            report.bits_flipped += flips;
            report.bits_set += set;
            report.bits_reset += reset;
            report.bits_programmed += if self.cfg.media_dcw {
                flips
            } else {
                ((lend - lstart) * 8) as u64
            };
            // Wear: per-byte flip masks, then apply the new content.
            if self.wear.per_bit_flips().is_some() {
                let diffs: Vec<(usize, u8)> = bitops::differing_bytes(old_region, new_region)
                    .map(|(i, m)| (base + ostart + i, m))
                    .collect();
                for (abs, mask) in diffs {
                    self.wear.record_byte_flips(abs, mask);
                }
            }
            self.data[base + ostart..base + oend].copy_from_slice(new_region);
        }

        report.energy_pj = if self.cfg.media_dcw {
            // With differential writes the flip directions are known:
            // price SET and RESET pulses separately.
            self.cfg.energy.write_energy_directional_pj(
                report.lines_written,
                report.bits_set,
                report.bits_reset,
            )
        } else {
            self.cfg
                .energy
                .write_energy_pj(report.lines_written, report.bits_programmed)
        };
        report.latency_ns = self.cfg.latency.write_ns(report.lines_written);
        self.account(seg, (data.len() * 8) as u64, &report);

        // Endurance post-stage: the pulses above count against the
        // segment's lifetime budget. Crossing the limit wears the
        // segment out *now* — some freshly programmed cells latch the
        // wrong value and program-and-verify reports the write failed.
        if let Some(f) = &mut self.fault {
            if f.on_programmed(seg.0, report.bits_programmed) {
                let stuck_bits = {
                    let region = &mut self.data[base..base + seg_len];
                    // `fault` and `data` are disjoint fields; re-borrow
                    // immutably for the deterministic corruption pattern.
                    f.stuck_corruption(seg.0, region)
                };
                return Err(SimError::SegmentWornOut {
                    segment: seg.0,
                    stuck_bits,
                });
            }
        }
        if transient_failed_bits > 0 {
            return Err(SimError::WriteFailed {
                segment: seg.0,
                failed_bits: transient_failed_bits,
            });
        }
        Ok(report)
    }

    fn account(&mut self, seg: PhysicalSegment, bits_requested: u64, report: &WriteReport) {
        self.stats.writes += 1;
        self.stats.lines_written += report.lines_written;
        self.stats.lines_skipped += report.lines_skipped;
        self.stats.bits_flipped += report.bits_flipped;
        self.stats.bits_set += report.bits_set;
        self.stats.bits_reset += report.bits_reset;
        self.stats.bits_programmed += report.bits_programmed;
        self.stats.bits_requested += bits_requested;
        self.stats.energy_pj += report.energy_pj;
        self.stats.latency_ns += report.latency_ns;
        let t = &self.telemetry;
        t.flips_per_write.observe(report.bits_flipped);
        t.write_latency_ns.observe(report.latency_ns as u64);
        self.wear.record_segment_write(seg.0);
    }

    /// Physically exchange the contents of two segments (a wear-leveling
    /// swap). Accounted as two reads plus two writes; the bit flips of
    /// rewriting both segments are charged — the paper notes wear
    /// leveling "may introduce more bit flips ... due to the swap
    /// operation".
    ///
    /// Transient program-and-verify failures are retried in place (a
    /// bounded number of times, each retry re-programming only the bits
    /// that failed), modeling the controller hardware's retry loop: a
    /// half-landed exchange must not escape, because the caller updates
    /// its remap table only on success.
    pub fn swap_segments(&mut self, a: PhysicalSegment, b: PhysicalSegment) -> Result<WriteReport> {
        self.check(a)?;
        self.check(b)?;
        if a == b {
            return Ok(WriteReport::default());
        }
        let a_content = self.peek(a).to_vec();
        let b_content = self.peek(b).to_vec();
        let lines = self.cfg.lines_per_segment() as u64;
        // Two media reads.
        self.stats.reads += 2;
        self.stats.energy_pj += 2.0 * self.cfg.energy.read_energy_pj(lines);
        self.stats.latency_ns += 2.0 * self.cfg.latency.read_ns(lines);
        let mut report = self.write_retrying_transients(a, &b_content)?;
        let r2 = self.write_retrying_transients(b, &a_content)?;
        report.merge(&r2);
        self.stats.swaps += 1;
        Ok(report)
    }

    /// Full-segment write that retries transient failures in place
    /// (relocation traffic only — user writes surface transients to the
    /// engine, which owns the retry budget). Each failed attempt
    /// partially programs the segment, so retries converge on the
    /// remaining diff; all issued pulses stay accounted.
    pub(crate) fn write_retrying_transients(
        &mut self,
        seg: PhysicalSegment,
        data: &[u8],
    ) -> Result<WriteReport> {
        const MAX_ATTEMPTS: u32 = 16;
        let mut merged = WriteReport::default();
        for _ in 0..MAX_ATTEMPTS - 1 {
            match self.write(seg, data) {
                Ok(r) => {
                    merged.merge(&r);
                    return Ok(merged);
                }
                Err(SimError::WriteFailed { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        let r = self.write(seg, data)?;
        merged.merge(&r);
        Ok(merged)
    }

    /// Programming pulses a full-segment [`NvmDevice::write`] of `data`
    /// to `seg` would issue, computed without performing it: the
    /// content diff under media DCW, or every bit of each changed line
    /// without. Used by the wear-leveling relocation pre-check.
    pub fn write_programmed_bits(&self, seg: PhysicalSegment, data: &[u8]) -> Result<u64> {
        let base = self.check(seg)?;
        if data.len() != self.cfg.segment_bytes {
            return Err(SimError::SizeMismatch {
                expected: self.cfg.segment_bytes,
                actual: data.len(),
            });
        }
        let line = self.cfg.cache_line_bytes;
        let seg_len = self.cfg.segment_bytes;
        let mut programmed = 0u64;
        let mut li = 0;
        while li * line < seg_len {
            let lstart = li * line;
            let lend = (lstart + line).min(seg_len);
            let old = &self.data[base + lstart..base + lend];
            let new = &data[lstart..lend];
            let flips = bitops::hamming(old, new);
            if flips > 0 {
                programmed += if self.cfg.media_dcw {
                    flips
                } else {
                    ((lend - lstart) * 8) as u64
                };
            }
            li += 1;
        }
        Ok(programmed)
    }

    /// Whether a full-segment write of `data` to `seg` could cross the
    /// segment's endurance limit (or `seg` is already worn out). Always
    /// `false` without fault injection.
    ///
    /// The check is exact when transient faults are off. With a nonzero
    /// transient rate a failed program-and-verify re-programs the
    /// remaining diff on retry, so a 4x headroom margin is required —
    /// conservative, never optimistic. The controller uses this to keep
    /// wear-leveling relocations from ever being the write that kills a
    /// segment: relocations that cannot prove headroom are skipped, so
    /// wear-out only happens on user writes, where the engine's
    /// retire-and-replace path guarantees no data is lost.
    pub fn write_would_wear_out(&self, seg: PhysicalSegment, data: &[u8]) -> Result<bool> {
        let Some(f) = &self.fault else {
            return Ok(false);
        };
        if f.is_worn(seg) {
            return Ok(true);
        }
        let programmed = self.write_programmed_bits(seg, data)?;
        let margin = if f.config().transient_rate > 0.0 {
            4
        } else {
            1
        };
        let headroom = f.limit(seg).saturating_sub(f.programmed_bits(seg));
        Ok(programmed.saturating_mul(margin) >= headroom)
    }

    /// Fill the whole pool with random bytes *without* accounting — used
    /// to model a pre-existing memory state before an experiment starts.
    pub fn fill_random<R: Rng>(&mut self, rng: &mut R) {
        rng.fill(&mut self.data[..]);
    }

    /// Overwrite a segment's content without accounting (seed state).
    pub fn seed_segment(&mut self, seg: PhysicalSegment, data: &[u8]) -> Result<()> {
        let base = self.check(seg)?;
        if data.len() != self.cfg.segment_bytes {
            return Err(SimError::SizeMismatch {
                expected: self.cfg.segment_bytes,
                actual: data.len(),
            });
        }
        self.data[base..base + self.cfg.segment_bytes].copy_from_slice(data);
        Ok(())
    }

    /// Cumulative statistics since the last [`NvmDevice::reset_stats`].
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Cumulative statistics since the device was built: the ledger
    /// plus everything earlier resets folded away. Equal to
    /// [`NvmDevice::stats`], `f64` totals bit for bit, until the first
    /// reset.
    pub fn lifetime_stats(&self) -> DeviceStats {
        let mut total = self.lifetime.clone();
        total.merge(&self.stats);
        total
    }

    /// Reset cumulative statistics (wear counters are kept — wear is
    /// physical and survives measurement epochs). The ledger is folded
    /// into [`NvmDevice::lifetime_stats`] first.
    pub fn reset_stats(&mut self) {
        self.lifetime.merge(&std::mem::take(&mut self.stats));
    }

    /// Wear counters.
    pub fn wear(&self) -> &WearCounters {
        &self.wear
    }

    /// The fault model, when fault injection is configured. Exposes
    /// per-segment endurance limits, programmed-bit totals and worn-out
    /// flags.
    pub fn fault_state(&self) -> Option<&FaultModel> {
        self.fault.as_ref()
    }

    /// Cumulative fault counters; all zero when fault injection is off.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.as_ref().map(|f| *f.stats()).unwrap_or_default()
    }

    /// Whether `seg` has worn out (always `false` without fault
    /// injection).
    pub fn is_worn_out(&self, seg: PhysicalSegment) -> bool {
        self.fault.as_ref().is_some_and(|f| f.is_worn(seg))
    }

    /// Number of worn-out segments (0 without fault injection).
    pub fn worn_out_count(&self) -> u64 {
        self.fault.as_ref().map_or(0, |f| f.worn_out_count())
    }

    /// Restore wear counters from a persisted device image.
    pub fn restore_wear(&mut self, per_segment: &[u32], per_bit: &[u8]) -> Result<()> {
        self.wear
            .restore(per_segment, per_bit)
            .map_err(SimError::InvalidConfig)
    }

    /// Restore fault-model state (lifetime programmed-bit totals, worn
    /// flags, transient-draw position) from a persisted device image.
    /// The device must have been built with the matching
    /// [`crate::FaultConfig`], so the re-drawn endurance limits equal
    /// the ones the persisted totals were accumulated against.
    pub fn restore_fault(&mut self, programmed: &[u64], worn: &[bool], draws: u64) -> Result<()> {
        match &mut self.fault {
            Some(f) => f.restore_state(programmed, worn, draws),
            None => Err(SimError::InvalidConfig(
                "cannot restore fault state: device has no fault model configured".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WearTracking;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_device() -> NvmDevice {
        NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(256)
                .num_segments(8)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn write_read_roundtrip() {
        let mut dev = small_device();
        let seg = dev.segment(3);
        let data: Vec<u8> = (0..256).map(|i| i as u8).collect();
        dev.write(seg, &data).unwrap();
        assert_eq!(dev.read(seg).unwrap(), &data[..]);
    }

    #[test]
    fn identical_overwrite_skips_all_lines() {
        let mut dev = small_device();
        let seg = dev.segment(0);
        let data = vec![0xABu8; 256];
        dev.write(seg, &data).unwrap();
        let r = dev.write(seg, &data).unwrap();
        assert_eq!(r.lines_written, 0);
        assert_eq!(r.lines_skipped, 4);
        assert_eq!(r.bits_flipped, 0);
    }

    #[test]
    fn single_byte_change_writes_one_line() {
        let mut dev = small_device();
        let seg = dev.segment(0);
        let mut data = vec![0u8; 256];
        dev.write(seg, &data).unwrap();
        data[100] = 0xFF; // line 1 (bytes 64..128)
        let r = dev.write(seg, &data).unwrap();
        assert_eq!(r.lines_written, 1);
        assert_eq!(r.lines_skipped, 3);
        assert_eq!(r.bits_flipped, 8);
        assert_eq!(r.bits_programmed, 8); // media DCW on by default
    }

    #[test]
    fn without_media_dcw_all_line_bits_programmed() {
        let mut dev = NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(256)
                .num_segments(2)
                .media_dcw(false)
                .build()
                .unwrap(),
        );
        let seg = dev.segment(0);
        let mut data = vec![0u8; 256];
        dev.write(seg, &data).unwrap();
        data[0] = 1;
        let r = dev.write(seg, &data).unwrap();
        assert_eq!(r.bits_flipped, 1);
        assert_eq!(r.bits_programmed, 64 * 8);
    }

    #[test]
    fn partial_write_rmw_within_line() {
        let mut dev = small_device();
        let seg = dev.segment(1);
        dev.write(seg, &vec![0xFFu8; 256]).unwrap();
        // Write 4 bytes of zeros at offset 10 (inside line 0).
        let r = dev.write_at(seg, 10, &[0u8; 4]).unwrap();
        assert_eq!(r.lines_written, 1);
        assert_eq!(r.bits_flipped, 32);
        let content = dev.peek(seg);
        assert_eq!(&content[10..14], &[0, 0, 0, 0]);
        assert_eq!(content[9], 0xFF);
        assert_eq!(content[14], 0xFF);
    }

    #[test]
    fn partial_write_spanning_lines() {
        let mut dev = small_device();
        let seg = dev.segment(0);
        // Write 10 bytes straddling the line 0/1 boundary at offset 60.
        let r = dev.write_at(seg, 60, &[0xFFu8; 10]).unwrap();
        assert_eq!(r.lines_written, 2);
        assert_eq!(r.bits_flipped, 80);
    }

    #[test]
    fn out_of_range_errors() {
        let mut dev = small_device();
        assert!(dev.try_segment(8).is_err());
        assert!(dev.write(PhysicalSegment(9), &vec![0u8; 256]).is_err());
        let seg = dev.segment(0);
        assert!(matches!(
            dev.write_at(seg, 250, &[0u8; 10]),
            Err(SimError::RangeOutOfBounds { .. })
        ));
        assert!(matches!(
            dev.write(seg, &[0u8; 10]),
            Err(SimError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn stats_accumulate() {
        let mut dev = small_device();
        let seg = dev.segment(0);
        dev.write(seg, &vec![0xFFu8; 256]).unwrap();
        dev.write(seg, &vec![0x00u8; 256]).unwrap();
        let s = dev.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.bits_flipped, 2 * 256 * 8);
        assert_eq!(s.bits_requested, 2 * 256 * 8);
        assert!(s.energy_pj > 0.0);
        assert!(s.latency_ns > 0.0);
        let before = s.clone();
        assert_eq!(dev.lifetime_stats(), before);
        dev.reset_stats();
        assert_eq!(dev.stats().writes, 0);
        // The lifetime totals keep what the reset zeroed.
        assert_eq!(dev.lifetime_stats(), before);
        dev.write(seg, &vec![0xFFu8; 256]).unwrap();
        assert_eq!(dev.lifetime_stats().writes, 3);
    }

    #[test]
    fn swap_exchanges_contents_and_counts_flips() {
        let mut dev = small_device();
        let a = dev.segment(0);
        let b = dev.segment(1);
        dev.write(a, &vec![0xAAu8; 256]).unwrap();
        dev.write(b, &vec![0x55u8; 256]).unwrap();
        let before = dev.stats().bits_flipped;
        let r = dev.swap_segments(a, b).unwrap();
        assert_eq!(dev.peek(a), &vec![0x55u8; 256][..]);
        assert_eq!(dev.peek(b), &vec![0xAAu8; 256][..]);
        // Every bit of both segments differs -> 2 * 2048 flips.
        assert_eq!(r.bits_flipped, 2 * 256 * 8);
        assert_eq!(dev.stats().bits_flipped, before + 2 * 256 * 8);
        assert_eq!(dev.stats().swaps, 1);
    }

    #[test]
    fn swap_with_self_is_noop() {
        let mut dev = small_device();
        let a = dev.segment(0);
        let r = dev.swap_segments(a, a).unwrap();
        assert_eq!(r.bits_flipped, 0);
        assert_eq!(dev.stats().swaps, 0);
    }

    #[test]
    fn seed_and_fill_do_not_account() {
        let mut dev = small_device();
        let mut rng = StdRng::seed_from_u64(7);
        dev.fill_random(&mut rng);
        dev.seed_segment(dev.segment(0), &vec![1u8; 256]).unwrap();
        assert_eq!(dev.stats().writes, 0);
        assert_eq!(dev.stats().bits_flipped, 0);
    }

    #[test]
    fn per_bit_wear_tracked() {
        let mut dev = NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(64)
                .num_segments(2)
                .block_bytes(64)
                .wear_tracking(WearTracking::PerBit)
                .build()
                .unwrap(),
        );
        let seg = dev.segment(1);
        let mut data = vec![0u8; 64];
        data[0] = 0b1000_0000;
        dev.write(seg, &data).unwrap();
        let flips = dev.wear().per_bit_flips().unwrap();
        // Segment 1 starts at byte 64 -> bit 512.
        assert_eq!(flips[512], 1);
        assert_eq!(flips.iter().map(|&v| v as u32).sum::<u32>(), 1);
        assert_eq!(dev.wear().per_segment_writes().unwrap()[1], 1);
    }

    #[test]
    fn set_reset_decomposition_accounted() {
        let mut dev = small_device();
        let seg = dev.segment(0);
        dev.seed_segment(seg, &vec![0b1111_0000u8; 256]).unwrap();
        let r = dev.write(seg, &vec![0b0000_1111u8; 256]).unwrap();
        assert_eq!(r.bits_set, 256 * 4);
        assert_eq!(r.bits_reset, 256 * 4);
        assert_eq!(r.bits_set + r.bits_reset, r.bits_flipped);
        assert_eq!(dev.stats().bits_set, 256 * 4);
        assert_eq!(dev.stats().bits_reset, 256 * 4);
    }

    #[test]
    fn asymmetric_pcm_prices_reset_higher() {
        let cfg = DeviceConfig::builder()
            .segment_bytes(64)
            .num_segments(2)
            .block_bytes(64)
            .energy(crate::energy::EnergyParams::asymmetric_pcm())
            .build()
            .unwrap();
        let mut dev = NvmDevice::new(cfg);
        let seg = dev.segment(0);
        // All-SET write (0x00 -> 0xFF).
        let set_heavy = dev.write(seg, &[0xFFu8; 64]).unwrap();
        // All-RESET write (0xFF -> 0x00).
        let reset_heavy = dev.write(seg, &[0x00u8; 64]).unwrap();
        assert_eq!(set_heavy.bits_flipped, reset_heavy.bits_flipped);
        assert!(
            reset_heavy.energy_pj > set_heavy.energy_pj * 1.5,
            "reset {} vs set {}",
            reset_heavy.energy_pj,
            set_heavy.energy_pj
        );
    }

    #[test]
    fn zero_length_write_counts_request_only() {
        let mut dev = small_device();
        let seg = dev.segment(0);
        let r = dev.write_at(seg, 0, &[]).unwrap();
        assert_eq!(r.lines_written, 0);
        assert_eq!(dev.stats().writes, 1);
        assert_eq!(dev.stats().bits_requested, 0);
    }

    fn faulty_device(endurance_bits: u64, transient_rate: f64) -> NvmDevice {
        NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(256)
                .num_segments(8)
                .fault(crate::fault::FaultConfig {
                    seed: 42,
                    endurance_bits,
                    endurance_shape: 3.0,
                    transient_rate,
                })
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn segment_wears_out_after_endurance_budget() {
        // ~2 full alternating rewrites (2048 programmed bits each).
        let mut dev = faulty_device(4096, 0.0);
        let seg = dev.segment(0);
        let mut writes = 0u64;
        let death = loop {
            let pattern = if writes.is_multiple_of(2) {
                0xFFu8
            } else {
                0x00u8
            };
            match dev.write(seg, &vec![pattern; 256]) {
                Ok(_) => writes += 1,
                Err(e) => break e,
            }
            assert!(writes < 100, "segment never wore out");
        };
        let SimError::SegmentWornOut {
            segment,
            stuck_bits,
        } = death
        else {
            panic!("expected SegmentWornOut, got {death}");
        };
        assert_eq!(segment, 0);
        assert!(stuck_bits > 0, "dying write must corrupt verify");
        assert!(dev.is_worn_out(seg));
        assert_eq!(dev.worn_out_count(), 1);

        // Content is frozen: further writes are rejected with no pulses
        // and no mutation.
        let frozen = dev.peek(seg).to_vec();
        let stats_before = dev.stats().clone();
        let err = dev.write(seg, &vec![0xA5u8; 256]).unwrap_err();
        assert!(matches!(
            err,
            SimError::SegmentWornOut {
                segment: 0,
                stuck_bits: 0
            }
        ));
        assert_eq!(dev.peek(seg), &frozen[..]);
        assert_eq!(dev.stats(), &stats_before, "rejection accounts nothing");
        let fs = dev.fault_stats();
        assert_eq!(fs.worn_out_segments, 1);
        assert_eq!(fs.worn_out_rejections, 1);

        // Other segments still serve writes.
        dev.write(dev.segment(1), &vec![0x11u8; 256]).unwrap();
    }

    #[test]
    fn fewer_programmed_bits_extend_lifetime() {
        // Identical endurance seed; the heavy workload flips every bit
        // each write, the light one a single byte. Lifetime is budgeted
        // in programmed bits, so light writes survive far longer.
        let writes_to_death = |light: bool| -> u64 {
            let mut dev = faulty_device(1 << 16, 0.0);
            let seg = dev.segment(0);
            let mut n = 0u64;
            loop {
                let pattern = if light {
                    let mut d = vec![0u8; 256];
                    d[0] = (n % 2) as u8;
                    d
                } else if n.is_multiple_of(2) {
                    vec![0xFFu8; 256]
                } else {
                    vec![0x00u8; 256]
                };
                if dev.write(seg, &pattern).is_err() {
                    return n;
                }
                n += 1;
                assert!(n < 1_000_000);
            }
        };
        let heavy = writes_to_death(false);
        let light = writes_to_death(true);
        assert!(
            light > heavy * 10,
            "light {light} writes vs heavy {heavy} writes"
        );
    }

    #[test]
    fn transient_failure_reports_bits_and_retry_converges() {
        let mut dev = faulty_device(u64::MAX >> 8, 0.9);
        let seg = dev.segment(2);
        let data: Vec<u8> = (0..256).map(|i| i as u8).collect();
        let mut failures = 0u64;
        let mut attempts = 0u64;
        loop {
            attempts += 1;
            match dev.write(seg, &data) {
                Ok(_) => break,
                Err(SimError::WriteFailed {
                    segment,
                    failed_bits,
                }) => {
                    assert_eq!(segment, 2);
                    assert!(failed_bits > 0);
                    failures += 1;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
            assert!(attempts < 1000, "retry never converged");
        }
        // At 90% failure rate some attempts must have failed, and each
        // retry programs only the remaining differing bits.
        assert!(failures > 0);
        assert_eq!(dev.peek(seg), &data[..], "content converges after retry");
        assert_eq!(dev.fault_stats().transient_failures, failures);
    }

    #[test]
    fn fault_free_config_is_bitwise_inert() {
        // A fault config that can never fire must leave stats and
        // content identical to a fault-free device on the same workload.
        let mut plain = small_device();
        let mut guarded = faulty_device(u64::MAX >> 8, 0.0);
        let mut rng = StdRng::seed_from_u64(99);
        for i in 0..200u64 {
            let seg = PhysicalSegment((i % 8) as usize);
            let mut data = vec![0u8; 256];
            rng.fill(&mut data[..]);
            let a = plain.write(seg, &data).unwrap();
            let b = guarded.write(seg, &data).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(plain.stats(), guarded.stats());
        assert_eq!(
            plain.peek(PhysicalSegment(3)),
            guarded.peek(PhysicalSegment(3))
        );
        assert_eq!(guarded.fault_stats(), crate::fault::FaultStats::default());
    }

    #[test]
    fn sub_line_segments_work() {
        let mut dev = NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(16)
                .cache_line_bytes(64)
                .block_bytes(64)
                .num_segments(4)
                .build()
                .unwrap(),
        );
        let seg = dev.segment(0);
        let r = dev.write(seg, &[0xFFu8; 16]).unwrap();
        assert_eq!(r.lines_written, 1);
        assert_eq!(r.bits_flipped, 128);
    }
}
