//! Cumulative device statistics and wear counters.

use crate::config::WearTracking;
use serde::{Deserialize, Serialize};

/// Aggregate counters maintained by the device across its lifetime.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Write requests served.
    pub writes: u64,
    /// Read requests served.
    pub reads: u64,
    /// Cache lines transferred to media (identical lines excluded).
    pub lines_written: u64,
    /// Cache lines skipped because their content was unchanged.
    pub lines_skipped: u64,
    /// Bits that changed value (0→1 or 1→0). The endurance-relevant
    /// quantity regardless of media DCW.
    pub bits_flipped: u64,
    /// 0→1 transitions (SET pulses).
    pub bits_set: u64,
    /// 1→0 transitions (RESET pulses).
    pub bits_reset: u64,
    /// Bits that received a programming pulse. Equals `bits_flipped`
    /// when media DCW is on; equals every bit of every written line when
    /// off.
    pub bits_programmed: u64,
    /// Total data bits the callers asked to store (payload size × 8),
    /// the denominator of the paper's "bit updates per written data bit".
    pub bits_requested: u64,
    /// Energy consumed by the device, pJ.
    pub energy_pj: f64,
    /// Wall-model time spent in device operations, ns.
    pub latency_ns: f64,
    /// Wear-leveling swaps performed by the controller.
    pub swaps: u64,
}

impl DeviceStats {
    /// Average flipped bits per write request.
    pub fn flips_per_write(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.bits_flipped as f64 / self.writes as f64
        }
    }

    /// Flipped bits per requested data bit — the y-axis of the paper's
    /// Figure 12.
    pub fn flips_per_data_bit(&self) -> f64 {
        if self.bits_requested == 0 {
            0.0
        } else {
            self.bits_flipped as f64 / self.bits_requested as f64
        }
    }

    /// Average energy per write request, pJ.
    pub fn energy_per_write_pj(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.energy_pj / self.writes as f64
        }
    }

    /// Average flipped bits per cache-line access (written lines only) —
    /// the y-axis of the paper's Figure 10.
    pub fn flips_per_line_access(&self) -> f64 {
        let accesses = self.lines_written + self.lines_skipped;
        if accesses == 0 {
            0.0
        } else {
            self.bits_flipped as f64 / accesses as f64
        }
    }

    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: &DeviceStats) {
        self.writes += other.writes;
        self.reads += other.reads;
        self.lines_written += other.lines_written;
        self.lines_skipped += other.lines_skipped;
        self.bits_flipped += other.bits_flipped;
        self.bits_set += other.bits_set;
        self.bits_reset += other.bits_reset;
        self.bits_programmed += other.bits_programmed;
        self.bits_requested += other.bits_requested;
        self.energy_pj += other.energy_pj;
        self.latency_ns += other.latency_ns;
        self.swaps += other.swaps;
    }
}

/// Per-location wear counters at the configured granularity.
#[derive(Debug, Clone)]
pub struct WearCounters {
    mode: WearTracking,
    /// Writes per segment (PerSegment and PerBit modes).
    per_segment_writes: Vec<u32>,
    /// Saturating flip count per bit (PerBit mode only).
    per_bit_flips: Vec<u8>,
}

impl WearCounters {
    /// Allocate counters for a device with the given geometry.
    pub fn new(mode: WearTracking, num_segments: usize, pool_bytes: usize) -> Self {
        let per_segment_writes = match mode {
            WearTracking::None => Vec::new(),
            _ => vec![0u32; num_segments],
        };
        let per_bit_flips = match mode {
            WearTracking::PerBit => vec![0u8; pool_bytes * 8],
            _ => Vec::new(),
        };
        Self {
            mode,
            per_segment_writes,
            per_bit_flips,
        }
    }

    /// Tracking granularity in effect.
    pub fn mode(&self) -> WearTracking {
        self.mode
    }

    /// Record one write to `segment`.
    #[inline]
    pub fn record_segment_write(&mut self, segment: usize) {
        if let Some(c) = self.per_segment_writes.get_mut(segment) {
            *c = c.saturating_add(1);
        }
    }

    /// Record flips given the XOR mask of one byte at pool offset
    /// `byte_offset`.
    #[inline]
    pub fn record_byte_flips(&mut self, byte_offset: usize, xor_mask: u8) {
        if self.mode != WearTracking::PerBit || xor_mask == 0 {
            return;
        }
        let base = byte_offset * 8;
        for bit in 0..8 {
            // MSB-first to match `bitops::bytes_to_bits`.
            if (xor_mask >> (7 - bit)) & 1 == 1 {
                let c = &mut self.per_bit_flips[base + bit];
                *c = c.saturating_add(1);
            }
        }
    }

    /// Restore counters from persisted arrays (device image load).
    /// Empty slices leave the corresponding granularity untouched.
    pub fn restore(&mut self, per_segment: &[u32], per_bit: &[u8]) -> Result<(), String> {
        if !per_segment.is_empty() {
            if per_segment.len() != self.per_segment_writes.len() {
                return Err(format!(
                    "segment counter length {} != {}",
                    per_segment.len(),
                    self.per_segment_writes.len()
                ));
            }
            self.per_segment_writes.copy_from_slice(per_segment);
        }
        if !per_bit.is_empty() {
            if per_bit.len() != self.per_bit_flips.len() {
                return Err(format!(
                    "bit counter length {} != {}",
                    per_bit.len(),
                    self.per_bit_flips.len()
                ));
            }
            self.per_bit_flips.copy_from_slice(per_bit);
        }
        Ok(())
    }

    /// Writes per segment, if tracked.
    pub fn per_segment_writes(&self) -> Option<&[u32]> {
        (!self.per_segment_writes.is_empty()).then_some(&self.per_segment_writes[..])
    }

    /// Flip count per bit, if tracked.
    pub fn per_bit_flips(&self) -> Option<&[u8]> {
        (!self.per_bit_flips.is_empty()).then_some(&self.per_bit_flips[..])
    }

    /// Empirical CDF of per-segment write counts: returns sorted
    /// `(count, cumulative_fraction)` points. Used for the red curve of
    /// the paper's Figure 19.
    pub fn segment_write_cdf(&self) -> Vec<(u32, f64)> {
        Self::cdf_of(self.per_segment_writes.iter().copied())
    }

    /// Empirical CDF of per-bit flip counts (blue curve of Figure 19).
    pub fn bit_flip_cdf(&self) -> Vec<(u32, f64)> {
        Self::cdf_of(self.per_bit_flips.iter().map(|&v| v as u32))
    }

    fn cdf_of(values: impl Iterator<Item = u32>) -> Vec<(u32, f64)> {
        let mut v: Vec<u32> = values.collect();
        if v.is_empty() {
            return Vec::new();
        }
        v.sort_unstable();
        let n = v.len() as f64;
        let mut out: Vec<(u32, f64)> = Vec::new();
        for (i, val) in v.iter().enumerate() {
            let frac = (i + 1) as f64 / n;
            match out.last_mut() {
                Some(last) if last.0 == *val => last.1 = frac,
                _ => out.push((*val, frac)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominators() {
        let s = DeviceStats::default();
        assert_eq!(s.flips_per_write(), 0.0);
        assert_eq!(s.flips_per_data_bit(), 0.0);
        assert_eq!(s.energy_per_write_pj(), 0.0);
        assert_eq!(s.flips_per_line_access(), 0.0);
    }

    #[test]
    fn merge_adds_all_fields() {
        let mut a = DeviceStats {
            writes: 1,
            reads: 2,
            lines_written: 3,
            lines_skipped: 4,
            bits_flipped: 5,
            bits_set: 3,
            bits_reset: 2,
            bits_programmed: 6,
            bits_requested: 7,
            energy_pj: 8.0,
            latency_ns: 9.0,
            swaps: 10,
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.writes, 2);
        assert_eq!(a.swaps, 20);
        assert_eq!(a.energy_pj, 16.0);
    }

    #[test]
    fn per_bit_counters_msb_first() {
        let mut w = WearCounters::new(WearTracking::PerBit, 1, 1);
        w.record_byte_flips(0, 0b1000_0001);
        let bits = w.per_bit_flips().unwrap();
        assert_eq!(bits[0], 1);
        assert_eq!(bits[7], 1);
        assert_eq!(bits[1..7].iter().sum::<u8>(), 0);
    }

    #[test]
    fn per_bit_counters_saturate() {
        let mut w = WearCounters::new(WearTracking::PerBit, 1, 1);
        for _ in 0..300 {
            w.record_byte_flips(0, 0b1000_0000);
        }
        assert_eq!(w.per_bit_flips().unwrap()[0], 255);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut w = WearCounters::new(WearTracking::PerSegment, 4, 16);
        w.record_segment_write(0);
        w.record_segment_write(0);
        w.record_segment_write(1);
        let cdf = w.segment_write_cdf();
        assert_eq!(cdf.last().unwrap().1, 1.0);
        for pair in cdf.windows(2) {
            assert!(pair[0].0 < pair[1].0);
            assert!(pair[0].1 <= pair[1].1);
        }
        // counts: [2,1,0,0] -> P(X<=0)=0.5, P(X<=1)=0.75, P(X<=2)=1.0
        assert_eq!(cdf, vec![(0, 0.5), (1, 0.75), (2, 1.0)]);
    }

    #[test]
    fn none_mode_tracks_nothing() {
        let mut w = WearCounters::new(WearTracking::None, 4, 16);
        w.record_segment_write(0);
        w.record_byte_flips(0, 0xFF);
        assert!(w.per_segment_writes().is_none());
        assert!(w.per_bit_flips().is_none());
        assert!(w.segment_write_cdf().is_empty());
    }
}
