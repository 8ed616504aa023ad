//! Deterministic fault injection: finite endurance and transient write
//! failures.
//!
//! Real PCM cells survive a finite number of programming pulses; the
//! paper's endurance argument is that reducing bit flips stretches that
//! budget. This module makes the budget finite so the claim becomes
//! measurable. A [`FaultModel`] attached to the device (via
//! [`crate::DeviceConfig`]'s `fault` field) tracks the cumulative
//! *programmed bits* of every segment against a per-segment limit drawn
//! from a Weibull distribution — so schemes that program fewer bits per
//! write genuinely live longer — and optionally fails a configurable
//! fraction of writes transiently, modeling cells that need a second
//! pulse.
//!
//! Everything is seeded and counter-based (a SplitMix64 stream, no
//! external RNG): the same configuration and write sequence always
//! produces the same failures, which keeps experiments and regression
//! tests reproducible.
//!
//! Semantics, enforced by [`crate::NvmDevice::write_at`]:
//!
//! * A write whose accounting pushes a segment past its endurance limit
//!   completes its programming pulses, then the segment **wears out**:
//!   a deterministic subset of the just-programmed bits sticks at the
//!   wrong value and the write returns
//!   [`crate::SimError::SegmentWornOut`] with the stuck-bit count — the
//!   program-and-verify step caught the corruption.
//! * Every later write to a worn-out segment is rejected up front with
//!   the same error (`failed_bits == 0`): the content is frozen
//!   (stuck-at faults), reads still succeed.
//! * A transient failure leaves a deterministic subset of the differing
//!   bytes unprogrammed and returns [`crate::SimError::WriteFailed`]
//!   with the count of bits that failed verification. Retrying the same
//!   write programs only the remaining bits and usually succeeds.

use crate::addr::PhysicalSegment;
use crate::error::{Result, SimError};
use serde::{Deserialize, Serialize};

/// Multiplier used to decorrelate the SplitMix64 streams.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mix.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a 64-bit hash to a uniform f64 in [0, 1).
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Configuration of the deterministic fault model.
///
/// Attach to a device via [`crate::DeviceConfigBuilder::fault`]. With no
/// fault config (the default) the device behaves exactly as before:
/// segments never die and writes never fail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed for every random draw the model makes (endurance limits,
    /// transient failures, stuck-bit selection). Same seed, same
    /// configuration, same write sequence ⇒ identical failures.
    pub seed: u64,
    /// Weibull *scale* (η) of the per-segment endurance limit, in
    /// cumulative **programmed bits**. A segment's limit is drawn once
    /// from `Weibull(shape, endurance_bits)`; the segment wears out when
    /// its lifetime `bits_programmed` total crosses that limit. Counting
    /// programmed bits (not writes) is what lets flip-reducing schemes
    /// earn longer lifetimes.
    pub endurance_bits: u64,
    /// Weibull *shape* (k) of the endurance distribution. Larger values
    /// concentrate limits around `endurance_bits`; the default 3.0 gives
    /// the mild process variation real arrays show.
    pub endurance_shape: f64,
    /// Probability in `[0, 1)` that any single write fails transiently
    /// (some of its differing bits left unprogrammed, reported via
    /// [`crate::SimError::WriteFailed`]). 0 disables transient faults.
    pub transient_rate: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0xE2_FA17,
            endurance_bits: 1 << 22, // ~4 Mbit per segment: small enough to die in a bench run
            endurance_shape: 3.0,
            transient_rate: 0.0,
        }
    }
}

impl FaultConfig {
    /// Validate the configuration, returning a descriptive error on the
    /// first violated constraint.
    pub fn validate(&self) -> Result<()> {
        if self.endurance_bits == 0 {
            return Err(SimError::InvalidConfig(
                "fault.endurance_bits must be > 0".into(),
            ));
        }
        if !(self.endurance_shape.is_finite() && self.endurance_shape > 0.0) {
            return Err(SimError::InvalidConfig(format!(
                "fault.endurance_shape must be a positive finite number, got {}",
                self.endurance_shape
            )));
        }
        if !(self.transient_rate.is_finite() && (0.0..1.0).contains(&self.transient_rate)) {
            return Err(SimError::InvalidConfig(format!(
                "fault.transient_rate must be in [0, 1), got {}",
                self.transient_rate
            )));
        }
        Ok(())
    }
}

/// Cumulative fault counters, kept separate from [`crate::DeviceStats`]
/// so that stats stay bit-identical when faults are disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultStats {
    /// Writes that failed transiently (some bits left unprogrammed).
    pub transient_failures: u64,
    /// Writes rejected because their target segment was already worn out.
    pub worn_out_rejections: u64,
    /// Segments that have crossed their endurance limit.
    pub worn_out_segments: u64,
}

/// Per-segment endurance state plus the transient-failure stream.
///
/// Owned by [`crate::NvmDevice`] when a [`FaultConfig`] is present;
/// inspect it through [`crate::NvmDevice::fault_state`].
#[derive(Debug, Clone)]
pub struct FaultModel {
    cfg: FaultConfig,
    /// Per-segment endurance limit in cumulative programmed bits.
    limits: Vec<u64>,
    /// Per-segment lifetime programmed-bit totals.
    programmed: Vec<u64>,
    /// Per-segment worn-out flags (stuck-at: content frozen).
    worn: Vec<bool>,
    /// Monotonic draw counter feeding the transient-failure stream.
    draws: u64,
    stats: FaultStats,
}

impl FaultModel {
    /// Build the model for a pool of `num_segments` segments, drawing
    /// each segment's endurance limit from the configured Weibull
    /// distribution. `cfg` must already be validated.
    pub fn new(cfg: FaultConfig, num_segments: usize) -> Self {
        let limits = (0..num_segments)
            .map(|seg| {
                // Inverse-CDF sample: limit = η · (-ln(1-u))^(1/k).
                let u = unit_f64(splitmix64(cfg.seed ^ (seg as u64).wrapping_mul(GOLDEN)))
                    .clamp(1e-12, 1.0 - 1e-12);
                let w = (-(1.0 - u).ln()).powf(1.0 / cfg.endurance_shape);
                ((cfg.endurance_bits as f64) * w).ceil().max(1.0) as u64
            })
            .collect();
        FaultModel {
            limits,
            programmed: vec![0; num_segments],
            worn: vec![false; num_segments],
            draws: 0,
            stats: FaultStats::default(),
            cfg,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Whether `segment` has worn out (writes rejected, content frozen).
    #[inline]
    pub fn is_worn(&self, segment: PhysicalSegment) -> bool {
        self.worn.get(segment.index()).copied().unwrap_or(false)
    }

    /// Number of worn-out segments.
    pub fn worn_out_count(&self) -> u64 {
        self.stats.worn_out_segments
    }

    /// This segment's endurance limit in programmed bits.
    pub fn limit(&self, segment: PhysicalSegment) -> u64 {
        self.limits
            .get(segment.index())
            .copied()
            .unwrap_or(u64::MAX)
    }

    /// Lifetime programmed-bit total of `segment`.
    pub fn programmed_bits(&self, segment: PhysicalSegment) -> u64 {
        self.programmed.get(segment.index()).copied().unwrap_or(0)
    }

    /// Cumulative fault counters.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Per-segment lifetime programmed-bit totals, for persistence.
    /// Endurance limits are *not* part of the mutable state: they are
    /// re-derived deterministically from the config on restore.
    pub fn programmed_totals(&self) -> &[u64] {
        &self.programmed
    }

    /// Per-segment worn-out flags, for persistence.
    pub fn worn_flags(&self) -> &[bool] {
        &self.worn
    }

    /// Position in the transient-failure draw stream, for persistence.
    pub fn draw_count(&self) -> u64 {
        self.draws
    }

    /// Restore the mutable fault state from a persisted image. The
    /// endurance limits stay as drawn from this model's config (same
    /// seed ⇒ same limits), so only the lifetime totals, worn flags and
    /// the draw-stream position move. [`FaultStats`] are measurement
    /// state and reset, except `worn_out_segments`, which must stay
    /// consistent with the restored flags.
    pub fn restore_state(&mut self, programmed: &[u64], worn: &[bool], draws: u64) -> Result<()> {
        if programmed.len() != self.programmed.len() || worn.len() != self.worn.len() {
            return Err(SimError::InvalidConfig(format!(
                "fault state for {} segments does not fit a {}-segment model",
                programmed.len(),
                self.programmed.len()
            )));
        }
        self.programmed.copy_from_slice(programmed);
        self.worn.copy_from_slice(worn);
        self.draws = draws;
        self.stats = FaultStats {
            worn_out_segments: worn.iter().filter(|&&w| w).count() as u64,
            ..FaultStats::default()
        };
        Ok(())
    }

    /// Account a rejected write to an already worn-out segment.
    pub(crate) fn record_rejection(&mut self) {
        self.stats.worn_out_rejections += 1;
    }

    /// Draw from the transient-failure stream: does the next write fail?
    pub(crate) fn transient_fires(&mut self) -> bool {
        if self.cfg.transient_rate <= 0.0 {
            return false;
        }
        self.draws += 1;
        unit_f64(splitmix64(
            self.cfg.seed ^ 0xDEAD_BEEF ^ self.draws.wrapping_mul(GOLDEN),
        )) < self.cfg.transient_rate
    }

    /// Build the *effective* buffer of a transiently failing write:
    /// roughly half of the differing bytes (chosen deterministically
    /// from the current draw) keep their old value. Returns the
    /// effective data plus the number of bits that failed to program,
    /// or `None` when the buffers do not differ (nothing can fail).
    pub(crate) fn corrupt_transient(&mut self, old: &[u8], new: &[u8]) -> Option<(Vec<u8>, u64)> {
        debug_assert_eq!(old.len(), new.len());
        let mut effective = new.to_vec();
        let mut failed_bits = 0u64;
        let mut kept_any = false;
        for (i, (&o, &n)) in old.iter().zip(new.iter()).enumerate() {
            if o == n {
                continue;
            }
            let h = splitmix64(
                self.cfg
                    .seed
                    .wrapping_mul(GOLDEN)
                    .wrapping_add(self.draws)
                    .wrapping_add((i as u64) << 32),
            );
            if h & 1 == 0 {
                effective[i] = o;
                failed_bits += (o ^ n).count_ones() as u64;
                kept_any = true;
            }
        }
        if !kept_any {
            // Force at least one failed byte: find the first difference.
            let i = old.iter().zip(new.iter()).position(|(o, n)| o != n)?;
            effective[i] = old[i];
            failed_bits = (old[i] ^ new[i]).count_ones() as u64;
        }
        self.stats.transient_failures += 1;
        Some((effective, failed_bits))
    }

    /// Account `bits` freshly programmed pulses on `segment`; returns
    /// `true` when this crossing wears the segment out (the caller then
    /// applies stuck-bit corruption and fails the write).
    pub(crate) fn on_programmed(&mut self, segment: usize, bits: u64) -> bool {
        let Some(total) = self.programmed.get_mut(segment) else {
            return false;
        };
        *total += bits;
        if !self.worn[segment] && *total >= self.limits[segment] {
            self.worn[segment] = true;
            self.stats.worn_out_segments += 1;
            return true;
        }
        false
    }

    /// Flip a deterministic sparse set of bits in a dying segment's
    /// content (cells latching the wrong value at the moment of
    /// wear-out) and return how many stuck. At least one bit is always
    /// corrupted so a verify-after-write genuinely fails.
    pub(crate) fn stuck_corruption(&self, segment: usize, data: &mut [u8]) -> u64 {
        let mut stuck = 0u64;
        for (i, byte) in data.iter_mut().enumerate() {
            let h = splitmix64(
                self.cfg
                    .seed
                    .wrapping_add(0x57_0C_B1_75)
                    .wrapping_add((segment as u64) << 32)
                    .wrapping_add(i as u64),
            );
            // ~1/32 of bytes get one stuck bit.
            if h & 0x1F == 0 {
                *byte ^= 1 << ((h >> 8) & 7);
                stuck += 1;
            }
        }
        if stuck == 0 && !data.is_empty() {
            data[0] ^= 1;
            stuck = 1;
        }
        stuck
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        FaultConfig::default().validate().unwrap();
    }

    #[test]
    fn bad_configs_rejected() {
        let d = FaultConfig::default;
        assert!(FaultConfig {
            endurance_bits: 0,
            ..d()
        }
        .validate()
        .is_err());
        assert!(FaultConfig {
            endurance_shape: 0.0,
            ..d()
        }
        .validate()
        .is_err());
        assert!(FaultConfig {
            endurance_shape: f64::NAN,
            ..d()
        }
        .validate()
        .is_err());
        assert!(FaultConfig {
            transient_rate: 1.0,
            ..d()
        }
        .validate()
        .is_err());
        assert!(FaultConfig {
            transient_rate: -0.1,
            ..d()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn limits_are_deterministic_and_vary() {
        let a = FaultModel::new(FaultConfig::default(), 64);
        let b = FaultModel::new(FaultConfig::default(), 64);
        assert_eq!(a.limits, b.limits);
        // Weibull variation: not all limits identical.
        assert!(a.limits.iter().any(|&l| l != a.limits[0]));
        // Scale: limits cluster within an order of magnitude of η.
        let eta = FaultConfig::default().endurance_bits as f64;
        for &l in &a.limits {
            assert!((l as f64) > eta / 100.0 && (l as f64) < eta * 10.0, "{l}");
        }
    }

    #[test]
    fn different_seeds_give_different_limits() {
        let a = FaultModel::new(FaultConfig::default(), 16);
        let cfg = FaultConfig {
            seed: FaultConfig::default().seed ^ 1,
            ..FaultConfig::default()
        };
        let b = FaultModel::new(cfg, 16);
        assert_ne!(a.limits, b.limits);
    }

    #[test]
    fn wear_out_crossing_fires_once() {
        let mut m = FaultModel::new(
            FaultConfig {
                endurance_bits: 1000,
                ..FaultConfig::default()
            },
            4,
        );
        let limit = m.limit(PhysicalSegment(2));
        assert!(!m.on_programmed(2, limit - 1));
        assert!(!m.is_worn(PhysicalSegment(2)));
        assert!(m.on_programmed(2, 1)); // crossing
        assert!(m.is_worn(PhysicalSegment(2)));
        assert!(!m.on_programmed(2, 1000)); // already worn: no second event
        assert_eq!(m.stats().worn_out_segments, 1);
    }

    #[test]
    fn transient_stream_matches_configured_rate() {
        let mut m = FaultModel::new(
            FaultConfig {
                transient_rate: 0.25,
                ..FaultConfig::default()
            },
            1,
        );
        let fired = (0..10_000).filter(|_| m.transient_fires()).count();
        assert!((2000..3000).contains(&fired), "{fired}");
    }

    #[test]
    fn zero_rate_never_fires_and_makes_no_draws() {
        let mut m = FaultModel::new(FaultConfig::default(), 1);
        assert!((0..1000).all(|_| !m.transient_fires()));
        assert_eq!(m.draws, 0);
    }

    #[test]
    fn corrupt_transient_keeps_some_old_bytes() {
        let mut m = FaultModel::new(
            FaultConfig {
                transient_rate: 0.5,
                ..FaultConfig::default()
            },
            1,
        );
        let old = vec![0u8; 64];
        let new = vec![0xFFu8; 64];
        let (eff, failed_bits) = m.corrupt_transient(&old, &new).unwrap();
        assert!(failed_bits > 0);
        assert!(eff.contains(&0), "some bytes kept old value");
        assert!(eff.contains(&0xFF), "some bytes programmed");
        let kept = eff.iter().filter(|&&b| b == 0).count() as u64;
        assert_eq!(failed_bits, kept * 8);
        // Identical buffers cannot fail.
        assert!(m.corrupt_transient(&new, &new).is_none());
    }

    #[test]
    fn stuck_corruption_always_corrupts() {
        let m = FaultModel::new(FaultConfig::default(), 4);
        let mut data = vec![0xA5u8; 256];
        let before = data.clone();
        let stuck = m.stuck_corruption(1, &mut data);
        assert!(stuck >= 1);
        let diff: u64 = before
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones() as u64)
            .sum();
        assert_eq!(diff, stuck);
    }
}
