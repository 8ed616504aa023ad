//! Device configuration: geometry, write semantics, energy and latency
//! parameters, and the wear-tracking granularity.

use crate::energy::EnergyParams;
use crate::error::{Result, SimError};
use crate::fault::FaultConfig;
use crate::latency::LatencyParams;
use serde::{Deserialize, Serialize};

/// Granularity at which per-cell wear is recorded.
///
/// Finer tracking costs memory proportional to the pool size, so it is
/// opt-in: the Figure 19 experiments use [`WearTracking::PerBit`] on a
/// small pool, while the large YCSB sweeps run with
/// [`WearTracking::PerSegment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum WearTracking {
    /// Only aggregate counters — no per-location state.
    #[default]
    None,
    /// One `u32` write counter per segment (cheap; enough for Fig 2/10).
    PerSegment,
    /// One saturating `u8` flip counter per bit of the pool. Uses
    /// `pool_bytes * 8` bytes of host memory; intended for pools of a few
    /// MB (the Figure 19 CDFs).
    PerBit,
}

/// Complete configuration of a simulated device.
///
/// Construct through [`DeviceConfig::builder`]; the builder validates
/// geometry (non-zero sizes, cache line divides segment, segment divides
/// pool when segments are larger than a block, ...).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Size of one allocatable segment in bytes. Placement schemes hand
    /// out whole segments.
    pub segment_bytes: usize,
    /// Number of segments in the pool.
    pub num_segments: usize,
    /// Cache-line write granularity (Optane: 64 B). A line identical to
    /// the stored content is skipped.
    pub cache_line_bytes: usize,
    /// Media block size (Optane 3D XPoint: 256 B). Only used for
    /// reporting access counts at block granularity.
    pub block_bytes: usize,
    /// If true the media performs a data-comparison write: only differing
    /// bits inside a written line are programmed. If false, every bit of
    /// every written line costs a programming pulse (energy-wise); the
    /// *flip* count (endurance-wise) is unchanged.
    pub media_dcw: bool,
    /// Wear tracking granularity.
    pub wear_tracking: WearTracking,
    /// Energy model parameters.
    pub energy: EnergyParams,
    /// Latency model parameters.
    pub latency: LatencyParams,
    /// Optional fault injection: finite per-segment endurance and
    /// transient write failures. `None` (the default, and what older
    /// serialized configs deserialize to) keeps the device fault-free
    /// with behaviour bit-identical to previous releases.
    #[serde(default)]
    pub fault: Option<FaultConfig>,
}

impl DeviceConfig {
    /// Start building a config. Defaults: 256 B segments, 64 B lines,
    /// 256 B blocks, media DCW on, no wear tracking, default
    /// energy/latency parameters.
    pub fn builder() -> DeviceConfigBuilder {
        DeviceConfigBuilder::default()
    }

    /// Total pool capacity in bytes.
    #[inline]
    pub fn pool_bytes(&self) -> usize {
        self.segment_bytes * self.num_segments
    }

    /// Number of cache lines per segment.
    #[inline]
    pub fn lines_per_segment(&self) -> usize {
        self.segment_bytes.div_ceil(self.cache_line_bytes)
    }

    /// Validate the configuration, returning a descriptive error on the
    /// first violated constraint.
    pub fn validate(&self) -> Result<()> {
        if self.segment_bytes == 0 {
            return Err(SimError::InvalidConfig("segment_bytes must be > 0".into()));
        }
        if self.num_segments == 0 {
            return Err(SimError::InvalidConfig("num_segments must be > 0".into()));
        }
        if self.cache_line_bytes == 0 {
            return Err(SimError::InvalidConfig(
                "cache_line_bytes must be > 0".into(),
            ));
        }
        if self.block_bytes == 0 {
            return Err(SimError::InvalidConfig("block_bytes must be > 0".into()));
        }
        if !self.segment_bytes.is_multiple_of(self.cache_line_bytes)
            && self.segment_bytes > self.cache_line_bytes
        {
            return Err(SimError::InvalidConfig(format!(
                "segment_bytes ({}) must be a multiple of cache_line_bytes ({}) when larger",
                self.segment_bytes, self.cache_line_bytes
            )));
        }
        if !self.block_bytes.is_multiple_of(self.cache_line_bytes) {
            return Err(SimError::InvalidConfig(format!(
                "block_bytes ({}) must be a multiple of cache_line_bytes ({})",
                self.block_bytes, self.cache_line_bytes
            )));
        }
        if matches!(self.wear_tracking, WearTracking::PerBit) && self.pool_bytes() > 64 << 20 {
            return Err(SimError::InvalidConfig(format!(
                "PerBit wear tracking on a {} byte pool would allocate {} bytes of counters; \
                 use a pool of at most 64 MiB or a coarser granularity",
                self.pool_bytes(),
                self.pool_bytes() * 8
            )));
        }
        if let Some(fault) = &self.fault {
            fault.validate()?;
        }
        Ok(())
    }
}

/// Builder for [`DeviceConfig`].
#[derive(Debug, Clone)]
pub struct DeviceConfigBuilder {
    cfg: DeviceConfig,
}

impl Default for DeviceConfigBuilder {
    fn default() -> Self {
        Self {
            cfg: DeviceConfig {
                segment_bytes: 256,
                num_segments: 1024,
                cache_line_bytes: 64,
                block_bytes: 256,
                media_dcw: true,
                wear_tracking: WearTracking::None,
                energy: EnergyParams::default(),
                latency: LatencyParams::default(),
                fault: None,
            },
        }
    }
}

impl DeviceConfigBuilder {
    /// Set the segment size in bytes.
    pub fn segment_bytes(mut self, v: usize) -> Self {
        self.cfg.segment_bytes = v;
        self
    }

    /// Set the number of segments.
    pub fn num_segments(mut self, v: usize) -> Self {
        self.cfg.num_segments = v;
        self
    }

    /// Set the cache-line granularity in bytes.
    pub fn cache_line_bytes(mut self, v: usize) -> Self {
        self.cfg.cache_line_bytes = v;
        self
    }

    /// Set the media block size in bytes.
    pub fn block_bytes(mut self, v: usize) -> Self {
        self.cfg.block_bytes = v;
        self
    }

    /// Enable or disable the media-level data-comparison write.
    pub fn media_dcw(mut self, v: bool) -> Self {
        self.cfg.media_dcw = v;
        self
    }

    /// Choose wear-tracking granularity.
    pub fn wear_tracking(mut self, v: WearTracking) -> Self {
        self.cfg.wear_tracking = v;
        self
    }

    /// Override energy parameters.
    pub fn energy(mut self, v: EnergyParams) -> Self {
        self.cfg.energy = v;
        self
    }

    /// Override latency parameters.
    pub fn latency(mut self, v: LatencyParams) -> Self {
        self.cfg.latency = v;
        self
    }

    /// Enable fault injection (finite endurance, transient failures).
    pub fn fault(mut self, v: FaultConfig) -> Self {
        self.cfg.fault = Some(v);
        self
    }

    /// Validate and produce the final configuration.
    pub fn build(self) -> Result<DeviceConfig> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_builder_is_valid() {
        let cfg = DeviceConfig::builder().build().unwrap();
        assert_eq!(cfg.segment_bytes, 256);
        assert_eq!(cfg.lines_per_segment(), 4);
        assert_eq!(cfg.pool_bytes(), 256 * 1024);
    }

    #[test]
    fn zero_sizes_rejected() {
        assert!(DeviceConfig::builder().segment_bytes(0).build().is_err());
        assert!(DeviceConfig::builder().num_segments(0).build().is_err());
        assert!(DeviceConfig::builder().cache_line_bytes(0).build().is_err());
        assert!(DeviceConfig::builder().block_bytes(0).build().is_err());
    }

    #[test]
    fn misaligned_segment_rejected() {
        let err = DeviceConfig::builder()
            .segment_bytes(100)
            .cache_line_bytes(64)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("multiple of cache_line_bytes"));
    }

    #[test]
    fn small_segment_smaller_than_line_is_allowed() {
        // Sub-line segments are used for tiny-value experiments; the
        // device writes a full line in that case.
        let cfg = DeviceConfig::builder()
            .segment_bytes(16)
            .cache_line_bytes(64)
            .block_bytes(64)
            .build()
            .unwrap();
        assert_eq!(cfg.lines_per_segment(), 1);
    }

    #[test]
    fn per_bit_tracking_capped() {
        let err = DeviceConfig::builder()
            .segment_bytes(1 << 20)
            .num_segments(128)
            .wear_tracking(WearTracking::PerBit)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("PerBit"));
    }

    #[test]
    fn fault_config_validated_through_builder() {
        let err = DeviceConfig::builder()
            .fault(FaultConfig {
                transient_rate: 2.0,
                ..FaultConfig::default()
            })
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("transient_rate"));
        let cfg = DeviceConfig::builder()
            .fault(FaultConfig::default())
            .build()
            .unwrap();
        assert!(cfg.fault.is_some());
    }

    #[test]
    fn fault_injection_is_off_by_default() {
        let cfg = DeviceConfig::builder().build().unwrap();
        assert_eq!(cfg.fault, None);
    }

    #[test]
    fn lines_per_segment_rounds_up_for_sub_line_segments() {
        let cfg = DeviceConfig::builder()
            .segment_bytes(32)
            .cache_line_bytes(64)
            .block_bytes(64)
            .build()
            .unwrap();
        assert_eq!(cfg.lines_per_segment(), 1);
    }
}
