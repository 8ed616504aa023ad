//! Device-level telemetry sink.
//!
//! [`DeviceTelemetry`] bundles the metric handles the [`crate::NvmDevice`]
//! updates at its accounting chokepoints. A freshly built device carries
//! disconnected handles; [`crate::NvmDevice::attach_telemetry`] swaps in
//! handles registered on a shared [`TelemetryRegistry`].
//!
//! The counter set mirrors [`crate::DeviceStats`] field-for-field (the
//! integer fields), updated at the same three accounting sites
//! (`account`, `charge_reads`, `swap_segments`) — so after any workload the
//! counter values and the stats snapshot agree *exactly*. A property
//! test in the workspace root enforces this. Unlike `DeviceStats`, the
//! counters are monotonic: `reset_stats` does not touch them.

use e2nvm_telemetry::{Histogram, TelemetryRegistry};

// Re-exported so downstream crates take telemetry types from the crate
// they already depend on.
pub use e2nvm_telemetry::Counter;

/// Upper bounds for the per-write bit-flip histogram (bits).
const FLIP_BOUNDS: [u64; 8] = [0, 8, 32, 128, 512, 2048, 8192, 32768];

/// Upper bounds for the modeled per-write latency histogram (ns).
const LATENCY_BOUNDS: [u64; 7] = [100, 300, 1000, 3000, 10_000, 100_000, 1_000_000];

/// Metric handles updated by the device's accounting paths.
#[derive(Debug, Clone)]
pub struct DeviceTelemetry {
    /// Write operations accounted.
    pub writes: Counter,
    /// Read operations accounted.
    pub reads: Counter,
    /// Wear-leveling segment swaps performed.
    pub swaps: Counter,
    /// Cache lines transferred to media.
    pub lines_written: Counter,
    /// Cache lines skipped because their content was unchanged.
    pub lines_skipped: Counter,
    /// Stored bits whose value changed.
    pub bits_flipped: Counter,
    /// 0→1 transitions (SET pulses).
    pub bits_set: Counter,
    /// 1→0 transitions (RESET pulses).
    pub bits_reset: Counter,
    /// Bits that received a programming pulse.
    pub bits_programmed: Counter,
    /// Bits software asked to write.
    pub bits_requested: Counter,
    /// Writes that failed: transient program-and-verify failures plus
    /// rejected writes to worn-out segments. Not mirrored in
    /// [`crate::DeviceStats`] (fault counters live in
    /// [`crate::FaultStats`]).
    pub write_failures: Counter,
    /// Segments that have crossed their endurance limit.
    pub worn_out_segments: Counter,
    /// Distribution of bit flips per write operation.
    pub flips_per_write: Histogram,
    /// Distribution of the modeled write latency (ns) per operation.
    pub write_latency_ns: Histogram,
}

impl Default for DeviceTelemetry {
    fn default() -> Self {
        Self::disconnected()
    }
}

impl DeviceTelemetry {
    /// Handles not attached to any registry (the initial state of every
    /// device).
    pub fn disconnected() -> Self {
        DeviceTelemetry {
            writes: Counter::disconnected(),
            reads: Counter::disconnected(),
            swaps: Counter::disconnected(),
            lines_written: Counter::disconnected(),
            lines_skipped: Counter::disconnected(),
            bits_flipped: Counter::disconnected(),
            bits_set: Counter::disconnected(),
            bits_reset: Counter::disconnected(),
            bits_programmed: Counter::disconnected(),
            bits_requested: Counter::disconnected(),
            write_failures: Counter::disconnected(),
            worn_out_segments: Counter::disconnected(),
            flips_per_write: Histogram::disconnected(&FLIP_BOUNDS),
            write_latency_ns: Histogram::disconnected(&LATENCY_BOUNDS),
        }
    }

    /// Register the device metric family on `registry`, distinguished by
    /// `labels` (e.g. `[("shard", "3")]`).
    pub fn register(registry: &TelemetryRegistry, labels: &[(&str, &str)]) -> Self {
        let c = |name: &str, help: &str| registry.counter_with_labels(name, help, labels);
        DeviceTelemetry {
            writes: c("e2nvm_device_writes_total", "Write operations accounted"),
            reads: c("e2nvm_device_reads_total", "Read operations accounted"),
            swaps: c(
                "e2nvm_device_swaps_total",
                "Wear-leveling segment swaps performed",
            ),
            lines_written: c(
                "e2nvm_device_lines_written_total",
                "Cache lines transferred to media",
            ),
            lines_skipped: c(
                "e2nvm_device_lines_skipped_total",
                "Cache lines skipped (unchanged content)",
            ),
            bits_flipped: c(
                "e2nvm_device_bits_flipped_total",
                "Stored bits that changed",
            ),
            bits_set: c("e2nvm_device_bits_set_total", "0\u{2192}1 transitions"),
            bits_reset: c("e2nvm_device_bits_reset_total", "1\u{2192}0 transitions"),
            bits_programmed: c(
                "e2nvm_device_bits_programmed_total",
                "Bits that received a programming pulse",
            ),
            bits_requested: c(
                "e2nvm_device_bits_requested_total",
                "Bits software asked to write",
            ),
            write_failures: c(
                "e2nvm_device_write_failures_total",
                "Writes that failed program-and-verify or hit a worn-out segment",
            ),
            worn_out_segments: c(
                "e2nvm_device_worn_out_segments_total",
                "Segments that crossed their endurance limit",
            ),
            flips_per_write: registry.histogram_with_labels(
                "e2nvm_device_flips_per_write",
                "Bit flips per write operation",
                &FLIP_BOUNDS,
                labels,
            ),
            write_latency_ns: registry.histogram_with_labels(
                "e2nvm_device_write_latency_ns",
                "Modeled latency per write operation (ns)",
                &LATENCY_BOUNDS,
                labels,
            ),
        }
    }
}
