//! Device-level telemetry.
//!
//! The device's counters are its own ledger, [`crate::DeviceStats`]
//! plus [`crate::FaultStats`]: nothing mirrors them. Whoever owns a
//! device hands it to [`emit`] from a read-through source (see
//! [`e2nvm_telemetry::TelemetryRegistry::source`]), and a scrape reads
//! the `e2nvm_device_*` counter families straight off
//! [`crate::NvmDevice::lifetime_stats`] and
//! [`crate::NvmDevice::fault_stats`]. Like every Prometheus counter
//! they are monotonic: [`crate::NvmDevice::reset_stats`] folds the
//! ledger into the device's lifetime base before zeroing it.
//!
//! [`DeviceTelemetry`] keeps the two per-write histograms, which are
//! distributions, not copies: the device observes them in its one
//! write-accounting path. A freshly built device carries disconnected
//! histograms; [`crate::NvmDevice::attach_telemetry`] swaps in handles
//! registered on a shared registry.

use crate::NvmDevice;
use e2nvm_telemetry::{Histogram, Samples, TelemetryRegistry};

/// Upper bounds for the per-write bit-flip histogram (bits).
const FLIP_BOUNDS: [u64; 8] = [0, 8, 32, 128, 512, 2048, 8192, 32768];

/// Upper bounds for the modeled per-write latency histogram (ns).
const LATENCY_BOUNDS: [u64; 7] = [100, 300, 1000, 3000, 10_000, 100_000, 1_000_000];

/// Histogram handles observed by the device's write-accounting path.
#[derive(Debug, Clone)]
pub struct DeviceTelemetry {
    /// Distribution of bit flips per write operation.
    pub flips_per_write: Histogram,
    /// Distribution of the modeled write latency (ns) per operation.
    pub write_latency_ns: Histogram,
}

impl DeviceTelemetry {
    /// Handles on a private registry nobody renders (the initial state
    /// of every device).
    pub fn disconnected() -> Self {
        Self::register(&TelemetryRegistry::with_journal_capacity(0), &[])
    }

    /// Register the device histograms on `registry`, distinguished by
    /// `labels` (e.g. `[("shard", "3")]`).
    pub fn register(registry: &TelemetryRegistry, labels: &[(&str, &str)]) -> Self {
        DeviceTelemetry {
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

/// Emit `device`'s counter families, labeled `labels`, into `out`: its
/// lifetime [`crate::DeviceStats`] (energy and modeled latency as
/// `f64`, bit for bit) and its [`crate::FaultStats`].
pub fn emit(device: &NvmDevice, labels: &[(&str, &str)], out: &mut Samples) {
    let s = device.lifetime_stats();
    let f = device.fault_stats();
    for (name, help, value) in [
        ("writes", "Write operations accounted", s.writes),
        ("reads", "Read operations accounted", s.reads),
        ("swaps", "Wear-leveling segment swaps performed", s.swaps),
        (
            "lines_written",
            "Cache lines transferred to media",
            s.lines_written,
        ),
        (
            "lines_skipped",
            "Cache lines skipped (unchanged content)",
            s.lines_skipped,
        ),
        ("bits_flipped", "Stored bits that changed", s.bits_flipped),
        ("bits_set", "0\u{2192}1 transitions", s.bits_set),
        ("bits_reset", "1\u{2192}0 transitions", s.bits_reset),
        (
            "bits_programmed",
            "Bits that received a programming pulse",
            s.bits_programmed,
        ),
        (
            "bits_requested",
            "Bits software asked to write",
            s.bits_requested,
        ),
        (
            "write_failures",
            "Writes that failed program-and-verify or hit a worn-out segment",
            f.transient_failures + f.worn_out_rejections,
        ),
        (
            "worn_out_segments",
            "Segments that crossed their endurance limit",
            f.worn_out_segments,
        ),
    ] {
        out.counter(&format!("e2nvm_device_{name}_total"), help, labels, value);
    }
    for (name, help, value) in [
        (
            "energy_pj",
            "Energy consumed by the device (pJ)",
            s.energy_pj,
        ),
        (
            "latency_ns",
            "Modeled time spent in device operations (ns)",
            s.latency_ns,
        ),
    ] {
        out.counter_f64(&format!("e2nvm_device_{name}_total"), help, labels, value);
    }
}
