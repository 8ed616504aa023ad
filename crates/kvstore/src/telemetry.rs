//! KV-operation telemetry: per-op counters and latency histograms for
//! the E2-backed stores. Instrumentation is unconditional: a store
//! nobody attached counts into private, never-rendered handles.

use e2nvm_telemetry::{Counter, Histogram, TelemetryRegistry};

/// Latency bucket bounds in nanoseconds for KV operations (put spans
/// padding + prediction + device write; scans can touch many segments).
const OP_LATENCY_BOUNDS: [u64; 8] = [
    1_000,
    5_000,
    25_000,
    100_000,
    500_000,
    2_000_000,
    10_000_000,
    100_000_000,
];

/// Telemetry sink for one KV store: exact operation counters plus a
/// latency histogram per operation kind (one call in
/// [`e2nvm_telemetry::Sampler::EVERY`] timed), all under the
/// `e2nvm_kv_*` namespace.
#[derive(Clone, Debug)]
pub struct StoreTelemetry {
    pub(crate) puts: Counter,
    pub(crate) gets: Counter,
    pub(crate) deletes: Counter,
    pub(crate) scans: Counter,
    pub(crate) scan_entries_read: Counter,
    pub(crate) scan_entries_returned: Counter,
    pub(crate) put_latency_ns: Histogram,
    pub(crate) get_latency_ns: Histogram,
    pub(crate) scan_latency_ns: Histogram,
}

impl StoreTelemetry {
    /// A sink wired to nothing: handles on a private registry nobody
    /// renders.
    pub fn disconnected() -> Self {
        Self::register(&TelemetryRegistry::with_journal_capacity(0), "")
    }

    /// Register this store's series on `registry` under the given store
    /// label (e.g. `"e2"` / `"sharded"`).
    pub fn register(registry: &TelemetryRegistry, store: &str) -> Self {
        let labels = [("store", store)];
        Self {
            puts: registry.counter_with_labels(
                "e2nvm_kv_puts_total",
                "KV put/update operations",
                &labels,
            ),
            gets: registry.counter_with_labels("e2nvm_kv_gets_total", "KV get operations", &labels),
            deletes: registry.counter_with_labels(
                "e2nvm_kv_deletes_total",
                "KV delete operations",
                &labels,
            ),
            scans: registry.counter_with_labels(
                "e2nvm_kv_scans_total",
                "KV range-scan operations",
                &labels,
            ),
            scan_entries_read: registry.counter_with_labels(
                "e2nvm_kv_scan_entries_read_total",
                "Entries range scans read off the devices (every shard reads up to the limit)",
                &labels,
            ),
            scan_entries_returned: registry.counter_with_labels(
                "e2nvm_kv_scan_entries_returned_total",
                "Entries range scans returned after the cross-shard merge",
                &labels,
            ),
            put_latency_ns: registry.histogram_with_labels(
                "e2nvm_kv_put_latency_ns",
                "KV put latency in nanoseconds, sampled 1 in 64",
                &OP_LATENCY_BOUNDS,
                &labels,
            ),
            get_latency_ns: registry.histogram_with_labels(
                "e2nvm_kv_get_latency_ns",
                "KV get latency in nanoseconds, sampled 1 in 64",
                &OP_LATENCY_BOUNDS,
                &labels,
            ),
            scan_latency_ns: registry.histogram_with_labels(
                "e2nvm_kv_scan_latency_ns",
                "KV range-scan latency in nanoseconds (one store call: a page on the wire path), sampled 1 in 64",
                &OP_LATENCY_BOUNDS,
                &labels,
            ),
        }
    }
}
