//! KV-operation telemetry: per-op counters and latency histograms for
//! the E2-backed stores. Instrumentation is unconditional: a store
//! nobody attached counts into private, never-rendered handles.

use e2nvm_telemetry::{Counter, Gauge, Histogram, TelemetryRegistry};

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
    registry: Option<TelemetryRegistry>,
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

impl Default for StoreTelemetry {
    fn default() -> Self {
        Self::disconnected()
    }
}

impl StoreTelemetry {
    /// A sink wired to nothing: counters count into private handles no
    /// registry renders.
    pub fn disconnected() -> Self {
        Self {
            registry: None,
            puts: Counter::disconnected(),
            gets: Counter::disconnected(),
            deletes: Counter::disconnected(),
            scans: Counter::disconnected(),
            scan_entries_read: Counter::disconnected(),
            scan_entries_returned: Counter::disconnected(),
            put_latency_ns: Histogram::disconnected(&OP_LATENCY_BOUNDS),
            get_latency_ns: Histogram::disconnected(&OP_LATENCY_BOUNDS),
            scan_latency_ns: Histogram::disconnected(&OP_LATENCY_BOUNDS),
        }
    }

    /// Register this store's series on `registry` under the given store
    /// label (e.g. `"e2"` / `"sharded"`).
    pub fn register(registry: &TelemetryRegistry, store: &str) -> Self {
        let labels = [("store", store)];
        Self {
            registry: Some(registry.clone()),
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

    /// The registry this sink was registered on, if any.
    pub fn registry(&self) -> Option<&TelemetryRegistry> {
        self.registry.as_ref()
    }
}

/// Cache-lookup latency bucket bounds in nanoseconds. Hits are DRAM
/// map lookups (sub-microsecond); misses additionally pay the inner
/// store's read path, so the buckets span both regimes.
const CACHE_LATENCY_BOUNDS: [u64; 8] =
    [100, 500, 1_000, 5_000, 25_000, 100_000, 500_000, 2_000_000];

/// Telemetry sink for a [`crate::HotCache`]: exact hit/miss/eviction
/// counters, occupancy gauges, and hit-vs-miss latency histograms (one
/// GET in [`e2nvm_telemetry::Sampler::EVERY`] timed), all under the
/// `e2nvm_cache_*` namespace.
#[derive(Clone, Debug)]
pub struct CacheTelemetry {
    registry: Option<TelemetryRegistry>,
    pub(crate) hits: Counter,
    pub(crate) misses: Counter,
    pub(crate) evictions: Counter,
    pub(crate) invalidations: Counter,
    pub(crate) fills_dropped: Counter,
    pub(crate) occupancy_bytes: Gauge,
    pub(crate) entries: Gauge,
    pub(crate) hit_latency_ns: Histogram,
    pub(crate) miss_latency_ns: Histogram,
}

impl Default for CacheTelemetry {
    fn default() -> Self {
        Self::disconnected()
    }
}

impl CacheTelemetry {
    /// A sink wired to nothing.
    pub fn disconnected() -> Self {
        Self {
            registry: None,
            hits: Counter::disconnected(),
            misses: Counter::disconnected(),
            evictions: Counter::disconnected(),
            invalidations: Counter::disconnected(),
            fills_dropped: Counter::disconnected(),
            occupancy_bytes: Gauge::disconnected(),
            entries: Gauge::disconnected(),
            hit_latency_ns: Histogram::disconnected(&CACHE_LATENCY_BOUNDS),
            miss_latency_ns: Histogram::disconnected(&CACHE_LATENCY_BOUNDS),
        }
    }

    /// Register the cache series on `registry`.
    pub fn register(registry: &TelemetryRegistry) -> Self {
        Self {
            registry: Some(registry.clone()),
            hits: registry.counter("e2nvm_cache_hits_total", "Cache lookups served from DRAM"),
            misses: registry.counter(
                "e2nvm_cache_misses_total",
                "Cache lookups that fell through to the store",
            ),
            evictions: registry.counter(
                "e2nvm_cache_evictions_total",
                "Entries evicted by the CLOCK hand",
            ),
            invalidations: registry.counter(
                "e2nvm_cache_invalidations_total",
                "Coherence invalidations from puts/deletes",
            ),
            fills_dropped: registry.counter(
                "e2nvm_cache_fills_dropped_total",
                "Fills dropped because an invalidation raced the read",
            ),
            occupancy_bytes: registry.gauge(
                "e2nvm_cache_occupancy_bytes",
                "Bytes currently charged against the cache budget",
            ),
            entries: registry.gauge("e2nvm_cache_entries", "Entries currently resident"),
            hit_latency_ns: registry.histogram(
                "e2nvm_cache_hit_latency_ns",
                "GET latency when served from the cache, sampled 1 in 64",
                &CACHE_LATENCY_BOUNDS,
            ),
            miss_latency_ns: registry.histogram(
                "e2nvm_cache_miss_latency_ns",
                "GET latency when falling through to the store, sampled 1 in 64",
                &CACHE_LATENCY_BOUNDS,
            ),
        }
    }

    /// The registry this sink was registered on, if any.
    pub fn registry(&self) -> Option<&TelemetryRegistry> {
        self.registry.as_ref()
    }
}
