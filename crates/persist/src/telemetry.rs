//! Persistence telemetry: WAL and snapshot counters under the
//! `e2nvm_persist_*` namespace, composing with the device/engine/store/
//! server series on the same registry.

use e2nvm_telemetry::{Counter, Gauge, TelemetryRegistry};

/// Telemetry sink for one persistent store. Cheap to clone (handles are
/// `Arc`-backed); the per-shard WALs share one sink.
#[derive(Clone, Debug)]
pub struct PersistTelemetry {
    /// WAL records appended (`e2nvm_persist_wal_appends_total`).
    pub wal_appends: Counter,
    /// WAL `fsync` calls issued.
    pub wal_fsyncs: Counter,
    /// Bytes written by snapshots (cumulative).
    pub snapshot_bytes: Counter,
    /// Snapshots taken.
    pub snapshots: Counter,
    /// Wall-clock milliseconds the last recovery took (snapshot load +
    /// WAL replay), `0` until a recovery has run.
    pub recovery_ms: Gauge,
}

impl PersistTelemetry {
    /// A sink wired to nothing: handles on a private registry nobody
    /// renders.
    pub fn disconnected() -> Self {
        Self::register(&TelemetryRegistry::with_journal_capacity(0))
    }

    /// Register the persistence series on `registry`.
    pub fn register(registry: &TelemetryRegistry) -> Self {
        Self {
            wal_appends: registry.counter(
                "e2nvm_persist_wal_appends_total",
                "WAL mutation records appended",
            ),
            wal_fsyncs: registry.counter(
                "e2nvm_persist_wal_fsyncs_total",
                "WAL fsync calls issued (group commit boundaries)",
            ),
            snapshot_bytes: registry.counter(
                "e2nvm_persist_snapshot_bytes_total",
                "Bytes written by snapshots",
            ),
            snapshots: registry.counter(
                "e2nvm_persist_snapshots_total",
                "Snapshots taken (periodic, flush-triggered, and drain-time)",
            ),
            recovery_ms: registry.gauge(
                "e2nvm_persist_recovery_ms",
                "Wall-clock milliseconds of the last snapshot+WAL recovery",
            ),
        }
    }
}
