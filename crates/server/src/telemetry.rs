//! Wire-level telemetry: per-opcode frame counters, per-frame latency
//! histograms, connection gauges, byte counters, and the reactor's
//! event-loop series — all under the `e2nvm_server_*` namespace,
//! composing with the engine/device/KV series the fronted store
//! already publishes on the same registry. The wear gauges are a
//! read-through source over the fronted store: each scrape reads
//! [`ShardedE2KvStore::wear_summary`], the numbers a HEALTH frame
//! carries.

use crate::frame::{Opcode, Status};
use e2nvm_kvstore::ShardedE2KvStore;
use e2nvm_telemetry::{Counter, Gauge, Histogram, TelemetryRegistry};
use std::sync::Arc;

/// Latency bucket bounds in nanoseconds for one served frame (decode →
/// store call → response encode; excludes socket wait).
const FRAME_LATENCY_BOUNDS: [u64; 8] = [
    1_000,
    5_000,
    25_000,
    100_000,
    500_000,
    2_000_000,
    10_000_000,
    100_000_000,
];

/// Telemetry sink for one server instance.
///
/// Cheap to clone (handles are `Arc`-backed); every connection thread
/// clones the sink, so all connections share the same series.
#[derive(Clone, Debug)]
pub struct ServerTelemetry {
    /// Served frames per opcode (`e2nvm_server_frames_total{op=...}`).
    frames: [Counter; Opcode::ALL.len()],
    /// Error frames sent, labeled by wire status.
    error_frames: [Counter; STATUSES.len()],
    /// Latency of one frame, dispatch to encoded response, for one
    /// frame in [`e2nvm_telemetry::Sampler::EVERY`] per execution
    /// context.
    pub(crate) frame_latency_ns: Histogram,
    /// Connections currently open.
    pub(crate) connections_active: Gauge,
    /// Connections ever accepted.
    pub(crate) connections_opened: Counter,
    /// Connections rejected at the limit with a BUSY frame.
    pub(crate) connections_rejected: Counter,
    /// Payload bytes read off sockets.
    pub(crate) bytes_read: Counter,
    /// Payload bytes written to sockets.
    pub(crate) bytes_written: Counter,
    /// Reactor only: times the event loop woke from `epoll_wait`.
    pub(crate) reactor_wakeups: Counter,
    /// Reactor only: readiness events delivered across all wakeups.
    pub(crate) reactor_ready_events: Counter,
    /// Reactor only: times a connection's reads were paused by
    /// backpressure (queue bound or write backlog reached).
    pub(crate) reads_paused: Counter,
    /// Reactor only: decoded items currently queued on connections,
    /// waiting for their batch to execute.
    pub(crate) queued_items: Gauge,
    /// Reactor only: items per executed batch (the histogram count is
    /// total batches).
    pub(crate) dispatch_batch_items: Histogram,
    /// The wear source's owner: the registry reads the wear gauges
    /// from it while any clone of this sink (the serving loop's) lives.
    _wear: Option<Arc<ShardedE2KvStore>>,
    /// SCAN_STREAM chunk frames emitted (every chunk, terminal or not).
    pub(crate) scan_stream_chunks: Counter,
    /// SCAN_STREAM responses that needed more than one chunk frame —
    /// the proof a scan actually streamed instead of fitting in one
    /// frame (CI asserts this goes nonzero under YCSB-E).
    pub(crate) scan_stream_multi_chunk: Counter,
}

/// Bucket bounds for items per batch: powers of two up to the
/// default per-connection queue bound.
const BATCH_ITEM_BOUNDS: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// The statuses an error-frame counter is kept for (everything that can
/// appear on the wire as a non-OK, non-NOT_FOUND status).
const STATUSES: [Status; 10] = [
    Status::Degraded,
    Status::PoolDepleted,
    Status::OutOfSpace,
    Status::StoreError,
    Status::Malformed,
    Status::UnsupportedVersion,
    Status::UnknownOpcode,
    Status::FrameTooLarge,
    Status::Busy,
    Status::ShuttingDown,
];

impl ServerTelemetry {
    /// A sink wired to nothing: handles on a private registry nobody
    /// renders, and no wear source.
    pub fn disconnected() -> Self {
        Self::register(&TelemetryRegistry::with_journal_capacity(0), None)
    }

    /// Register the server's series on `registry`, the wear gauges
    /// read from `store` when one is given.
    pub fn register(registry: &TelemetryRegistry, store: Option<&ShardedE2KvStore>) -> Self {
        let wear = store.map(|store| Arc::new(store.clone()));
        if let Some(wear) = &wear {
            registry.source(wear, |store: &ShardedE2KvStore, out| {
                let w = store.wear_summary();
                for (name, help, value) in [
                    (
                        "free",
                        "Free segments across the fronted store",
                        w.free_segments,
                    ),
                    (
                        "retired",
                        "Segments permanently retired by wear-out",
                        w.retired_segments,
                    ),
                    (
                        "total",
                        "Total segments managed by the fronted store",
                        w.total_segments,
                    ),
                ] {
                    out.gauge(
                        &format!("e2nvm_server_wear_{name}_segments"),
                        help,
                        &[],
                        value as i64,
                    );
                }
            });
        }
        let frames = std::array::from_fn(|i| {
            registry.counter_with_labels(
                "e2nvm_server_frames_total",
                "Request frames served, by opcode",
                &[("op", Opcode::ALL[i].name())],
            )
        });
        let error_frames = std::array::from_fn(|i| {
            registry.counter_with_labels(
                "e2nvm_server_error_frames_total",
                "Error frames sent, by wire status",
                &[("status", STATUSES[i].name())],
            )
        });
        Self {
            frames,
            error_frames,
            frame_latency_ns: registry.histogram(
                "e2nvm_server_frame_latency_ns",
                "Per-frame service latency in nanoseconds (dispatch to encoded response), \
                 sampled 1 in 64",
                &FRAME_LATENCY_BOUNDS,
            ),
            connections_active: registry.gauge(
                "e2nvm_server_connections_active",
                "Connections currently open",
            ),
            connections_opened: registry.counter(
                "e2nvm_server_connections_opened_total",
                "Connections accepted since start",
            ),
            connections_rejected: registry.counter(
                "e2nvm_server_connections_rejected_total",
                "Connections rejected with a BUSY frame at the connection limit",
            ),
            bytes_read: registry.counter(
                "e2nvm_server_bytes_read_total",
                "Bytes read off client sockets",
            ),
            bytes_written: registry.counter(
                "e2nvm_server_bytes_written_total",
                "Bytes written to client sockets",
            ),
            reactor_wakeups: registry.counter(
                "e2nvm_server_reactor_wakeups_total",
                "Times the reactor event loop returned from epoll_wait",
            ),
            reactor_ready_events: registry.counter(
                "e2nvm_server_reactor_ready_events_total",
                "Readiness events delivered to the reactor",
            ),
            reads_paused: registry.counter(
                "e2nvm_server_reads_paused_total",
                "Connections whose reads were paused by backpressure (queue bound or write backlog)",
            ),
            queued_items: registry.gauge(
                "e2nvm_server_queued_items",
                "Decoded request items queued on connections, awaiting execution",
            ),
            dispatch_batch_items: registry.histogram(
                "e2nvm_server_dispatch_batch_items",
                "Items per executed batch",
                &BATCH_ITEM_BOUNDS,
            ),
            scan_stream_chunks: registry.counter(
                "e2nvm_server_scan_stream_chunks_total",
                "SCAN_STREAM chunk frames emitted (terminal chunks included)",
            ),
            scan_stream_multi_chunk: registry.counter(
                "e2nvm_server_scan_stream_multi_chunk_total",
                "SCAN_STREAM responses that spanned more than one chunk frame",
            ),
            _wear: wear,
        }
    }

    /// Count one served frame for `op`.
    #[inline]
    pub(crate) fn count_frame(&self, op: Opcode) {
        // Opcode::ALL is in wire order but not contiguous (Shutdown is
        // 0x7F), so index by position, not by the byte value.
        if let Some(i) = Opcode::ALL.iter().position(|&o| o == op) {
            self.frames[i].inc();
        }
    }

    /// Count one error frame carrying `status`.
    #[inline]
    pub(crate) fn count_error(&self, status: Status) {
        if let Some(i) = STATUSES.iter().position(|&s| s == status) {
            self.error_frames[i].inc();
        }
    }
}
