//! Request execution: the two steps every request batch goes through
//! between the socket and the store.
//!
//! 1. [`collect_work`] — drain every complete frame out of a
//!    [`FrameDecoder`] into an ordered list of [`Work`] items
//!    (well-formed requests and protocol violations alike — a
//!    violation is an item so its error frame stays in request order).
//! 2. [`ExecCtx::exec_batch`] — execute the items against the store in
//!    order, appending one response frame per item to an output
//!    buffer: GET fast path, typed error mapping, telemetry, and the
//!    commit barriers that keep an ack from leaving the process ahead
//!    of its WAL record.
//!
//! The reactor runs both steps on its event loop.

use crate::frame::{
    encode_response, encode_value_frame, parse_request, FrameDecoder, FrameError, Opcode, Request,
    Response, ScanStreamWriter, Status,
};
use crate::telemetry::ServerTelemetry;
use e2nvm_core::E2Error;
use e2nvm_kvstore::{CachedKvStore, NvmKvStore, ShardedE2KvStore, StoreError};
use e2nvm_telemetry::{Sampler, TelemetryRegistry};

/// What the connection handlers serve from: the bare sharded store, or
/// the same store behind a read-through cache. Clones share both the
/// store shards and the cache shards, so coherence is cross-connection.
#[derive(Clone)]
pub(crate) enum Front {
    Plain(ShardedE2KvStore),
    Cached(CachedKvStore<ShardedE2KvStore>),
}

impl Front {
    /// The store as a trait object — every request dispatches through
    /// the same [`NvmKvStore`] surface regardless of caching.
    fn kv(&mut self) -> &mut dyn NvmKvStore {
        match self {
            Front::Plain(store) => store,
            Front::Cached(cached) => cached,
        }
    }

    /// Fixed-size wear summary for the HEALTH frame (inherent on the
    /// concrete store; DRAM cache state is irrelevant to device wear).
    fn wear_summary(&self) -> e2nvm_kvstore::WearSummary {
        match self {
            Front::Plain(store) => store.wear_summary(),
            Front::Cached(cached) => cached.inner().wear_summary(),
        }
    }
}

/// One unit of ordered per-connection work: a parsed request, or a
/// protocol violation whose error frame must be emitted at exactly
/// this position in the response stream.
#[derive(Debug, Clone)]
pub(crate) enum Work {
    /// A well-formed request.
    Req(Request),
    /// A violation. [`FrameError::is_fatal`] decides whether the
    /// connection closes after the error frame is flushed.
    Bad(FrameError),
}

/// How [`collect_work`] left the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CollectEnd {
    /// All buffered complete frames were consumed; feed more bytes.
    NeedMore,
    /// A framing-level violation poisoned the stream: the final item
    /// is its [`Work::Bad`], and the caller must read no further.
    Fatal,
}

/// Drain every complete frame out of `decoder` into `out` (appending),
/// stopping early only on a fatal framing violation. Violations are
/// appended as [`Work::Bad`] items so their error frames keep request
/// order when the batch executes.
pub(crate) fn collect_work(decoder: &mut FrameDecoder, out: &mut Vec<Work>) -> CollectEnd {
    loop {
        match decoder.next_frame() {
            Ok(None) => return CollectEnd::NeedMore,
            Ok(Some(raw)) => match parse_request(&raw) {
                Ok(req) => out.push(Work::Req(req)),
                Err(e) => {
                    let fatal = e.is_fatal();
                    out.push(Work::Bad(e));
                    if fatal {
                        return CollectEnd::Fatal;
                    }
                }
            },
            Err(e) => {
                // Framing-level violation: the byte stream can no
                // longer be trusted. Answer (in order), then close.
                out.push(Work::Bad(e));
                return CollectEnd::Fatal;
            }
        }
    }
}

/// What executing a batch decided about the connection's future.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BatchOutcome {
    /// Close the connection once the batch's responses are flushed
    /// (fatal violation answered, or SHUTDOWN acknowledged).
    pub close: bool,
    /// A SHUTDOWN frame was served: the whole server must drain.
    pub shutdown: bool,
}

/// Entries fetched from the store per paging step while producing a
/// scan response. Bounds store-side materialisation per call: the
/// server never asks the store for more than one page at a time, no
/// matter how large the range ([`NvmKvStore::scan_visit`] merges at
/// most the page it is asked for — counting at most a page per shard —
/// and visits the winners where they sit on the device).
const SCAN_PAGE: usize = 256;

/// The page loop behind a scan: walk `lo..=hi` one [`SCAN_PAGE`] at a
/// time, handing each entry to `visit` in key order until `limit`
/// entries were visited (`0` = no limit) or the range is exhausted. A
/// page is read whole before its first entry is visited, so a store
/// error — which ends the walk — means `visit` saw nothing of the
/// failed page.
fn scan_pages(
    store: &mut dyn NvmKvStore,
    lo: u64,
    hi: u64,
    limit: u32,
    mut visit: impl FnMut(u64, &[u8]),
) -> Result<(), StoreError> {
    let mut remaining = if limit == 0 {
        u64::MAX
    } else {
        u64::from(limit)
    };
    let mut cursor = lo;
    while remaining > 0 && cursor <= hi {
        let want = remaining.min(SCAN_PAGE as u64) as usize;
        let mut last_key = None;
        let got = store.scan_visit(cursor, hi, want, &mut |key, value| {
            last_key = Some(key);
            visit(key, value);
            true
        })?;
        remaining -= got as u64;
        match last_key {
            Some(key) if got == want && key < hi => cursor = key + 1,
            _ => break,
        }
    }
    Ok(())
}

/// Produce the chunked response stream for one SCAN_STREAM request,
/// appending chunk frames to `outbuf`.
///
/// The result is paged out of the store [`SCAN_PAGE`] entries at a
/// time and each visited entry is written straight into `outbuf`,
/// behind a chunk header that is patched when the chunk closes at the
/// `scan_chunk_bytes` bound — the frames [`crate::frame::encode_scan_chunk`]
/// would produce, with nothing gathered in between. `outbuf`
/// accumulates the chunks under the reactor's write-backlog
/// backpressure. A store error mid-stream terminates the stream with
/// an error frame echoing SCAN_STREAM — frame-level, the connection
/// survives.
fn stream_scan(
    store: &mut dyn NvmKvStore,
    telemetry: &ServerTelemetry,
    scan_chunk_bytes: usize,
    lo: u64,
    hi: u64,
    limit: u32,
    outbuf: &mut Vec<u8>,
) {
    let mut chunks_emitted = 0u64;
    // Telemetry for one emitted chunk: count it, and count the
    // response as multi-chunk when its second chunk goes out.
    let mut note_chunk = || {
        chunks_emitted += 1;
        telemetry.scan_stream_chunks.inc();
        if chunks_emitted == 2 {
            telemetry.scan_stream_multi_chunk.inc();
        }
    };
    let mut stream = ScanStreamWriter::open(outbuf);
    let paged = scan_pages(store, lo, hi, limit, |key, value| {
        if stream.chunk_entries() > 0 && stream.chunk_bytes() + 12 + value.len() > scan_chunk_bytes
        {
            // At least one more entry (this one) follows.
            stream.next_chunk();
            note_chunk();
        }
        stream.push(key, value);
    });
    match paged {
        // Terminal chunk: whatever is left (possibly nothing — an
        // empty range is one empty final chunk).
        Ok(()) => {
            stream.finish();
            note_chunk();
        }
        // Mid-stream store error: terminal for the stream, survivable
        // for the connection. Chunks already closed stand; the peer
        // sees the typed error in place of the final chunk.
        Err(e) => {
            stream.abandon();
            let resp = store_error_frame(&e);
            if let Response::Error { status, .. } = &resp {
                telemetry.count_error(*status);
            }
            encode_response(&resp, Some(Opcode::ScanStream), outbuf);
        }
    }
}

/// Everything needed to execute requests against the store: a [`Front`]
/// clone (shards shared), the registry for METRICS frames, the
/// telemetry sink, and the scan chunk bound. The reactor owns one and
/// runs every batch through it.
pub(crate) struct ExecCtx {
    pub store: Front,
    pub registry: Option<TelemetryRegistry>,
    pub telemetry: ServerTelemetry,
    /// Target payload bytes per SCAN_STREAM chunk. Entries are never
    /// split, so a chunk holding one oversized entry may exceed this.
    pub scan_chunk_bytes: usize,
    /// Which frames this context times.
    pub frame_clock: Sampler,
}

impl ExecCtx {
    /// Execute `items` in order, appending one response frame per item
    /// to `outbuf`. Items after a SHUTDOWN or a fatal violation are
    /// dropped unanswered (the connection is closing; the peer's
    /// pipeline is void past that point).
    pub fn exec_batch(
        &mut self,
        items: impl IntoIterator<Item = Work>,
        outbuf: &mut Vec<u8>,
    ) -> BatchOutcome {
        let mut outcome = BatchOutcome::default();
        // Responses at or past this index acknowledge work not yet
        // covered by a commit barrier; a failed commit drops exactly
        // them. Streamed scans move it forward (they run their own
        // barrier first).
        let mut barrier = outbuf.len();
        for item in items {
            match item {
                Work::Req(req) => {
                    let started = self.frame_clock.start();
                    let op = req.opcode();
                    self.telemetry.count_frame(op);
                    match req {
                        // GETs are the hot path: serve them straight
                        // into the output buffer (a cache hit encodes
                        // from the cached bytes, no intermediate Vec).
                        Request::Get { key } => self.serve_get(key, outbuf),
                        Request::Shutdown => {
                            encode_response(&Response::ShutdownAck, Some(op), outbuf);
                            outcome.shutdown = true;
                            outcome.close = true;
                        }
                        Request::ScanStream { lo, hi, limit } => {
                            // Commit barrier *before* streaming: it
                            // makes every response already in `outbuf`
                            // ack-safe, so a stream of any size never
                            // sits between a write's ack and its WAL
                            // record, and a commit failure after the
                            // stream drops only what follows it.
                            if let Err(e) = self.store.kv().commit() {
                                outbuf.truncate(barrier);
                                let resp = store_error_frame(&e);
                                if let Response::Error { status, .. } = &resp {
                                    self.telemetry.count_error(*status);
                                }
                                encode_response(&resp, None, outbuf);
                                outcome.close = true;
                            } else {
                                stream_scan(
                                    self.store.kv(),
                                    &self.telemetry,
                                    self.scan_chunk_bytes,
                                    lo,
                                    hi,
                                    limit,
                                    outbuf,
                                );
                                // Everything emitted so far is either
                                // committed or read-only.
                                barrier = outbuf.len();
                            }
                        }
                        req => {
                            let resp = self.handle(req);
                            if let Response::Error { status, .. } = &resp {
                                self.telemetry.count_error(*status);
                            }
                            encode_response(&resp, Some(op), outbuf);
                        }
                    }
                    self.telemetry.frame_latency_ns.observe_since(started);
                    if outcome.close {
                        break;
                    }
                }
                Work::Bad(e) => {
                    // Answer with a typed error frame (never panic,
                    // never drop silently). Rejected frames are not
                    // observed.
                    self.telemetry.count_error(e.status());
                    encode_response(&error_frame(&e), None, outbuf);
                    if e.is_fatal() {
                        outcome.close = true;
                        break;
                    }
                }
            }
        }
        // Group-commit barrier: hand the batch's WAL records to the
        // kernel *before* the caller flushes the batch's responses to
        // the socket. That ordering — not per-mutation syscalls — is
        // what makes every acked write survive a process kill, and it
        // is why the batch is the WAL's write(2) granularity.
        if let Err(e) = self.store.kv().commit() {
            // Applied in memory but not durably logged: acking would
            // break the no-acked-loss contract. Drop the responses not
            // yet covered by a barrier, answer with one typed error,
            // and close — the client treats the dead connection as
            // unacknowledged.
            outbuf.truncate(barrier);
            let resp = store_error_frame(&e);
            if let Response::Error { status, .. } = &resp {
                self.telemetry.count_error(*status);
            }
            encode_response(&resp, None, outbuf);
            outcome.close = true;
        }
        outcome
    }

    /// Serve one GET, appending its response frame to `outbuf`. Split
    /// from [`ExecCtx::handle`] so the cache-hit path can encode
    /// straight from the cached bytes under the shard lock instead of
    /// materialising a `Response::Value` allocation per read.
    fn serve_get(&mut self, key: u64, outbuf: &mut Vec<u8>) {
        let echo = Some(Opcode::Get);
        let error = match &mut self.store {
            Front::Cached(cached) => {
                match cached.get_with(key, |value| encode_value_frame(value, echo, outbuf)) {
                    Ok(Some(())) => None,
                    Ok(None) => {
                        encode_response(&Response::NotFound, echo, outbuf);
                        None
                    }
                    Err(e) => Some(store_error_frame(&e)),
                }
            }
            Front::Plain(store) => match store.get(key) {
                Ok(Some(v)) => {
                    encode_value_frame(&v, echo, outbuf);
                    None
                }
                Ok(None) => {
                    encode_response(&Response::NotFound, echo, outbuf);
                    None
                }
                Err(e) => Some(store_error_frame(&e)),
            },
        };
        if let Some(resp) = error {
            if let Response::Error { status, .. } = &resp {
                self.telemetry.count_error(*status);
            }
            encode_response(&resp, echo, outbuf);
        }
    }

    fn handle(&mut self, req: Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::Get { key } => match self.store.kv().get(key) {
                Ok(Some(v)) => Response::Value(v),
                Ok(None) => Response::NotFound,
                Err(e) => store_error_frame(&e),
            },
            Request::Put { key, value } => match self.store.kv().put(key, &value) {
                Ok(()) => Response::Stored,
                Err(e) => store_error_frame(&e),
            },
            Request::Delete { key } => match self.store.kv().delete(key) {
                Ok(existed) => Response::Deleted(existed),
                Err(e) => store_error_frame(&e),
            },
            // Streamed in exec_batch (needs the output buffer); only a
            // direct `handle` caller could reach this arm, and there
            // is none.
            Request::ScanStream { .. } => unreachable!("SCAN_STREAM is served by exec_batch"),
            // FLUSH dispatches through the NvmKvStore trait: the
            // persistence-backed store snapshots + fsyncs, stores
            // without persistence answer `Flushed(0)` (documented
            // no-op in `traits.rs`).
            Request::Flush => match self.store.kv().flush() {
                Ok(bytes) => Response::Flushed(bytes),
                Err(e) => store_error_frame(&e),
            },
            Request::Health => Response::Health(self.store.wear_summary()),
            Request::Metrics => Response::Metrics(match &self.registry {
                Some(reg) => reg.render_prometheus(),
                None => "# no telemetry registry attached\n".to_string(),
            }),
            Request::Shutdown => Response::ShutdownAck,
        }
    }
}

/// The error frame for a protocol violation.
pub(crate) fn error_frame(e: &FrameError) -> Response {
    Response::Error {
        status: e.status(),
        retired: 0,
        message: e.to_string(),
    }
}

/// Map a [`StoreError`] to its typed wire status — degraded mode and
/// pool depletion become first-class statuses the client can match on
/// instead of a dropped connection.
pub(crate) fn store_error_frame(e: &StoreError) -> Response {
    match e {
        StoreError::Degraded { retired } => Response::Error {
            status: Status::Degraded,
            retired: *retired as u64,
            message: e.to_string(),
        },
        StoreError::Engine(E2Error::PoolDepleted { retired }) => Response::Error {
            status: Status::PoolDepleted,
            retired: *retired as u64,
            message: e.to_string(),
        },
        StoreError::OutOfSpace | StoreError::Engine(E2Error::OutOfSpace) => Response::Error {
            status: Status::OutOfSpace,
            retired: 0,
            message: e.to_string(),
        },
        other => Response::Error {
            status: Status::StoreError,
            retired: 0,
            message: other.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_errors_map_to_typed_statuses() {
        let degraded = store_error_frame(&StoreError::Degraded { retired: 9 });
        assert!(matches!(
            degraded,
            Response::Error {
                status: Status::Degraded,
                retired: 9,
                ..
            }
        ));
        let depleted = store_error_frame(&StoreError::Engine(E2Error::PoolDepleted { retired: 3 }));
        assert!(matches!(
            depleted,
            Response::Error {
                status: Status::PoolDepleted,
                retired: 3,
                ..
            }
        ));
        let full = store_error_frame(&StoreError::OutOfSpace);
        assert!(matches!(
            full,
            Response::Error {
                status: Status::OutOfSpace,
                ..
            }
        ));
        let unknown = store_error_frame(&StoreError::UnknownNode(e2nvm_kvstore::NodeId(1)));
        assert!(matches!(
            unknown,
            Response::Error {
                status: Status::StoreError,
                ..
            }
        ));
    }

    #[test]
    fn collect_work_keeps_violations_in_order() {
        use crate::frame::{encode_request, DEFAULT_MAX_BODY, MAGIC, VERSION};
        let mut bytes = Vec::new();
        encode_request(&Request::Ping, &mut bytes);
        // An unknown opcode (survivable) between two good frames.
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[MAGIC, VERSION, 0x55, 0]);
        encode_request(&Request::Get { key: 9 }, &mut bytes);
        let mut dec = FrameDecoder::new(DEFAULT_MAX_BODY);
        dec.extend(&bytes);
        let mut items = Vec::new();
        assert_eq!(collect_work(&mut dec, &mut items), CollectEnd::NeedMore);
        assert!(matches!(items[0], Work::Req(Request::Ping)));
        assert!(matches!(
            items[1],
            Work::Bad(FrameError::UnknownOpcode(0x55))
        ));
        assert!(matches!(items[2], Work::Req(Request::Get { key: 9 })));
    }

    #[test]
    fn collect_work_stops_at_fatal_violation() {
        use crate::frame::{encode_request, DEFAULT_MAX_BODY};
        let mut bytes = Vec::new();
        encode_request(&Request::Ping, &mut bytes);
        bytes.extend_from_slice(b"GET / HTTP/1.1\r\n");
        let mut dec = FrameDecoder::new(DEFAULT_MAX_BODY);
        dec.extend(&bytes);
        let mut items = Vec::new();
        assert_eq!(collect_work(&mut dec, &mut items), CollectEnd::Fatal);
        assert_eq!(items.len(), 2);
        assert!(matches!(items[1], Work::Bad(FrameError::BadMagic(_))));
    }

    #[test]
    fn frame_counts_are_exact_and_their_latencies_sampled() {
        let registry = TelemetryRegistry::new();
        let store = crate::demo::demo_store(2, 64, 32, 11);
        let mut ctx = ExecCtx {
            telemetry: ServerTelemetry::register(&registry, Some(&store)),
            store: Front::Plain(store),
            registry: Some(registry.clone()),
            scan_chunk_bytes: 64 * 1024,
            frame_clock: Sampler::default(),
        };
        // 100 GETs, with a rejected frame among them that is answered
        // but neither counted as a GET nor timed.
        let mut batch: Vec<Work> = (0..100)
            .map(|key| Work::Req(Request::Get { key }))
            .collect();
        batch.insert(50, Work::Bad(FrameError::UnknownOpcode(0x55)));
        let outcome = ctx.exec_batch(batch, &mut Vec::new());
        assert!(!outcome.close);
        let gets = registry.counter_with_labels("e2nvm_server_frames_total", "", &[("op", "get")]);
        let latency = registry.histogram("e2nvm_server_frame_latency_ns", "", &[]);
        assert_eq!(gets.get(), 100);
        assert_eq!(latency.count(), 2);
    }

    /// One pipelined `[PUT, PUT, SCAN_STREAM, PUT]` batch against a
    /// persistent store answers four response groups in request
    /// order, and by the time `exec_batch` hands the bytes back —
    /// before any of them could reach a socket — every acked PUT's
    /// record is in its shard's WAL file (`Wal::commit` is the
    /// `write(2)`). The store is still alive when the files are read,
    /// so the WAL's flush-on-drop cannot stand in for a missing commit.
    #[test]
    fn acks_never_leave_ahead_of_their_wal_records() {
        use crate::frame::{parse_response, MAX_RESPONSE_BODY};
        use e2nvm_persist::{replay_and_truncate, FlushPolicy, PersistenceConfig, WalOp};
        let dir = std::env::temp_dir().join(format!(
            "e2nvm-dispatch-wal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let pcfg = PersistenceConfig::builder()
            .data_dir(&dir)
            .flush_policy(FlushPolicy::OsOnly)
            .build()
            .unwrap();
        let store = crate::demo::demo_store(2, 64, 32, 11)
            .with_persistence(pcfg.clone(), None)
            .expect("enable persistence");
        let mut ctx = ExecCtx {
            store: Front::Plain(store),
            registry: None,
            telemetry: ServerTelemetry::disconnected(),
            scan_chunk_bytes: 64 * 1024,
            frame_clock: Sampler::default(),
        };
        let put = |key: u64, value: &[u8]| {
            Work::Req(Request::Put {
                key,
                value: value.to_vec(),
            })
        };
        let batch = vec![
            put(1, b"one"),
            put(2, b"two"),
            Work::Req(Request::ScanStream {
                lo: 0,
                hi: u64::MAX,
                limit: 0,
            }),
            put(3, b"three"),
        ];
        let mut outbuf = Vec::new();
        let outcome = ctx.exec_batch(batch, &mut outbuf);
        assert!(!outcome.close && !outcome.shutdown);

        let mut dec = FrameDecoder::new(MAX_RESPONSE_BODY);
        dec.extend(&outbuf);
        let mut responses = Vec::new();
        while let Some(raw) = dec.next_frame().expect("well-formed response frames") {
            responses.push(parse_response(&raw).expect("response parses"));
        }
        // The stream sees the two PUTs ahead of it and not the one
        // behind it: request order, not batch-then-scan.
        assert_eq!(
            responses,
            vec![
                Response::Stored,
                Response::Stored,
                Response::ScanChunk {
                    more: false,
                    entries: vec![(1, b"one".to_vec()), (2, b"two".to_vec())],
                },
                Response::Stored,
            ]
        );

        let mut logged: Vec<WalOp> = (0..2)
            .flat_map(|shard| replay_and_truncate(&pcfg.wal_path(shard)).unwrap().ops)
            .collect();
        logged.sort_by_key(|op| match op {
            WalOp::Put { key, .. } | WalOp::Delete { key } => *key,
        });
        let wal_put = |key: u64, value: &[u8]| WalOp::Put {
            key,
            value: value.to_vec(),
        };
        assert_eq!(
            logged,
            vec![wal_put(1, b"one"), wal_put(2, b"two"), wal_put(3, b"three")]
        );
        drop(ctx);
        let _ = std::fs::remove_dir_all(&dir);
    }

    use e2nvm_kvstore::store::Result as StoreResult;

    /// An in-memory store that can fail a chosen `scan_limit` call —
    /// the page a SCAN_STREAM dies on. It keeps the trait's default
    /// `scan_visit`, so the stream is also pinned for stores that do
    /// not visit in place.
    struct PagedFake {
        map: std::collections::BTreeMap<u64, Vec<u8>>,
        pages_served: usize,
        fail_page: Option<usize>,
    }

    impl NvmKvStore for PagedFake {
        fn name(&self) -> &'static str {
            "paged fake"
        }
        fn put(&mut self, key: u64, value: &[u8]) -> StoreResult<()> {
            self.map.insert(key, value.to_vec());
            Ok(())
        }
        fn get(&mut self, key: u64) -> StoreResult<Option<Vec<u8>>> {
            Ok(self.map.get(&key).cloned())
        }
        fn delete(&mut self, key: u64) -> StoreResult<bool> {
            Ok(self.map.remove(&key).is_some())
        }
        fn scan(&mut self, lo: u64, hi: u64) -> StoreResult<Vec<(u64, Vec<u8>)>> {
            self.scan_limit(lo, hi, usize::MAX)
        }
        fn scan_limit(
            &mut self,
            lo: u64,
            hi: u64,
            limit: usize,
        ) -> StoreResult<Vec<(u64, Vec<u8>)>> {
            if self.fail_page == Some(self.pages_served) {
                return Err(StoreError::Degraded { retired: 7 });
            }
            self.pages_served += 1;
            let range = self.map.range(lo..=hi).take(limit);
            Ok(range.map(|(&k, v)| (k, v.clone())).collect())
        }
        fn stats(&self) -> e2nvm_sim::DeviceStats {
            e2nvm_sim::DeviceStats::default()
        }
        fn reset_stats(&mut self) {}
    }

    /// The stream `entries` must produce, from the reference encoder:
    /// chunks split where the next entry would pass `chunk_bytes`,
    /// every chunk but the last flagged `more`, and — when the store
    /// failed after `entries` — the typed error frame in place of the
    /// last chunk, whose entries are dropped.
    fn reference_stream(
        entries: &[(u64, Vec<u8>)],
        chunk_bytes: usize,
        error: Option<&StoreError>,
    ) -> Vec<u8> {
        use crate::frame::encode_scan_chunk;
        let mut chunks: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new()];
        let mut open_bytes = 0;
        for (key, value) in entries {
            let entry_bytes = 12 + value.len();
            if open_bytes > 0 && open_bytes + entry_bytes > chunk_bytes {
                chunks.push(Vec::new());
                open_bytes = 0;
            }
            open_bytes += entry_bytes;
            chunks.last_mut().unwrap().push((*key, value.clone()));
        }
        let last = chunks.pop().unwrap();
        let mut out = Vec::new();
        for chunk in &chunks {
            encode_scan_chunk(true, chunk, &mut out);
        }
        match error {
            None => encode_scan_chunk(false, &last, &mut out),
            Some(e) => encode_response(&store_error_frame(e), Some(Opcode::ScanStream), &mut out),
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Chunks written in place are, byte for byte, what
        /// `encode_scan_chunk` makes of the same entries — whatever the
        /// value sizes (an entry larger than the chunk bound included),
        /// the chunk bound, the limit and the number of `SCAN_PAGE`s the
        /// range spans — and a store error on a later page leaves the
        /// closed chunks standing and ends the stream with the typed
        /// error frame.
        #[test]
        fn streamed_chunks_are_the_reference_encoders_bytes(
            sizes in proptest::collection::vec(
                proptest::prop_oneof![0usize..40, 0usize..40, 0usize..40, 100usize..400],
                0..700,
            ),
            chunk_bytes in proptest::prop_oneof![16usize..128, 128usize..2048, 65536usize..65537],
            bounds in (0u64..700, 0u64..1400),
            limit in proptest::prop_oneof![0u32..1, 1u32..3, 200u32..600],
            fail_page in proptest::prop_oneof![0usize..1, 1usize..3],
        ) {
            use proptest::prelude::*;
            // Keys are spread two apart, so a bound can fall between.
            let map: std::collections::BTreeMap<u64, Vec<u8>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &len)| (2 * i as u64, vec![i as u8; len]))
                .collect();
            let (lo, hi) = bounds;
            let take = if limit == 0 { usize::MAX } else { limit as usize };
            let matches: Vec<(u64, Vec<u8>)> = if lo > hi {
                Vec::new()
            } else {
                map.range(lo..=hi).take(take).map(|(&k, v)| (k, v.clone())).collect()
            };
            // Page 0 never fails here; a later page fails only if the
            // scan is sure to reach it.
            let fail_page = Some(fail_page).filter(|&p| p > 0 && matches.len() > p * SCAN_PAGE);
            let mut store = PagedFake { map, pages_served: 0, fail_page };
            let telemetry = ServerTelemetry::disconnected();
            let mut outbuf = b"earlier responses stay".to_vec();
            stream_scan(&mut store, &telemetry, chunk_bytes, lo, hi, limit, &mut outbuf);

            let error = StoreError::Degraded { retired: 7 };
            let want = match fail_page {
                None => reference_stream(&matches, chunk_bytes, None),
                Some(p) => reference_stream(&matches[..p * SCAN_PAGE], chunk_bytes, Some(&error)),
            };
            prop_assert_eq!(&outbuf[..22], &b"earlier responses stay"[..]);
            prop_assert!(outbuf[22..] == want[..], "stream differs from the reference");
        }
    }

    /// The same pin on the real store, where `scan_visit` hands out
    /// the winners of a two-shard merge from device memory: three
    /// `SCAN_PAGE`s of mixed-size values, and an inner range against
    /// the store's own `scan_limit`.
    #[test]
    fn real_store_streams_the_reference_bytes_across_pages() {
        let mut store = crate::demo::demo_store(2, 1024, 32, 11);
        let mut all = Vec::new();
        for key in 0..600u64 {
            let value = vec![key as u8; (key % 29) as usize];
            store.put(key * 3, &value).unwrap();
            all.push((key * 3, value));
        }
        let mut ctx = ExecCtx {
            store: Front::Plain(store),
            registry: None,
            telemetry: ServerTelemetry::disconnected(),
            scan_chunk_bytes: 0,
            frame_clock: Sampler::default(),
        };
        for (chunk_bytes, limit) in [(64, 0), (1000, 0), (64 * 1024, 0), (1000, 300), (64, 1)] {
            let want = if limit == 0 {
                all.len()
            } else {
                limit as usize
            };
            let mut outbuf = Vec::new();
            stream_scan(
                ctx.store.kv(),
                &ctx.telemetry,
                chunk_bytes,
                0,
                u64::MAX,
                limit,
                &mut outbuf,
            );
            assert!(
                outbuf == reference_stream(&all[..want], chunk_bytes, None),
                "chunk_bytes {chunk_bytes}, limit {limit}"
            );
        }
        assert_eq!(
            ctx.telemetry.scan_stream_multi_chunk.get(),
            3,
            "every stream but the 64 KiB-chunk and the one-entry one spans chunks"
        );
        let inner = ctx.store.kv().scan_limit(3, 3 * 500, usize::MAX).unwrap();
        assert_eq!(inner, all[1..=500]);
        let mut outbuf = Vec::new();
        stream_scan(
            ctx.store.kv(),
            &ctx.telemetry,
            1000,
            3,
            3 * 500,
            0,
            &mut outbuf,
        );
        assert!(outbuf == reference_stream(&inner, 1000, None));
    }
}
