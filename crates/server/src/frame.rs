//! The wire format: frame layout, opcodes, status codes, and the
//! incremental [`FrameDecoder`].
//!
//! This module is the single source of truth for the byte layout
//! documented in `PROTOCOL.md`; the server and the client both encode
//! and decode exclusively through it. Every frame — request or
//! response — is:
//!
//! ```text
//! offset  size  field
//! 0       4     body_len  u32 LE, bytes after the 8-byte header
//! 4       1     magic     0xE2
//! 5       1     version   0x02
//! 6       1     code      request: opcode · response: status
//! 7       1     aux       request: 0x00 (reserved) · response: echoed opcode
//! 8       ...   body      opcode/status-specific payload
//! ```
//!
//! Integers are little-endian throughout. The decoder distinguishes
//! **framing-level** violations (bad magic, oversized `body_len`) —
//! after which the byte stream cannot be trusted and the connection
//! must close — from **frame-level** violations (unknown opcode, bad
//! body shape), after which framing is still intact and the connection
//! survives. See [`FrameError::is_fatal`].

use e2nvm_kvstore::WearSummary;
use std::fmt;

/// Protocol magic byte, fixed forever (frames from anything that is
/// not an e2nvm peer are rejected on byte 4).
pub const MAGIC: u8 = 0xE2;

/// Current protocol version. Bumped only for incompatible layout
/// changes; see the versioning rules in `PROTOCOL.md`. Version 2
/// reshaped the `HEALTH` response body (32 → 40 bytes, adding
/// `retired_physical`).
pub const VERSION: u8 = 0x02;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 8;

/// Default cap on `body_len` (1 MiB). Servers may configure a lower
/// cap; frames above it are answered with [`Status::FrameTooLarge`].
pub const DEFAULT_MAX_BODY: usize = 1 << 20;

/// The `body_len` cap a *response* receiver should enforce. A
/// SCAN_STREAM chunk always carries at least one entry, so a single
/// stored value of the maximum PUT size (`DEFAULT_MAX_BODY - 8` value
/// bytes) plus the chunk envelope (continuation byte, count, key,
/// length) can exceed [`DEFAULT_MAX_BODY`] by a few bytes; this
/// constant adds that envelope slack. Servers configured with a larger
/// request cap need correspondingly larger client caps.
pub const MAX_RESPONSE_BODY: usize = DEFAULT_MAX_BODY + 32;

/// Request opcodes (byte 6 of a request frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness probe; empty body, empty OK response.
    Ping = 0x00,
    /// Read one key. Body: `key u64`.
    Get = 0x01,
    /// Insert or update one key. Body: `key u64` + value bytes.
    Put = 0x02,
    /// Delete one key. Body: `key u64`.
    Delete = 0x03,
    // 0x04 is retired (the single-frame SCAN that SCAN_STREAM
    // superseded) and 0x05 too (the STATS JSON snapshot that METRICS
    // and HEALTH carry): answered UNKNOWN_OPCODE, never reassigned.
    /// Telemetry exposition (Prometheus text response).
    Metrics = 0x06,
    /// Force durable state to disk: snapshot + WAL fsync. Empty body;
    /// the OK response carries the snapshot bytes written as a `u64`
    /// (0 when the server runs without persistence).
    Flush = 0x07,
    /// Wear/health summary. Empty body; the OK response carries a
    /// fixed 40-byte body (`keys`, `free_segments`, `retired_segments`,
    /// `retired_physical`, `total_segments`, all `u64` LE) — cheap
    /// enough for an operator's monitor to poll every few hundred
    /// milliseconds, unlike the METRICS text exposition.
    /// `retired_physical` counts the physical slots quarantined by the
    /// memory controllers — the device-side ground truth, which can
    /// only be reported because retirement is keyed on
    /// `PhysicalSegment` ids end to end.
    Health = 0x08,
    /// Range scan. Body: `lo u64, hi u64, limit u32` (0 = unlimited).
    /// The server answers with a *sequence* of chunk frames — each a
    /// bounded slice of the result prefixed by a continuation byte —
    /// so arbitrarily large ranges fit under the frame cap with
    /// bounded peak memory on both sides.
    ScanStream = 0x09,
    /// Ask the server to shut down gracefully. Empty body.
    Shutdown = 0x7F,
}

impl Opcode {
    /// Decode an opcode byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            0x00 => Opcode::Ping,
            0x01 => Opcode::Get,
            0x02 => Opcode::Put,
            0x03 => Opcode::Delete,
            0x06 => Opcode::Metrics,
            0x07 => Opcode::Flush,
            0x08 => Opcode::Health,
            0x09 => Opcode::ScanStream,
            0x7F => Opcode::Shutdown,
            _ => return None,
        })
    }

    /// Stable lowercase name, used as the `op` telemetry label.
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Ping => "ping",
            Opcode::Get => "get",
            Opcode::Put => "put",
            Opcode::Delete => "delete",
            Opcode::Metrics => "metrics",
            Opcode::Flush => "flush",
            Opcode::Health => "health",
            Opcode::ScanStream => "scan_stream",
            Opcode::Shutdown => "shutdown",
        }
    }

    /// Every defined opcode, in wire order.
    pub const ALL: [Opcode; 9] = [
        Opcode::Ping,
        Opcode::Get,
        Opcode::Put,
        Opcode::Delete,
        Opcode::Metrics,
        Opcode::Flush,
        Opcode::Health,
        Opcode::ScanStream,
        Opcode::Shutdown,
    ];
}

/// Response status codes (byte 6 of a response frame).
///
/// `0x0x` are store-level outcomes, `0x1x` protocol violations, `0x2x`
/// server conditions. Error responses (everything except [`Status::Ok`]
/// and [`Status::NotFound`]) carry a `retired u64` + UTF-8 detail body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Status {
    /// Success; body shape depends on the echoed opcode.
    Ok = 0x00,
    /// GET/DELETE on a key that is not present. Empty body.
    NotFound = 0x01,
    /// The store is degraded: worn-out segments were retired and the
    /// shrunken pool ran dry ([`e2nvm_kvstore::StoreError::Degraded`]).
    /// Reads still work; this write did not. `retired` carries the
    /// retired-segment count.
    Degraded = 0x02,
    /// The engine's address pool is depleted
    /// ([`e2nvm_core::E2Error::PoolDepleted`] surfaced through the
    /// engine error channel). `retired` carries the count.
    PoolDepleted = 0x03,
    /// The store is full ([`e2nvm_kvstore::StoreError::OutOfSpace`]).
    OutOfSpace = 0x04,
    /// Any other store/engine/device error; detail text in the body.
    StoreError = 0x05,
    // 0x06 is retired (SCAN_TOO_LARGE, raised only by the retired
    // single-frame SCAN): never sent, never reassigned.
    /// The frame violated the protocol at the framing level (bad magic)
    /// or the body could not be parsed for its opcode.
    Malformed = 0x10,
    /// The request's version byte is not supported; detail names the
    /// supported version.
    UnsupportedVersion = 0x11,
    /// The opcode byte is not defined in this version.
    UnknownOpcode = 0x12,
    /// `body_len` exceeded the server's configured cap.
    FrameTooLarge = 0x13,
    /// The connection limit is reached; sent once, then the server
    /// closes the connection.
    Busy = 0x20,
    /// The server is draining for shutdown and no longer accepts work.
    ShuttingDown = 0x21,
}

impl Status {
    /// Decode a status byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            0x00 => Status::Ok,
            0x01 => Status::NotFound,
            0x02 => Status::Degraded,
            0x03 => Status::PoolDepleted,
            0x04 => Status::OutOfSpace,
            0x05 => Status::StoreError,
            0x10 => Status::Malformed,
            0x11 => Status::UnsupportedVersion,
            0x12 => Status::UnknownOpcode,
            0x13 => Status::FrameTooLarge,
            0x20 => Status::Busy,
            0x21 => Status::ShuttingDown,
            _ => return None,
        })
    }

    /// Stable lowercase name, used as the `status` telemetry label.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::NotFound => "not_found",
            Status::Degraded => "degraded",
            Status::PoolDepleted => "pool_depleted",
            Status::OutOfSpace => "out_of_space",
            Status::StoreError => "store_error",
            Status::Malformed => "malformed",
            Status::UnsupportedVersion => "unsupported_version",
            Status::UnknownOpcode => "unknown_opcode",
            Status::FrameTooLarge => "frame_too_large",
            Status::Busy => "busy",
            Status::ShuttingDown => "shutting_down",
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Read `key`.
    Get {
        /// Key to read.
        key: u64,
    },
    /// Insert or update `key` with `value`.
    Put {
        /// Key to write.
        key: u64,
        /// Value bytes (placed by the E2-NVM engine on the server).
        value: Vec<u8>,
    },
    /// Delete `key`.
    Delete {
        /// Key to delete.
        key: u64,
    },
    /// All pairs with `lo <= key <= hi`, at most `limit` (0 = all),
    /// answered as a stream of bounded chunk frames (see
    /// [`Response::ScanChunk`]).
    ScanStream {
        /// Inclusive lower key bound.
        lo: u64,
        /// Inclusive upper key bound.
        hi: u64,
        /// Maximum entries returned across all chunks; 0 = unlimited.
        limit: u32,
    },
    /// Telemetry exposition.
    Metrics,
    /// Snapshot + WAL fsync on demand.
    Flush,
    /// Wear/health summary probe.
    Health,
    /// Graceful server shutdown.
    Shutdown,
}

impl Request {
    /// The opcode this request encodes to.
    pub fn opcode(&self) -> Opcode {
        match self {
            Request::Ping => Opcode::Ping,
            Request::Get { .. } => Opcode::Get,
            Request::Put { .. } => Opcode::Put,
            Request::Delete { .. } => Opcode::Delete,
            Request::ScanStream { .. } => Opcode::ScanStream,
            Request::Metrics => Opcode::Metrics,
            Request::Flush => Opcode::Flush,
            Request::Health => Opcode::Health,
            Request::Shutdown => Opcode::Shutdown,
        }
    }
}

/// A parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// OK for PING.
    Pong,
    /// OK for GET: the value bytes.
    Value(
        /// The stored value.
        Vec<u8>,
    ),
    /// GET/DELETE missed.
    NotFound,
    /// OK for PUT.
    Stored,
    /// OK for DELETE: whether the key existed.
    Deleted(
        /// True when the key was present and removed.
        bool,
    ),
    /// One OK chunk of a SCAN_STREAM response. A streaming scan is
    /// answered with one or more of these, contiguous and in key
    /// order; the stream ends at the first chunk with `more == false`
    /// (or at an error frame echoing SCAN_STREAM, which is terminal).
    ScanChunk {
        /// True when at least one more chunk follows this one.
        more: bool,
        /// This chunk's `(key, value)` pairs, ascending by key.
        entries: Vec<(u64, Vec<u8>)>,
    },
    /// OK for METRICS: Prometheus text exposition.
    Metrics(
        /// Prometheus text exposition format.
        String,
    ),
    /// OK for FLUSH: snapshot bytes written to disk (0 when the
    /// server runs without persistence).
    Flushed(
        /// Snapshot bytes written by the flush.
        u64,
    ),
    /// OK for HEALTH: the store's wear summary.
    Health(
        /// Live keys plus free/retired/total segment counters.
        WearSummary,
    ),
    /// OK for SHUTDOWN: the server acknowledged and is draining.
    ShutdownAck,
    /// Any non-OK status.
    Error {
        /// The wire status.
        status: Status,
        /// Retired-segment count for [`Status::Degraded`] /
        /// [`Status::PoolDepleted`]; 0 otherwise.
        retired: u64,
        /// Human-readable detail (may be empty).
        message: String,
    },
}

/// Why a byte sequence failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Byte 4 was not [`MAGIC`]: the stream is not speaking this
    /// protocol (or framing was lost). Fatal.
    BadMagic(
        /// The byte found where [`MAGIC`] was expected.
        u8,
    ),
    /// `body_len` exceeds the configured cap. Fatal (the peer would
    /// have to be trusted for the skip length).
    TooLarge {
        /// The oversized `body_len` from the header.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// The version byte is not [`VERSION`]. Framing is intact but
    /// semantics are unknown; the server answers and closes.
    BadVersion(
        /// The unsupported version byte.
        u8,
    ),
    /// The opcode byte is undefined. Non-fatal: framing is intact.
    UnknownOpcode(
        /// The undefined opcode byte.
        u8,
    ),
    /// The status byte of a response is undefined. Non-fatal.
    UnknownStatus(
        /// The undefined status byte.
        u8,
    ),
    /// The reserved `aux` byte of a request was nonzero. Non-fatal.
    NonzeroReserved(
        /// The nonzero byte found in the reserved slot.
        u8,
    ),
    /// The body did not parse for its opcode/status. Non-fatal.
    BadBody(
        /// What was wrong, for the error frame's detail text.
        &'static str,
    ),
}

impl FrameError {
    /// Whether the byte stream can still be trusted after this error.
    /// Fatal errors require closing the connection; non-fatal ones are
    /// answered with an error frame and the connection continues.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            FrameError::BadMagic(_) | FrameError::TooLarge { .. } | FrameError::BadVersion(_)
        )
    }

    /// The wire status an error frame for this error carries.
    pub fn status(&self) -> Status {
        match self {
            FrameError::BadMagic(_) | FrameError::NonzeroReserved(_) | FrameError::BadBody(_) => {
                Status::Malformed
            }
            FrameError::TooLarge { .. } => Status::FrameTooLarge,
            FrameError::BadVersion(_) => Status::UnsupportedVersion,
            FrameError::UnknownOpcode(_) | FrameError::UnknownStatus(_) => Status::UnknownOpcode,
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(b) => write!(f, "bad magic byte 0x{b:02X} (expected 0xE2)"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::BadVersion(v) => {
                write!(f, "unsupported protocol version {v} (supported: {VERSION})")
            }
            FrameError::UnknownOpcode(b) => write!(f, "unknown opcode 0x{b:02X}"),
            FrameError::UnknownStatus(b) => write!(f, "unknown status 0x{b:02X}"),
            FrameError::NonzeroReserved(b) => {
                write!(f, "reserved request byte must be 0, got 0x{b:02X}")
            }
            FrameError::BadBody(what) => write!(f, "malformed body: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A decoded-but-unparsed frame: header fields plus the raw body,
/// borrowed straight from the decoder's buffer — decoding a frame
/// copies nothing. The borrow ends at the decoder's next
/// [`FrameDecoder::next_frame`] / [`FrameDecoder::extend`] call;
/// parse (or copy) the body before then.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawFrame<'a> {
    /// Byte 6: opcode (requests) or status (responses).
    pub code: u8,
    /// Byte 7: reserved (requests) or echoed opcode (responses).
    pub aux: u8,
    /// The body bytes after the header.
    pub body: &'a [u8],
}

/// Whether a response frame is a **non-terminal** SCAN_STREAM chunk —
/// i.e. more frames answering the *same* request follow. Everything
/// else (final chunks, plain responses, error frames — including
/// errors mid-stream) is terminal. This is the one-line test that
/// lets a pipelined receiver count completed *requests* rather than
/// frames, without parsing bodies.
pub fn is_continuation(frame: &RawFrame<'_>) -> bool {
    frame.code == Status::Ok as u8
        && frame.aux == Opcode::ScanStream as u8
        && frame.body.first() == Some(&1)
}

fn put_header(out: &mut Vec<u8>, body_len: usize, code: u8, aux: u8) {
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.push(MAGIC);
    out.push(VERSION);
    out.push(code);
    out.push(aux);
}

/// Encode a request frame onto `out`.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    let op = req.opcode() as u8;
    match req {
        Request::Ping | Request::Metrics | Request::Flush | Request::Health | Request::Shutdown => {
            put_header(out, 0, op, 0);
        }
        Request::Get { key } | Request::Delete { key } => {
            put_header(out, 8, op, 0);
            out.extend_from_slice(&key.to_le_bytes());
        }
        Request::Put { key, value } => {
            put_header(out, 8 + value.len(), op, 0);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(value);
        }
        Request::ScanStream { lo, hi, limit } => {
            put_header(out, 20, op, 0);
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&hi.to_le_bytes());
            out.extend_from_slice(&limit.to_le_bytes());
        }
    }
}

/// Encode a response frame onto `out`. `echo` is the opcode of the
/// request being answered (or `None` for errors raised before any
/// opcode was read, e.g. a bad-magic reject or a busy greeting).
pub fn encode_response(resp: &Response, echo: Option<Opcode>, out: &mut Vec<u8>) {
    let aux = echo.map_or(0, |op| op as u8);
    match resp {
        Response::Pong | Response::Stored | Response::ShutdownAck => {
            put_header(out, 0, Status::Ok as u8, aux);
        }
        Response::NotFound => put_header(out, 0, Status::NotFound as u8, aux),
        Response::Value(v) => {
            put_header(out, v.len(), Status::Ok as u8, aux);
            out.extend_from_slice(v);
        }
        Response::Deleted(existed) => {
            put_header(out, 1, Status::Ok as u8, aux);
            out.push(u8::from(*existed));
        }
        Response::ScanChunk { more, entries } => {
            let body_len = 5 + entries.iter().map(|(_, v)| 12 + v.len()).sum::<usize>();
            put_header(out, body_len, Status::Ok as u8, aux);
            out.push(u8::from(*more));
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (k, v) in entries {
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                out.extend_from_slice(v);
            }
        }
        Response::Metrics(text) => {
            put_header(out, text.len(), Status::Ok as u8, aux);
            out.extend_from_slice(text.as_bytes());
        }
        Response::Flushed(bytes) => {
            put_header(out, 8, Status::Ok as u8, aux);
            out.extend_from_slice(&bytes.to_le_bytes());
        }
        Response::Health(wear) => {
            put_header(out, 40, Status::Ok as u8, aux);
            out.extend_from_slice(&wear.keys.to_le_bytes());
            out.extend_from_slice(&wear.free_segments.to_le_bytes());
            out.extend_from_slice(&wear.retired_segments.to_le_bytes());
            out.extend_from_slice(&wear.retired_physical.to_le_bytes());
            out.extend_from_slice(&wear.total_segments.to_le_bytes());
        }
        Response::Error {
            status,
            retired,
            message,
        } => {
            put_header(out, 8 + message.len(), *status as u8, aux);
            out.extend_from_slice(&retired.to_le_bytes());
            out.extend_from_slice(message.as_bytes());
        }
    }
}

/// Encode one SCAN_STREAM chunk frame — byte-identical to
/// `encode_response(&Response::ScanChunk { .. }, Some(Opcode::ScanStream), out)`
/// without moving the entries into a `Response`. The reference for
/// the server's in-place chunk writer, which must emit these bytes.
pub fn encode_scan_chunk(more: bool, entries: &[(u64, Vec<u8>)], out: &mut Vec<u8>) {
    let body_len = 5 + entries.iter().map(|(_, v)| 12 + v.len()).sum::<usize>();
    put_header(out, body_len, Status::Ok as u8, Opcode::ScanStream as u8);
    out.push(u8::from(more));
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (k, v) in entries {
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        out.extend_from_slice(v);
    }
}

/// Bytes of a SCAN_STREAM chunk frame ahead of its first entry: the
/// 8-byte frame header, the `more` flag and the entry count.
const SCAN_CHUNK_PREFIX: usize = 13;

/// A SCAN_STREAM response written in place at the tail of an output
/// buffer, one entry at a time: each chunk frame opens with a
/// placeholder prefix that is patched (byte count, entry count,
/// `more`) when the chunk closes. The frames are byte-identical to
/// [`encode_scan_chunk`] over the same entries — that function is the
/// reference — but nothing is gathered before it is encoded.
pub(crate) struct ScanStreamWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Where the open chunk's frame starts in `out`.
    frame_at: usize,
    /// Entries in the open chunk.
    entries: u32,
}

impl<'a> ScanStreamWriter<'a> {
    /// Open the stream's first chunk at the tail of `out`.
    pub(crate) fn open(out: &'a mut Vec<u8>) -> Self {
        let frame_at = out.len();
        encode_scan_chunk(false, &[], out);
        Self {
            out,
            frame_at,
            entries: 0,
        }
    }

    /// Entries in the open chunk.
    pub(crate) fn chunk_entries(&self) -> u32 {
        self.entries
    }

    /// Entry bytes (12 + value length each) in the open chunk.
    pub(crate) fn chunk_bytes(&self) -> usize {
        self.out.len() - self.frame_at - SCAN_CHUNK_PREFIX
    }

    /// Append one entry to the open chunk.
    pub(crate) fn push(&mut self, key: u64, value: &[u8]) {
        self.out.extend_from_slice(&key.to_le_bytes());
        self.out
            .extend_from_slice(&(value.len() as u32).to_le_bytes());
        self.out.extend_from_slice(value);
        self.entries += 1;
    }

    /// Patch the open chunk's prefix with what it turned out to hold.
    fn close(&mut self, more: bool) {
        let body_len = self.out.len() - self.frame_at - 8;
        let prefix = &mut self.out[self.frame_at..self.frame_at + SCAN_CHUNK_PREFIX];
        prefix[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
        prefix[8] = u8::from(more);
        prefix[9..].copy_from_slice(&self.entries.to_le_bytes());
    }

    /// Close the open chunk as non-terminal and open the next one.
    pub(crate) fn next_chunk(&mut self) {
        self.close(true);
        self.frame_at = self.out.len();
        self.entries = 0;
        encode_scan_chunk(false, &[], self.out);
    }

    /// Close the open chunk as the stream's terminal chunk.
    pub(crate) fn finish(mut self) {
        self.close(false);
    }

    /// Drop the open chunk (closed chunks stand): the stream ends with
    /// whatever frame the caller appends next.
    pub(crate) fn abandon(self) {
        self.out.truncate(self.frame_at);
    }
}

/// Encode an OK response carrying `value` — byte-identical to
/// `encode_response(&Response::Value(value.to_vec()), echo, out)`
/// without materialising the intermediate `Vec`. The server's GET
/// fast path: a cache hit encodes straight from the cached bytes.
pub fn encode_value_frame(value: &[u8], echo: Option<Opcode>, out: &mut Vec<u8>) {
    put_header(
        out,
        value.len(),
        Status::Ok as u8,
        echo.map_or(0, |op| op as u8),
    );
    out.extend_from_slice(value);
}

fn take_u64(body: &[u8], at: usize) -> Option<u64> {
    body.get(at..at + 8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
}

fn take_u32(body: &[u8], at: usize) -> Option<u32> {
    body.get(at..at + 4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
}

/// Parse a raw frame as a request.
pub fn parse_request(frame: &RawFrame<'_>) -> Result<Request, FrameError> {
    if frame.aux != 0 {
        return Err(FrameError::NonzeroReserved(frame.aux));
    }
    let op = Opcode::from_u8(frame.code).ok_or(FrameError::UnknownOpcode(frame.code))?;
    let body = frame.body;
    match op {
        Opcode::Ping | Opcode::Metrics | Opcode::Flush | Opcode::Health | Opcode::Shutdown => {
            if !body.is_empty() {
                return Err(FrameError::BadBody("expected empty body"));
            }
            Ok(match op {
                Opcode::Ping => Request::Ping,
                Opcode::Metrics => Request::Metrics,
                Opcode::Flush => Request::Flush,
                Opcode::Health => Request::Health,
                _ => Request::Shutdown,
            })
        }
        Opcode::Get | Opcode::Delete => {
            if body.len() != 8 {
                return Err(FrameError::BadBody("expected exactly an 8-byte key"));
            }
            let key = take_u64(body, 0).unwrap();
            Ok(if op == Opcode::Get {
                Request::Get { key }
            } else {
                Request::Delete { key }
            })
        }
        Opcode::Put => {
            if body.len() < 8 {
                return Err(FrameError::BadBody("PUT body shorter than its 8-byte key"));
            }
            Ok(Request::Put {
                key: take_u64(body, 0).unwrap(),
                value: body[8..].to_vec(),
            })
        }
        Opcode::ScanStream => {
            if body.len() != 20 {
                return Err(FrameError::BadBody("SCAN body must be exactly 20 bytes"));
            }
            Ok(Request::ScanStream {
                lo: take_u64(body, 0).unwrap(),
                hi: take_u64(body, 8).unwrap(),
                limit: take_u32(body, 16).unwrap(),
            })
        }
    }
}

/// Parse the `count u32` + `count × (key u64, len u32, value)` entry
/// list of a SCAN_STREAM OK body, starting at `at`.
/// Rejects trailing bytes: the list must consume the body exactly.
fn parse_entry_list(body: &[u8], at: usize) -> Result<Vec<(u64, Vec<u8>)>, FrameError> {
    let count = take_u32(body, at).ok_or(FrameError::BadBody("SCAN count truncated"))? as usize;
    let mut entries = Vec::with_capacity(count.min(1024));
    let mut at = at + 4;
    for _ in 0..count {
        let key = take_u64(body, at).ok_or(FrameError::BadBody("SCAN key truncated"))?;
        let len = take_u32(body, at + 8)
            .ok_or(FrameError::BadBody("SCAN value length truncated"))? as usize;
        let value = body
            .get(at + 12..at + 12 + len)
            .ok_or(FrameError::BadBody("SCAN value truncated"))?;
        entries.push((key, value.to_vec()));
        at += 12 + len;
    }
    if at != body.len() {
        return Err(FrameError::BadBody("SCAN body has trailing bytes"));
    }
    Ok(entries)
}

/// Parse a raw frame as a response. The echoed opcode in `aux`
/// determines the body shape of OK responses, which is what makes
/// pipelined responses self-describing.
pub fn parse_response(frame: &RawFrame<'_>) -> Result<Response, FrameError> {
    let status = Status::from_u8(frame.code).ok_or(FrameError::UnknownStatus(frame.code))?;
    let body = frame.body;
    match status {
        Status::Ok => {
            let op = Opcode::from_u8(frame.aux).ok_or(FrameError::UnknownOpcode(frame.aux))?;
            match op {
                Opcode::Ping => Ok(Response::Pong),
                Opcode::Put => Ok(Response::Stored),
                Opcode::Shutdown => Ok(Response::ShutdownAck),
                Opcode::Get => Ok(Response::Value(body.to_vec())),
                Opcode::Delete => match body {
                    [0] => Ok(Response::Deleted(false)),
                    [1] => Ok(Response::Deleted(true)),
                    _ => Err(FrameError::BadBody("DELETE response must be one 0/1 byte")),
                },
                Opcode::ScanStream => {
                    let more = match body.first() {
                        Some(0) => false,
                        Some(1) => true,
                        _ => {
                            return Err(FrameError::BadBody(
                                "SCAN_STREAM continuation byte must be 0 or 1",
                            ))
                        }
                    };
                    let entries = parse_entry_list(body, 1)?;
                    Ok(Response::ScanChunk { more, entries })
                }
                Opcode::Flush => {
                    if body.len() != 8 {
                        return Err(FrameError::BadBody(
                            "FLUSH response must be exactly 8 bytes",
                        ));
                    }
                    Ok(Response::Flushed(take_u64(body, 0).unwrap()))
                }
                Opcode::Health => {
                    if body.len() != 40 {
                        return Err(FrameError::BadBody(
                            "HEALTH response must be exactly 40 bytes",
                        ));
                    }
                    Ok(Response::Health(WearSummary {
                        keys: take_u64(body, 0).unwrap(),
                        free_segments: take_u64(body, 8).unwrap(),
                        retired_segments: take_u64(body, 16).unwrap(),
                        retired_physical: take_u64(body, 24).unwrap(),
                        total_segments: take_u64(body, 32).unwrap(),
                    }))
                }
                Opcode::Metrics => {
                    let text = std::str::from_utf8(body)
                        .map_err(|_| FrameError::BadBody("text body is not UTF-8"))?;
                    Ok(Response::Metrics(text.to_string()))
                }
            }
        }
        Status::NotFound => {
            if !body.is_empty() {
                return Err(FrameError::BadBody("NOT_FOUND body must be empty"));
            }
            Ok(Response::NotFound)
        }
        _ => {
            let retired =
                take_u64(body, 0).ok_or(FrameError::BadBody("error body shorter than 8 bytes"))?;
            let message = std::str::from_utf8(&body[8..])
                .map_err(|_| FrameError::BadBody("error detail is not UTF-8"))?
                .to_string();
            Ok(Response::Error {
                status,
                retired,
                message,
            })
        }
    }
}

/// Incremental frame decoder over a byte stream.
///
/// Feed arbitrarily-sized chunks with [`FrameDecoder::extend`] and
/// drain complete frames with [`FrameDecoder::next_frame`]; frames
/// split across reads (or many frames arriving in one read — the
/// pipelined case) both fall out of the same buffer discipline.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames.
    consumed: usize,
    max_body: usize,
}

impl FrameDecoder {
    /// A decoder enforcing `max_body` as the `body_len` cap.
    pub fn new(max_body: usize) -> Self {
        Self {
            buf: Vec::with_capacity(4096),
            consumed: 0,
            max_body,
        }
    }

    /// Append freshly-read bytes.
    pub fn extend(&mut self, chunk: &[u8]) {
        // Reclaim consumed prefix before growing, keeping the buffer
        // bounded by one frame plus one read.
        if self.consumed > 0 && (self.consumed >= 4096 || self.consumed == self.buf.len()) {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet consumed by a returned frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Decode the next complete frame, if one is buffered.
    ///
    /// `Ok(None)` means more bytes are needed. Errors classified fatal
    /// by [`FrameError::is_fatal`] poison the stream: the caller must
    /// stop decoding and close the connection after answering.
    pub fn next_frame(&mut self) -> Result<Option<RawFrame<'_>>, FrameError> {
        let avail = &self.buf[self.consumed..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let body_len = u32::from_le_bytes(avail[..4].try_into().unwrap()) as usize;
        let magic = avail[4];
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        if body_len > self.max_body {
            return Err(FrameError::TooLarge {
                len: body_len,
                max: self.max_body,
            });
        }
        let version = avail[5];
        if version != VERSION {
            return Err(FrameError::BadVersion(version));
        }
        if avail.len() < HEADER_LEN + body_len {
            return Ok(None);
        }
        let (code, aux) = (avail[6], avail[7]);
        let start = self.consumed + HEADER_LEN;
        self.consumed = start + body_len;
        Ok(Some(RawFrame {
            code,
            aux,
            body: &self.buf[start..start + body_len],
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut bytes = Vec::new();
        encode_request(&req, &mut bytes);
        let mut dec = FrameDecoder::new(DEFAULT_MAX_BODY);
        dec.extend(&bytes);
        let frame = dec.next_frame().unwrap().unwrap();
        assert_eq!(parse_request(&frame).unwrap(), req);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Get { key: 42 });
        roundtrip_request(Request::Put {
            key: u64::MAX,
            value: vec![1, 2, 3],
        });
        roundtrip_request(Request::Put {
            key: 0,
            value: Vec::new(),
        });
        roundtrip_request(Request::Delete { key: 7 });
        roundtrip_request(Request::ScanStream {
            lo: 0,
            hi: u64::MAX,
            limit: 0,
        });
        roundtrip_request(Request::Metrics);
        roundtrip_request(Request::Flush);
        roundtrip_request(Request::Health);
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn response_roundtrips() {
        let cases: Vec<(Response, Option<Opcode>)> = vec![
            (Response::Pong, Some(Opcode::Ping)),
            (Response::Value(vec![9; 30]), Some(Opcode::Get)),
            (Response::NotFound, Some(Opcode::Get)),
            (Response::Stored, Some(Opcode::Put)),
            (Response::Deleted(true), Some(Opcode::Delete)),
            (Response::Deleted(false), Some(Opcode::Delete)),
            (
                Response::ScanChunk {
                    more: true,
                    entries: vec![(1, vec![0xAA; 4]), (2, Vec::new())],
                },
                Some(Opcode::ScanStream),
            ),
            (
                Response::ScanChunk {
                    more: false,
                    entries: Vec::new(),
                },
                Some(Opcode::ScanStream),
            ),
            (Response::Flushed(0), Some(Opcode::Flush)),
            (Response::Flushed(4096), Some(Opcode::Flush)),
            (
                Response::Health(WearSummary {
                    keys: 512,
                    free_segments: 40,
                    retired_segments: 7,
                    retired_physical: 7,
                    total_segments: 2048,
                }),
                Some(Opcode::Health),
            ),
            (
                Response::Metrics("# HELP x\n".into()),
                Some(Opcode::Metrics),
            ),
            (Response::ShutdownAck, Some(Opcode::Shutdown)),
            (
                Response::Error {
                    status: Status::Degraded,
                    retired: 17,
                    message: "pool dry".into(),
                },
                Some(Opcode::Put),
            ),
            (
                Response::Error {
                    status: Status::Busy,
                    retired: 0,
                    message: String::new(),
                },
                None,
            ),
        ];
        for (resp, echo) in cases {
            let mut bytes = Vec::new();
            encode_response(&resp, echo, &mut bytes);
            let mut dec = FrameDecoder::new(DEFAULT_MAX_BODY);
            dec.extend(&bytes);
            let frame = dec.next_frame().unwrap().unwrap();
            assert_eq!(parse_response(&frame).unwrap(), resp, "echo {echo:?}");
        }
    }

    #[test]
    fn split_reads_reassemble() {
        let req = Request::Put {
            key: 5,
            value: (0..100u8).collect(),
        };
        let mut bytes = Vec::new();
        encode_request(&req, &mut bytes);
        let mut dec = FrameDecoder::new(DEFAULT_MAX_BODY);
        for b in &bytes[..bytes.len() - 1] {
            dec.extend(std::slice::from_ref(b));
            assert_eq!(dec.next_frame().unwrap(), None);
        }
        dec.extend(&bytes[bytes.len() - 1..]);
        let frame = dec.next_frame().unwrap().unwrap();
        assert_eq!(parse_request(&frame).unwrap(), req);
    }

    #[test]
    fn pipelined_frames_in_one_read() {
        let mut bytes = Vec::new();
        for key in 0..10u64 {
            encode_request(&Request::Get { key }, &mut bytes);
        }
        let mut dec = FrameDecoder::new(DEFAULT_MAX_BODY);
        dec.extend(&bytes);
        for key in 0..10u64 {
            let frame = dec.next_frame().unwrap().unwrap();
            assert_eq!(parse_request(&frame).unwrap(), Request::Get { key });
        }
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn bad_magic_is_fatal() {
        let mut dec = FrameDecoder::new(DEFAULT_MAX_BODY);
        dec.extend(b"GET / HTTP/1.1\r\n");
        let err = dec.next_frame().unwrap_err();
        assert!(matches!(err, FrameError::BadMagic(_)));
        assert!(err.is_fatal());
    }

    #[test]
    fn oversized_frame_is_fatal() {
        let mut bytes = Vec::new();
        put_header(&mut bytes, 1 << 30, Opcode::Put as u8, 0);
        let mut dec = FrameDecoder::new(DEFAULT_MAX_BODY);
        dec.extend(&bytes);
        let err = dec.next_frame().unwrap_err();
        assert_eq!(
            err,
            FrameError::TooLarge {
                len: 1 << 30,
                max: DEFAULT_MAX_BODY
            }
        );
        assert!(err.is_fatal());
    }

    #[test]
    fn unknown_opcode_is_survivable() {
        let mut bytes = Vec::new();
        put_header(&mut bytes, 0, 0x55, 0);
        let mut dec = FrameDecoder::new(DEFAULT_MAX_BODY);
        dec.extend(&bytes);
        let frame = dec.next_frame().unwrap().unwrap();
        let err = parse_request(&frame).unwrap_err();
        assert_eq!(err, FrameError::UnknownOpcode(0x55));
        assert!(!err.is_fatal());
        assert_eq!(err.status(), Status::UnknownOpcode);
    }

    #[test]
    fn wrong_body_sizes_are_survivable() {
        for (op, body_len) in [
            (Opcode::Get, 4usize),
            (Opcode::Delete, 9),
            (Opcode::ScanStream, 19),
            (Opcode::Put, 3),
            (Opcode::Ping, 1),
        ] {
            let mut bytes = Vec::new();
            put_header(&mut bytes, body_len, op as u8, 0);
            bytes.extend(std::iter::repeat_n(0u8, body_len));
            let mut dec = FrameDecoder::new(DEFAULT_MAX_BODY);
            dec.extend(&bytes);
            let frame = dec.next_frame().unwrap().unwrap();
            let err = parse_request(&frame).unwrap_err();
            assert!(matches!(err, FrameError::BadBody(_)), "{op:?}: {err:?}");
            assert!(!err.is_fatal());
        }
    }

    #[test]
    fn continuation_classification() {
        // Only an OK frame echoing SCAN_STREAM with leading byte 1 is
        // non-terminal; a final chunk and an error frame echoing
        // SCAN_STREAM are both terminal.
        let chunk = |more: bool| {
            let mut bytes = Vec::new();
            encode_response(
                &Response::ScanChunk {
                    more,
                    entries: vec![(7, vec![1, 2])],
                },
                Some(Opcode::ScanStream),
                &mut bytes,
            );
            bytes
        };
        let decode_one = |bytes: &[u8]| {
            let mut dec = FrameDecoder::new(DEFAULT_MAX_BODY);
            dec.extend(bytes);
            let frame = dec.next_frame().unwrap().unwrap();
            (frame.code, frame.aux, frame.body.to_vec())
        };
        let (code, aux, body) = decode_one(&chunk(true));
        assert!(is_continuation(&RawFrame {
            code,
            aux,
            body: &body
        }));
        let (code, aux, body) = decode_one(&chunk(false));
        assert!(!is_continuation(&RawFrame {
            code,
            aux,
            body: &body
        }));
        let mut err = Vec::new();
        encode_response(
            &Response::Error {
                status: Status::StoreError,
                retired: 0,
                message: "mid-stream".into(),
            },
            Some(Opcode::ScanStream),
            &mut err,
        );
        let (code, aux, body) = decode_one(&err);
        assert!(!is_continuation(&RawFrame {
            code,
            aux,
            body: &body
        }));
    }

    #[test]
    fn opcode_and_status_bytes_roundtrip() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_u8(op as u8), Some(op));
        }
        for s in [
            Status::Ok,
            Status::NotFound,
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
        ] {
            assert_eq!(Status::from_u8(s as u8), Some(s));
        }
        // Retired code points (PROTOCOL.md §7) decode as undefined.
        assert_eq!(Opcode::from_u8(0x04), None);
        assert_eq!(Opcode::from_u8(0x05), None);
        assert_eq!(Status::from_u8(0x06), None);
    }
}
