//! The wire driver: blocking connections that keep `PIPELINE_DEPTH`
//! pre-encoded requests in flight and check every reply against an
//! expected-value oracle.
//!
//! Load shape: closed loop. One thread drives all connections in a
//! fixed rotation — send a batch on each, then for each connection in
//! turn wait for its batch's replies and immediately send its next
//! batch — so the server always has one batch queued behind the one it
//! is executing, and the schedule does not depend on poll order.

use crate::geometry::{PIPELINE_DEPTH, RECORDS};
use crate::workload::{Inputs, Keys, Op, Trace};
use e2nvm_server::frame::{FrameDecoder, Opcode, RawFrame, Status, MAX_RESPONSE_BODY};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// What the reply to one in-flight request must look like.
#[derive(Debug, Clone, Copy)]
enum Expect {
    Stored,
    /// Pool item the GET must return.
    Value(u32),
    /// A scan of `(rank, limit)`: its keys come from `Keys`, its values
    /// are the pool items at `scan_values[first..]`, snapshotted when
    /// the request was sent (a later PUT of the same batch must not
    /// change what an earlier scan is expected to return).
    Scan {
        rank: u32,
        limit: u32,
        first: u32,
    },
}

/// Progress through a (possibly multi-frame) scan reply.
#[derive(Debug, Default)]
struct ScanProgress {
    seen: usize,
    bad: bool,
}

/// Counters of one connection (or several, summed).
#[derive(Debug, Default, Clone)]
pub struct WireCounts {
    /// Requests answered.
    pub ops: u64,
    /// Requests answered wrongly: a status other than OK/NOT_FOUND, or
    /// a body that disagrees with the oracle.
    pub failed: u64,
    /// Request bytes written.
    pub bytes_out: u64,
    /// Response bytes read.
    pub bytes_in: u64,
    /// Records returned by scans.
    pub scan_entries: u64,
}

impl WireCounts {
    /// Sum `other` into `self`.
    pub fn add(&mut self, other: &WireCounts) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.bytes_out += other.bytes_out;
        self.bytes_in += other.bytes_in;
        self.scan_entries += other.scan_entries;
    }
}

/// One pipelined connection replaying a [`Trace`] in a cycle.
pub struct WireConn<'a> {
    stream: TcpStream,
    decoder: FrameDecoder,
    rdbuf: Vec<u8>,
    trace: &'a Trace,
    keys: &'a Keys,
    pool: &'a [Vec<u8>],
    /// Pool item currently stored under each rank (`u32::MAX` = none).
    oracle: Vec<u32>,
    next_op: usize,
    inflight: Vec<Expect>,
    /// Expected pool items of the in-flight scans' entries.
    scan_values: Vec<u32>,
    sent_at: Instant,
    /// Running totals since the last [`WireConn::take_counts`].
    counts: WireCounts,
    /// Per-request latency in ns, batch send → reply decoded.
    pub latencies: Vec<u32>,
    /// `(send, decoded)` ns since `epoch` per request, when recording.
    pub spans: Option<Vec<(u64, u64)>>,
    epoch: Instant,
}

impl<'a> WireConn<'a> {
    /// Connect to `addr`, to replay `trace` against a store holding
    /// `loaded` (whether the load has been applied).
    pub fn connect(
        addr: SocketAddr,
        trace: &'a Trace,
        inputs: &'a Inputs,
        loaded: bool,
        epoch: Instant,
    ) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let oracle = if loaded {
            (0..RECORDS as u32).collect()
        } else {
            vec![u32::MAX; RECORDS]
        };
        Ok(Self {
            stream,
            decoder: FrameDecoder::new(MAX_RESPONSE_BODY),
            rdbuf: vec![0u8; 64 * 1024],
            trace,
            keys: &inputs.keys,
            pool: &inputs.pool,
            oracle,
            next_op: 0,
            inflight: Vec::with_capacity(PIPELINE_DEPTH),
            scan_values: Vec::new(),
            sent_at: epoch,
            counts: WireCounts::default(),
            latencies: Vec::new(),
            spans: None,
            epoch,
        })
    }

    /// Send the next pipeline batch of requests in one write, wrapping
    /// to the start of the trace at its end.
    pub fn send_batch(&mut self) -> std::io::Result<()> {
        assert!(self.inflight.is_empty(), "previous batch not drained");
        if self.next_op == self.trace.ops.len() {
            self.next_op = 0;
        }
        let range = self.next_op..(self.next_op + PIPELINE_DEPTH).min(self.trace.ops.len());
        for op in &self.trace.ops[range.clone()] {
            self.inflight.push(match *op {
                Op::Put { rank, value } => {
                    self.oracle[rank as usize] = value;
                    Expect::Stored
                }
                Op::Get { rank } => Expect::Value(self.oracle[rank as usize]),
                Op::Scan { rank, limit } => {
                    let first = self.scan_values.len() as u32;
                    let want = self.keys.scan_expect(rank, limit);
                    self.scan_values
                        .extend(want.iter().map(|&(_, r)| self.oracle[r as usize]));
                    Expect::Scan { rank, limit, first }
                }
            });
        }
        let bytes = self.trace.frames_of(range.clone());
        self.next_op = range.end;
        self.counts.bytes_out += bytes.len() as u64;
        self.sent_at = Instant::now();
        self.stream.write_all(bytes)
    }

    /// Block until every in-flight request is answered, checking each
    /// reply.
    pub fn recv_batch(&mut self) -> std::io::Result<()> {
        let mut answered = 0usize;
        let mut scan = ScanProgress::default();
        let mut decoded_at = Instant::now();
        loop {
            // Check every complete frame already buffered.
            while answered < self.inflight.len() {
                let Some(frame) = self.decoder.next_frame().map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                })?
                else {
                    break;
                };
                let expect = self.inflight[answered];
                let verdict = check(
                    &frame,
                    expect,
                    &mut scan,
                    self.keys,
                    self.pool,
                    &self.scan_values,
                );
                let Some(ok) = verdict else {
                    continue; // non-terminal scan chunk
                };
                if let Expect::Scan { .. } = expect {
                    self.counts.scan_entries += scan.seen as u64;
                    scan = ScanProgress::default();
                }
                self.counts.ops += 1;
                self.counts.failed += u64::from(!ok);
                answered += 1;
                let latency = decoded_at.duration_since(self.sent_at).as_nanos();
                self.latencies
                    .push(u32::try_from(latency).unwrap_or(u32::MAX));
                if let Some(spans) = &mut self.spans {
                    spans.push((
                        self.sent_at.duration_since(self.epoch).as_nanos() as u64,
                        decoded_at.duration_since(self.epoch).as_nanos() as u64,
                    ));
                }
            }
            if answered == self.inflight.len() {
                break;
            }
            let n = self.stream.read(&mut self.rdbuf)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-batch",
                ));
            }
            decoded_at = Instant::now();
            self.counts.bytes_in += n as u64;
            self.decoder.extend(&self.rdbuf[..n]);
        }
        self.inflight.clear();
        self.scan_values.clear();
        Ok(())
    }

    /// Return and reset the counters.
    pub fn take_counts(&mut self) -> WireCounts {
        std::mem::take(&mut self.counts)
    }
}

/// Check one response frame against what its request expects. `None`
/// means the request is not finished (a non-terminal scan chunk);
/// `Some(ok)` finishes it.
fn check(
    frame: &RawFrame<'_>,
    expect: Expect,
    scan: &mut ScanProgress,
    keys: &Keys,
    pool: &[Vec<u8>],
    scan_values: &[u32],
) -> Option<bool> {
    let ok_status = frame.code == Status::Ok as u8;
    match expect {
        Expect::Stored => Some(ok_status && frame.aux == Opcode::Put as u8),
        Expect::Value(item) => Some(if item == u32::MAX {
            frame.code == Status::NotFound as u8
        } else {
            ok_status && frame.aux == Opcode::Get as u8 && frame.body == pool[item as usize]
        }),
        Expect::Scan { rank, limit, first } => {
            if !ok_status || frame.aux != Opcode::ScanStream as u8 || frame.body.len() < 5 {
                return Some(false); // an error frame is terminal
            }
            let more = frame.body[0] == 1;
            let want = keys.scan_expect(rank, limit);
            let count = u32::from_le_bytes(frame.body[1..5].try_into().expect("4 bytes")) as usize;
            let mut at = 5usize;
            for _ in 0..count {
                let Some(head) = frame.body.get(at..at + 12) else {
                    scan.bad = true;
                    break;
                };
                let key = u64::from_le_bytes(head[..8].try_into().expect("8 bytes"));
                let len = u32::from_le_bytes(head[8..].try_into().expect("4 bytes")) as usize;
                let value = frame.body.get(at + 12..at + 12 + len);
                at += 12 + len;
                // Order, identity and limit: entry i must be the i-th
                // key at or above the scan's start, with its value.
                match (want.get(scan.seen), value) {
                    (Some(&(k, _)), Some(v)) if k == key => {
                        let item = scan_values[first as usize + scan.seen];
                        scan.bad |= item == u32::MAX || v != pool[item as usize];
                    }
                    _ => scan.bad = true,
                }
                scan.seen += 1;
            }
            if more {
                None
            } else {
                Some(!scan.bad && scan.seen == want.len())
            }
        }
    }
}

/// Drive `conns` in rotation until `stop()` says so (checked once per
/// batch), then drain. Returns the summed counters of the run.
pub fn drive(
    conns: &mut [WireConn<'_>],
    mut stop: impl FnMut(u64) -> bool,
) -> std::io::Result<WireCounts> {
    let mut total = WireCounts::default();
    for conn in conns.iter_mut() {
        conn.take_counts();
        conn.send_batch()?;
    }
    let mut live = conns.len();
    let mut done = vec![false; conns.len()];
    while live > 0 {
        for (i, conn) in conns.iter_mut().enumerate() {
            if done[i] {
                continue;
            }
            conn.recv_batch()?;
            total.add(&conn.take_counts());
            if stop(total.ops) {
                done[i] = true;
                live -= 1;
            } else {
                conn.send_batch()?;
            }
        }
    }
    Ok(total)
}
