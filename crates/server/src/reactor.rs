//! The readiness-based serving engine: one event-loop thread driving
//! nonblocking sockets through epoll and executing every decoded
//! request batch itself.
//!
//! ```text
//!             epoll (level-triggered)
//!   listener ──► accept, register
//!   eventfd  ──► shutdown wakeup
//!   conn fd  ──► read ─► FrameDecoder ─► per-connection queue
//!        ▲                                        │ exec batch (ExecCtx)
//!        └──── flush ◄─ write buffer ◄────────────┘
//! ```
//!
//! Per-connection state machine: bytes read on the event loop are
//! decoded into ordered `Work` items; after each read the connection's
//! whole queue runs as one batch through the loop's one `ExecCtx`,
//! which appends the encoded responses to the connection's write
//! buffer; the loop flushes it, and what the socket does not take
//! drains under level-triggered `EPOLLOUT`. One thread executes every
//! batch, so each connection's responses keep request order with no
//! coordination at all.
//!
//! **Backpressure** replaces the BUSY-at-accept cliff: when a
//! connection's queue reaches [`ServerConfig::queue_depth`] items (or
//! its un-flushed write backlog exceeds one frame cap), the reactor
//! drops the connection's read interest — the kernel receive buffer
//! fills, TCP flow control pauses the sender, and nobody is
//! disconnected. Reads resume once the queue drains below half. The
//! bound is approximate by up to one read's worth of frames (the
//! scratch read that crosses the threshold is still decoded in full).
//!
//! **Graceful drain** walks the readiness set instead of joining N
//! threads: on shutdown the listener is deregistered, reads stop,
//! every queued item is executed and answered, write buffers flush,
//! and connections close — promptly (an eventfd wakeup, not a timed
//! poll), bounded by [`DRAIN_DEADLINE`] against peers that stop
//! reading their responses.

#![cfg(target_os = "linux")]

use crate::dispatch::{collect_work, CollectEnd, ExecCtx, Work};
use crate::frame::{encode_response, FrameDecoder, Response, Status};
use crate::server::{ServeParts, ServerConfig};
use crate::sys::{Poller, PollerEvent, Waker};
use crate::telemetry::ServerTelemetry;
use e2nvm_telemetry::Sampler;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard bound on how long a drain waits for peers to accept their
/// final responses before force-closing them.
pub const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Pause reads when a connection's un-flushed write backlog exceeds
/// this many bytes (one default frame cap): a client that pipelines
/// requests but never reads responses stops being read long before
/// its responses exhaust server memory.
const WRITE_BACKLOG_PAUSE: usize = 1 << 20;

/// epoll token of the listener.
const TOKEN_LISTENER: u64 = u64::MAX;
/// epoll token of the wakeup eventfd.
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// Spawn the reactor thread. Returns once the thread is running; the
/// thread returns the number of connections served over its lifetime.
pub(crate) fn spawn(
    listener: TcpListener,
    parts: ServeParts,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
) -> std::io::Result<JoinHandle<usize>> {
    let exec = ExecCtx {
        store: parts.front.clone(),
        registry: parts.registry.clone(),
        telemetry: parts.telemetry.clone(),
        scan_chunk_bytes: parts.config.scan_chunk_bytes,
        frame_clock: Sampler::default(),
    };
    let poller = Poller::new()?;
    std::thread::Builder::new()
        .name("e2nvm-reactor".into())
        .spawn(move || Reactor::new(listener, parts, shutdown, waker, poller, exec).run())
}

/// One connection's state, owned by the event loop.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Decoded, not yet executed items (ordered).
    pending: VecDeque<Work>,
    /// Encoded-but-unflushed response bytes, `out_pos` already written.
    outbuf: Vec<u8>,
    out_pos: usize,
    /// Reads stopped for good: EOF, fatal violation queued, SHUTDOWN
    /// answered, or server drain.
    read_closed: bool,
    /// Reads stopped temporarily by backpressure.
    paused: bool,
    /// Close as soon as the write buffer flushes, without waiting for
    /// `pending` (which was voided) — fatal violation or SHUTDOWN.
    close_after_flush: bool,
    /// Interest bits currently registered with the poller.
    reg_readable: bool,
    reg_writable: bool,
}

impl Conn {
    fn backlog(&self) -> usize {
        self.outbuf.len() - self.out_pos
    }
}

struct Reactor {
    listener: TcpListener,
    config: ServerConfig,
    telemetry: ServerTelemetry,
    parts_for_stop: ServeParts,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    poller: Poller,
    /// Executes every batch, on this thread.
    exec: ExecCtx,
    conns: Vec<Option<Conn>>,
    /// Slot generations; bumped on free so a stale event from the
    /// current epoll batch can never reach a slot's new tenant.
    gens: Vec<u32>,
    free: Vec<usize>,
    active: usize,
    served: usize,
    draining: Option<Instant>,
    scratch: Vec<u8>,
    events: Vec<PollerEvent>,
}

impl Reactor {
    fn new(
        listener: TcpListener,
        parts: ServeParts,
        shutdown: Arc<AtomicBool>,
        waker: Waker,
        poller: Poller,
        exec: ExecCtx,
    ) -> Self {
        Self {
            listener,
            config: parts.config.clone(),
            telemetry: parts.telemetry.clone(),
            parts_for_stop: parts,
            shutdown,
            waker,
            poller,
            exec,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            active: 0,
            served: 0,
            draining: None,
            scratch: vec![0u8; 64 * 1024],
            events: Vec::new(),
        }
    }

    fn token_of(&self, idx: usize) -> u64 {
        ((self.gens[idx] as u64) << 32) | idx as u64
    }

    fn run(mut self) -> usize {
        if self.poller.listener_setup(&self.listener).is_err()
            || self
                .poller
                .add(self.waker.as_raw_fd(), TOKEN_WAKER, true, false)
                .is_err()
        {
            // Registration failed at boot: nothing is serveable.
            return 0;
        }
        loop {
            if self.shutdown.load(Ordering::SeqCst) && self.draining.is_none() {
                self.enter_drain();
            }
            if let Some(since) = self.draining {
                if self.active == 0 {
                    break;
                }
                if since.elapsed() > DRAIN_DEADLINE {
                    // Peers refusing to read their final responses:
                    // force the remaining sockets closed.
                    for idx in 0..self.conns.len() {
                        if self.conns[idx].is_some() {
                            self.close(idx);
                        }
                    }
                    break;
                }
            }
            // Outside a drain the loop sleeps until a socket is ready or
            // the eventfd signals shutdown; a drain polls so it can
            // notice `DRAIN_DEADLINE`.
            let timeout = if self.draining.is_some() { 10 } else { -1 };
            self.events.clear();
            let mut events = std::mem::take(&mut self.events);
            if self.poller.wait(&mut events, timeout).is_err() {
                self.events = events;
                break;
            }
            self.telemetry.reactor_wakeups.inc();
            self.telemetry.reactor_ready_events.add(events.len() as u64);
            for ev in &events {
                match ev.token {
                    TOKEN_WAKER => self.waker.drain(),
                    TOKEN_LISTENER => {
                        if self.draining.is_none() {
                            self.accept_ready();
                        }
                    }
                    token => self.conn_ready(token, ev.readable, ev.writable),
                }
            }
            self.events = events;
        }
        self.parts_for_stop.record_stopped(self.served);
        self.served
    }

    // ---- accept ------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.active >= self.config.max_connections {
                        self.telemetry.connections_rejected.inc();
                        self.telemetry.count_error(Status::Busy);
                        reject_busy(stream);
                        continue;
                    }
                    if self.register(stream).is_ok() {
                        self.served += 1;
                        self.telemetry.connections_opened.inc();
                        self.telemetry.connections_active.add(1);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient accept errors (ECONNABORTED, EMFILE...):
                // leave the rest for the next readiness event.
                Err(_) => return,
            }
        }
    }

    fn register(&mut self, stream: TcpStream) -> std::io::Result<()> {
        use std::os::fd::AsRawFd;
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.conns.push(None);
                self.gens.push(0);
                self.conns.len() - 1
            }
        };
        let token = self.token_of(idx);
        self.poller.add(stream.as_raw_fd(), token, true, false)?;
        self.conns[idx] = Some(Conn {
            stream,
            decoder: FrameDecoder::new(self.config.max_frame_body),
            pending: VecDeque::new(),
            outbuf: Vec::with_capacity(4096),
            out_pos: 0,
            read_closed: false,
            paused: false,
            close_after_flush: false,
            reg_readable: true,
            reg_writable: false,
        });
        self.active += 1;
        Ok(())
    }

    // ---- per-connection events --------------------------------------

    fn conn_ready(&mut self, token: u64, readable: bool, writable: bool) {
        let idx = (token & 0xFFFF_FFFF) as usize;
        let gen = (token >> 32) as u32;
        // Stale event for a slot that was closed (and possibly reused)
        // earlier in this same event batch.
        if idx >= self.conns.len() || self.gens[idx] != gen || self.conns[idx].is_none() {
            return;
        }
        if writable && !self.flush(idx) {
            return;
        }
        if readable {
            self.read_ready(idx);
        }
        self.after_progress(idx);
    }

    /// Read until a short read / WouldBlock / EOF / pause, decoding as
    /// we go.
    fn read_ready(&mut self, idx: usize) {
        loop {
            let conn = match &mut self.conns[idx] {
                Some(c) if !c.read_closed && !c.paused => c,
                _ => return,
            };
            let n = match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    // Peer EOF: answer what already arrived, then the
                    // close falls out of the pending/flush walk.
                    conn.read_closed = true;
                    return;
                }
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(idx);
                    return;
                }
            };
            self.telemetry.bytes_read.add(n as u64);
            conn.decoder.extend(&self.scratch[..n]);
            let before = conn.pending.len();
            let mut items = Vec::new();
            let end = collect_work(&mut conn.decoder, &mut items);
            conn.pending.extend(items);
            self.telemetry
                .queued_items
                .add((conn.pending.len() - before) as i64);
            if end == CollectEnd::Fatal {
                // The stream is poisoned: the final pending item is the
                // fatal violation's error frame; answer-then-close.
                conn.read_closed = true;
                return;
            }
            if conn.pending.len() >= self.config.queue_depth || conn.backlog() > WRITE_BACKLOG_PAUSE
            {
                conn.paused = true;
                self.telemetry.reads_paused.inc();
                return;
            }
            // A read shorter than the scratch buffer took everything the
            // socket held, so the next one would only say WouldBlock.
            // Epoll is level-triggered: bytes (or an EOF) that arrive
            // later raise the next readiness event.
            if n < self.scratch.len() {
                return;
            }
        }
    }

    /// Flush the write buffer as far as the socket allows. Returns
    /// `false` when the connection died (and was closed).
    fn flush(&mut self, idx: usize) -> bool {
        let conn = match &mut self.conns[idx] {
            Some(c) => c,
            None => return false,
        };
        while conn.out_pos < conn.outbuf.len() {
            match conn.stream.write(&conn.outbuf[conn.out_pos..]) {
                Ok(0) => {
                    self.close(idx);
                    return false;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    self.telemetry.bytes_written.add(n as u64);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(idx);
                    return false;
                }
            }
        }
        if conn.out_pos == conn.outbuf.len() {
            conn.outbuf.clear();
            conn.out_pos = 0;
        } else if conn.out_pos >= 64 * 1024 {
            // Reclaim the flushed prefix so a long-lived slow reader
            // doesn't pin its history.
            conn.outbuf.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
        true
    }

    /// After any read/flush progress on `idx`: execute the queued
    /// items, re-balance backpressure, sync poller interest, and close
    /// if this connection is finished.
    fn after_progress(&mut self, idx: usize) {
        let Some(conn) = &mut self.conns[idx] else {
            return;
        };
        // Execute: the whole queue runs as one batch, here on the event
        // loop, and its responses go out before the next event.
        if !conn.pending.is_empty() {
            let n = conn.pending.len();
            self.telemetry.dispatch_batch_items.observe(n as u64);
            let outcome = self
                .exec
                .exec_batch(conn.pending.drain(..), &mut conn.outbuf);
            self.telemetry.queued_items.sub(n as i64);
            if outcome.shutdown {
                self.shutdown.store(true, Ordering::SeqCst);
            }
            if outcome.close {
                // Fatal violation answered or SHUTDOWN acked: the batch
                // was the whole queue, so nothing decoded is left over.
                conn.read_closed = true;
                conn.close_after_flush = true;
            }
            if !self.flush(idx) {
                return; // the connection died on the write
            }
        }
        let Some(conn) = &mut self.conns[idx] else {
            return;
        };
        // Resume reads once the queue has drained below half and the
        // write backlog is sane again.
        if conn.paused
            && conn.pending.len() <= self.config.queue_depth / 2
            && conn.backlog() <= WRITE_BACKLOG_PAUSE
        {
            conn.paused = false;
        }
        // Finished? (EOF/fatal/drain with everything answered, or an
        // explicit close-after-flush with the buffer empty.)
        let flushed = conn.backlog() == 0;
        let done = (conn.close_after_flush && flushed)
            || (conn.read_closed && conn.pending.is_empty() && flushed);
        if done {
            self.close(idx);
            return;
        }
        // Sync poller interest with desired state (level-triggered:
        // wanting EPOLLOUT only while there is backlog avoids a
        // busy-wake on always-writable idle sockets).
        let want_r = !conn.read_closed && !conn.paused;
        let want_w = !flushed;
        if want_r != conn.reg_readable || want_w != conn.reg_writable {
            use std::os::fd::AsRawFd;
            let fd = conn.stream.as_raw_fd();
            let token = ((self.gens[idx] as u64) << 32) | idx as u64;
            conn.reg_readable = want_r;
            conn.reg_writable = want_w;
            if self.poller.modify(fd, token, want_r, want_w).is_err() {
                self.close(idx);
            }
        }
    }

    fn close(&mut self, idx: usize) {
        use std::os::fd::AsRawFd;
        let Some(conn) = self.conns[idx].take() else {
            return;
        };
        let _ = self.poller.remove(conn.stream.as_raw_fd());
        self.telemetry.queued_items.sub(conn.pending.len() as i64);
        self.telemetry.connections_active.sub(1);
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(idx);
        self.active -= 1;
        // conn drops here, closing the fd.
    }

    // ---- drain -------------------------------------------------------

    fn enter_drain(&mut self) {
        use std::os::fd::AsRawFd;
        self.draining = Some(Instant::now());
        let _ = self.poller.remove(self.listener.as_raw_fd());
        // Walk the set once: stop reads everywhere, execute whatever is
        // still queued, and let the normal flush path retire each
        // connection.
        for idx in 0..self.conns.len() {
            if let Some(conn) = &mut self.conns[idx] {
                conn.read_closed = true;
                self.after_progress(idx);
            }
        }
    }
}

/// Send a BUSY error frame (best effort) and close.
fn reject_busy(mut stream: TcpStream) {
    let mut out = Vec::new();
    encode_response(
        &Response::Error {
            status: Status::Busy,
            retired: 0,
            message: "connection limit reached".into(),
        },
        None,
        &mut out,
    );
    let _ = stream.write_all(&out);
}

impl Poller {
    /// Register the listener under its fixed token.
    fn listener_setup(&self, listener: &TcpListener) -> std::io::Result<()> {
        use std::os::fd::AsRawFd;
        self.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)
    }
}
