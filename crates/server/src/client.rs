//! A blocking client for the wire protocol, with request pipelining.
//!
//! [`Client::call`] is the one-request convenience;
//! [`Client::pipeline`] writes a whole batch of requests in one flush
//! and then reads the batch's responses — the protocol guarantees
//! responses come back in request order, so the k-th response answers
//! the k-th request.

use crate::frame::{
    encode_request, parse_response, FrameDecoder, FrameError, RawFrame, Request, Response, Status,
    MAX_RESPONSE_BODY,
};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking connection to an `e2nvm-server`.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
    wrbuf: Vec<u8>,
    rdbuf: Vec<u8>,
}

impl Client {
    /// Connect to `addr` (Nagle disabled — frames are already
    /// batched explicitly by the pipeline API).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            // Responses get envelope slack over the request cap: a
            // streamed scan chunk carrying one max-size value is a few
            // bytes bigger than the largest PUT (see MAX_RESPONSE_BODY).
            decoder: FrameDecoder::new(MAX_RESPONSE_BODY),
            wrbuf: Vec::with_capacity(4096),
            rdbuf: vec![0u8; 16 * 1024],
        })
    }

    /// Send one request and wait for its response.
    pub fn call(&mut self, req: &Request) -> std::io::Result<Response> {
        let mut resps = self.pipeline(std::slice::from_ref(req))?;
        Ok(resps
            .pop()
            .expect("pipeline returns one response per request"))
    }

    /// Send `reqs` back to back in one write, then read exactly one
    /// response per request, in order. This is the unit of pipelining:
    /// `depth` outstanding requests = a `reqs` slice of that length.
    pub fn pipeline(&mut self, reqs: &[Request]) -> std::io::Result<Vec<Response>> {
        let mut responses = Vec::with_capacity(reqs.len());
        let mut bad: Option<FrameError> = None;
        self.pipeline_with(reqs, |raw| {
            if bad.is_none() {
                match parse_response(raw) {
                    Ok(resp) => responses.push(resp),
                    Err(e) => bad = Some(e),
                }
            }
        })?;
        if let Some(e) = bad {
            return Err(std::io::Error::new(ErrorKind::InvalidData, e.to_string()));
        }
        Ok(responses)
    }

    /// The zero-copy pipeline underneath [`Client::pipeline`]: send
    /// `reqs` in one write, then invoke `f` once per response frame, in
    /// request order, without building owned [`Response`] values. The
    /// frame borrows the receive buffer — `f` gets the status byte in
    /// `code` and the echoed opcode in `aux` (see `PROTOCOL.md`). This
    /// is the path for throughput tooling, so a measurement isn't
    /// dominated by client-side allocations.
    pub fn pipeline_with(
        &mut self,
        reqs: &[Request],
        f: impl FnMut(&RawFrame<'_>),
    ) -> std::io::Result<()> {
        self.send_batch(reqs)?;
        self.recv_frames(reqs.len(), f)
    }

    /// The send half of [`Client::pipeline_with`]: encode `reqs` back to
    /// back and flush them in one write, without reading anything. Every
    /// request sent obligates one [`Client::recv_frames`] frame later;
    /// interleaving sends across *different* clients is how a single
    /// driver thread keeps several connections' pipelines full at once.
    pub fn send_batch(&mut self, reqs: &[Request]) -> std::io::Result<()> {
        self.wrbuf.clear();
        for req in reqs {
            encode_request(req, &mut self.wrbuf);
        }
        self.stream.write_all(&self.wrbuf)
    }

    /// Like [`Client::send_batch`] but for request frames already
    /// encoded with [`crate::frame::encode_request`] — the caller owns
    /// the bytes, so a load generator can encode its whole trace before
    /// the clock starts. `frames` must be a well-formed concatenation
    /// of request frames; the server answers garbage with typed error
    /// frames (and closes on framing violations), and each request in
    /// `frames` obligates one [`Client::recv_frames`] frame.
    pub fn send_encoded(&mut self, frames: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(frames)
    }

    /// The receive half of [`Client::pipeline_with`]: read exactly `n`
    /// response frames (in request order, per the protocol), invoking
    /// `f` on each. `n` must not exceed the number of responses still
    /// owed by the server, or this blocks forever.
    pub fn recv_frames(
        &mut self,
        n: usize,
        mut f: impl FnMut(&RawFrame<'_>),
    ) -> std::io::Result<()> {
        let mut received = 0usize;
        while received < n {
            // Drain frames already buffered before touching the socket.
            match self.decoder.next_frame() {
                Ok(Some(raw)) => {
                    f(&raw);
                    received += 1;
                    continue;
                }
                Ok(None) => {}
                Err(e) => {
                    return Err(std::io::Error::new(ErrorKind::InvalidData, e.to_string()));
                }
            }
            let got = self.stream.read(&mut self.rdbuf)?;
            if got == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    format!(
                        "server closed the connection with {} of {n} responses outstanding",
                        n - received,
                    ),
                ));
            }
            self.decoder.extend(&self.rdbuf[..got]);
        }
        Ok(())
    }

    /// GET `key`; `Ok(None)` when absent.
    pub fn get(&mut self, key: u64) -> std::io::Result<Option<Vec<u8>>> {
        match self.call(&Request::Get { key })? {
            Response::Value(v) => Ok(Some(v)),
            Response::NotFound => Ok(None),
            other => Err(unexpected(&other)),
        }
    }

    /// PUT `key` → `value`.
    pub fn put(&mut self, key: u64, value: &[u8]) -> std::io::Result<()> {
        match self.call(&Request::Put {
            key,
            value: value.to_vec(),
        })? {
            Response::Stored => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// GET every key in `keys` through one pipelined round trip;
    /// result `i` answers `keys[i]` (`None` when absent). Equivalent
    /// to, and much faster than, calling [`Client::get`] in a loop —
    /// one write, one read batch, instead of a round trip per key.
    pub fn get_many(&mut self, keys: &[u64]) -> std::io::Result<Vec<Option<Vec<u8>>>> {
        let reqs: Vec<Request> = keys.iter().map(|&key| Request::Get { key }).collect();
        self.pipeline(&reqs)?
            .into_iter()
            .map(|resp| match resp {
                Response::Value(v) => Ok(Some(v)),
                Response::NotFound => Ok(None),
                other => Err(unexpected(&other)),
            })
            .collect()
    }

    /// PUT every pair in `pairs` through one pipelined round trip.
    /// Fails on the first pair the server rejected; earlier pairs in
    /// the slice are already stored when that happens.
    pub fn put_many(&mut self, pairs: &[(u64, Vec<u8>)]) -> std::io::Result<()> {
        let reqs: Vec<Request> = pairs
            .iter()
            .map(|(key, value)| Request::Put {
                key: *key,
                value: value.clone(),
            })
            .collect();
        for resp in self.pipeline(&reqs)? {
            match resp {
                Response::Stored => {}
                other => return Err(unexpected(&other)),
            }
        }
        Ok(())
    }

    /// DELETE `key`; returns whether it existed.
    pub fn delete(&mut self, key: u64) -> std::io::Result<bool> {
        match self.call(&Request::Delete { key })? {
            Response::Deleted(existed) => Ok(existed),
            other => Err(unexpected(&other)),
        }
    }

    /// SCAN `lo..=hi`, at most `limit` entries (0 = unlimited),
    /// collected: [`Client::scan_stream`] gathered into one `Vec`, so
    /// the result may exceed the frame cap and peak memory is the full
    /// result, by construction.
    pub fn scan(&mut self, lo: u64, hi: u64, limit: u32) -> std::io::Result<Vec<(u64, Vec<u8>)>> {
        self.scan_stream(lo, hi, limit)?.collect()
    }

    /// Streaming SCAN `lo..=hi`, at most `limit` entries (0 =
    /// unlimited): send one SCAN_STREAM request and iterate the
    /// entries as chunk frames arrive, never holding more than one
    /// chunk in memory. The iterator yields entries in key order; a
    /// store error mid-stream (or a transport error) surfaces as an
    /// `Err` item and ends the stream.
    ///
    /// Dropping the iterator early drains the remaining chunks off the
    /// wire, so the connection stays usable for the next request.
    pub fn scan_stream(&mut self, lo: u64, hi: u64, limit: u32) -> std::io::Result<ScanStream<'_>> {
        self.send_batch(std::slice::from_ref(&Request::ScanStream { lo, hi, limit }))?;
        Ok(ScanStream {
            client: self,
            buffered: VecDeque::new(),
            done: false,
        })
    }

    /// The server's wear summary: live keys plus free / retired /
    /// total segment counts, as one fixed 40-byte binary frame — cheap
    /// enough for a health monitor to call every few hundred
    /// milliseconds, unlike parsing [`metrics`](Self::metrics) text.
    pub fn health(&mut self) -> std::io::Result<e2nvm_kvstore::WearSummary> {
        match self.call(&Request::Health)? {
            Response::Health(wear) => Ok(wear),
            other => Err(unexpected(&other)),
        }
    }

    /// The server's telemetry exposition (Prometheus text).
    pub fn metrics(&mut self) -> std::io::Result<String> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(text) => Ok(text),
            other => Err(unexpected(&other)),
        }
    }

    /// Force the server's durable state to disk (snapshot + WAL
    /// fsync); returns the snapshot bytes written, 0 when the server
    /// runs without persistence.
    pub fn flush(&mut self) -> std::io::Result<u64> {
        match self.call(&Request::Flush)? {
            Response::Flushed(bytes) => Ok(bytes),
            other => Err(unexpected(&other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> std::io::Result<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Ask the server to shut down gracefully; returns once the server
    /// acknowledged.
    pub fn shutdown_server(&mut self) -> std::io::Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

/// A live streaming-scan response: an iterator over the entries of one
/// SCAN_STREAM request, pulling chunk frames off the wire lazily.
/// Created by [`Client::scan_stream`]; the client is mutably borrowed
/// until the stream is finished or dropped (dropping early drains the
/// rest of the stream so pipelining stays aligned).
#[derive(Debug)]
pub struct ScanStream<'a> {
    client: &'a mut Client,
    /// Entries from the last chunk not yet yielded.
    buffered: VecDeque<(u64, Vec<u8>)>,
    /// The terminal frame (final chunk or error) has been consumed.
    done: bool,
}

impl ScanStream<'_> {
    /// Pull one more chunk frame off the wire into `buffered`. Any
    /// `Err` return — error frame, malformed frame, transport failure
    /// — also marks the stream done (an error frame *is* the stream's
    /// terminal frame; after a transport failure there is nothing left
    /// to drain).
    fn fetch_chunk(&mut self) -> std::io::Result<()> {
        let mut parsed: Option<Result<Response, FrameError>> = None;
        if let Err(e) = self
            .client
            .recv_frames(1, |raw| parsed = Some(parse_response(raw)))
        {
            self.done = true;
            return Err(e);
        }
        match parsed.expect("recv_frames(1) invokes the callback once") {
            Ok(Response::ScanChunk { more, entries }) => {
                self.buffered.extend(entries);
                if !more {
                    self.done = true;
                }
                Ok(())
            }
            Ok(other) => {
                self.done = true;
                Err(unexpected(&other))
            }
            Err(e) => {
                self.done = true;
                Err(std::io::Error::new(ErrorKind::InvalidData, e.to_string()))
            }
        }
    }
}

impl Iterator for ScanStream<'_> {
    type Item = std::io::Result<(u64, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(entry) = self.buffered.pop_front() {
                return Some(Ok(entry));
            }
            if self.done {
                return None;
            }
            if let Err(e) = self.fetch_chunk() {
                return Some(Err(e));
            }
        }
    }
}

impl Drop for ScanStream<'_> {
    fn drop(&mut self) {
        // Drain the stream's remaining frames so the next request's
        // responses don't collide with leftover chunks. fetch_chunk
        // marks `done` on every error path, so this terminates.
        while !self.done {
            if self.fetch_chunk().is_err() {
                break;
            }
        }
    }
}

/// Turn a typed error frame (or a response of the wrong shape) into an
/// `io::Error` for callers using the convenience methods. Callers that
/// need to match on [`Status`] use [`Client::call`] /
/// [`Client::pipeline`] directly.
fn unexpected(resp: &Response) -> std::io::Error {
    let msg = match resp {
        Response::Error {
            status,
            retired,
            message,
        } => {
            if *status == Status::Degraded || *status == Status::PoolDepleted {
                format!(
                    "server error {}: {message} ({retired} segments retired)",
                    status.name()
                )
            } else {
                format!("server error {}: {message}", status.name())
            }
        }
        other => format!("unexpected response shape: {other:?}"),
    };
    std::io::Error::other(msg)
}
