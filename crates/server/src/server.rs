//! The TCP server fronting a [`ShardedE2KvStore`]: shared
//! configuration, the [`Server`] front door, and the [`ServerHandle`]
//! lifecycle controls.
//!
//! There is one serving path: a readiness-based event loop —
//! nonblocking sockets registered with epoll and per-connection state
//! machines, with the loop's own thread executing every decoded
//! request batch (`crate::reactor`). One process holds thousands of
//! idle-or-bursty clients; backpressure pauses a flooding connection's
//! reads instead of dropping clients. epoll is Linux-only, and so is
//! serving: elsewhere the crate still compiles (frame codec, client,
//! config), but [`Server::start`] returns
//! [`ErrorKind::Unsupported`].
//!
//! Graceful shutdown is a shared flag plus an eventfd wakeup, set by
//! [`ServerHandle::shutdown`] or by a SHUTDOWN frame from any client;
//! the reactor drains promptly by walking its readiness set.

use crate::dispatch::Front;
use crate::frame::DEFAULT_MAX_BODY;
use crate::telemetry::ServerTelemetry;
use e2nvm_kvstore::{CacheConfig, CachedKvStore, ShardedE2KvStore};
use e2nvm_telemetry::{Event, TelemetryRegistry};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Server tuning knobs. `Default` binds an ephemeral loopback port
/// with a 1024-connection limit, the protocol's 1 MiB frame cap and a
/// 64-item per-connection queue bound.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`"127.0.0.1:0"` picks an ephemeral port; read
    /// the actual one from [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Maximum simultaneously open connections; the next one is sent a
    /// BUSY error frame and closed. This is fd-exhaustion protection —
    /// load is governed by per-connection backpressure
    /// ([`ServerConfig::queue_depth`]) long before this cliff is
    /// reached.
    pub max_connections: usize,
    /// Cap on a frame's `body_len`; larger frames are answered with
    /// FRAME_TOO_LARGE and the connection closes.
    pub max_frame_body: usize,
    /// Per-connection bound on decoded-but-unserved request items.
    /// When a connection's queue reaches this bound (or its write
    /// backlog exceeds one frame cap), the reactor stops reading from
    /// it until the queue drains below half — TCP backpressure pauses
    /// the client instead of a dropped connection.
    pub queue_depth: usize,
    /// When set, front the store with a DRAM read-through
    /// [`e2nvm_kvstore::HotCache`] of this shape. `None` (the default)
    /// serves every GET from the store, byte-for-byte as before the
    /// cache existed. Caching is a server-side concern: nothing about
    /// the wire protocol changes either way.
    pub cache: Option<CacheConfig>,
    /// Target payload bytes per SCAN_STREAM chunk frame (default
    /// 64 KiB). Entries are never split across chunks, so a chunk
    /// carrying one entry larger than this bound exceeds it by that
    /// entry's size; otherwise chunks stay at or under the target.
    /// Must be nonzero.
    pub scan_chunk_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 1024,
            max_frame_body: DEFAULT_MAX_BODY,
            queue_depth: 64,
            cache: None,
            scan_chunk_bytes: 64 * 1024,
        }
    }
}

impl ServerConfig {
    /// Start building a config from the defaults. The builder validates
    /// on [`ServerConfigBuilder::build`], so a constructed config is
    /// always serveable.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// Check the invariants [`ServerConfigBuilder::build`] enforces.
    /// Useful when a config was assembled by hand via struct update
    /// syntax instead of the builder.
    pub fn validate(&self) -> std::io::Result<()> {
        fn invalid(msg: String) -> std::io::Error {
            std::io::Error::new(ErrorKind::InvalidInput, msg)
        }
        if self.max_connections == 0 {
            return Err(invalid(
                "ServerConfig::max_connections must be at least 1".into(),
            ));
        }
        if self.max_frame_body == 0 {
            return Err(invalid(
                "ServerConfig::max_frame_body must be nonzero".into(),
            ));
        }
        if self.queue_depth == 0 {
            return Err(invalid(
                "ServerConfig::queue_depth must be at least 1".into(),
            ));
        }
        if self.scan_chunk_bytes == 0 {
            return Err(invalid(
                "ServerConfig::scan_chunk_bytes must be nonzero".into(),
            ));
        }
        if let Some(cache) = &self.cache {
            cache
                .validate()
                .map_err(|e| invalid(format!("ServerConfig::cache is invalid: {e}")))?;
        }
        Ok(())
    }
}

/// Builder for [`ServerConfig`], mirroring `E2Config::builder()` and
/// [`CacheConfig::builder`]: chain setters, then
/// [`ServerConfigBuilder::build`] validates and returns the config.
///
/// ```
/// use e2nvm_server::ServerConfig;
///
/// let cfg = ServerConfig::builder()
///     .addr("127.0.0.1:0")
///     .max_connections(8)
///     .queue_depth(32)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.max_connections, 8);
/// assert_eq!(cfg.queue_depth, 32);
/// assert!(cfg.cache.is_none());
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    cfg: ServerConfig,
}

impl ServerConfigBuilder {
    /// Address to bind (see [`ServerConfig::addr`]).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.cfg.addr = addr.into();
        self
    }

    /// Connection limit (see [`ServerConfig::max_connections`]).
    pub fn max_connections(mut self, max: usize) -> Self {
        self.cfg.max_connections = max;
        self
    }

    /// Frame body cap (see [`ServerConfig::max_frame_body`]).
    pub fn max_frame_body(mut self, bytes: usize) -> Self {
        self.cfg.max_frame_body = bytes;
        self
    }

    /// Per-connection queue bound (see [`ServerConfig::queue_depth`]).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.cfg.queue_depth = depth;
        self
    }

    /// Front the store with a read-through cache of this shape (see
    /// [`ServerConfig::cache`]).
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.cfg.cache = Some(cache);
        self
    }

    /// Target payload bytes per streamed scan chunk (see
    /// [`ServerConfig::scan_chunk_bytes`]).
    pub fn scan_chunk_bytes(mut self, bytes: usize) -> Self {
        self.cfg.scan_chunk_bytes = bytes;
        self
    }

    /// Validate and return the config. Rejects a zero connection limit, a zero frame cap, a zero queue depth,
    /// a zero scan chunk bound, and any invalid cache shape with
    /// [`ErrorKind::InvalidInput`].
    pub fn build(self) -> std::io::Result<ServerConfig> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Everything the reactor needs besides its sockets: the fronted
/// store, the resolved config, and the telemetry plumbing.
pub(crate) struct ServeParts {
    pub front: Front,
    pub config: ServerConfig,
    pub telemetry: ServerTelemetry,
    pub registry: Option<TelemetryRegistry>,
}

impl ServeParts {
    pub(crate) fn assemble(
        store: ShardedE2KvStore,
        config: ServerConfig,
        telemetry: ServerTelemetry,
        registry: Option<TelemetryRegistry>,
    ) -> Self {
        // Build the front once: clones share the cache's shards, so a
        // PUT on one connection invalidates what another connection
        // cached.
        let front = match config.cache.clone() {
            Some(cache_cfg) => Front::Cached(match &registry {
                Some(reg) => CachedKvStore::with_telemetry(store, cache_cfg, reg),
                None => CachedKvStore::new(store, cache_cfg),
            }),
            None => Front::Plain(store),
        };
        Self {
            front,
            config,
            telemetry,
            registry,
        }
    }

    /// Record the started event (once the listener is live).
    pub(crate) fn record_started(&self, addr: SocketAddr) {
        if let Some(reg) = &self.registry {
            reg.journal().record(Event::ServerStarted {
                port: addr.port() as usize,
            });
        }
    }

    /// Record the stopped event (after the last connection closed).
    pub(crate) fn record_stopped(&self, served: usize) {
        if let Some(reg) = &self.registry {
            reg.journal().record(Event::ServerStopped {
                connections_served: served,
            });
        }
    }
}

/// A configured-but-not-started server. Build with [`Server::new`],
/// optionally attach telemetry, then [`Server::start`].
///
/// Serving needs epoll: on a non-Linux host [`Server::start`] returns
/// [`ErrorKind::Unsupported`].
pub struct Server {
    store: ShardedE2KvStore,
    config: ServerConfig,
    telemetry: ServerTelemetry,
    registry: Option<TelemetryRegistry>,
}

impl Server {
    /// A server fronting `store` with `config`. Telemetry starts
    /// disconnected; attach with [`Server::with_telemetry`].
    pub fn new(store: ShardedE2KvStore, config: ServerConfig) -> Self {
        Self {
            store,
            config,
            telemetry: ServerTelemetry::disconnected(),
            registry: None,
        }
    }

    /// Register the server's wire-level series on `registry` and serve
    /// METRICS frames from it. Attach the *store's* telemetry to the
    /// same registry beforehand so one scrape sees the whole stack.
    pub fn with_telemetry(mut self, registry: &TelemetryRegistry) -> Self {
        self.telemetry = ServerTelemetry::register(registry, Some(&self.store));
        self.registry = Some(registry.clone());
        self
    }

    /// Bind and start serving. Returns once the listener is live; all
    /// serving happens on background threads owned by the returned
    /// handle.
    #[cfg(target_os = "linux")]
    pub fn start(self) -> std::io::Result<ServerHandle> {
        self.config.validate()?;
        let listener = TcpListener::bind(&self.config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let parts = ServeParts::assemble(self.store, self.config, self.telemetry, self.registry);
        parts.record_started(addr);
        let shutdown = Arc::new(AtomicBool::new(false));
        let waker = crate::sys::Waker::new()?;
        let thread = crate::reactor::spawn(listener, parts, Arc::clone(&shutdown), waker.clone())?;
        Ok(ServerHandle {
            addr,
            shutdown,
            waker,
            thread: Some(thread),
        })
    }

    /// Serving needs epoll, which this platform does not have.
    #[cfg(not(target_os = "linux"))]
    pub fn start(self) -> std::io::Result<ServerHandle> {
        Err(std::io::Error::new(
            ErrorKind::Unsupported,
            "e2nvm-server serves through epoll and runs on Linux only",
        ))
    }
}

/// Handle to a running server: its bound address plus shutdown/join
/// controls. Dropping the handle shuts the server down and joins it.
#[derive(Debug)]
pub struct ServerHandle {
    pub(crate) addr: SocketAddr,
    pub(crate) shutdown: Arc<AtomicBool>,
    /// Kicks the event loop out of `epoll_wait`, where it otherwise
    /// sleeps until a socket is ready, so a shutdown is observed at
    /// once.
    #[cfg(target_os = "linux")]
    pub(crate) waker: crate::sys::Waker,
    pub(crate) thread: Option<JoinHandle<usize>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves ephemeral
    /// ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request graceful shutdown: stop accepting, answer everything
    /// already received, flush, then close. Idempotent; returns
    /// immediately — pair with [`ServerHandle::join`] to wait.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        #[cfg(target_os = "linux")]
        self.waker.wake();
    }

    /// Block until the server has fully stopped (every connection
    /// drained and closed). Returns the number of connections served
    /// over the server's lifetime. Does not itself request shutdown:
    /// call [`ServerHandle::shutdown`] first, or let a SHUTDOWN frame
    /// do it.
    pub fn join(mut self) -> usize {
        self.join_inner()
    }

    fn join_inner(&mut self) -> usize {
        self.thread
            .take()
            .map(|t| t.join().unwrap_or(0))
            .unwrap_or(0)
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
        self.join_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_queue_depth_is_rejected() {
        let err = ServerConfig::builder().queue_depth(0).build().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
    }

    #[test]
    fn zero_scan_chunk_bound_is_rejected() {
        let err = ServerConfig::builder()
            .scan_chunk_bytes(0)
            .build()
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
    }
}
