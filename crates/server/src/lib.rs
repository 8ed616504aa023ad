//! # e2nvm-server — the network serving layer
//!
//! Puts the sharded E2-NVM KV store behind a TCP socket with a
//! length-prefixed binary protocol (the full wire spec is
//! `PROTOCOL.md` at the repository root), so the paper's placement
//! pipeline can serve remote traffic instead of only in-process calls.
//!
//! * [`frame`] — the wire format: opcodes, statuses, frame
//!   encode/decode, and the incremental split-read-safe
//!   [`FrameDecoder`].
//! * [`server`] — [`Server`]: a std-only TCP server fronting a
//!   [`ShardedE2KvStore`](e2nvm_kvstore::ShardedE2KvStore) with
//!   request pipelining, bounded connections, typed error frames, and
//!   graceful shutdown. It serves with a readiness-based epoll
//!   reactor ([`reactor`]) whose one thread also executes every
//!   request batch — the only serving path. epoll is Linux-only: on other hosts the crate compiles
//!   (codec, client, config) but [`Server::start`] returns
//!   `io::ErrorKind::Unsupported`.
//! * [`client`] — [`Client`]: a blocking pipelined client (also what
//!   the `e2nvm-loadgen` recovery drill drives).
//! * [`telemetry`] — wire-level counters/gauges/histograms under
//!   `e2nvm_server_*`, composing with the store's series on one
//!   registry.
//! * [`demo`] — a trained, ready-to-serve demo store shared by the
//!   binaries, examples, and tests.
//!
//! ```
//! use e2nvm_server::{demo, Client, Server, ServerConfig};
//!
//! let store = demo::demo_store(2, 32, 32, 7);
//! let handle = Server::new(store, ServerConfig::default()).start().unwrap();
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//! client.put(1, b"hello").unwrap();
//! assert_eq!(client.get(1).unwrap().unwrap(), b"hello");
//! handle.shutdown();
//! handle.join();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod demo;
mod dispatch;
pub mod frame;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod server;
#[cfg(target_os = "linux")]
mod sys;
pub mod telemetry;

pub use client::{Client, ScanStream};
pub use frame::{FrameDecoder, FrameError, Opcode, Request, Response, Status};
pub use server::{Server, ServerConfig, ServerConfigBuilder, ServerHandle};
pub use telemetry::ServerTelemetry;

// Re-exported so server embedders can shape `ServerConfig::cache`
// without naming the kvstore crate directly.
pub use e2nvm_kvstore::{CacheConfig, CacheConfigBuilder};
