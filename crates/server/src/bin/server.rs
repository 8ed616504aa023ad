//! `e2nvm-server` — boot a demo sharded store and serve it over TCP.
//!
//! ```text
//! cargo run --release -p e2nvm-server --bin e2nvm-server -- \
//!     [--addr 127.0.0.1:4242] [--shards 4] [--segments 2048] \
//!     [--seg-bytes 64] [--max-conns 1024] \
//!     [--scan-chunk 65536] [--cache-mb N] \
//!     [--data-dir PATH] [--flush-policy every|batch:N|os] \
//!     [--snapshot-every OPS]
//! ```
//!
//! Prints the bound address on the first line (`listening on ADDR`),
//! then serves until a client sends a SHUTDOWN frame. A production
//! embedder would build its own store (own device geometry, own
//! training corpus) and hand it to [`Server`] the same way.
//!
//! `--cache-mb N` fronts the store with an N MiB read-through cache;
//! without it every GET is served from the store. `--scan-chunk BYTES`
//! sets the target payload per streamed SCAN chunk frame (default
//! 64 KiB). An unknown flag, a missing value, a value that does not
//! parse and a geometry the demo store cannot be built over (a segment
//! width the engine or the device refuses, no shards, fewer segments
//! than shards) are each rejected with a usage line on stderr and exit
//! code 2 — the server never boots on a guess.
//!
//! `--data-dir PATH` enables crash-consistent persistence: mutations
//! are logged to per-shard WALs under `PATH/wal/` and snapshots land
//! in `PATH/snapshot.e2s`. On boot the server first tries to recover
//! from that directory — replaying snapshot + WAL is orders of
//! magnitude faster than retraining the placement models — and only
//! trains from scratch when no snapshot exists. Prints
//! `recovered ...` or `fresh store ...` before the listening line so
//! harnesses can tell which path booted. A snapshot it cannot recover
//! from (corrupt, or written in another model format) is refused with
//! `error: cannot recover from PATH: ...` on stderr and exit code 1,
//! and the directory is left as it was.

use e2nvm_core::E2Config;
use e2nvm_persist::{FlushPolicy, PersistenceConfig};
use e2nvm_server::{demo, CacheConfig, Server, ServerConfig};
use e2nvm_sim::{partition_segments, DeviceConfig};
use e2nvm_telemetry::TelemetryRegistry;

const USAGE: &str = "usage: e2nvm-server [--addr HOST:PORT] [--shards N] [--segments N] \
[--seg-bytes N] [--max-conns N] [--scan-chunk BYTES] [--cache-mb N] \
[--data-dir PATH] [--flush-policy every|batch:N|os] [--snapshot-every OPS]";

/// Reject the command line: say why, print the usage line, exit 2.
fn usage_exit(msg: &str) -> ! {
    eprintln!("e2nvm-server: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// The value after `flag`, parsed — or a usage exit naming what was
/// wrong with it.
fn value<T: std::str::FromStr>(flag: &str, it: &mut impl Iterator<Item = String>) -> T {
    let raw = it
        .next()
        .unwrap_or_else(|| usage_exit(&format!("{flag} requires a value")));
    raw.parse()
        .unwrap_or_else(|_| usage_exit(&format!("invalid value {raw:?} for {flag}")))
}

/// `every` | `batch:N` | `os` (see `FlushPolicy` docs for the
/// durability each buys; process kill loses nothing under any of
/// them).
fn parse_flush_policy(raw: &str) -> FlushPolicy {
    match raw {
        "every" => FlushPolicy::EveryAppend,
        "os" => FlushPolicy::OsOnly,
        s => match s.strip_prefix("batch:").and_then(|n| n.parse().ok()) {
            Some(n) => FlushPolicy::EveryN(n),
            None => usage_exit(&format!(
                "invalid value {s:?} for --flush-policy (every|batch:N|os)"
            )),
        },
    }
}

fn main() {
    let mut addr = "127.0.0.1:0".to_string();
    let mut shards: usize = 4;
    let mut segments: usize = 2048;
    let mut seg_bytes: usize = 64;
    let mut max_conns: usize = 1024;
    let mut scan_chunk: usize = 64 * 1024;
    let mut cache_mb: Option<usize> = None;
    let mut data_dir: Option<String> = None;
    let mut flush_policy = FlushPolicy::default();
    let mut snapshot_every: u64 = 0;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let f = flag.as_str();
        match f {
            "--addr" => addr = value(f, &mut it),
            "--shards" => shards = value(f, &mut it),
            "--segments" => segments = value(f, &mut it),
            "--seg-bytes" => seg_bytes = value(f, &mut it),
            "--max-conns" => max_conns = value(f, &mut it),
            "--scan-chunk" => scan_chunk = value(f, &mut it),
            "--cache-mb" => cache_mb = Some(value(f, &mut it)),
            "--data-dir" => data_dir = Some(value(f, &mut it)),
            "--flush-policy" => flush_policy = parse_flush_policy(&value::<String>(f, &mut it)),
            "--snapshot-every" => snapshot_every = value(f, &mut it),
            _ => usage_exit(&format!("unknown flag {flag:?}")),
        }
    }

    if let Err(e) = E2Config::builder().fast(seg_bytes, 2).build() {
        usage_exit(&format!(
            "invalid value \"{seg_bytes}\" for --seg-bytes: {e}"
        ));
    }
    // The demo store's device and partition, checked before it is built.
    let geometry = DeviceConfig::builder()
        .segment_bytes(seg_bytes)
        .num_segments(segments)
        .build()
        .and_then(|_| partition_segments(segments, shards));
    if let Err(e) = geometry {
        usage_exit(&format!(
            "invalid geometry --shards {shards} --segments {segments} --seg-bytes {seg_bytes}: {e}"
        ));
    }

    let registry = TelemetryRegistry::new();
    let pcfg = data_dir.map(|dir| {
        PersistenceConfig::builder()
            .data_dir(dir)
            .flush_policy(flush_policy)
            .snapshot_every_ops(snapshot_every)
            .build()
            .expect("valid persistence config")
    });

    // Recover from the data directory when it holds a snapshot;
    // otherwise train a fresh demo store (and, with persistence on,
    // seed the directory so the next boot recovers).
    // A data dir it cannot recover from is refused with one line on
    // stderr and exit status 1: 2 is a usage error, 101 a panic.
    let e2cfg = demo::demo_config(seg_bytes, 0xE2);
    let recovered = pcfg.as_ref().and_then(|p| {
        e2nvm_kvstore::ShardedE2KvStore::recover(p, &e2cfg, Some(&registry)).unwrap_or_else(|e| {
            eprintln!("error: cannot recover from {}: {e}", p.data_dir.display());
            std::process::exit(1)
        })
    });
    let mut store = match recovered {
        Some((store, report)) => {
            eprintln!(
                "recovered {} keys across {} shards in {} ms \
                 ({} WAL ops replayed, {} torn bytes truncated)",
                report.keys,
                report.shards,
                report.duration_ms,
                report.replayed_ops,
                report.truncated_bytes,
            );
            store
        }
        None => {
            eprintln!(
                "fresh store: training {shards} shard models over \
                 {segments} × {seg_bytes} B segments..."
            );
            let store = demo::demo_store(shards, segments, seg_bytes, 0xE2);
            match &pcfg {
                Some(p) => store
                    .with_persistence(p.clone(), Some(&registry))
                    .expect("enable persistence"),
                None => store,
            }
        }
    };
    store.attach_telemetry(&registry);
    // A clone shares the shards (and the persistence state), so the
    // drain-time snapshot below survives handing `store` to the server.
    let drain_handle = store.clone();

    let mut builder = ServerConfig::builder()
        .addr(addr)
        .max_connections(max_conns)
        .scan_chunk_bytes(scan_chunk);
    if let Some(cache_mb) = cache_mb {
        eprintln!("fronting the store with a {cache_mb} MiB read-through cache");
        let cache_cfg = CacheConfig::builder()
            .capacity_bytes(cache_mb << 20)
            .build()
            .expect("valid cache config");
        builder = builder.cache(cache_cfg);
    }
    let config = builder.build().expect("valid server config");
    let handle = Server::new(store, config)
        .with_telemetry(&registry)
        .start()
        .expect("bind");
    println!("listening on {}", handle.local_addr());
    let served = handle.join();
    if pcfg.is_some() {
        // Drain-time snapshot: the next boot replays zero WAL records.
        match drain_handle.snapshot_now() {
            Ok(bytes) => eprintln!("final snapshot: {bytes} bytes"),
            Err(e) => eprintln!("final snapshot failed: {e}"),
        }
    }
    println!("clean shutdown after {served} connections");
}
