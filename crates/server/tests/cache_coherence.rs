//! Cross-connection cache coherence against a live server: the cache
//! is shared by every connection, so a PUT or DELETE acked on one
//! connection must be visible to a GET on *another* connection that
//! had already pulled the old value into the cache. The wire protocol
//! gives no repair mechanism — if invalidation were asynchronous these
//! tests would catch the stale read.

use e2nvm_server::demo::demo_store;
use e2nvm_server::{CacheConfig, Client, Server, ServerConfig, ServerHandle};
use e2nvm_telemetry::TelemetryRegistry;

/// A cache-fronted 2-shard server on an ephemeral loopback port, with
/// store and server telemetry registered so the METRICS frame exposes
/// the per-shard device/engine series and `e2nvm_cache_*`.
fn start_cached_server() -> (ServerHandle, TelemetryRegistry) {
    let registry = TelemetryRegistry::new();
    let mut store = demo_store(2, 64, 32, 11);
    store.attach_telemetry(&registry);
    let config = ServerConfig::builder()
        .cache(
            CacheConfig::builder()
                .capacity_bytes(1 << 20)
                .build()
                .unwrap(),
        )
        .build()
        .expect("valid config");
    let handle = Server::new(store, config)
        .with_telemetry(&registry)
        .start()
        .expect("server binds an ephemeral port");
    (handle, registry)
}

/// Writer and reader are different connections. The reader GETs twice
/// (the second is served from the cache), then the writer overwrites
/// and deletes; the reader must observe each mutation immediately.
#[test]
fn put_and_delete_invalidate_across_connections() {
    let (handle, _registry) = start_cached_server();
    let addr = handle.local_addr();
    let mut writer = Client::connect(addr).expect("writer connects");
    let mut reader = Client::connect(addr).expect("reader connects");

    writer.put(7, b"v1").expect("initial put");
    assert_eq!(
        reader.get(7).expect("first read").as_deref(),
        Some(&b"v1"[..])
    );
    // Second read is a cache hit — same bytes, now from DRAM.
    assert_eq!(
        reader.get(7).expect("cached read").as_deref(),
        Some(&b"v1"[..])
    );

    // Overwrite on the *writer* connection; the reader's next GET must
    // see v2, not the cached v1 — the PUT ack implies the invalidation
    // already happened.
    writer.put(7, b"v2").expect("overwrite");
    assert_eq!(
        reader.get(7).expect("read after overwrite").as_deref(),
        Some(&b"v2"[..]),
        "reader observed a stale cached value after a cross-connection PUT"
    );

    // Same for DELETE: the acked delete must not leave a cached ghost.
    assert!(writer.delete(7).expect("delete"));
    assert_eq!(
        reader.get(7).expect("read after delete"),
        None,
        "reader observed a deleted key from the cache"
    );

    writer.shutdown_server().expect("clean shutdown");
    handle.join();
}

/// A key bounced between connections many times: every read observes
/// the latest acked write, regardless of which connection wrote it and
/// how hot the key is in the cache.
#[test]
fn ping_pong_writes_never_serve_stale() {
    let (handle, _registry) = start_cached_server();
    let addr = handle.local_addr();
    let mut a = Client::connect(addr).expect("conn a");
    let mut b = Client::connect(addr).expect("conn b");

    for round in 0u32..50 {
        let value = round.to_le_bytes();
        // Alternate the writing connection; the other one reads.
        let (writer, reader) = if round % 2 == 0 {
            (&mut a, &mut b)
        } else {
            (&mut b, &mut a)
        };
        writer.put(3, &value).expect("put");
        // Read twice: once possibly filling, once from the cache.
        for _ in 0..2 {
            assert_eq!(
                reader.get(3).expect("get").as_deref(),
                Some(&value[..]),
                "stale read in round {round}"
            );
        }
    }

    a.shutdown_server().expect("clean shutdown");
    handle.join();
}

/// The shared cache's counters are visible through the METRICS frame,
/// and repeated hot reads are actually served from the cache (hits
/// advance), proving the cross-connection reads above exercised the
/// cache rather than a cache that silently never engaged.
#[test]
fn metrics_prove_cache_engagement() {
    let (handle, _registry) = start_cached_server();
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    client.put(1, b"hot").expect("put");
    for _ in 0..10 {
        assert_eq!(client.get(1).expect("get").as_deref(), Some(&b"hot"[..]));
    }
    let metrics = client.metrics().expect("METRICS frame");
    let value = |name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| {
                l.strip_prefix(name)
                    .and_then(|rest| rest.trim().parse::<f64>().ok())
            })
            .unwrap_or_else(|| panic!("metric {name} missing from exposition:\n{metrics}"))
            as u64
    };
    let hits = value("e2nvm_cache_hits_total");
    let misses = value("e2nvm_cache_misses_total");
    assert!(hits >= 9, "expected >= 9 cache hits, got {hits}");
    assert_eq!(hits + misses, 10, "every GET is either a hit or a miss");
    assert!(value("e2nvm_cache_invalidations_total") >= 1);

    // Text-format grouping on a 2-shard store, whose per-shard series
    // are registered shard by shard: every family is announced by
    // exactly one HELP and one TYPE line, and every sample sits under
    // the latest announcement — so no family's lines are split by
    // another's.
    assert!(metrics.contains("e2nvm_device_writes_total{shard=\"1\"}"));
    let (mut helps, mut types) = (Vec::new(), Vec::new());
    for line in metrics.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            helps.push(rest.split(' ').next().unwrap());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let family = rest.split(' ').next().unwrap();
            assert!(!types.contains(&family), "{family} announced twice");
            types.push(family);
        } else {
            let series = line.split(['{', ' ']).next().unwrap();
            let family = *types.last().expect("sample before any TYPE line");
            assert!(
                matches!(
                    series.strip_prefix(family),
                    Some("" | "_bucket" | "_sum" | "_count")
                ),
                "sample `{line}` sits under family `{family}`:\n{metrics}"
            );
        }
    }
    assert_eq!(helps, types, "HELP and TYPE lines pair up");

    client.shutdown_server().expect("clean shutdown");
    handle.join();
}
