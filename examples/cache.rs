//! The hot-key read-through cache end to end: wrap a trained store
//! with [`CachedKvStore`], watch hits/misses/evictions in the
//! always-on counters, see coherent invalidation keep readers honest,
//! then put the same cache in front of a live server shared by two
//! connections.
//!
//! Design rationale: DESIGN.md §12. The wire protocol is untouched by
//! caching (PROTOCOL.md §6).
//!
//! ```text
//! cargo run --release --example cache
//! ```

use e2nvm::prelude::*;
use e2nvm::server::demo::demo_store;

fn main() {
    // A small trained 2-shard store (demo geometry). E2-NVM makes
    // writes the expensive, endurance-limited operation — reads are
    // where a DRAM tier pays off.
    println!("training 2 shard models...");
    let store = demo_store(2, 128, 64, 7);

    // A deliberately tiny cache so evictions actually happen in this
    // tour: ~1 KiB over 2 shards holds only a handful of values.
    let tiny = CacheConfig::builder()
        .capacity_bytes(1024)
        .shards(2)
        .build()
        .expect("valid cache config");
    let mut cached = CachedKvStore::new(store, tiny);

    // Read-through: first GET misses and fills, the second hits DRAM.
    cached.put(1, b"hot value").expect("put");
    cached.get(1).expect("get");
    cached.get(1).expect("get");
    let s = cached.cache_stats();
    println!("after 2 reads: {} hit / {} miss", s.hits, s.misses);
    assert_eq!((s.hits, s.misses), (1, 1));

    // Coherence: an acked overwrite is never served stale. The
    // invalidation happens before put() returns.
    cached.put(1, b"new value").expect("overwrite");
    assert_eq!(
        cached.get(1).expect("get").as_deref(),
        Some(&b"new value"[..])
    );
    println!(
        "overwrite invalidated the cached entry ({} invalidations)",
        cached.cache_stats().invalidations
    );

    // Bounded: hammer more keys than the budget holds and the CLOCK
    // hand evicts cold entries instead of growing.
    for key in 0..48u64 {
        cached.put(key, &key.to_le_bytes()).expect("put");
        cached.get(key).expect("get");
    }
    let s = cached.cache_stats();
    println!(
        "after 48 one-touch keys: {} evictions, occupancy stayed within budget",
        s.evictions
    );
    assert!(s.evictions > 0);

    // The same cache behind the server: one knob on the validated
    // config builder; every connection shares it, and the protocol
    // doesn't change.
    let registry = TelemetryRegistry::new();
    let mut store = demo_store(2, 64, 64, 7);
    store.attach_telemetry(&registry);
    let config = ServerConfig::builder()
        .cache(
            CacheConfig::builder()
                .capacity_bytes(8 << 20)
                .build()
                .expect("valid cache config"),
        )
        .build()
        .expect("valid server config");
    let handle = Server::new(store, config)
        .with_telemetry(&registry)
        .start()
        .expect("bind an ephemeral loopback port");
    println!("cache-fronted server on {}", handle.local_addr());

    let mut writer = Client::connect(handle.local_addr()).expect("connect");
    let mut reader = Client::connect(handle.local_addr()).expect("connect");
    writer.put(7, b"v1").expect("put");
    assert_eq!(reader.get(7).expect("get").as_deref(), Some(&b"v1"[..]));
    assert_eq!(reader.get(7).expect("get").as_deref(), Some(&b"v1"[..])); // hit
    writer.put(7, b"v2").expect("overwrite");
    assert_eq!(
        reader.get(7).expect("get").as_deref(),
        Some(&b"v2"[..]),
        "cross-connection invalidation is synchronous with the PUT ack"
    );
    println!("cross-connection reads never went stale");

    // The shared registry exposes the e2nvm_cache_* series through the
    // METRICS frame.
    let metrics = reader.metrics().expect("metrics");
    let hits = metrics
        .lines()
        .find(|l| l.starts_with("e2nvm_cache_hits_total"))
        .expect("cache series registered");
    println!("over the wire: {hits}");

    writer.shutdown_server().expect("shutdown ack");
    let served = handle.join();
    println!("clean shutdown after {served} connections");
}
