//! The serving layer end to end: boot a 4-shard `e2nvm-server` on an
//! ephemeral loopback port, talk to it with the blocking client —
//! single calls, a pipelined batch, a bounded scan, HEALTH and METRICS
//! frames — then shut it down gracefully over the wire.
//!
//! The frame layout on the sockets is documented in `PROTOCOL.md`.
//!
//! ```text
//! cargo run --release --example server
//! ```

use e2nvm::prelude::*;
use e2nvm::server::demo::demo_store;
use e2nvm::server::frame::{Request, Response};

fn main() {
    // A trained 4-shard store (demo geometry: 256 segments x 64 B).
    // The demo_store helper seeds two content families and trains one
    // placement model per shard; a production embedder would build its
    // own ShardedE2KvStore here.
    println!("training 4 shard models...");
    let mut store = demo_store(4, 256, 64, 7);

    // One registry sees the whole stack: the store's engine/device
    // series plus the server's wire-level series.
    let registry = TelemetryRegistry::new();
    store.attach_telemetry(&registry);

    // The validated builder is the construction path: invalid knobs
    // (zero timeout, empty cache, ...) fail here, not at start().
    let config = ServerConfig::builder()
        .max_connections(32)
        .build()
        .expect("valid server config");
    let handle = Server::new(store, config)
        .with_telemetry(&registry)
        .start()
        .expect("bind an ephemeral loopback port");
    let addr = handle.local_addr();
    println!("serving on {addr}");

    // Plain request/response calls.
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping");
    client.put(7, b"a value placed by the model").expect("put");
    assert_eq!(
        client.get(7).expect("get").as_deref(),
        Some(&b"a value placed by the model"[..])
    );
    assert_eq!(client.get(999).expect("get miss"), None);

    // Pipelining: many requests in one flush, responses in order.
    let batch: Vec<Request> = (0..32u64)
        .map(|key| Request::Put {
            key,
            value: key.to_le_bytes().to_vec(),
        })
        .collect();
    let responses = client.pipeline(&batch).expect("pipelined puts");
    assert!(responses.iter().all(|r| matches!(r, Response::Stored)));
    println!("pipelined {} PUTs in one round trip", responses.len());

    // The batch helpers wrap the same pipeline with typed results.
    let values = client.get_many(&[0, 1, 2, 999]).expect("batched gets");
    assert_eq!(values[0].as_deref(), Some(&0u64.to_le_bytes()[..]));
    assert_eq!(values[3], None);
    client
        .put_many(&[(100, b"alpha".to_vec()), (101, b"beta".to_vec())])
        .expect("batched puts");
    println!("get_many/put_many round-tripped");

    // Bounded scan: at most 5 entries of [0, 10].
    let entries = client.scan(0, 10, 5).expect("scan");
    println!(
        "scan [0,10] limit 5 -> keys {:?}",
        entries.iter().map(|(k, _)| *k).collect::<Vec<_>>()
    );

    // Observability over the wire: HEALTH (keys and wear, one fixed
    // binary frame) and METRICS (Prometheus exposition from the shared
    // registry, device energy and modeled latency included).
    println!("health: {:?}", client.health().expect("health"));
    let metrics = client.metrics().expect("metrics");
    println!("metrics exposition: {} lines", metrics.lines().count());
    for line in metrics
        .lines()
        .filter(|l| l.starts_with("e2nvm_device_energy_pj_total"))
    {
        println!("  {line}");
    }

    // Graceful shutdown over the wire: SHUTDOWN is acknowledged, the
    // accept loop drains, and join() reports connections served.
    client.shutdown_server().expect("shutdown ack");
    let served = handle.join();
    println!("clean shutdown after {served} connections");
}
