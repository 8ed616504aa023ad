//! Live multi-server tests: real `e2nvm-server` instances on
//! ephemeral loopback ports, a real router over them. Everything a
//! unit test cannot prove about the cluster — replication actually
//! lands on R servers, failover actually survives a kill, read
//! repair actually re-fills a replica — is proven here.

use e2nvm_cluster::{ClusterClient, ClusterConfig, NodeState};
use e2nvm_kvstore::{NvmKvStore, StoreError};
use e2nvm_server::demo::{demo_store, demo_store_with_fault};
use e2nvm_server::{Client, Server, ServerConfig, ServerHandle};
use e2nvm_sim::FaultConfig;
use std::collections::BTreeMap;
use std::time::Duration;

/// Boot `n` independent demo servers; returns their handles and
/// addresses in node-index order.
fn start_servers(n: usize) -> (Vec<ServerHandle>, Vec<String>) {
    let handles: Vec<ServerHandle> = (0..n)
        .map(|i| {
            let store = demo_store(2, 256, 32, 11 + i as u64);
            Server::new(store, ServerConfig::default())
                .start()
                .expect("server binds an ephemeral port")
        })
        .collect();
    let addrs = handles.iter().map(|h| h.local_addr().to_string()).collect();
    (handles, addrs)
}

fn cluster_over(addrs: &[String], replication: usize, probing: bool) -> ClusterClient {
    let cfg = ClusterConfig::builder()
        .addrs(addrs.iter().cloned())
        .replication(replication)
        .probing(probing)
        .probe_interval(Duration::from_millis(50))
        .wear_drain_threshold(0.02)
        .build()
        .expect("valid cluster config");
    ClusterClient::connect(cfg)
}

/// CRUD through the router against a shadow map, then verify every
/// key is physically present on exactly its R-way replica set by
/// asking each server directly.
#[test]
fn three_nodes_replicate_every_write_r_ways() {
    let (handles, addrs) = start_servers(3);
    let mut cluster = cluster_over(&addrs, 2, false);

    let mut shadow: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for key in 0..60u64 {
        let value = format!("value-{key}").into_bytes();
        cluster.put(key, &value).expect("replicated put");
        shadow.insert(key, value);
    }
    for key in (0..60u64).step_by(3) {
        assert!(cluster.delete(key).expect("replicated delete"));
        shadow.remove(&key);
    }
    for key in 0..60u64 {
        assert_eq!(
            cluster.get(key).expect("cluster get").as_ref(),
            shadow.get(&key),
            "key {key} diverged"
        );
    }
    let scanned = cluster.scan(0, 59).expect("merged scan");
    let expect: Vec<(u64, Vec<u8>)> = shadow.iter().map(|(k, v)| (*k, v.clone())).collect();
    assert_eq!(scanned, expect, "merged scan diverged from shadow");

    // Replication audit: every surviving key sits on each node of its
    // replica set, and on no other node.
    let mut direct: Vec<Client> = addrs
        .iter()
        .map(|a| Client::connect(a).expect("direct connect"))
        .collect();
    for (key, value) in &shadow {
        let set = cluster.ring().replicas(*key, 2);
        for (node, client) in direct.iter_mut().enumerate() {
            let held = client.get(*key).expect("direct get");
            if set.contains(&node) {
                assert_eq!(
                    held.as_deref(),
                    Some(value.as_slice()),
                    "key {key} missing from replica node {node}"
                );
            } else {
                assert_eq!(held, None, "key {key} leaked to non-replica node {node}");
            }
        }
    }

    cluster.shutdown_all();
    for h in handles {
        h.join();
    }
}

/// Kill a server mid-workload: every previously acked write must stay
/// readable through the survivors, new writes must keep succeeding
/// (the ring walk promotes the next node), and the router must mark
/// the dead node down on its own — no prober involved.
#[test]
fn killing_a_node_loses_no_acked_write() {
    let (mut handles, addrs) = start_servers(3);
    let mut cluster = cluster_over(&addrs, 2, false);

    let mut shadow: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for key in 0..80u64 {
        let value = format!("pre-kill-{key}").into_bytes();
        cluster.put(key, &value).expect("put before kill");
        shadow.insert(key, value);
    }

    // Hard-stop node 1 (shutdown + join = its port stops answering).
    let victim = handles.remove(1);
    victim.shutdown();
    victim.join();

    // Every acked write is still served, through whatever replicas
    // survived; the first operations that touch node 1 mark it down.
    for (key, value) in &shadow {
        assert_eq!(
            cluster.get(*key).expect("get after kill").as_deref(),
            Some(value.as_slice()),
            "acked key {key} lost after node kill"
        );
    }
    assert_eq!(cluster.view().state(1), NodeState::Down);

    // Writes keep flowing: sets that contained node 1 are promoted.
    for key in 80..120u64 {
        let value = format!("post-kill-{key}").into_bytes();
        cluster.put(key, &value).expect("put after kill");
        shadow.insert(key, value);
    }
    for (key, value) in &shadow {
        assert_eq!(
            cluster.get(*key).expect("get post-kill").as_deref(),
            Some(value.as_slice())
        );
    }
    assert!(cluster.cluster_stats().snapshot().nodes_marked_down >= 1);

    cluster.shutdown_all();
    for h in handles {
        h.join();
    }
}

/// Read repair: a router whose view has node 0 down writes a key to
/// the promoted set; a *fresh* router (all-healthy view) then reads
/// the key — its walk tries node 0 first, misses, falls back, and
/// must repair node 0 in-line so the next direct read hits it.
#[test]
fn get_repairs_a_replica_that_missed_the_write() {
    let (handles, addrs) = start_servers(3);
    let mut writer = cluster_over(&addrs, 2, false);

    // Find a key whose primary is node 0.
    let key = (0..10_000u64)
        .find(|&k| writer.ring().primary(k) == 0)
        .expect("some key lands on node 0");

    // Simulate a router that believed node 0 was dead: the write
    // lands on the promoted replica set, skipping node 0.
    writer.view().mark_down(0);
    writer.put(key, b"repaired-later").expect("promoted put");
    let mut direct = Client::connect(&addrs[0]).expect("connect node 0");
    assert_eq!(direct.get(key).expect("direct get"), None);

    // A fresh router sees node 0 healthy, misses there, finds the
    // value on the fallback replica, and repairs node 0.
    let mut reader = cluster_over(&addrs, 2, false);
    assert_eq!(
        reader.get(key).expect("fallback get").as_deref(),
        Some(&b"repaired-later"[..])
    );
    assert_eq!(reader.cluster_stats().snapshot().read_repairs, 1);
    assert_eq!(
        direct.get(key).expect("direct get after repair").as_deref(),
        Some(&b"repaired-later"[..]),
        "read repair did not re-fill the missed replica"
    );

    reader.shutdown_all();
    for h in handles {
        h.join();
    }
}

/// Wear-driven drain, end to end: one server runs on a device with a
/// tiny endurance budget; the prober sees its retired_segments rise,
/// flips it to draining, and the router's maintenance pass re-homes
/// its keys — all while every acked write stays readable and new
/// writes avoid the dying device.
#[test]
fn wear_crossing_threshold_drains_the_node_before_it_dies() {
    // Node 0 wears out fast; nodes 1 and 2 are effectively immortal.
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..3usize {
        let store = if i == 0 {
            demo_store_with_fault(
                2,
                128,
                64,
                7,
                Some(FaultConfig {
                    seed: 0xFA_57,
                    endurance_bits: 6_000,
                    ..FaultConfig::default()
                }),
            )
        } else {
            demo_store(2, 256, 64, 11 + i as u64)
        };
        let h = Server::new(store, ServerConfig::default())
            .start()
            .expect("server binds");
        addrs.push(h.local_addr().to_string());
        handles.push(h);
    }
    let mut cluster = cluster_over(&addrs, 2, true);

    // Dense values burn node 0's endurance; keep writing until the
    // prober flips it to draining (or give up and fail).
    let mut shadow: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut drained = false;
    'outer: for round in 0..600u64 {
        for i in 0..8u64 {
            let key = (round * 8 + i) % 64;
            let value: Vec<u8> = (0..48)
                .map(|j| ((key ^ round).wrapping_mul(0x9E37) as u8).wrapping_add(j))
                .collect();
            cluster.put(key, &value).expect("replicated put under wear");
            shadow.insert(key, value);
        }
        if cluster.view().state(0) == NodeState::Draining {
            drained = true;
            break 'outer;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        drained,
        "prober never flipped the wearing node to draining; view: {:?}",
        cluster.view().snapshot()
    );

    // The maintenance hook claims the pending drain and re-homes.
    cluster.maintenance();
    let stats = cluster.cluster_stats().snapshot();
    assert!(stats.drains_completed >= 1, "drain never ran: {stats:?}");

    // Post-drain: writes exclude node 0, reads still verify.
    for key in 100..140u64 {
        let value = format!("post-drain-{key}").into_bytes();
        cluster.put(key, &value).expect("put post-drain");
        shadow.insert(key, value);
        assert!(
            !cluster
                .ring()
                .replicas_where(key, 2, |n| {
                    cluster.view().state(n) == NodeState::Healthy
                })
                .contains(&0),
            "write set still contains the draining node"
        );
    }
    for (key, value) in &shadow {
        assert_eq!(
            cluster.get(*key).expect("get post-drain").as_deref(),
            Some(value.as_slice()),
            "acked key {key} lost across the wear drain"
        );
    }

    cluster.shutdown_all();
    for h in handles {
        h.join();
    }
}

/// A node holding more than one frame of values is still scanned and
/// drained whole. The servers' frame cap is lowered to 16 KiB so ~600
/// small values exceed it; node 0 alone receives them (the writer
/// believes node 1 dead), a fresh router's merged scan returns them
/// entry for entry, and draining node 0 re-homes every one to node 1.
#[test]
fn scan_and_drain_pass_the_frame_cap() {
    const FRAME_CAP: usize = 16 * 1024;
    let handles: Vec<ServerHandle> = (0..2)
        .map(|i| {
            let config = ServerConfig::builder()
                .max_frame_body(FRAME_CAP)
                .build()
                .expect("config");
            Server::new(demo_store(2, 1024, 32, 11 + i), config)
                .start()
                .expect("server binds an ephemeral port")
        })
        .collect();
    let addrs: Vec<String> = handles.iter().map(|h| h.local_addr().to_string()).collect();

    let mut writer = cluster_over(&addrs, 2, false);
    writer.view().mark_down(1);
    let mut shadow: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for key in 0..600u64 {
        let value = format!("value-{key:04}-padded-to-28-b").into_bytes();
        writer.put(key * 7, &value).expect("put to node 0");
        shadow.insert(key * 7, value);
    }
    let expect: Vec<(u64, Vec<u8>)> = shadow.iter().map(|(k, v)| (*k, v.clone())).collect();
    let scan_body: usize = expect.iter().map(|(_, v)| 12 + v.len()).sum();
    assert!(
        scan_body > FRAME_CAP,
        "node 0 must hold more than one frame ({scan_body} B vs {FRAME_CAP} B)"
    );

    let mut cluster = cluster_over(&addrs, 2, false);
    assert_eq!(cluster.scan(0, u64::MAX).expect("merged scan"), expect);

    // Node 0 reports itself worn out; the drain re-homes all it holds.
    let worn = e2nvm_kvstore::WearSummary {
        retired_segments: 512,
        total_segments: 1024,
        ..Default::default()
    };
    assert_eq!(
        cluster.view().record_probe(0, worn, 0.02),
        NodeState::Draining
    );
    assert_eq!(cluster.drain(0).expect("drain"), expect.len());
    let mut node1 = Client::connect(&addrs[1]).expect("connect node 1");
    assert_eq!(node1.scan(0, u64::MAX, 0).expect("direct scan"), expect);

    cluster.shutdown_all();
    for h in handles {
        h.join();
    }
}

/// With every node down, operations fail with the typed cluster
/// errors — never a panic, never a silent success.
#[test]
fn all_nodes_down_yields_typed_errors() {
    let (handles, addrs) = start_servers(2);
    let mut cluster = cluster_over(&addrs, 2, false);
    cluster.put(1, b"x").expect("put while alive");
    cluster.view().mark_down(0);
    cluster.view().mark_down(1);
    match cluster.put(2, b"y") {
        Err(StoreError::Unroutable { key: 2 }) => {}
        other => panic!("expected Unroutable, got {other:?}"),
    }
    match cluster.get(1) {
        Err(StoreError::Unroutable { key: 1 }) => {}
        other => panic!("expected Unroutable, got {other:?}"),
    }

    // Servers are actually still alive; shut them down directly.
    for (addr, h) in addrs.iter().zip(handles) {
        Client::connect(addr)
            .and_then(|mut c| c.shutdown_server())
            .expect("direct shutdown");
        h.join();
    }
}
