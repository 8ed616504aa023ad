//! End-to-end persistence over the wire: FLUSH against live servers,
//! and a full stop/recover/re-serve cycle — a server backed by a
//! `--data-dir`-style persistent store is shut down, a second server
//! boots from the same directory via [`ShardedE2KvStore::recover`],
//! and every write acked by the first server is read back through the
//! second. The kill-path twin of this test (SIGKILL instead of a
//! graceful stop) is the bench crate's `e2nvm-loadgen --recovery`
//! drill, exercised by CI's kill-and-restart job.

use e2nvm_kvstore::ShardedE2KvStore;
use e2nvm_persist::{FlushPolicy, PersistenceConfig};
use e2nvm_server::demo::{demo_config, demo_store};
use e2nvm_server::{Client, Server, ServerConfig};
use std::path::PathBuf;

/// A unique temp dir per test (process + thread) so parallel test
/// runs never share WALs.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "e2nvm-server-persist-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn flush_is_a_documented_noop_without_persistence() {
    let store = demo_store(2, 64, 32, 11);
    let handle = Server::new(store, ServerConfig::default())
        .start()
        .expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.put(1, b"v").expect("put");
    assert_eq!(client.flush().expect("flush"), 0);
    client.shutdown_server().expect("shutdown");
    handle.join();
}

#[test]
fn acked_writes_survive_server_restart_via_recovery() {
    let dir = scratch_dir("restart");
    let pcfg = PersistenceConfig::builder()
        .data_dir(&dir)
        .flush_policy(FlushPolicy::OsOnly)
        .build()
        .unwrap();
    let e2cfg = demo_config(32, 11);

    // First incarnation: fresh store, persistence on, serve writes.
    let store = demo_store(2, 64, 32, 11)
        .with_persistence(pcfg.clone(), None)
        .expect("enable persistence");
    let handle = Server::new(store, ServerConfig::default())
        .start()
        .expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    for key in 0..24u64 {
        client
            .put(key, format!("value-{key}").as_bytes())
            .expect("put acked");
    }
    assert!(client.delete(3).expect("delete"));
    // FLUSH over the wire snapshots the store: nonzero bytes written.
    assert!(client.flush().expect("flush") > 0);
    // More writes after the snapshot land only in the WAL.
    client.put(100, b"post-snapshot").expect("put");
    client.shutdown_server().expect("shutdown");
    handle.join();
    // No drain-time snapshot here, deliberately: recovery must replay
    // the post-snapshot WAL tail, same as after a crash.

    // Second incarnation: recover instead of retraining.
    let (store, report) = ShardedE2KvStore::recover(&pcfg, &e2cfg, None)
        .expect("recovery succeeds")
        .expect("snapshot exists");
    assert_eq!(report.shards, 2);
    assert!(report.replayed_ops >= 1, "WAL tail must replay");
    let handle = Server::new(store, ServerConfig::default())
        .start()
        .expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    for key in 0..24u64 {
        let expect = (key != 3).then(|| format!("value-{key}").into_bytes());
        assert_eq!(client.get(key).expect("get"), expect, "key {key}");
    }
    assert_eq!(
        client.get(100).expect("get"),
        Some(b"post-snapshot".to_vec())
    );
    client.shutdown_server().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}
