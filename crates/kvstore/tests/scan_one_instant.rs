//! A scan sees every shard at one instant, and holding every shard's
//! engine lock to do so deadlocks with nothing.
//!
//! A writer stores version `v` under key A (routed to shard 0) and then
//! under key B (routed to shard 1), for v = 1..=N, so at every instant
//! version(A) ≥ version(B). Scanner threads read both in one scan and
//! check exactly that: a scan that released shard 0 before it walked
//! shard 1 could read an old A beside a newer B. Beside them, a third
//! thread mixes puts on other keys with `snapshot_now()`, which takes
//! every WAL lock and then the engine locks (WAL → engine) while scans
//! nest engine locks alone. Every thread reports back over a channel
//! within a deadline, so a deadlock fails the test instead of hanging
//! it.

use e2nvm_core::{E2Config, ShardedEngine};
use e2nvm_kvstore::{NvmKvStore, ShardedE2KvStore};
use e2nvm_persist::{FlushPolicy, PersistenceConfig};
use e2nvm_sim::{partition_controllers, DeviceConfig, LogicalSegment};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SEG_BYTES: usize = 32;
const SHARDS: usize = 3;
const VERSIONS: u64 = 2_000;
const SCANNERS: usize = 2;
/// Keys the snapshotting thread cycles through, far above A and B.
const OTHER_KEYS: u64 = 40;
const DEADLINE: Duration = Duration::from_secs(120);

fn persistent_store(dir: &std::path::Path) -> ShardedE2KvStore {
    let dev_cfg = DeviceConfig::builder()
        .segment_bytes(SEG_BYTES)
        .num_segments(96 * SHARDS)
        .build()
        .unwrap();
    let cfg = E2Config::builder()
        .fast(SEG_BYTES, 2)
        .pretrain_epochs(2)
        .joint_epochs(1)
        .retrain_min_free(0)
        .padding_type(e2nvm_core::PaddingType::Zero)
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(41);
    let controllers = partition_controllers(&dev_cfg, SHARDS)
        .unwrap()
        .into_iter()
        .map(|(_, mut mc)| {
            for i in 0..mc.num_segments() {
                let content: Vec<u8> = (0..SEG_BYTES).map(|_| rng.gen()).collect();
                mc.seed(LogicalSegment(i), &content).unwrap();
            }
            mc
        })
        .collect();
    let pcfg = PersistenceConfig::builder()
        .data_dir(dir)
        .flush_policy(FlushPolicy::OsOnly)
        .build()
        .unwrap();
    ShardedE2KvStore::new(ShardedEngine::train(controllers, &cfg).unwrap())
        .with_persistence(pcfg, None)
        .unwrap()
}

/// Run `body` on its own thread once every thread has reached `start`,
/// and send `(name, its outcome)` on `done` — a panic included, so a
/// failed assertion ends the test at once rather than at the deadline.
fn spawn_reporting(
    name: &'static str,
    start: &Arc<Barrier>,
    done: &mpsc::Sender<(&'static str, std::thread::Result<u64>)>,
    body: impl FnOnce() -> u64 + Send + 'static,
) -> JoinHandle<()> {
    let (start, done) = (Arc::clone(start), done.clone());
    std::thread::spawn(move || {
        start.wait();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
        // The receiver is gone only if the test already failed.
        let _ = done.send((name, outcome));
    })
}

fn version(value: &[u8]) -> u64 {
    u64::from_le_bytes(value.try_into().expect("an 8-byte version"))
}

#[test]
fn a_scan_sees_every_shard_at_one_instant_and_never_deadlocks() {
    let dir = std::env::temp_dir().join(format!("e2nvm_scan_one_instant_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut store = persistent_store(&dir);
    let first_on = |shard: usize| {
        (0u64..)
            .find(|&k| store.engine().shard_for(k) == shard)
            .unwrap()
    };
    let (a, b) = (first_on(0), first_on(1));
    let (lo, hi) = (a.min(b), a.max(b));
    let other = |i: u64| 1_000_000 + i % OTHER_KEYS;
    assert!(other(0) > hi);
    store.put(a, &0u64.to_le_bytes()).unwrap();
    store.put(b, &0u64.to_le_bytes()).unwrap();

    let writing = Arc::new(AtomicBool::new(true));
    let start = Arc::new(Barrier::new(SCANNERS + 2));
    let (done, finished) = mpsc::channel();
    let mut threads = Vec::new();

    let mut writer = store.clone();
    let flag = Arc::clone(&writing);
    threads.push(spawn_reporting("writer", &start, &done, move || {
        for v in 1..=VERSIONS {
            writer.put(a, &v.to_le_bytes()).unwrap();
            writer.put(b, &v.to_le_bytes()).unwrap();
        }
        flag.store(false, Ordering::SeqCst);
        VERSIONS
    }));

    for _ in 0..SCANNERS {
        let mut scanner = store.clone();
        let flag = Arc::clone(&writing);
        threads.push(spawn_reporting("scanner", &start, &done, move || {
            let mut scans = 0u64;
            loop {
                let still_writing = flag.load(Ordering::SeqCst);
                let (mut va, mut vb) = (None, None);
                scanner
                    .scan_visit(lo, hi, usize::MAX, &mut |k, v| {
                        if k == a {
                            va = Some(version(v));
                        } else if k == b {
                            vb = Some(version(v));
                        }
                        true
                    })
                    .unwrap();
                let (va, vb) = (va.expect("A is always stored"), vb.expect("B too"));
                assert!(va >= vb, "scan {scans} saw A at v{va} beside B at v{vb}");
                scans += 1;
                if !still_writing {
                    return scans;
                }
            }
        }));
    }

    let mut snapshotter = store.clone();
    let flag = Arc::clone(&writing);
    threads.push(spawn_reporting("snapshotter", &start, &done, move || {
        let mut snapshots = 0u64;
        let mut i = 0u64;
        while flag.load(Ordering::SeqCst) {
            snapshotter.put(other(i), &i.to_le_bytes()).unwrap();
            if i % 16 == 15 {
                snapshotter.snapshot_now().unwrap();
                snapshots += 1;
            }
            i += 1;
        }
        snapshots
    }));

    let deadline = Instant::now() + DEADLINE;
    let mut scans = 0;
    for _ in 0..threads.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        match finished.recv_timeout(left) {
            Ok(("scanner", Ok(n))) => scans += n,
            Ok((_, Ok(_))) => {}
            Ok((name, Err(_))) => panic!("the {name} thread panicked (its message is above)"),
            Err(_) => panic!("a thread did not finish within {DEADLINE:?}: deadlock"),
        }
    }
    for thread in threads {
        thread.join().expect("every outcome was caught and sent");
    }
    assert!(
        scans > SCANNERS as u64,
        "the scanners never overlapped the writer"
    );
    let mut final_a = None;
    store
        .scan_visit(a, a, 1, &mut |_, v| {
            final_a = Some(version(v));
            true
        })
        .unwrap();
    assert_eq!(final_a, Some(VERSIONS));
    std::fs::remove_dir_all(&dir).ok();
}
