//! The two kill drills for `e2nvm-server` — the scenarios a
//! one-process benchmark cannot express, because they need *separate*
//! server processes to SIGKILL. Throughput, latency and per-layer cost
//! are `benchmark/`'s job; this binary only answers "is an acked write
//! ever lost?".
//!
//! With `--recovery` it runs the kill-and-restart drill: boot an
//! `e2nvm-server` process with `--data-dir`, drive an acked PUT burst,
//! SIGKILL the server with the last batch in flight, restart it from
//! the same directory, and verify every acked write reads back —
//! printing the CI-checkable line `acked writes recovered: A/A
//! (lost 0)`. It also times recovery boot against retrain-from-scratch
//! boot (`recovery speedup: N.Nx`).
//!
//! With `--cluster` it runs the two failover drills: boot three
//! `e2nvm-server` processes, route over them with `e2nvm-cluster`
//! (R=2 replication), then (1) SIGKILL one server mid-burst and (2)
//! wear one server's simulated device out (`--fault-endurance`) until
//! the health prober drains it — in both cases verifying that every
//! acked write reads back and printing the CI-checkable `(lost 0)`
//! lines, with before/after routing tables and wear counters.
//!
//! Run: `cargo run -p e2nvm-bench --release --bin e2nvm-loadgen --
//! --recovery` (or `--cluster`). The full drill writes
//! `results/recovery.md` / `results/cluster_failover.md`; `--quick`
//! runs a CI-sized burst and prints the same report to stdout instead,
//! so it leaves the tree clean. Any other flag exits 2 with a usage
//! line.

use e2nvm_cluster::{ClusterClient, ClusterConfig, NodeState};
use e2nvm_kvstore::NvmKvStore as _;
use e2nvm_server::frame::{encode_request, Request, Status};
use e2nvm_server::Client;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: e2nvm-loadgen (--recovery | --cluster) [--quick]";

/// Reject the command line: say why, print the usage line, exit 2.
fn usage_exit(msg: &str) -> ! {
    eprintln!("e2nvm-loadgen: {msg}\n{USAGE}");
    std::process::exit(2);
}

// Store geometry of every drilled server (bar the fixed wear-drill
// nodes) and the recovery burst's pipeline depth.
const SHARDS: usize = 4;
const SEG_BYTES: usize = 64;
const VALUE_LEN: usize = SEG_BYTES * 3 / 4;
const PIPELINE: usize = 16;

/// Segments per server; the bursts cycle over a quarter as many keys.
fn segments(quick: bool) -> usize {
    if quick {
        256
    } else {
        2048
    }
}

/// The sibling `e2nvm-server` binary built alongside this loadgen.
fn server_exe() -> std::path::PathBuf {
    let exe = std::env::current_exe().expect("current exe");
    let path = exe
        .parent()
        .expect("exe dir")
        .join(format!("e2nvm-server{}", std::env::consts::EXE_SUFFIX));
    assert!(
        path.exists(),
        "e2nvm-server binary not found at {} — build it first \
         (cargo build -p e2nvm-server)",
        path.display()
    );
    path
}

/// A spawned out-of-process server: the child, its bound address, the
/// boot time in seconds (spawn → `listening on` banner), and the kept
/// stdout reader — dropping the pipe early would hand the server a
/// SIGPIPE/EPIPE on its own shutdown prints.
struct SpawnedServer {
    child: Child,
    addr: SocketAddr,
    boot_s: f64,
    _stdout: std::io::BufReader<ChildStdout>,
}

/// A drill that panics between spawn and its final `wait()` must not
/// leave servers listening forever. Both calls are no-ops on a child
/// that was already reaped.
impl Drop for SpawnedServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// An `e2nvm-server` command line on an ephemeral loopback port with
/// explicit store geometry.
fn server_cmd(shards: usize, segments: usize) -> Command {
    let mut cmd = Command::new(server_exe());
    cmd.arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--shards")
        .arg(shards.to_string())
        .arg("--segments")
        .arg(segments.to_string())
        .arg("--seg-bytes")
        .arg(SEG_BYTES.to_string());
    cmd
}

/// Launch a prepared server command and block until its
/// `listening on ADDR` banner, timing spawn-to-banner as the boot.
fn spawn_banner(mut cmd: Command) -> SpawnedServer {
    use std::io::BufRead as _;
    cmd.stdout(Stdio::piped()).stderr(Stdio::inherit());
    let t0 = Instant::now();
    let mut child = cmd.spawn().expect("spawn e2nvm-server");
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("child stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read server banner");
    let boot_s = t0.elapsed().as_secs_f64();
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected server banner {banner:?}"))
        .parse()
        .expect("server address");
    SpawnedServer {
        child,
        addr,
        boot_s,
        _stdout: stdout,
    }
}

/// Deterministic value for burst op `i` — reproducible across the
/// kill so the verifier knows exactly what each acked key must hold.
fn burst_value(i: usize) -> Vec<u8> {
    let seed = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    seed.to_le_bytes()
        .iter()
        .copied()
        .cycle()
        .take(VALUE_LEN)
        .collect()
}

/// Print how many of `total` acked keys read back, under the
/// CI-checked `label`.
fn print_recovered(label: &str, total: usize, lost: usize) {
    println!("{label}: {}/{total} (lost {lost})", total - lost);
}

/// The full drill records its report under `results/`; `--quick`
/// prints it, so a CI or local smoke run leaves the tree clean.
fn emit_report(quick: bool, path: &str, md: &str) {
    if quick {
        print!("{md}");
        return;
    }
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write(path, md).expect("write the report");
    eprintln!("wrote {path}");
}

// ---------------------------------------------------------------------
// Kill-and-restart recovery drill (`--recovery`).
// ---------------------------------------------------------------------

/// Spawn a persistent server on `data_dir`. The boot time is the
/// train-from-scratch time on an empty directory and the
/// snapshot+WAL-replay time on a populated one.
fn spawn_persistent(quick: bool, ops: usize, data_dir: &std::path::Path) -> SpawnedServer {
    let mut cmd = server_cmd(SHARDS, segments(quick));
    cmd.arg("--data-dir")
        .arg(data_dir)
        // Periodic snapshots bound the WAL tail a crash leaves behind
        // (and therefore the replay a restart pays) to ~1/6 of the
        // burst — the production knob this drill exists to size.
        .arg("--snapshot-every")
        .arg((ops / 6).to_string());
    spawn_banner(cmd)
}

/// The `--recovery` drill: fresh boot → acked PUT burst → SIGKILL
/// mid-burst → restart from the data dir → verify every acked write →
/// report the boot-time speedup.
fn run_recovery(quick: bool) {
    let ops = if quick { 800 } else { 12_000 };
    let keyspace = (segments(quick) / 4) as u64;
    let data_dir = std::env::temp_dir().join(format!("e2nvm-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);

    // Phase 1: fresh boot on an empty directory — the server trains
    // its placement models from scratch and seeds the snapshot. This
    // boot time is what every restart would cost without persistence.
    eprintln!("== phase 1: fresh boot (train from scratch) ==");
    let mut server = spawn_persistent(quick, ops, &data_dir);
    let fresh_boot_s = server.boot_s;
    eprintln!("fresh boot (retrain): {:.0} ms", fresh_boot_s * 1e3);

    // Phase 2: acked PUT burst, SIGKILL with the last batch in
    // flight. A write counts as acked only when its OK response was
    // read off the socket — exactly the client's durability contract.
    let mut client = Client::connect(server.addr).expect("connect for burst");
    let plan: Vec<(u64, Vec<u8>)> = (0..ops)
        .map(|i| (i as u64 % keyspace, burst_value(i)))
        .collect();
    let batches: Vec<&[(u64, Vec<u8>)]> = plan.chunks(PIPELINE).collect();
    let kill_at = batches.len() - 1;
    let mut shadow: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut acked_ops = 0usize;
    for (bi, batch) in batches.iter().enumerate() {
        let mut encoded = Vec::with_capacity(batch.len() * (VALUE_LEN + 24));
        for (key, value) in batch.iter() {
            encode_request(
                &Request::Put {
                    key: *key,
                    value: value.clone(),
                },
                &mut encoded,
            );
        }
        if client.send_encoded(&encoded).is_err() {
            break; // server already gone
        }
        if bi == kill_at {
            // The batch is on the wire and unacknowledged: the server
            // dies with writes in flight.
            server.child.kill().expect("SIGKILL server");
        }
        let mut oks: Vec<bool> = Vec::with_capacity(batch.len());
        let res = client.recv_frames(batch.len(), |raw| oks.push(raw.code == Status::Ok as u8));
        for ((key, value), ok) in batch.iter().zip(&oks) {
            if *ok {
                shadow.insert(*key, value.clone());
                acked_ops += 1;
            }
        }
        if res.is_err() {
            break; // connection died mid-drain; only drained acks count
        }
    }
    drop(client);
    server.child.wait().expect("reap killed server");
    drop(server);
    eprintln!(
        "burst: {ops} puts sent, {acked_ops} acked before SIGKILL ({} distinct keys)",
        shadow.len()
    );
    assert!(
        acked_ops > 0,
        "no writes acked before the kill — burst too small"
    );

    // Phase 3: restart from the same directory and verify every acked
    // write. Boot must recover (snapshot + WAL replay), not retrain.
    eprintln!("== phase 2: restart from {} ==", data_dir.display());
    let mut server = spawn_persistent(quick, ops, &data_dir);
    let recovery_boot_s = server.boot_s;
    eprintln!("recovery boot: {:.0} ms", recovery_boot_s * 1e3);
    let mut verify = Client::connect(server.addr).expect("connect for verify");
    let keys: Vec<u64> = shadow.keys().copied().collect();
    let mut lost = 0usize;
    for chunk in keys.chunks(256) {
        let got = verify.get_many(chunk).expect("verify get_many");
        for (key, value) in chunk.iter().zip(got) {
            if value.as_deref() != Some(shadow[key].as_slice()) {
                eprintln!("LOST acked key {key}");
                lost += 1;
            }
        }
    }
    print_recovered("acked writes recovered", keys.len(), lost);
    verify.shutdown_server().expect("shutdown recovered server");
    drop(verify);
    server.child.wait().expect("recovered server exits");
    drop(server);
    let speedup = fresh_boot_s / recovery_boot_s;
    println!("recovery speedup: {speedup:.1}x (retrain {fresh_boot_s:.3}s vs recover {recovery_boot_s:.3}s)");

    // The report.
    let mut md = String::from("# Crash recovery: kill-and-restart with WAL + snapshots\n\n");
    md.push_str(&format!(
        "`e2nvm-loadgen --recovery` against an out-of-process {SHARDS}-shard `e2nvm-server` \
         ({} segments x {SEG_BYTES} B, {VALUE_LEN}-byte values, pipeline depth {PIPELINE}, \
         default flush policy): boot with `--data-dir`, drive {ops} acked PUTs, SIGKILL the \
         server with the final batch in flight, restart from the same directory, and read \
         back every acked write. A write counts as acked only when its OK response was read \
         off the socket; the server appends to the per-shard WAL (one `write(2)` per batch, \
         before the ack) so a killed process can never lose an acked write under any flush \
         policy.\n\n",
        segments(quick),
    ));
    md.push_str("| metric | value |\n|---|---:|\n");
    md.push_str(&format!(
        "| puts acked before SIGKILL | {acked_ops} ({} distinct keys) |\n",
        keys.len()
    ));
    md.push_str(&format!(
        "| acked writes recovered | {}/{} (lost {lost}) |\n",
        keys.len() - lost,
        keys.len()
    ));
    md.push_str(&format!(
        "| retrain-from-scratch boot | {:.0} ms |\n",
        fresh_boot_s * 1e3
    ));
    md.push_str(&format!(
        "| snapshot+WAL recovery boot | {:.0} ms |\n",
        recovery_boot_s * 1e3
    ));
    md.push_str(&format!("| recovery speedup | {speedup:.1}x |\n"));
    md.push_str(
        "\nBoot times are spawn-to-`listening` of the real binary from a single run, so \
         both include process startup; the speedup is therefore a *lower* bound on the \
         model-retraining saving. What the WAL costs a PUT is not measured here: it is \
         the benchmark's `wal.append_commit_ns_per_put` and `wal.commits_per_put` \
         (benchmark/README.md), taken on the route every client gets.\n",
    );
    emit_report(quick, "results/recovery.md", &md);

    let _ = std::fs::remove_dir_all(&data_dir);
    assert_eq!(lost, 0, "recovery lost {lost} acked writes");
}

// ---------------------------------------------------------------------
// Cluster failover drills (`--cluster`).
// ---------------------------------------------------------------------

/// Spawn a memory-only cluster node and, for the wear-out drill, the
/// simulator's fault injector (`--fault-endurance`/`--fault-seed`).
fn spawn_cluster_node(shards: usize, segments: usize, fault: Option<(u64, u64)>) -> SpawnedServer {
    let mut cmd = server_cmd(shards, segments);
    if let Some((endurance_bits, seed)) = fault {
        cmd.arg("--fault-endurance")
            .arg(endurance_bits.to_string())
            .arg("--fault-seed")
            .arg(seed.to_string());
    }
    spawn_banner(cmd)
}

/// Read every shadowed key back through the router; returns how many
/// acked writes did not verify.
fn count_lost(cluster: &mut ClusterClient, shadow: &BTreeMap<u64, Vec<u8>>, what: &str) -> usize {
    let mut lost = 0usize;
    for (key, value) in shadow {
        if cluster.get(*key).expect("verify get").as_deref() != Some(value.as_slice()) {
            eprintln!("LOST acked key {key}{what}");
            lost += 1;
        }
    }
    lost
}

/// The `--cluster` drills: three out-of-process servers behind an
/// `e2nvm-cluster` router, R=2 replication. Drill 1 SIGKILLs a node
/// mid-burst; drill 2 wears a node's simulated device out until the
/// health prober drains it. Both verify every acked write reads back
/// (the CI-checkable `(lost 0)` lines) and snapshot the routing table
/// before and after the event.
fn run_cluster(quick: bool) {
    const REPLICATION: usize = 2;
    // Cluster puts are synchronous R-way fan-outs, so the burst is
    // smaller than the single-server one.
    let ops = if quick { 600 } else { 6_000 };
    let keyspace = (segments(quick) / 4) as u64;

    // ------ Experiment 1: SIGKILL a node mid-burst ------
    eprintln!("== cluster experiment 1: SIGKILL a node mid-burst ==");
    let mut servers: Vec<SpawnedServer> = (0..3)
        .map(|_| spawn_cluster_node(SHARDS, segments(quick), None))
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.addr.to_string()).collect();
    let cfg = ClusterConfig::builder()
        .addrs(addrs.iter().cloned())
        .replication(REPLICATION)
        .probe_interval(Duration::from_millis(100))
        .build()
        .expect("cluster config");
    let mut cluster = ClusterClient::connect(cfg);

    let mut shadow: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let kill_at = ops / 2;
    let victim = 1usize;
    let mut kill_before = String::new();
    for i in 0..ops {
        if i == kill_at {
            // Give the prober one pass so the "before" table carries
            // live key/wear counts, then hard-kill the victim with
            // the burst still running.
            std::thread::sleep(Duration::from_millis(250));
            kill_before = cluster.routing_table();
            servers[victim].child.kill().expect("SIGKILL cluster node");
            servers[victim].child.wait().expect("reap killed node");
            eprintln!(
                "SIGKILLed node {victim} ({}) after {i} acked puts",
                addrs[victim]
            );
        }
        let key = i as u64 % keyspace;
        let value = burst_value(i);
        // Full-set acks: a put returns Ok only when every replica
        // acknowledged. A single node kill must never fail a write —
        // the router re-walks the ring onto the survivors.
        cluster
            .put(key, &value)
            .expect("replicated put survives a single node kill");
        shadow.insert(key, value);
    }
    let lost = count_lost(&mut cluster, &shadow, "");
    assert_eq!(
        cluster.view().state(victim),
        NodeState::Down,
        "router never marked the killed node down"
    );
    let kill_after = cluster.routing_table();
    let kill_stats = cluster.cluster_stats().snapshot();
    print_recovered("acked writes recovered", shadow.len(), lost);
    cluster.shutdown_all();
    drop(cluster);
    for (i, mut s) in servers.into_iter().enumerate() {
        if i != victim {
            s.child.wait().expect("cluster node exits");
        }
    }

    // ------ Experiment 2: wear a node out, drain before it dies ------
    eprintln!("== cluster experiment 2: wear-driven drain ==");
    // Node 0 runs on a simulated device with a tiny endurance budget;
    // nodes 1 and 2 are effectively immortal. Geometry is fixed
    // (independent of --quick) so the wear-fraction math —
    // retired/total crossing the 2% drain threshold — is reproducible
    // at either burst size.
    let wear_victim = 0usize;
    let servers: Vec<SpawnedServer> = (0..3usize)
        .map(|i| {
            if i == wear_victim {
                spawn_cluster_node(2, 128, Some((6_000, 0xFA57)))
            } else {
                spawn_cluster_node(2, 256, None)
            }
        })
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.addr.to_string()).collect();
    let cfg = ClusterConfig::builder()
        .addrs(addrs.iter().cloned())
        .replication(REPLICATION)
        .probe_interval(Duration::from_millis(100))
        .wear_drain_threshold(0.02)
        .build()
        .expect("cluster config");
    let mut shadow2: BTreeMap<u64, Vec<u8>> = BTreeMap::new();

    // Seed under-replicated keys: a router that believes both peers
    // are down writes through node 0 alone (the ring walk yields the
    // one reachable node, and full-set acks degrade to that set).
    // These are exactly the keys the drain exists for — they survive
    // node 0's death only if the drain re-homes them to the replicas.
    let mut degraded = ClusterClient::connect(
        ClusterConfig::builder()
            .addrs(addrs.iter().cloned())
            .replication(REPLICATION)
            .probing(false)
            .build()
            .expect("degraded router config"),
    );
    degraded.view().mark_down(1);
    degraded.view().mark_down(2);
    for key in 200..216u64 {
        let value = format!("only-on-node0-{key}").into_bytes();
        degraded
            .put(key, &value)
            .expect("degraded-topology put to the lone reachable node");
        shadow2.insert(key, value);
    }
    drop(degraded);

    let mut cluster = ClusterClient::connect(cfg);
    std::thread::sleep(Duration::from_millis(250));
    let wear_before = cluster.routing_table();

    // Dense overwrites burn node 0's endurance; keep writing until
    // the prober flips it to draining (or give up and fail).
    let mut drained_round = None;
    'wear: for round in 0..600u64 {
        for i in 0..8u64 {
            let key = (round * 8 + i) % 64;
            let value: Vec<u8> = (0..48)
                .map(|j| ((key ^ round).wrapping_mul(0x9E37) as u8).wrapping_add(j))
                .collect();
            cluster.put(key, &value).expect("replicated put under wear");
            shadow2.insert(key, value);
        }
        if cluster.view().state(wear_victim) == NodeState::Draining {
            drained_round = Some(round);
            break 'wear;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let drained_round = drained_round.expect(
        "the prober never flipped the wearing node to draining — endurance budget too large?",
    );
    // The dying device's wear counters at the moment of the drain
    // decision, straight from its HEALTH frame.
    let wear_at_drain = Client::connect(&addrs[wear_victim])
        .and_then(|mut c| c.health())
        .expect("probe the worn node directly");
    eprintln!(
        "node {wear_victim} hit the drain threshold in round {drained_round}: \
         {}/{} segments retired",
        wear_at_drain.retired_segments, wear_at_drain.total_segments
    );
    let rehomed = cluster.run_pending_drains().expect("drain re-homes keys");
    eprintln!("drain re-homed {rehomed} keys off node {wear_victim}");

    // Post-drain: new writes route around the draining node, and the
    // whole shadow — pre-drain and post-drain keys — must verify.
    for key in 100..140u64 {
        let value = format!("post-drain-{key}").into_bytes();
        cluster.put(key, &value).expect("put post-drain");
        shadow2.insert(key, value);
    }
    let lost2 = count_lost(&mut cluster, &shadow2, " across the wear drain");
    let wear_after = cluster.routing_table();
    let wear_stats = cluster.cluster_stats().snapshot();
    print_recovered(
        "acked writes recovered after wear drain",
        shadow2.len(),
        lost2,
    );
    cluster.shutdown_all();
    drop(cluster);
    for mut s in servers {
        s.child.wait().expect("cluster node exits");
    }

    // The report.
    let mut md = String::from("# Cluster failover: kill-a-server and wear-out-a-server\n\n");
    md.push_str(&format!(
        "`e2nvm-loadgen --cluster` boots three out-of-process `e2nvm-server`s and routes \
         over them with `e2nvm-cluster` (consistent-hash ring, R={REPLICATION} \
         replication, health probes every 100 ms). A write counts as acked only when \
         every node in its replica set acknowledged it, so the acceptance bar is \
         absolute: after either failure, **every** acked write must read back through \
         the survivors.\n\n"
    ));
    md.push_str(
        "Methodology: puts are synchronous R-way fan-outs through one router; values \
         are deterministic functions of the op index, so the verifier knows exactly \
         what every acked key must hold. Routing tables snapshot the router's live \
         view — `state` is what the router routes by; `keys` and `retired/total` come \
         from each server's HEALTH frame, so a just-killed node shows its last \
         successful probe.\n\n",
    );

    md.push_str("## Experiment 1 — SIGKILL a node mid-burst\n\n");
    md.push_str(&format!(
        "{ops} acked puts over a {keyspace}-key keyspace ({VALUE_LEN}-byte values); node \
         {victim} is SIGKILLed after {kill_at} puts with the burst still running. The \
         router sees the dead socket, marks the node down, re-walks the ring, and \
         retries — no put fails, and every key stays replicated among the \
         survivors.\n\nRouting before the kill:\n\n",
    ));
    md.push_str(&kill_before);
    md.push_str("\nRouting after the kill and verification:\n\n");
    md.push_str(&kill_after);
    md.push_str(&format!(
        "\n| metric | value |\n|---|---:|\n\
         | puts acked | {ops} ({} distinct keys) |\n\
         | acked writes recovered | {}/{} (lost {lost}) |\n\
         | nodes marked down | {} |\n\
         | replica write failovers | {} |\n\n",
        shadow.len(),
        shadow.len() - lost,
        shadow.len(),
        kill_stats.nodes_marked_down,
        kill_stats.replica_write_failures,
    ));

    md.push_str("## Experiment 2 — wear-driven drain before device death\n\n");
    md.push_str(&format!(
        "Node {wear_victim} runs on a simulated device with a deterministic ~6000-bit \
         endurance budget (128 x 64 B segments); its peers are effectively immortal. \
         Before the wear burst, 16 deliberately under-replicated keys are written \
         through a degraded-topology router that could only reach node {wear_victim} — \
         the keys whose survival genuinely depends on the dying device. Dense \
         overwrites then retire its segments until the health prober sees the wear \
         fraction cross the 2% drain threshold and flips the node to `draining`: writes \
         stop routing to it immediately, reads continue, and the drain pass re-homes \
         exactly those dependent keys to the replicas (fully-replicated keys are \
         skipped — a healthy copy is always at least as new) — all *before* the device \
         fails.\n\nRouting before the drain:\n\n"
    ));
    md.push_str(&wear_before);
    md.push_str("\nRouting after the drain and verification:\n\n");
    md.push_str(&wear_after);
    md.push_str(&format!(
        "\n| metric | value |\n|---|---:|\n\
         | rounds until the drain triggered | {drained_round} |\n\
         | worn node at drain time | {}/{} segments retired |\n\
         | under-replicated keys seeded | 16 |\n\
         | keys re-homed by the drain | {rehomed} |\n\
         | read repairs | {} |\n\
         | acked writes recovered | {}/{} (lost {lost2}) |\n\n",
        wear_at_drain.retired_segments,
        wear_at_drain.total_segments,
        wear_stats.read_repairs,
        shadow2.len() - lost2,
        shadow2.len(),
    ));
    md.push_str(
        "Both experiments hold the same invariant the single-server recovery \
         experiment holds for crashes: an acked write is never lost. Here the \
         mechanism is replication and routing rather than a WAL — the kill case \
         proves reactive failover (promotion on transport failure), the wear case \
         proves *proactive* failover (the paper's endurance failure mode, caught by \
         telemetry and drained before the device dies).\n",
    );
    emit_report(quick, "results/cluster_failover.md", &md);

    assert_eq!(lost, 0, "kill experiment lost {lost} acked writes");
    assert_eq!(lost2, 0, "wear experiment lost {lost2} acked writes");
}

fn main() {
    let (mut recovery, mut cluster, mut quick) = (false, false, false);
    for flag in std::env::args().skip(1) {
        match flag.as_str() {
            "--recovery" => recovery = true,
            "--cluster" => cluster = true,
            "--quick" => quick = true,
            other => usage_exit(&format!("unknown flag {other:?}")),
        }
    }
    match (recovery, cluster) {
        (true, false) => run_recovery(quick),
        (false, true) => run_cluster(quick),
        _ => usage_exit("pick exactly one of --recovery and --cluster"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A drill that panics after spawning must not orphan its server:
    /// unwinding drops the `SpawnedServer`, which kills and reaps the
    /// child. The stand-in child prints the banner and then idles.
    #[test]
    fn panicking_drill_leaves_no_child_behind() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo listening on 127.0.0.1:1; exec sleep 600"]);
        let server = spawn_banner(cmd);
        let proc_entry = format!("/proc/{}", server.child.id());
        assert!(std::path::Path::new(&proc_entry).exists());
        let drill = std::panic::catch_unwind(move || {
            let _server = server;
            panic!("replicated put survives a single node kill");
        });
        assert!(drill.is_err());
        assert!(
            !std::path::Path::new(&proc_entry).exists(),
            "spawned child outlived the panicking drill"
        );
    }
}
