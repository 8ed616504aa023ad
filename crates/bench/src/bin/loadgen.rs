//! The kill-and-restart drill for `e2nvm-server` — a scenario a
//! one-process benchmark cannot express, because it needs a *separate*
//! server process to SIGKILL. Throughput, latency and per-layer cost
//! are `benchmark/`'s job; this binary only answers "is an acked write
//! ever lost?".
//!
//! With `--recovery` it boots an `e2nvm-server` process with
//! `--data-dir`, drives an acked PUT burst, SIGKILLs the server with
//! the last batch in flight, restarts it from the same directory, and
//! verifies every acked write reads back — printing the CI-checkable
//! line `acked writes recovered: A/A (lost 0)`. It also times recovery
//! boot against retrain-from-scratch boot (`recovery speedup: N.Nx`).
//!
//! Run: `cargo run -p e2nvm-bench --release --bin e2nvm-loadgen --
//! --recovery`. The full drill writes `results/recovery.md`; `--quick`
//! runs a CI-sized burst and prints the same report to stdout instead,
//! so it leaves the tree clean. Any other flag exits 2 with a usage
//! line.

use e2nvm_server::frame::{encode_request, Request, Status};
use e2nvm_server::Client;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

const USAGE: &str = "usage: e2nvm-loadgen --recovery [--quick]";

/// Reject the command line: say why, print the usage line, exit 2.
fn usage_exit(msg: &str) -> ! {
    eprintln!("e2nvm-loadgen: {msg}\n{USAGE}");
    std::process::exit(2);
}

// Store geometry of the drilled server and the burst's pipeline depth.
const SHARDS: usize = 4;
const SEG_BYTES: usize = 64;
const VALUE_LEN: usize = SEG_BYTES * 3 / 4;
const PIPELINE: usize = 16;

/// Segments of the drilled server; the burst cycles over a quarter as
/// many keys.
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

/// Spawn a persistent server on `data_dir`. The boot time is the
/// train-from-scratch time on an empty directory and the
/// snapshot+WAL-replay time on a populated one.
fn spawn_persistent(quick: bool, ops: usize, data_dir: &std::path::Path) -> SpawnedServer {
    let mut cmd = Command::new(server_exe());
    cmd.arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--shards")
        .arg(SHARDS.to_string())
        .arg("--segments")
        .arg(segments(quick).to_string())
        .arg("--seg-bytes")
        .arg(SEG_BYTES.to_string())
        .arg("--data-dir")
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
    println!(
        "acked writes recovered: {}/{} (lost {lost})",
        keys.len() - lost,
        keys.len()
    );
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
    // The full drill records its report; `--quick` prints it, so a CI
    // or local smoke run leaves the tree clean.
    if quick {
        print!("{md}");
    } else {
        std::fs::create_dir_all("results").expect("create results/");
        std::fs::write("results/recovery.md", &md).expect("write the report");
        eprintln!("wrote results/recovery.md");
    }

    let _ = std::fs::remove_dir_all(&data_dir);
    assert_eq!(lost, 0, "recovery lost {lost} acked writes");
}

fn main() {
    let (mut recovery, mut quick) = (false, false);
    for flag in std::env::args().skip(1) {
        match flag.as_str() {
            "--recovery" => recovery = true,
            "--quick" => quick = true,
            other => usage_exit(&format!("unknown flag {other:?}")),
        }
    }
    if !recovery {
        usage_exit("--recovery is required");
    }
    run_recovery(quick);
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
            panic!("recovery lost 1 acked writes");
        });
        assert!(drill.is_err());
        assert!(
            !std::path::Path::new(&proc_entry).exists(),
            "spawned child outlived the panicking drill"
        );
    }
}
