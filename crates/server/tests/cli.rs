//! The `e2nvm-server` binary refuses a command line it does not fully
//! understand: a removed or misspelt flag, a value that does not
//! parse, a segment width the engine cannot serve, or a geometry the
//! demo store cannot be built over, exits 2 with a usage line instead
//! of booting on defaults.
//! A `--data-dir` it cannot recover from is refused too, with exit 1
//! and the directory untouched. A flag it does understand takes
//! effect: `--cache-mb` alone turns the cache on.

use e2nvm_server::Client;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

/// Run the server binary with `args`; it must exit 2, say why on
/// stderr, never reach the `listening on` banner, and never panic.
fn assert_rejected(args: &[&str], complaint: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_e2nvm-server"))
        .args(args)
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("run e2nvm-server");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(
        !stdout.contains("listening on"),
        "{args:?} booted: {stdout}"
    );
    assert!(stderr.contains(complaint), "{args:?}: stderr {stderr}");
    assert!(stderr.contains("usage: e2nvm-server"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: stderr {stderr}");
}

#[test]
fn removed_engine_flag_is_rejected() {
    assert_rejected(&["--threaded"], "unknown flag \"--threaded\"");
    assert_rejected(&["--workers", "2"], "unknown flag \"--workers\"");
    assert_rejected(&["--cache"], "unknown flag \"--cache\"");
    assert_rejected(
        &["--fault-endurance", "6000"],
        "unknown flag \"--fault-endurance\"",
    );
}

#[test]
fn unparsable_number_is_rejected() {
    assert_rejected(&["--segments", "2k"], "invalid value \"2k\" for --segments");
}

/// A segment width the engine config refuses — none, or wider than the
/// model's `u16` input indices reach — is a usage error, not a panic in
/// training.
#[test]
fn unservable_segment_width_is_rejected() {
    assert_rejected(
        &["--seg-bytes", "8193"],
        "invalid value \"8193\" for --seg-bytes",
    );
    assert_rejected(&["--seg-bytes", "0"], "invalid value \"0\" for --seg-bytes");
}

/// A geometry the demo store cannot be built over — a segment width
/// the device refuses, no shards, fewer segments than shards — is a
/// usage error, not a panic while the store is built.
#[test]
fn unbuildable_geometry_is_rejected_not_a_crash() {
    let cases: [(&[&str], &str); 3] = [
        (
            &["--seg-bytes", "100", "--segments", "64", "--shards", "1"],
            "must be a multiple of cache_line_bytes",
        ),
        (
            &["--shards", "0", "--segments", "64"],
            "shards must be >= 1",
        ),
        (
            &["--segments", "3", "--shards", "4"],
            "cannot split 3 segments into 4 shards",
        ),
    ];
    for (args, complaint) in cases {
        assert_rejected(args, complaint);
    }
}

#[test]
fn unknown_flush_policy_is_rejected() {
    assert_rejected(
        &["--flush-policy", "sometimes"],
        "invalid value \"sometimes\" for --flush-policy",
    );
}

#[test]
fn missing_value_is_rejected() {
    assert_rejected(&["--segments"], "--segments requires a value");
}

/// A snapshot the server cannot read — cut short, or with a body its
/// checksum does not match — ends the boot with one line on stderr and
/// exit status 1: not a panic (101), not a usage error (2), and
/// nothing in the data dir changes.
#[test]
fn unrecoverable_data_dir_is_refused_not_a_crash() {
    let cases: [(&str, &[u8]); 2] = [("truncated", b"E2S"), ("corrupt", &[0xA5; 64])];
    for (tag, snapshot) in cases {
        let dir =
            std::env::temp_dir().join(format!("e2nvm-server-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create data dir");
        let snapshot_path = dir.join("snapshot.e2s");
        std::fs::write(&snapshot_path, snapshot).expect("write snapshot");

        let out = Command::new(env!("CARGO_BIN_EXE_e2nvm-server"))
            .args(["--shards", "1", "--segments", "64", "--seg-bytes", "32"])
            .arg("--data-dir")
            .arg(&dir)
            .env("RUST_BACKTRACE", "1")
            .output()
            .expect("run e2nvm-server");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tag}: stderr {stderr}");
        assert!(!stdout.contains("listening on"), "{tag} booted: {stdout}");
        assert!(
            stderr.contains(&format!("error: cannot recover from {}", dir.display())),
            "{tag}: stderr {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{tag}: stderr {stderr}");
        assert!(
            !stderr.contains("stack backtrace"),
            "{tag}: stderr {stderr}"
        );

        let entries: Vec<_> = std::fs::read_dir(&dir)
            .expect("read data dir")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        assert_eq!(entries, ["snapshot.e2s"], "{tag}: data dir changed");
        assert_eq!(
            std::fs::read(&snapshot_path).expect("read snapshot"),
            snapshot,
            "{tag}: snapshot changed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Kills the server if the test fails before its SHUTDOWN.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn cache_mb_alone_turns_the_cache_on() {
    let child = Command::new(env!("CARGO_BIN_EXE_e2nvm-server"))
        .args(["--shards", "1", "--segments", "256", "--seg-bytes", "32"])
        .args(["--cache-mb", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn e2nvm-server");
    let mut server = KillOnDrop(child);
    // Kept open until the server exits: it prints a farewell line.
    let mut stdout = BufReader::new(server.0.stdout.take().expect("child stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read server banner");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected server banner {banner:?}"));

    let mut client = Client::connect(addr).expect("connect");
    let metrics = client.metrics().expect("METRICS frame");
    assert!(
        metrics.contains("e2nvm_cache_"),
        "no cache series with --cache-mb 1:\n{metrics}"
    );
    client.shutdown_server().expect("SHUTDOWN acked");
    let status = server.0.wait().expect("server exits");
    assert!(status.success(), "server exited with {status}");
}
