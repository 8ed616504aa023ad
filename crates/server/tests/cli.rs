//! The `e2nvm-server` binary refuses a command line it does not fully
//! understand: a removed or misspelt flag, or a value that does not
//! parse, exits 2 with a usage line instead of booting on defaults.

use std::process::Command;

/// Run the server binary with `args`; it must exit 2, say why on
/// stderr, and never reach the `listening on` banner.
fn assert_rejected(args: &[&str], complaint: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_e2nvm-server"))
        .args(args)
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
}

#[test]
fn removed_engine_flag_is_rejected() {
    assert_rejected(&["--threaded"], "unknown flag \"--threaded\"");
}

#[test]
fn unparsable_number_is_rejected() {
    assert_rejected(&["--segments", "2k"], "invalid value \"2k\" for --segments");
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
    assert_rejected(&["--fault-endurance"], "--fault-endurance requires a value");
}
