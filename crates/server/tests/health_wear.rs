//! The HEALTH frame's early-warning contract: a server wearing its
//! device out must make that wear *observable through the HEALTH probe*
//! while it is still serving writes — i.e. before the pool depletes and
//! the only signal left is a hard error. This is what lets an operator
//! polling HEALTH act ahead of the failure instead of reacting to it.

use e2nvm_server::demo::demo_store_with_fault;
use e2nvm_server::{Client, Server, ServerConfig, ServerHandle};
use e2nvm_sim::FaultConfig;
use e2nvm_telemetry::TelemetryRegistry;

/// Boot a reactor server over a device with a deliberately tiny
/// endurance budget so segments retire within a few hundred writes.
/// Telemetry is registered so the wear gauges show up in the METRICS
/// exposition.
fn start_wearing_server() -> (ServerHandle, TelemetryRegistry) {
    let store = demo_store_with_fault(
        4,
        192,
        64,
        7,
        Some(FaultConfig {
            seed: 0xFA_57,
            endurance_bits: 8_000,
            ..FaultConfig::default()
        }),
    );
    let registry = TelemetryRegistry::new();
    let handle = Server::new(store, ServerConfig::default())
        .with_telemetry(&registry)
        .start()
        .expect("server binds an ephemeral port");
    (handle, registry)
}

/// Dense pseudo-random values burn programmed bits fast.
fn burn_value(i: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| {
            let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(j as u64);
            (x ^ (x >> 31)) as u8
        })
        .collect()
}

/// Write bursts against the faulted server until either wear shows up
/// through HEALTH or the device hard-fails; returns the retired count
/// last observed while writes were still succeeding.
fn burn_until_wear_visible(client: &mut Client) -> (u64, bool) {
    let mut wear_seen_while_healthy = 0u64;
    let mut depleted = false;
    'outer: for burst in 0..400u64 {
        for i in 0..16u64 {
            let key = (burst * 16 + i) % 48;
            let value = burn_value(burst * 16 + i, 60);
            match client.put(key, &value) {
                Ok(()) => {}
                Err(e) => {
                    // The first hard failure ends the burn: any wear
                    // the probe showed before this point was, by
                    // construction, pre-depletion.
                    depleted = true;
                    let msg = e.to_string();
                    assert!(
                        msg.contains("depleted") || msg.contains("degraded"),
                        "write failed for a non-wear reason: {msg}"
                    );
                    break 'outer;
                }
            }
        }
        let wear = client.health().expect("health frame mid-burn");
        assert_eq!(wear.total_segments, 192, "denominator never drifts");
        assert!(
            wear.retired_segments >= wear_seen_while_healthy,
            "retired count is monotone"
        );
        wear_seen_while_healthy = wear.retired_segments;
        if wear_seen_while_healthy >= 2 {
            break;
        }
    }
    (wear_seen_while_healthy, depleted)
}

/// Hammer a faulted server with writes, polling HEALTH between bursts.
/// The test passes only if rising `retired_segments` is visible via
/// the probe *while writes still succeed* — wear must be an early
/// warning, not a post-mortem.
#[test]
fn rising_wear_is_visible_through_health_before_pool_depletion() {
    let (handle, _registry) = start_wearing_server();
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let baseline = client.health().expect("health frame");
    assert_eq!(baseline.total_segments, 192, "stable denominator");
    assert_eq!(baseline.retired_segments, 0, "fresh device has no wear");
    assert!(baseline.free_segments > 0 && !baseline.is_depleted());
    assert_eq!(baseline.wear_fraction(), 0.0);

    let (wear_seen_while_healthy, depleted) = burn_until_wear_visible(&mut client);
    assert!(
        wear_seen_while_healthy >= 1,
        "no wear ever became visible through HEALTH while writes still \
         succeeded (depleted={depleted}) — a HEALTH poller would have had no \
         early warning"
    );

    drop(client);
    handle.shutdown();
    handle.join();
}

/// The same wear numbers are scrapeable as text: serving a HEALTH or
/// METRICS frame refreshes the `e2nvm_server_wear_*` gauges from the
/// store.
#[test]
fn wear_gauges_appear_in_metrics_exposition() {
    let (handle, _registry) = start_wearing_server();
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let (wear_seen, _) = burn_until_wear_visible(&mut client);
    let text = client.metrics().expect("metrics frame");
    let value = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| {
                l.strip_prefix(name)
                    .and_then(|rest| rest.trim().parse::<f64>().ok())
            })
            .unwrap_or_else(|| panic!("metric {name} missing from exposition:\n{text}"))
            as u64
    };
    assert_eq!(value("e2nvm_server_wear_total_segments"), 192);
    assert!(
        value("e2nvm_server_wear_retired_segments") >= wear_seen,
        "gauge lags the probe"
    );
    assert!(value("e2nvm_server_wear_free_segments") > 0);

    drop(client);
    handle.shutdown();
    handle.join();
}
