//! # e2nvm-telemetry — observability for the E2-NVM serving stack
//!
//! Four primitives, all designed so the serving hot path never takes a
//! lock:
//!
//! * A **metrics registry** ([`TelemetryRegistry`]): monotonic
//!   [`Counter`]s, [`Gauge`]s, and fixed-bucket [`Histogram`]s. Handles
//!   are `Arc`-backed and updated with relaxed atomics; the registry's
//!   mutex is touched only at registration and render time.
//! * **Read-through sources** ([`TelemetryRegistry::source`]): a
//!   component that already keeps a number registers a callback that
//!   emits it into [`Samples`] when the registry renders. The number
//!   is counted once, in the component, and costs nothing until a
//!   scrape reads it. The registry holds the component weakly.
//! * A **latency sampler** ([`Sampler`]): a per-site countdown that
//!   reads the clock for one request in [`Sampler::EVERY`]. Counters
//!   stay exact; per-request latency histograms hold the sampled
//!   requests ([`Histogram::observe_since`]).
//! * A **bounded event journal** ([`EventJournal`]): a ring buffer of
//!   structured [`Event`]s (retrain started/finished, fallback
//!   placement, wear-leveling swap, segment wear-out and retirement,
//!   server start/stop). Events are rare control-plane occurrences,
//!   so the ring uses a short critical section; when full, the oldest
//!   entry is dropped and counted.
//!
//! Rendering: [`TelemetryRegistry::render_prometheus`] emits the
//! Prometheus text exposition format, and
//! [`TelemetryRegistry::snapshot_json`] a self-contained JSON document
//! including recent journal entries.
//!
//! ## One build
//!
//! Every type here is atomics-backed in every build. Crates in this
//! workspace instrument unconditionally: each holds a `*Telemetry`
//! bundle of event handles (histograms, event counters) that starts
//! `disconnected()` — registered on a private registry nobody renders —
//! and is swapped for one registered on a shared registry by
//! `attach_telemetry` / `with_telemetry`, which also register the
//! component's own statistics as a source.
//!
//! ```
//! use e2nvm_telemetry::{Event, Sampler, TelemetryRegistry};
//!
//! let registry = TelemetryRegistry::new();
//! let writes = registry.counter("demo_writes_total", "Writes served");
//! let latency = registry.histogram("demo_latency_ns", "Op latency (sampled 1 in 64)", &[100, 1000, 10000]);
//! let mut clock = Sampler::default();
//! for _ in 0..100 {
//!     let started = clock.start();
//!     writes.inc();
//!     latency.observe_since(started);
//! }
//! registry.journal().record(Event::RetrainStarted { shard: 0 });
//! let text = registry.render_prometheus();
//! assert!(text.contains("demo_writes_total 100"));
//! assert!(text.contains("demo_latency_ns_count 2"));
//! ```

#![warn(missing_docs)]

mod journal;
mod metrics;
mod registry;
mod sampler;
mod source;

pub use journal::{Event, EventJournal, TimedEvent};
pub use metrics::{Counter, Gauge, Histogram};
pub use registry::TelemetryRegistry;
pub use sampler::Sampler;
pub use source::Samples;

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// shared by the JSON renderers; metric and label names are expected to
/// be plain identifiers, but escaping keeps the output well-formed for
/// any input.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
