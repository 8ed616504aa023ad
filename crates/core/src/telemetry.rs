//! Engine-level telemetry.
//!
//! [`EngineTelemetry`] bundles the placement-path *event* handles an
//! [`crate::E2Engine`] updates while serving: placement, fallback,
//! retrain, write-retry and retirement counters, the stage clock's
//! histograms (`e2nvm_engine_stage_ns{shard,stage}`, one per [`Stage`]
//! of the public operations the engine's one sampler armed, one in
//! [`e2nvm_telemetry::Sampler::EVERY`]), and the structured event
//! journal shared through the attached [`TelemetryRegistry`]. All
//! hot-path updates are relaxed atomics.
//!
//! What the engine already counts is not mirrored: `emit` reads it
//! when a scrape renders — the device ledger, the four
//! [`crate::PredictionStats`] counters and the DAP's per-cluster
//! free-list lengths (`e2nvm_dap_free_segments{shard,cluster}`, one
//! per cluster of the model installed now). [`crate::ShardedEngine`]
//! registers it as one read-through source over its shards.

use crate::engine::E2Engine;
use e2nvm_telemetry::{Counter, Event, Histogram, Samples, TelemetryRegistry};

/// Upper bounds of every stage histogram (ns).
const STAGE_BOUNDS: [u64; 8] = [500, 1_000, 2_500, 5_000, 10_000, 25_000, 100_000, 1_000_000];

/// A span of one public engine operation that the stage clock times
/// when the operation is armed. `Op` holds the others: a PUT is
/// `order` → `pop` → `write` → `tag` → `recycle` (Algorithm 1), a GET
/// is `read`, a DELETE is `recycle`; `op` also covers the index and
/// bookkeeping between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The whole public call.
    Op,
    /// Padding and the full prediction of a placement's nearest
    /// cluster — Algorithm 1's first choice, not the whole order.
    Order,
    /// Popping a free address and prefetching the cluster's next head;
    /// once per address tried. Past an empty nearest cluster it also
    /// ranks every cluster for the fallback.
    Pop,
    /// The controller write of a placement, retries included; once per
    /// address tried.
    Write,
    /// The resumed pass that tags the segment a PUT wrote.
    Tag,
    /// Returning a displaced or deleted segment to the pool: the tag
    /// lookup or content classification, and the push.
    Recycle,
    /// A GET's device read.
    Read,
}

/// The `stage` label of each [`Stage`], in the enum's order.
const STAGE_NAMES: [&str; 7] = ["op", "order", "pop", "write", "tag", "recycle", "read"];

/// Metric handles for one engine (one shard).
#[derive(Debug, Clone)]
pub struct EngineTelemetry {
    registry: TelemetryRegistry,
    shard: usize,
    /// Successful placements (DAP pops) performed.
    pub placements: Counter,
    /// Placements that found the predicted cluster empty and fell
    /// back to another.
    pub fallbacks: Counter,
    /// Models installed (synchronous trains and background swaps).
    pub retrains: Counter,
    /// Write re-programs issued after transient device failures.
    pub write_retries: Counter,
    /// Segments permanently retired from the pool by wear-out.
    pub retired_segments: Counter,
    /// Nanoseconds per [`Stage`] of the armed operations, indexed by
    /// the stage.
    stage_ns: [Histogram; STAGE_NAMES.len()],
}

impl EngineTelemetry {
    /// Handles on a private registry nobody renders, with a
    /// zero-capacity journal (the initial state of every engine).
    pub fn disconnected() -> Self {
        Self::register(&TelemetryRegistry::with_journal_capacity(0), 0)
    }

    /// Register the engine's event handles on `registry`, labeled with
    /// this engine's `shard` index.
    pub fn register(registry: &TelemetryRegistry, shard: usize) -> Self {
        let shard_label = shard.to_string();
        let labels: [(&str, &str); 1] = [("shard", &shard_label)];
        let c = |name: &str, help: &str| registry.counter_with_labels(name, help, &labels);
        // Of the process, not of a shard: every engine runs the kernel
        // this CPU selects, and they all land on the one series.
        registry
            .gauge_with_labels(
                "e2nvm_model_kernel",
                "Instantiation of the model kernel this process predicts and trains with (always 1; read the impl label)",
                &[("impl", e2nvm_ml::predict::kernel_name())],
            )
            .set(1);
        EngineTelemetry {
            placements: c(
                "e2nvm_engine_placements_total",
                "Values placed via the dynamic address pool",
            ),
            fallbacks: c(
                "e2nvm_engine_fallback_placements_total",
                "Placements that found the predicted cluster empty and fell back to another",
            ),
            retrains: c(
                "e2nvm_engine_retrains_total",
                "Models installed (initial training and retrains)",
            ),
            write_retries: c(
                "e2nvm_engine_write_retries_total",
                "Write re-programs after transient device failures",
            ),
            retired_segments: c(
                "e2nvm_engine_retired_segments_total",
                "Segments permanently retired from the pool by wear-out",
            ),
            stage_ns: STAGE_NAMES.map(|stage| {
                registry.histogram_with_labels(
                    "e2nvm_engine_stage_ns",
                    "Time in one stage of the engine's public operations (ns), one operation in 64",
                    &STAGE_BOUNDS,
                    &[("shard", &shard_label), ("stage", stage)],
                )
            }),
            registry: registry.clone(),
            shard,
        }
    }

    /// The histogram of one stage: its count is the armed operations
    /// that ran the stage, its sum their nanoseconds in it.
    pub fn stage_ns(&self, stage: Stage) -> &Histogram {
        &self.stage_ns[stage as usize]
    }

    /// The shard index this sink was registered with.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Record a structured event on the attached journal (no-op while
    /// disconnected).
    pub fn record_event(&self, event: Event) {
        self.registry.journal().record(event);
    }

    /// Account a successful placement: `predicted` is the model's first
    /// choice, `used` the cluster that actually supplied the address.
    pub fn record_placement(&self, predicted: usize, used: usize) {
        self.placements.inc();
        if used != predicted {
            self.fallbacks.inc();
            self.record_event(Event::FallbackPlacement {
                shard: self.shard,
                predicted,
                used,
            });
        }
    }

    /// Account a permanent segment retirement: bump the counter and
    /// journal a [`Event::SegmentRetired`] so operators can see the
    /// capacity shrink. `segment` is the shard-local logical id the
    /// engine quarantined; `physical` is the device slot that actually
    /// wore out (they differ under active wear leveling).
    pub fn record_retirement(&self, segment: usize, physical: usize) {
        self.retired_segments.inc();
        self.record_event(Event::SegmentRetired {
            shard: self.shard,
            segment,
            physical,
        });
    }
}

/// Emit what `engine`, shard `shard`, counts itself: its device's
/// counters ([`e2nvm_sim::telemetry::emit`]), its
/// [`crate::PredictionStats`] counters and one
/// `e2nvm_dap_free_segments` gauge per cluster.
pub(crate) fn emit(engine: &E2Engine, shard: usize, out: &mut Samples) {
    let shard_label = shard.to_string();
    let labels = [("shard", shard_label.as_str())];
    e2nvm_sim::telemetry::emit(engine.controller().device(), &labels, out);
    let p = engine.prediction_stats();
    for (name, help, value) in [
        (
            "e2nvm_engine_predictions_total",
            "Full cluster predictions: one per placement and one per content-classified recycle",
            p.predictions,
        ),
        (
            "e2nvm_engine_resumed_predictions_total",
            "Write-time classifications resumed over the written segment's tail",
            p.resumed,
        ),
        (
            "e2nvm_engine_recycle_tag_hits_total",
            "Recycles served by the write-time cluster tag",
            p.tag_hits,
        ),
        (
            "e2nvm_engine_recycle_classified_total",
            "Recycles that classified the segment's content in full",
            p.tag_fallbacks,
        ),
    ] {
        out.counter(name, help, &labels, value);
    }
    let dap = engine.dap();
    for cluster in 0..dap.k() {
        let cluster_label = cluster.to_string();
        out.gauge(
            "e2nvm_dap_free_segments",
            "Free segments in one cluster's address pool",
            &[("shard", &shard_label), ("cluster", &cluster_label)],
            dap.cluster_len(cluster) as i64,
        );
    }
}
