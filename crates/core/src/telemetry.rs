//! Engine-level telemetry sink.
//!
//! [`EngineTelemetry`] bundles the placement-path metric handles an
//! [`crate::E2Engine`] updates while serving: full and resumed
//! prediction counters (`predictions` over `placements` is full
//! predictions per PUT) with a latency histogram each, recycle tag-hit
//! counters, placement/fallback/exhaustion counters, per-cluster DAP
//! depth gauges, and the structured event journal shared through the
//! attached [`TelemetryRegistry`]. All hot-path updates are relaxed
//! atomics. Counters are exact; the latency histograms hold the calls
//! the engine's samplers timed, one in [`e2nvm_telemetry::Sampler::EVERY`]
//! per call site.
//!
//! The per-cluster gauges are rebuilt on every model install (K can
//! change across retrains), labeled `{shard="<s>",cluster="<c>"}`.

use e2nvm_telemetry::{Counter, Event, Gauge, Histogram, TelemetryRegistry};
use std::time::Instant;

/// Upper bounds for the padding+prediction latency histogram (ns).
const PREDICTION_BOUNDS: [u64; 8] = [500, 1_000, 2_500, 5_000, 10_000, 25_000, 100_000, 1_000_000];

/// Metric handles for one engine (one shard).
#[derive(Debug, Clone)]
pub struct EngineTelemetry {
    registry: Option<TelemetryRegistry>,
    shard: usize,
    /// Successful placements (DAP pops) performed.
    pub placements: Counter,
    /// Placements that fell back past the predicted cluster.
    pub fallbacks: Counter,
    /// Times the predicted cluster's free list was found empty.
    pub exhaustions: Counter,
    /// Models installed (synchronous trains and background swaps).
    pub retrains: Counter,
    /// Write re-programs issued after transient device failures.
    pub write_retries: Counter,
    /// Segments permanently retired from the pool by wear-out.
    pub retired_segments: Counter,
    /// Full predictions: one per placement, one per content-classified
    /// recycle.
    pub predictions: Counter,
    /// Write-time classifications that resumed the placement's
    /// prediction over the written segment's tail.
    pub resumed_predictions: Counter,
    /// Latency of the sampled resumed predictions (ns).
    pub resumed_prediction_latency_ns: Histogram,
    /// Recycles served by the segment's write-time cluster tag.
    pub recycle_tag_hits: Counter,
    /// Recycles that classified the segment's content in full.
    pub recycle_classified: Counter,
    /// Latency of the sampled *full* predictions (ns): padding + model
    /// per placement, model alone per content-classified recycle.
    pub prediction_latency_ns: Histogram,
    /// One gauge per cluster: current DAP free-list depth.
    cluster_depth: Vec<Gauge>,
}

impl Default for EngineTelemetry {
    fn default() -> Self {
        Self::disconnected()
    }
}

impl EngineTelemetry {
    /// Handles not attached to any registry (the initial state of every
    /// engine).
    pub fn disconnected() -> Self {
        EngineTelemetry {
            registry: None,
            shard: 0,
            placements: Counter::disconnected(),
            fallbacks: Counter::disconnected(),
            exhaustions: Counter::disconnected(),
            retrains: Counter::disconnected(),
            write_retries: Counter::disconnected(),
            retired_segments: Counter::disconnected(),
            predictions: Counter::disconnected(),
            resumed_predictions: Counter::disconnected(),
            resumed_prediction_latency_ns: Histogram::disconnected(&PREDICTION_BOUNDS),
            recycle_tag_hits: Counter::disconnected(),
            recycle_classified: Counter::disconnected(),
            prediction_latency_ns: Histogram::disconnected(&PREDICTION_BOUNDS),
            cluster_depth: Vec::new(),
        }
    }

    /// Register the engine metric family on `registry`, labeled with
    /// this engine's `shard` index. Cluster-depth gauges are created
    /// lazily by [`EngineTelemetry::refresh_clusters`].
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
                "Placements that fell back past the predicted cluster",
            ),
            exhaustions: c(
                "e2nvm_engine_cluster_exhausted_total",
                "Placements that found the predicted cluster empty",
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
            predictions: c(
                "e2nvm_engine_predictions_total",
                "Full cluster predictions: one per placement and one per content-classified recycle",
            ),
            resumed_predictions: c(
                "e2nvm_engine_resumed_predictions_total",
                "Write-time classifications resumed over the written segment's tail",
            ),
            resumed_prediction_latency_ns: registry.histogram_with_labels(
                "e2nvm_engine_resumed_prediction_latency_ns",
                "Resumed write-time classification latency (ns), sampled 1 in 64",
                &PREDICTION_BOUNDS,
                &labels,
            ),
            recycle_tag_hits: c(
                "e2nvm_engine_recycle_tag_hits_total",
                "Recycles served by the write-time cluster tag",
            ),
            recycle_classified: c(
                "e2nvm_engine_recycle_classified_total",
                "Recycles that classified the segment's content in full",
            ),
            prediction_latency_ns: registry.histogram_with_labels(
                "e2nvm_engine_prediction_latency_ns",
                "Full cluster prediction latency: per placement and per content-classified recycle (ns), sampled 1 in 64",
                &PREDICTION_BOUNDS,
                &labels,
            ),
            cluster_depth: Vec::new(),
            registry: Some(registry.clone()),
            shard,
        }
    }

    /// The shard index this sink was registered with.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Record a structured event on the attached journal (no-op while
    /// disconnected).
    pub fn record_event(&self, event: Event) {
        if let Some(registry) = &self.registry {
            registry.journal().record(event);
        }
    }

    /// Account one full prediction and, if a sampler `started` timing
    /// it, its latency; returns the nanoseconds observed.
    #[inline]
    pub fn record_prediction(&self, started: Option<Instant>) -> Option<u64> {
        self.predictions.inc();
        self.prediction_latency_ns.observe_since(started)
    }

    /// Account one resumed prediction and, if a sampler `started`
    /// timing it, its latency; returns the nanoseconds observed.
    #[inline]
    pub fn record_resumed_prediction(&self, started: Option<Instant>) -> Option<u64> {
        self.resumed_predictions.inc();
        self.resumed_prediction_latency_ns.observe_since(started)
    }

    /// Account a successful placement: `predicted` is the model's first
    /// choice, `used` the cluster that actually supplied the address.
    pub fn record_placement(&self, predicted: usize, used: usize) {
        self.placements.inc();
        if used != predicted {
            self.exhaustions.inc();
            self.fallbacks.inc();
            self.record_event(Event::ClusterExhausted {
                shard: self.shard,
                cluster: predicted,
            });
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

    /// Update one cluster's free-list depth gauge.
    #[inline]
    pub fn set_cluster_depth(&self, cluster: usize, depth: usize) {
        if let Some(g) = self.cluster_depth.get(cluster) {
            g.set(depth as i64);
        }
    }

    /// Recreate the per-cluster depth gauges for a (possibly new) K and
    /// set them from `occupancy`. Called on every model install.
    pub fn refresh_clusters(&mut self, occupancy: &[usize]) {
        let Some(registry) = &self.registry else {
            return;
        };
        let shard_label = self.shard.to_string();
        self.cluster_depth = occupancy
            .iter()
            .enumerate()
            .map(|(cluster, &depth)| {
                let cluster_label = cluster.to_string();
                let g = registry.gauge_with_labels(
                    "e2nvm_dap_free_segments",
                    "Free segments in one cluster's address pool",
                    &[("shard", &shard_label), ("cluster", &cluster_label)],
                );
                g.set(depth as i64);
                g
            })
            .collect();
    }
}
