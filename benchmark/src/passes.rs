//! The three passes over one workload, each from the identical store
//! state the baseline snapshot holds:
//!
//! 1. **timed** — untraced wire run against the booted server; host
//!    time, CPU time and per-request latency come from here.
//! 2. **counted** — the merged trace replayed in process through
//!    `CachedKvStore<ShardedE2KvStore>`; the simulated-device numbers
//!    are exact counts and come from here.
//! 3. **traced** — a prefix of the trace replayed at successive depths
//!    with one span per op per depth.

use crate::calibrate::Calibration;
use crate::clock::process_cpu_ns;
use crate::geometry::{cache_config, PIPELINE_DEPTH, SHARDS};
use crate::replay::{
    CacheLeaves, DepthReplay, EngineLeafCounts, EngineLeaves, FrameLeaves, ReplayCounts, WalLeaves,
};
use crate::span::{timer_overhead_ns, Recorder};
use crate::stack::Recovered;
use crate::wire::{drive, WireConn, WireCounts};
use crate::workload::{Inputs, Spec};
use e2nvm_kvstore::{CacheStats, HotCache, NvmKvStore};
use e2nvm_sim::DeviceStats;
use e2nvm_telemetry::TelemetryRegistry;
use std::path::Path;
use std::time::{Duration, Instant};

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// One timed repetition.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Requests answered.
    pub ops: u64,
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds (client driver + in-process server).
    pub cpu_s: f64,
    /// Median request latency of the slice, ns.
    pub p50_ns: u32,
    /// Serving speed of the host relative to the reference while the
    /// slice ran (mean of the ping-pong's readings before and after).
    pub host_speed: f64,
}

/// Reactor counters the server publishes on its registry (the series a
/// METRICS frame renders), as deltas over the timed slices.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReactorCounts {
    /// Returns from `epoll_wait`.
    pub wakeups: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Items in those batches.
    pub batch_items: u64,
    /// Times a connection's reads were paused by backpressure.
    pub reads_paused: u64,
}

impl ReactorCounts {
    fn read(registry: &TelemetryRegistry) -> Self {
        let batches = registry.histogram("e2nvm_server_dispatch_batch_items", "", &[]);
        Self {
            wakeups: registry.counter_total("e2nvm_server_reactor_wakeups_total"),
            batches: batches.count(),
            batch_items: batches.sum(),
            reads_paused: registry.counter_total("e2nvm_server_reads_paused_total"),
        }
    }

    fn since(self, earlier: Self) -> Self {
        Self {
            wakeups: self.wakeups - earlier.wakeups,
            batches: self.batches - earlier.batches,
            batch_items: self.batch_items - earlier.batch_items,
            reads_paused: self.reads_paused - earlier.reads_paused,
        }
    }

    fn add(&mut self, other: Self) {
        self.wakeups += other.wakeups;
        self.batches += other.batches;
        self.batch_items += other.batch_items;
        self.reads_paused += other.reads_paused;
    }
}

/// Result of the timed pass (possibly several, pooled).
#[derive(Debug, Default, Clone)]
pub struct Timed {
    /// The repetitions, warm-up excluded.
    pub slices: Vec<Slice>,
    /// Per-request latency of every measured request, ns.
    pub latencies: Vec<u32>,
    /// Wire counters over the measured slices.
    pub counts: WireCounts,
    /// Reactor counters over the measured slices.
    pub reactor: ReactorCounts,
}

impl Timed {
    /// Pool another pass's repetitions into this one.
    pub fn absorb(&mut self, other: Timed) {
        self.slices.extend(other.slices);
        self.latencies.extend(other.latencies);
        self.counts.add(&other.counts);
        self.reactor.add(other.reactor);
    }
}

/// How long a timed pass warms up and measures.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Untimed run before the first repetition.
    pub warmup: Duration,
    /// Length of one repetition.
    pub slice: Duration,
    /// Repetitions.
    pub slices: usize,
}

/// Timed pass: recover, boot, warm up, then `schedule.slices`
/// repetitions, all connections drained and the calibration ping-pong
/// read between them.
pub fn timed_pass(
    out: &Path,
    spec: &Spec,
    snapshot: &Path,
    inputs: &Inputs,
    schedule: Schedule,
    calibration: &mut Calibration,
) -> Result<Timed> {
    let Schedule {
        warmup,
        slice,
        slices,
    } = schedule;
    let recovered = Recovered::new(out, "timed", snapshot)?;
    let server = recovered.serve(spec)?;
    let epoch = Instant::now();
    let mut conns = inputs
        .conns
        .iter()
        .map(|trace| WireConn::connect(server.local_addr(), trace, inputs, true, epoch))
        .collect::<std::io::Result<Vec<_>>>()?;

    // Warm-up: fills the cache, grows buffers, faults pages in. Its
    // failures count (a wrong reply is wrong whenever it happens); its
    // timings do not.
    let t0 = Instant::now();
    let warm = drive(&mut conns, |_| t0.elapsed() >= warmup)?;
    let mut timed = Timed::default();
    timed.counts.failed = warm.failed;
    let before = ReactorCounts::read(&recovered.registry);
    let mut speed_before = calibration.serving_speed()?;
    for _ in 0..slices {
        for conn in &mut conns {
            conn.latencies.clear();
        }
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        let counts = drive(&mut conns, |_| t0.elapsed() >= slice)?;
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = (process_cpu_ns() - cpu0) as f64 / 1e9;
        let speed_after = calibration.serving_speed()?;
        let mut latencies: Vec<u32> = conns
            .iter_mut()
            .flat_map(|conn| conn.latencies.drain(..))
            .collect();
        let mid = latencies.len() / 2;
        let p50_ns = *latencies.select_nth_unstable(mid).1;
        timed.latencies.append(&mut latencies);
        timed.slices.push(Slice {
            ops: counts.ops,
            wall_s,
            cpu_s,
            p50_ns,
            host_speed: (speed_before + speed_after) / 2.0,
        });
        speed_before = speed_after;
        timed.counts.add(&counts);
    }
    timed.reactor = ReactorCounts::read(&recovered.registry).since(before);
    drop(conns);
    server.shutdown();
    server.join();
    if recovered.store.engine().model_swaps() > 0 {
        return Err("background retraining fired during the timed pass".into());
    }
    recovered.discard();
    Ok(timed)
}

/// Result of the counted pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Counted {
    /// What was replayed, and how much of it was wrong.
    pub counts: ReplayCounts,
    /// Device counters of the replay (the load's are separate).
    pub stats: DeviceStats,
    /// Writes to the most-written segment, load included.
    pub wear_max: u32,
    /// Mean writes per segment, load included.
    pub wear_mean: f64,
    /// Cache counters after the replay.
    pub cache: CacheStats,
    /// Bytes the replay left in the WAL files.
    pub wal_bytes: u64,
    /// WAL fsyncs issued during the replay.
    pub wal_fsyncs: u64,
}

/// Host cost of the counted replay — kept apart from [`Counted`] so
/// that two counted passes can be compared for equality.
#[derive(Debug, Clone, Copy)]
pub struct CountedHost {
    /// Process CPU seconds of the replay.
    pub cpu_s: f64,
    /// Serving speed of the host relative to the reference while it ran.
    pub host_speed: f64,
    /// Wall seconds recovering the baseline snapshot took.
    pub recover_s: f64,
}

/// Counted pass: replay `ops` ops of the merged trace in process.
/// Background retraining swaps a model in at a host-time-dependent op,
/// so it fails the pass — unless `tolerate_retraining`, for the one
/// caller whose claim survives inexact counts.
pub fn counted_pass(
    out: &Path,
    spec: &Spec,
    snapshot: &Path,
    inputs: &Inputs,
    ops: usize,
    tolerate_retraining: bool,
    calibration: &mut Calibration,
) -> Result<(Counted, CountedHost)> {
    let recovered = Recovered::new(out, "counted", snapshot)?;
    let mut cached = DepthReplay::new(recovered.cached(spec), inputs);
    let speed_before = calibration.serving_speed()?;
    let cpu0 = process_cpu_ns();
    cached.run(inputs, 0..ops, None, None);
    let cpu_s = (process_cpu_ns() - cpu0) as f64 / 1e9;
    let host_speed = (speed_before + calibration.serving_speed()?) / 2.0;

    let counts = cached.counts.clone();
    let stats = cached.layer.stats();
    let cache = cached.layer.cache_stats();
    let engine = recovered.store.engine();
    engine.finish_retraining();
    if engine.model_swaps() > 0 && !tolerate_retraining {
        return Err("background retraining fired during the counted pass: \
                    simulated counts would depend on host timing"
            .into());
    }
    let (mut wear_max, mut wear_sum, mut segments) = (0u32, 0u64, 0usize);
    for shard in 0..SHARDS {
        engine.with_shard_engine(shard, |e| {
            let writes = e
                .controller()
                .device()
                .wear()
                .per_segment_writes()
                .expect("per-segment wear tracking is on");
            wear_max = wear_max.max(writes.iter().copied().max().unwrap_or(0));
            wear_sum += writes.iter().map(|&w| u64::from(w)).sum::<u64>();
            segments += writes.len();
        });
    }
    let counted = Counted {
        counts,
        stats,
        wear_max,
        wear_mean: wear_sum as f64 / segments as f64,
        cache,
        wal_bytes: recovered.wal_bytes(),
        wal_fsyncs: recovered
            .registry
            .counter_total("e2nvm_persist_wal_fsyncs_total"),
    };
    drop(cached);
    let recover_s = recovered.recover_s;
    recovered.discard();
    Ok((
        counted,
        CountedHost {
            cpu_s,
            host_speed,
            recover_s,
        },
    ))
}

/// Result of the traced pass.
#[derive(Debug)]
pub struct Traced {
    /// Every span of every depth.
    pub rec: Recorder,
    /// Cost of one empty span; [`Recorder::totals`] takes it off every
    /// span when given this value.
    pub timer_overhead_ns: f64,
    /// Counts the engine leaves kept beside their spans.
    pub leaves: EngineLeafCounts,
    /// Per op of the prefix: does it reach the store.
    pub reaches_store: Vec<bool>,
    /// Wall seconds of the `store`-depth replay with spans on.
    pub store_spans_on_s: f64,
    /// Wall seconds of the same replay with spans off.
    pub store_spans_off_s: f64,
    /// WAL commits that had records to write, in the WAL leaves.
    pub wal_dirty_commits: u64,
    /// What each depth's replay did, for the attempted/failed counts.
    pub replays: Vec<(&'static str, ReplayCounts)>,
}

/// Traced pass: replay the first `ops` ops at every depth, the depths
/// interleaved one pipeline batch at a time so that host drift (clock
/// frequency, a noisy neighbour) hits every depth alike — a self time
/// is a difference of depths, and differences of measurements taken
/// seconds apart are mostly noise on a shared host.
pub fn traced_pass(
    out: &Path,
    spec: &Spec,
    snapshot: &Path,
    inputs: &Inputs,
    ops: usize,
) -> Result<Traced> {
    assert_eq!(ops % PIPELINE_DEPTH, 0, "traced ops must be whole batches");
    let mut rec = Recorder::new(ops);
    let timer_overhead_ns = timer_overhead_ns();

    // wire: one connection replaying the merged trace; a span is the
    // request's latency at the benchmark's pipeline depth.
    let wire_store = Recovered::new(out, "traced-wire", snapshot)?;
    let server = wire_store.serve(spec)?;
    let mut conn = WireConn::connect(
        server.local_addr(),
        &inputs.merged,
        inputs,
        true,
        rec.epoch(),
    )?;
    conn.spans = Some(Vec::with_capacity(PIPELINE_DEPTH));
    // cached / store (spans on and off) / engine: one recovered store each.
    let cached_store = Recovered::new(out, "traced-cached", snapshot)?;
    let mut cached = DepthReplay::new(cached_store.cached(spec), inputs);
    let store_on = Recovered::new(out, "traced-store", snapshot)?;
    let mut store = DepthReplay::new(store_on.store.clone(), inputs);
    let store_off = Recovered::new(out, "traced-store-bare", snapshot)?;
    let mut bare = DepthReplay::new(store_off.store.clone(), inputs);
    let engine_store = Recovered::new(out, "traced-engine", snapshot)?;
    let mut engine = DepthReplay::new(engine_store.store.engine().clone(), inputs);
    // leaves: standalone instances of the layers' public pieces.
    let mut frame_leaves = FrameLeaves::new(inputs);
    let mut cache_leaves = CacheLeaves::new(
        HotCache::new(cache_config(spec.cache_records, spec.cache_exact)),
        inputs,
        ops,
    );
    let mut engine_leaves = EngineLeaves::new(snapshot)?;
    let mut wal_leaves = WalLeaves::new(&out.join("traced-wal"))?;
    let router = engine_store.store.engine().clone();
    let shard_for = |key: u64| router.shard_for(key);

    let (mut spans_on, mut spans_off) = (Duration::ZERO, Duration::ZERO);
    let mut wire_counts = WireCounts::default();
    for first in (0..ops).step_by(PIPELINE_DEPTH) {
        let batch = first..first + PIPELINE_DEPTH;

        conn.send_batch()?;
        conn.recv_batch()?;
        let spans = conn.spans.as_mut().expect("span recording is on");
        for (k, (start, end)) in spans.drain(..).enumerate() {
            rec.record_ns("wire", None, first + k, start, end);
        }
        wire_counts.add(&conn.take_counts());
        frame_leaves.run(inputs, batch.clone(), &mut rec)?;
        cache_leaves.run(inputs, batch.clone(), &mut rec);
        wal_leaves.run(inputs, batch.clone(), shard_for, &mut rec)?;
        let reaches = cache_leaves.reaches_store.as_slice();

        // The store-backed replays each drag their own models and
        // device through the CPU caches, so whichever runs first after
        // another pays for the eviction. Rotate who that is.
        const STORE_BACKED: usize = 5;
        for k in 0..STORE_BACKED {
            match (first / PIPELINE_DEPTH + k) % STORE_BACKED {
                0 => cached.run(inputs, batch.clone(), None, Some(&mut rec)),
                1 => {
                    let t0 = Instant::now();
                    store.run(inputs, batch.clone(), Some(reaches), Some(&mut rec));
                    spans_on += t0.elapsed();
                }
                2 => {
                    let t0 = Instant::now();
                    bare.run(inputs, batch.clone(), Some(reaches), None);
                    spans_off += t0.elapsed();
                }
                3 => engine.run(inputs, batch.clone(), Some(reaches), Some(&mut rec)),
                _ => engine_leaves.run(inputs, batch.clone(), reaches, shard_for, &mut rec)?,
            }
        }
    }

    // Faithfulness check: the shadow engine assembled from the layers'
    // public pieces must have flipped exactly the bits the real one did.
    let real = engine.layer.device_stats();
    let leaves = engine_leaves.finish();
    if real.bits_flipped != leaves.device_stats.bits_flipped
        || real.reads != leaves.device_stats.reads
    {
        return Err(format!(
            "engine leaves diverged from the engine: {} vs {} bits flipped, {} vs {} reads",
            leaves.device_stats.bits_flipped,
            real.bits_flipped,
            leaves.device_stats.reads,
            real.reads
        )
        .into());
    }
    let replays = vec![
        (
            "wire",
            ReplayCounts {
                ops: wire_counts.ops,
                failed: wire_counts.failed,
                ..ReplayCounts::default()
            },
        ),
        ("cached", cached.counts.clone()),
        ("store", store.counts.clone()),
        ("store-bare", bare.counts.clone()),
        ("engine", engine.counts.clone()),
    ];
    let wal_dirty_commits = wal_leaves.dirty_commits;
    wal_leaves.finish()?;
    drop((conn, cached, store, bare, engine, router));
    server.shutdown();
    server.join();
    for recovered in [wire_store, cached_store, store_on, store_off, engine_store] {
        recovered.discard();
    }

    Ok(Traced {
        rec,
        timer_overhead_ns,
        leaves,
        reaches_store: cache_leaves.reaches_store,
        store_spans_on_s: spans_on.as_secs_f64(),
        store_spans_off_s: spans_off.as_secs_f64(),
        wal_dirty_commits,
        replays,
    })
}
