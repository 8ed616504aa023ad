//! The metrics: their definitions (name, unit, direction, bound — the
//! table `BENCHMARK.json` is generated from) and their computation
//! from the passes' raw results.

use crate::geometry::{RECORDS, SHARDS, VALUE_BYTES};
use crate::passes::{Counted, CountedHost, Timed, Traced};
use crate::span::{per_op_ns, self_ns};
use crate::stack::SetUp;
use crate::stats::{iqr_frac, median, percentile, quartiles};
use crate::workload::{Inputs, Op};
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit; simulated quantities say so (`sim_ns`) or are counts.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the median may worsen
    /// before it is a regression. End-to-end metrics only.
    pub bound: Option<f64>,
    /// An exact count of the simulated device: independent of host
    /// time, so with one seed it must repeat bit for bit.
    pub simulated: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        simulated: false,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        simulated: true,
        ..e2e(name, unit, better, bound)
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        simulated: false,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported with `--trace 0`. The four simulated
/// ones are exact counts: with one seed they repeat bit for bit, and
/// their bounds only have to cover the spread across seeds.
pub const END_TO_END: [Def; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_ops_s", "ops/s", Higher, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("lat_p50_us", "us", Lower, 0.25),
    sim("flips_per_write", "bits", Lower, 0.02),
    sim("energy_pj_per_op", "pJ", Lower, 0.02),
    sim("sim_device_ns_per_op", "sim_ns", Lower, 0.02),
    sim("wear_max_over_mean", "ratio", Lower, 0.25),
];

/// Per-layer metrics, reported with `--trace 1`; layer = module.
pub const PER_LAYER: [Def; 51] = [
    layer("client.lat_p99_us", "us", Lower),
    layer("client.lat_p999_us", "us", Lower),
    layer("client.lat_max_us", "us", Lower),
    layer("client.rep_iqr_frac", "ratio", Lower),
    layer("frame.decode_ns_per_op", "ns", Lower),
    layer("frame.encode_ns_per_op", "ns", Lower),
    layer("frame.wire_bytes_per_op", "bytes", Lower),
    layer("wire.self_us_per_op", "us", Lower),
    layer("wire.wakeups_per_op", "1/op", Lower),
    layer("wire.items_per_dispatch_batch", "count", Higher),
    layer("wire.reads_paused", "count", Lower),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("cache.lookup_ns_per_op", "ns", Lower),
    layer("cache.fill_ns_per_op", "ns", Lower),
    layer("cache.invalidate_ns_per_op", "ns", Lower),
    layer("cache.evictions_per_op", "1/op", Lower),
    layer("cache.self_ns_per_op", "ns", Lower),
    layer("store.put_ns_per_op", "ns", Lower),
    layer("store.get_ns_per_op", "ns", Lower),
    layer("store.scan_ns_per_op", "ns", Lower),
    layer("store.self_ns_per_put", "ns", Lower),
    layer("store.scan_entries_per_op", "count", Lower),
    layer("wal.append_commit_ns_per_put", "ns", Lower),
    layer("wal.bytes_per_user_byte", "ratio", Lower),
    layer("wal.commits_per_put", "1/op", Lower),
    layer("wal.fsyncs", "count", Lower),
    layer("snapshot.save_s", "s", Lower),
    layer("snapshot.recover_s", "s", Lower),
    layer("snapshot.bytes", "bytes", Lower),
    layer("engine.put_ns_per_op", "ns", Lower),
    layer("engine.get_ns_per_op", "ns", Lower),
    layer("engine.self_ns_per_put", "ns", Lower),
    layer("engine.predictions_per_put", "1/op", Lower),
    layer("model.predict_ns_per_call", "ns", Lower),
    layer("model.macs_per_call", "count", Lower),
    layer("dap.pop_push_ns_per_put", "ns", Lower),
    layer("dap.fallback_ratio", "ratio", Lower),
    layer("dap.min_cluster_free", "count", Higher),
    layer("dap.memory_bytes", "bytes", Lower),
    layer("device.write_ns_per_call", "ns", Lower),
    layer("device.read_ns_per_call", "ns", Lower),
    layer("device.lines_written_per_write", "count", Lower),
    layer("device.lines_skipped_frac", "ratio", Higher),
    layer("device.flip_ratio", "ratio", Lower),
    layer("train.total_s", "s", Lower),
    layer("train.per_shard_s", "s", Lower),
    layer("train.macs_per_epoch", "count", Lower),
    layer("train.final_loss", "loss", Lower),
    layer("process.rss_after_setup_mib", "MiB", Lower),
    layer("process.host_speed", "ratio", Higher),
    layer("trace.overhead_frac", "ratio", Lower),
];

/// A measured metric, with the spread behind it when it summarises
/// repetitions.
#[derive(Debug, Clone)]
pub struct Value {
    /// Which metric.
    pub def: &'static Def,
    /// The reported value.
    pub value: f64,
    /// `(q1, q3, repetitions)` when the value summarises repetitions.
    pub spread: Option<(f64, f64, usize)>,
}

fn find(table: &'static [Def], name: &str) -> &'static Def {
    table
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not defined"))
}

fn median_of(def: &'static Def, reps: &[f64]) -> Value {
    let spread = (reps.len() >= 2).then(|| {
        let (q1, q3) = quartiles(reps);
        (q1, q3, reps.len())
    });
    Value {
        def,
        value: median(reps),
        spread,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-slice throughput in ops/s, at the reference host speed: a time
/// measured while the serving reference ran at speed `s` is multiplied
/// by `s` (see `calibrate`).
pub fn slice_throughputs(timed: &Timed) -> Vec<f64> {
    timed
        .slices
        .iter()
        .map(|s| s.ops as f64 / s.wall_s / s.host_speed)
        .collect()
}

/// Per-slice CPU microseconds per op, at the reference host speed.
fn cpu_us_per_op(timed: &Timed) -> Vec<f64> {
    timed
        .slices
        .iter()
        .map(|s| s.cpu_s * 1e6 / s.ops as f64 * s.host_speed)
        .collect()
}

/// Per-slice median latency in microseconds, at the reference speed.
fn lat_p50_us(timed: &Timed) -> Vec<f64> {
    timed
        .slices
        .iter()
        .map(|s| f64::from(s.p50_ns) / 1e3 * s.host_speed)
        .collect()
}

/// The four simulated end-to-end numbers: the device's whole life in
/// the run — the load's counters plus the counted replay's — so that
/// none is ever 0/0, not even on a workload without PUTs.
pub fn simulated(load: &e2nvm_sim::DeviceStats, counted: &Counted) -> [f64; 4] {
    let puts = (RECORDS as u64 + counted.counts.puts) as f64;
    let ops = (RECORDS as u64 + counted.counts.ops) as f64;
    [
        (load.bits_flipped + counted.stats.bits_flipped) as f64 / puts,
        (load.energy_pj + counted.stats.energy_pj) / ops,
        (load.latency_ns + counted.stats.latency_ns) / ops,
        f64::from(counted.wear_max) / counted.wear_mean,
    ]
}

/// Every end-to-end metric of one workload.
pub fn end_to_end(setups: &[SetUp], timed: &Timed, counted: &Counted) -> Vec<Value> {
    let setup_s: Vec<f64> = setups.iter().map(|s| s.setup_s * s.host_speed).collect();
    let sim = simulated(&setups[0].load_stats, counted);
    let exact = |name, value| Value {
        def: find(&END_TO_END, name),
        value,
        spread: None,
    };
    vec![
        median_of(find(&END_TO_END, "setup_s"), &setup_s),
        median_of(
            find(&END_TO_END, "throughput_ops_s"),
            &slice_throughputs(timed),
        ),
        median_of(find(&END_TO_END, "cpu_us_per_op"), &cpu_us_per_op(timed)),
        median_of(find(&END_TO_END, "lat_p50_us"), &lat_p50_us(timed)),
        exact("flips_per_write", sim[0]),
        exact("energy_pj_per_op", sim[1]),
        exact("sim_device_ns_per_op", sim[2]),
        exact("wear_max_over_mean", sim[3]),
    ]
}

/// Span totals split by the kind of op they belong to.
struct ByKind {
    put: f64,
    get: f64,
    scan: f64,
}

fn split_by_kind(traced: &Traced, inputs: &Inputs, name: &str) -> ByKind {
    let mut out = ByKind {
        put: 0.0,
        get: 0.0,
        scan: 0.0,
    };
    let Some(index) = traced.rec.names.iter().position(|n| *n == name) else {
        return out;
    };
    for span in traced.rec.spans.iter().filter(|s| s.name as usize == index) {
        let dur = ((span.end_ns - span.start_ns) as f64 - traced.timer_overhead_ns).max(0.0);
        match inputs.merged.ops[span.op as usize] {
            Op::Put { .. } => out.put += dur,
            Op::Get { .. } => out.get += dur,
            Op::Scan { .. } => out.scan += dur,
        }
    }
    out
}

/// The depth ladder of one workload: per-op time at each depth, the
/// leaves under it, and each layer's self time, all in ns per replayed
/// op.
#[derive(Debug, Clone)]
pub struct Ladder {
    /// Mean `wire` span: request latency at the pipeline depth.
    pub wire_latency_ns: f64,
    /// `cached` ops plus their commit barriers.
    pub cached_ns: f64,
    /// `store` ops plus their commit barriers.
    pub store_ns: f64,
    /// `engine` ops.
    pub engine_ns: f64,
    /// `(leaf span name, ns per op)`.
    pub leaves: Vec<(&'static str, f64)>,
    /// `cached` minus `store` minus the cache leaves.
    pub cache_self_ns: f64,
    /// `store` minus `engine` minus the WAL leaves.
    pub store_self_ns: f64,
    /// `engine` minus the model, DAP and device leaves.
    pub engine_self_ns: f64,
}

const CACHE_LEAVES: [&str; 3] = ["cache.lookup", "cache.fill", "cache.invalidate"];
const WAL_LEAVES: [&str; 2] = ["wal.append_put", "wal.commit"];
const ENGINE_LEAVES: [&str; 6] = [
    "model.cluster_order",
    "model.predict_features",
    "dap.pop",
    "dap.push",
    "device.write_at",
    "device.read",
];

impl Ladder {
    /// Build the ladder from a traced pass.
    pub fn new(traced: &Traced) -> Self {
        let ops = traced.rec.ops();
        let totals = traced.rec.totals(traced.timer_overhead_ns);
        let at = |name: &str| per_op_ns(&totals, name, ops);
        let cached_ns = at("cached") + at("cached.commit");
        let store_ns = at("store") + at("store.commit");
        let engine_ns = at("engine");
        let sum = |names: &[&str]| names.iter().map(|n| at(n)).sum::<f64>();
        let leaves = ["frame.decode", "frame.encode"]
            .iter()
            .chain(&CACHE_LEAVES)
            .chain(&WAL_LEAVES)
            .chain(&ENGINE_LEAVES)
            .map(|&n| (n, at(n)))
            .collect();
        Self {
            // Raw, not overhead-corrected: one timer read in tens of
            // microseconds of latency is noise.
            wire_latency_ns: at("wire"),
            cached_ns,
            store_ns,
            engine_ns,
            leaves,
            cache_self_ns: cached_ns - store_ns - sum(&CACHE_LEAVES),
            store_self_ns: store_ns - engine_ns - sum(&WAL_LEAVES),
            engine_self_ns: self_ns(&totals, "engine", &ENGINE_LEAVES, ops),
        }
    }

    /// Leaves under `cached` plus the three self times, as a share of
    /// the `cached`-depth per-op time: 1.0 when the separately replayed
    /// depths agree, further off the more a self time had to be
    /// floored at zero.
    pub fn coverage(&self) -> f64 {
        let leaves: f64 = self
            .leaves
            .iter()
            .filter(|(n, _)| !n.starts_with("frame."))
            .map(|&(_, ns)| ns)
            .sum();
        let selfs = self.cache_self_ns.max(0.0)
            + self.store_self_ns.max(0.0)
            + self.engine_self_ns.max(0.0);
        ratio(leaves + selfs, self.cached_ns)
    }
}

/// Everything [`per_layer`] reads.
pub struct LayerInputs<'a> {
    /// The workload's generated inputs.
    pub inputs: &'a Inputs,
    /// The (last) set-up.
    pub setup: &'a SetUp,
    /// The timed pass.
    pub timed: &'a Timed,
    /// The counted pass and its host cost.
    pub counted: &'a (Counted, CountedHost),
    /// The traced pass.
    pub traced: &'a Traced,
}

/// Every per-layer metric of one workload.
pub fn per_layer(x: &LayerInputs<'_>) -> Vec<Value> {
    let (counted, host) = x.counted;
    let traced = x.traced;
    let ops = traced.rec.ops();
    let totals = traced.rec.totals(traced.timer_overhead_ns);
    let total_ns = |name: &str| totals.get(name).map_or(0.0, |&(_, ns)| ns);
    let calls = |name: &str| totals.get(name).map_or(0.0, |&(n, _)| n as f64);
    let at = |name: &str| per_op_ns(&totals, name, ops);
    let ladder = Ladder::new(traced);

    let mut lat = x.timed.latencies.clone();
    lat.sort_unstable();
    let timed_ops = x.timed.counts.ops as f64;
    let timed_cpu_us = median(&cpu_us_per_op(x.timed));
    let cached_cpu_us = host.cpu_s * 1e6 / counted.counts.ops as f64 * host.host_speed;

    let prefix = &x.inputs.merged.ops[..ops];
    let puts = prefix
        .iter()
        .filter(|op| matches!(op, Op::Put { .. }))
        .count() as f64;
    let store = split_by_kind(traced, x.inputs, "store");
    let engine = split_by_kind(traced, x.inputs, "engine");
    let store_gets = traced
        .reaches_store
        .iter()
        .zip(prefix)
        .filter(|&(&reached, op)| reached && matches!(op, Op::Get { .. }))
        .count() as f64;
    let scans = prefix
        .iter()
        .filter(|op| matches!(op, Op::Scan { .. }))
        .count() as f64;
    let wal_ns = total_ns("wal.append_put") + total_ns("wal.commit");
    let engine_put_leaves: f64 = ENGINE_LEAVES
        .iter()
        .filter(|n| **n != "device.read")
        .map(|n| total_ns(n))
        .sum();
    let predictions = calls("model.cluster_order") + calls("model.predict_features");

    let user_bytes = counted.counts.puts as f64 * (8 + VALUE_BYTES) as f64;
    let lookups = (counted.cache.hits + counted.cache.misses) as f64;
    let lines = (counted.stats.lines_written + counted.stats.lines_skipped) as f64;

    let values: BTreeMap<&str, f64> = [
        ("client.lat_p99_us", f64::from(percentile(&lat, 99.0)) / 1e3),
        (
            "client.lat_p999_us",
            f64::from(percentile(&lat, 99.9)) / 1e3,
        ),
        (
            "client.lat_max_us",
            f64::from(*lat.last().expect("latency samples")) / 1e3,
        ),
        ("client.rep_iqr_frac", iqr_frac(&slice_throughputs(x.timed))),
        ("frame.decode_ns_per_op", at("frame.decode")),
        ("frame.encode_ns_per_op", at("frame.encode")),
        (
            "frame.wire_bytes_per_op",
            (x.timed.counts.bytes_in + x.timed.counts.bytes_out) as f64 / timed_ops,
        ),
        ("wire.self_us_per_op", timed_cpu_us - cached_cpu_us),
        (
            "wire.wakeups_per_op",
            x.timed.reactor.wakeups as f64 / timed_ops,
        ),
        (
            "wire.items_per_dispatch_batch",
            ratio(
                x.timed.reactor.batch_items as f64,
                x.timed.reactor.batches as f64,
            ),
        ),
        ("wire.reads_paused", x.timed.reactor.reads_paused as f64),
        ("cache.hit_ratio", ratio(counted.cache.hits as f64, lookups)),
        ("cache.lookup_ns_per_op", at("cache.lookup")),
        ("cache.fill_ns_per_op", at("cache.fill")),
        ("cache.invalidate_ns_per_op", at("cache.invalidate")),
        (
            "cache.evictions_per_op",
            counted.cache.evictions as f64 / counted.counts.ops as f64,
        ),
        ("cache.self_ns_per_op", ladder.cache_self_ns),
        ("store.put_ns_per_op", ratio(store.put, puts)),
        ("store.get_ns_per_op", ratio(store.get, store_gets)),
        ("store.scan_ns_per_op", ratio(store.scan, scans)),
        (
            "store.self_ns_per_put",
            ratio(
                store.put + total_ns("store.commit") - engine.put - wal_ns,
                puts,
            ),
        ),
        (
            "store.scan_entries_per_op",
            ratio(
                counted.counts.scan_entries as f64,
                counted.counts.scans as f64,
            ),
        ),
        ("wal.append_commit_ns_per_put", ratio(wal_ns, puts)),
        (
            "wal.bytes_per_user_byte",
            ratio(counted.wal_bytes as f64, user_bytes),
        ),
        (
            "wal.commits_per_put",
            ratio(traced.wal_dirty_commits as f64, puts),
        ),
        ("wal.fsyncs", counted.wal_fsyncs as f64),
        ("snapshot.save_s", x.setup.snapshot_save_s),
        ("snapshot.recover_s", host.recover_s),
        ("snapshot.bytes", x.setup.snapshot_bytes as f64),
        ("engine.put_ns_per_op", ratio(engine.put, puts)),
        ("engine.get_ns_per_op", ratio(engine.get, store_gets)),
        (
            "engine.self_ns_per_put",
            ratio(engine.put - engine_put_leaves, puts),
        ),
        (
            "engine.predictions_per_put",
            ratio(traced.leaves.predictions as f64, traced.leaves.puts as f64),
        ),
        (
            "model.predict_ns_per_call",
            ratio(
                total_ns("model.cluster_order") + total_ns("model.predict_features"),
                predictions,
            ),
        ),
        ("model.macs_per_call", x.setup.predict_macs as f64),
        (
            "dap.pop_push_ns_per_put",
            ratio(total_ns("dap.pop") + total_ns("dap.push"), puts),
        ),
        (
            "dap.fallback_ratio",
            ratio(traced.leaves.fallbacks as f64, traced.leaves.puts as f64),
        ),
        (
            "dap.min_cluster_free",
            if traced.leaves.puts == 0 {
                0.0
            } else {
                traced.leaves.min_cluster_free as f64
            },
        ),
        ("dap.memory_bytes", traced.leaves.dap_memory_bytes as f64),
        (
            "device.write_ns_per_call",
            ratio(total_ns("device.write_at"), calls("device.write_at")),
        ),
        (
            "device.read_ns_per_call",
            ratio(total_ns("device.read"), traced.leaves.device_reads as f64),
        ),
        (
            "device.lines_written_per_write",
            ratio(
                counted.stats.lines_written as f64,
                counted.stats.writes as f64,
            ),
        ),
        (
            "device.lines_skipped_frac",
            ratio(counted.stats.lines_skipped as f64, lines),
        ),
        (
            "device.flip_ratio",
            ratio(
                counted.stats.bits_flipped as f64,
                counted.stats.bits_requested as f64,
            ),
        ),
        ("train.total_s", x.setup.train_s),
        ("train.per_shard_s", x.setup.train_s / SHARDS as f64),
        ("train.macs_per_epoch", x.setup.train_macs_per_epoch as f64),
        ("train.final_loss", x.setup.train_final_loss),
        ("process.rss_after_setup_mib", x.setup.rss_mib),
        (
            "process.host_speed",
            median(
                &x.timed
                    .slices
                    .iter()
                    .map(|s| s.host_speed)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "trace.overhead_frac",
            traced.store_spans_on_s / traced.store_spans_off_s - 1.0,
        ),
    ]
    .into_iter()
    .collect();

    PER_LAYER
        .iter()
        .map(|def| Value {
            def,
            value: *values
                .get(def.name)
                .unwrap_or_else(|| panic!("per-layer metric {} not computed", def.name)),
            spread: None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(def.name), "{} defined twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        let setup = find(&END_TO_END, "setup_s");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }
}
