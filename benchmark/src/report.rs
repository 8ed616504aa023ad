//! Everything the benchmark writes: the console lines, the contract's
//! final JSON line, `BENCH.json`, `trace.json`, `attribution.md`, and
//! the text of `BENCHMARK.json` itself.

use crate::geometry as g;
use crate::metrics::{Better, Ladder, Value, END_TO_END, PER_LAYER};
use crate::passes::{Slice, Traced};
use crate::stats::highest_supported_tail;
use crate::workload::WORKLOADS;
use std::fmt::Write as _;

/// Version of the `BENCH.json` / `trace.json` layout. Bump on any
/// change a reader would have to know about.
pub const SCHEMA: &str = "e2nvm-benchmark/1";

/// Seconds one contract run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// A JSON number. Non-finite values have no JSON form and mean a
/// metric was computed from nothing — a bug, so fail loudly.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of the repository's `BENCHMARK.json`, generated from the
/// same tables the binary reports from (a test keeps the file equal).
pub fn benchmark_json() -> String {
    let better = |b: Better| match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(s, "  \"run_seconds\": {RUN_SECONDS},").expect("write to string");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": {}, \"why\": {}}}{sep}",
            quote(w.name),
            quote(w.why)
        )
        .expect("write to string");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}",
            quote(d.name),
            quote(d.unit),
            quote(better(d.better)),
            num(d.bound.expect("end-to-end metrics carry a bound"))
        )
        .expect("write to string");
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}",
            quote(d.name),
            quote(d.unit),
            quote(better(d.better))
        )
        .expect("write to string");
    }
    s.push_str("  ]\n}\n");
    s
}

/// Everything measured for one workload.
pub struct WorkloadReport {
    /// Workload name.
    pub name: &'static str,
    /// Requests attempted, over every pass that checks replies.
    pub attempted: u64,
    /// Of those, answered wrongly.
    pub failed: u64,
    /// Digest of the encoded trace (a pure function of the seed).
    pub trace_digest: u64,
    /// Latency samples behind `lat_p50_us` and the `client.*` tails.
    pub latency_samples: usize,
    /// The timed pass's repetitions as measured, before any scaling.
    pub repetitions: Vec<Slice>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Value>,
    /// Per-layer metrics, when the traced pass ran.
    pub per_layer: Option<Vec<Value>>,
    /// The depth ladder, when the traced pass ran.
    pub ladder: Option<Ladder>,
}

fn metrics_object(values: &[Value]) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|v| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(v.def.name),
                num(v.value),
                quote(v.def.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The contract's result line: `correct`, `attempted`, `failed`, and
/// the metrics of the requested kind.
pub fn result_line(report: &WorkloadReport, per_layer: bool) -> String {
    let values = if per_layer {
        report
            .per_layer
            .as_deref()
            .expect("per-layer metrics were measured")
    } else {
        &report.end_to_end
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics_object(values)
    )
}

/// Human-readable lines: every metric by name and unit.
pub fn print_report(report: &WorkloadReport) {
    println!(
        "== {}: attempted {} failed {} (trace digest {:016x})",
        report.name, report.attempted, report.failed, report.trace_digest
    );
    let line = |v: &Value| {
        let spread = v.spread.map_or(String::new(), |(q1, q3, n)| {
            format!("   [q1 {q1:.6} q3 {q3:.6} over {n} repetitions]")
        });
        println!(
            "{:<34} {:>18.6} {}{spread}",
            v.def.name, v.value, v.def.unit
        );
    };
    report.end_to_end.iter().for_each(line);
    if let Some(tail) = highest_supported_tail(report.latency_samples) {
        println!(
            "{:<34} {} latency samples; highest percentile with >= 10 samples beyond it: p{tail}",
            "lat samples", report.latency_samples
        );
    }
    if let Some(values) = &report.per_layer {
        values.iter().for_each(line);
    }
}

/// Facts about the run that a reader needs beside the numbers.
pub struct Environment {
    /// `--seed`.
    pub seed: u64,
    /// Logical CPUs available to the process when it started.
    pub nproc: usize,
    /// The one of them everything was confined to.
    pub pinned_cpu: usize,
    /// `rustc --version` of the toolchain that built the binary.
    pub rustc: String,
    /// Commit of the checkout, or "unknown" outside a git work tree.
    pub commit: String,
    /// Run mode: `driver`, `suite` or `smoke`.
    pub mode: &'static str,
}

fn value_json(v: &Value) -> String {
    let mut s = format!(
        "{{\"value\": {}, \"unit\": {}",
        num(v.value),
        quote(v.def.unit)
    );
    if let Some(bound) = v.def.bound {
        write!(s, ", \"bound\": {}", num(bound)).expect("write to string");
    }
    if let Some((q1, q3, n)) = v.spread {
        write!(
            s,
            ", \"q1\": {}, \"q3\": {}, \"repetitions\": {n}",
            num(q1),
            num(q3)
        )
        .expect("write to string");
    }
    s.push('}');
    s
}

/// The text of `BENCH.json`.
pub fn bench_json(env: &Environment, reports: &[WorkloadReport]) -> String {
    let mut s = String::from("{\n");
    writeln!(s, "  \"schema\": {},", quote(SCHEMA)).expect("write to string");
    writeln!(
        s,
        "  \"environment\": {{\"seed\": {}, \"mode\": {}, \"nproc\": {}, \"pinned_cpu\": {}, \"rustc\": {}, \
         \"commit\": {}, \"telemetry\": true, \"flush_policy\": {}}},",
        env.seed,
        quote(env.mode),
        env.nproc,
        env.pinned_cpu,
        quote(&env.rustc),
        quote(&env.commit),
        quote(&format!("{:?}", g::flush_policy()))
    )
    .expect("write to string");
    let cfg = g::e2_config();
    writeln!(
        s,
        "  \"geometry\": {{\"shards\": {}, \"segments\": {}, \"segment_bytes\": {}, \"k\": {}, \
         \"hidden\": {:?}, \"latent_dim\": {}, \"pretrain_epochs\": {}, \"joint_epochs\": {}, \
         \"train_sample_cap\": {}, \"records\": {}, \"pool_items\": {}, \"value_bytes\": {}, \
         \"zipf_theta\": {}, \"connections\": {}, \"pipeline_depth\": {}, \"scan_chunk_bytes\": {}, \
         \"counted_ops\": {}, \"traced_ops\": {}}},",
        g::SHARDS,
        g::SEGMENTS,
        g::SEGMENT_BYTES,
        g::K,
        cfg.hidden,
        cfg.latent_dim,
        cfg.pretrain_epochs,
        cfg.joint_epochs,
        cfg.train_sample_cap,
        g::RECORDS,
        g::POOL_ITEMS,
        g::VALUE_BYTES,
        g::ZIPF_THETA,
        g::CONNECTIONS,
        g::PIPELINE_DEPTH,
        g::SCAN_CHUNK_BYTES,
        g::COUNTED_OPS,
        g::TRACED_OPS
    )
    .expect("write to string");
    s.push_str("  \"workloads\": {\n");
    for (i, r) in reports.iter().enumerate() {
        writeln!(s, "    {}: {{", quote(r.name)).expect("write to string");
        writeln!(
            s,
            "      \"attempted\": {}, \"failed\": {}, \"trace_digest\": \"{:016x}\", \"latency_samples\": {},",
            r.attempted, r.failed, r.trace_digest, r.latency_samples
        )
        .expect("write to string");
        let repetitions: Vec<String> = r
            .repetitions
            .iter()
            .map(|x| {
                format!(
                    "[{}, {}, {}, {}, {}]",
                    x.ops,
                    num(x.wall_s),
                    num(x.cpu_s),
                    x.p50_ns,
                    num(x.host_speed)
                )
            })
            .collect();
        writeln!(
            s,
            "      \"timed_repetitions\": [{}],",
            repetitions.join(", ")
        )
        .expect("write to string");
        let object = |values: &[Value]| {
            values
                .iter()
                .map(|v| format!("        {}: {}", quote(v.def.name), value_json(v)))
                .collect::<Vec<_>>()
                .join(",\n")
        };
        write!(
            s,
            "      \"end_to_end\": {{\n{}\n      }}",
            object(&r.end_to_end)
        )
        .expect("write to string");
        if let Some(values) = &r.per_layer {
            write!(
                s,
                ",\n      \"per_layer\": {{\n{}\n      }}",
                object(values)
            )
            .expect("write to string");
        }
        let sep = if i + 1 < reports.len() { "," } else { "" };
        writeln!(s, "\n    }}{sep}").expect("write to string");
    }
    s.push_str("  }\n}\n");
    s
}

/// Append one workload's spans to the text of `trace.json`: the span
/// names once, then one `[id, parent, name, op, start_ns, end_ns]` row
/// per span (`parent` is -1 for none; `name` indexes `names`).
pub fn trace_json_entry(out: &mut String, name: &str, traced: &Traced) {
    writeln!(
        out,
        "    {}: {{\"timer_overhead_ns\": {}, \"names\": [{}], \"spans\": [",
        quote(name),
        num(traced.timer_overhead_ns),
        traced
            .rec
            .names
            .iter()
            .map(|n| quote(n))
            .collect::<Vec<_>>()
            .join(", ")
    )
    .expect("write to string");
    let last = traced.rec.spans.len().saturating_sub(1);
    for (i, s) in traced.rec.spans.iter().enumerate() {
        let parent = if s.parent == crate::span::NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let sep = if i < last { "," } else { "" };
        writeln!(
            out,
            "[{},{parent},{},{},{},{}]{sep}",
            s.id, s.name, s.op, s.start_ns, s.end_ns
        )
        .expect("write to string");
    }
    out.push_str("    ]}");
}

/// One workload's section of `attribution.md`: the depth ladder with
/// self times and their share of the `store`-depth per-op time.
pub fn attribution_section(out: &mut String, report: &WorkloadReport) {
    let Some(ladder) = &report.ladder else {
        return;
    };
    let per_layer = report
        .per_layer
        .as_deref()
        .expect("ladder implies per-layer metrics");
    let metric = |name: &str| {
        per_layer
            .iter()
            .find(|v| v.def.name == name)
            .map_or(0.0, |v| v.value)
    };
    let share = |ns: f64| {
        if ladder.store_ns > 0.0 {
            format!("{:.1} %", ns / ladder.store_ns * 100.0)
        } else {
            "-".to_string()
        }
    };
    writeln!(out, "## {}\n", report.name).expect("write to string");
    writeln!(
        out,
        "| depth / layer | ns per op | share of `store` depth |"
    )
    .expect("write");
    writeln!(out, "|---|---:|---:|").expect("write");
    writeln!(
        out,
        "| `wire` (mean request latency at depth {}) | {:.0} | |",
        g::PIPELINE_DEPTH,
        ladder.wire_latency_ns
    )
    .expect("write");
    writeln!(
        out,
        "| `wire` self (CPU: timed − in-process `cached`) | {:.0} | {} |",
        metric("wire.self_us_per_op") * 1e3,
        share(metric("wire.self_us_per_op") * 1e3)
    )
    .expect("write");
    for (label, ns) in [
        ("`cached` depth", ladder.cached_ns),
        ("  `cache` self", ladder.cache_self_ns),
        ("`store` depth", ladder.store_ns),
        ("  `store` self", ladder.store_self_ns),
        ("`engine` depth", ladder.engine_ns),
        ("  `engine` self", ladder.engine_self_ns),
    ] {
        writeln!(out, "| {label} | {ns:.0} | {} |", share(ns)).expect("write");
    }
    for (name, ns) in &ladder.leaves {
        writeln!(out, "| leaf `{name}` | {ns:.0} | {} |", share(*ns)).expect("write");
    }
    writeln!(
        out,
        "\nLeaves under `cached` + `engine`/`store`/`cache` self times = {:.1} % of the \
         `cached`-depth per-op time; tracing overhead at `store` depth {:.1} %.\n",
        ladder.coverage() * 100.0,
        metric("trace.overhead_frac") * 100.0
    )
    .expect("write");
}

/// The line `attribution.md` exists for: why one `put_clustered` op
/// costs N times one `read_hot` op, from the ladder's shares.
pub fn why_slower(reports: &[WorkloadReport]) -> String {
    let find = |name: &str| reports.iter().find(|r| r.name == name);
    let (Some(put), Some(read)) = (find("put_clustered"), find("read_hot")) else {
        return String::new();
    };
    let cpu = |r: &WorkloadReport| {
        r.end_to_end
            .iter()
            .find(|v| v.def.name == "cpu_us_per_op")
            .map_or(0.0, |v| v.value)
    };
    let Some(ladder) = &put.ladder else {
        return String::new();
    };
    let mut parts: Vec<(&str, f64)> = ladder.leaves.clone();
    parts.push(("engine self", ladder.engine_self_ns));
    parts.push(("store self", ladder.store_self_ns));
    parts.push(("cache self", ladder.cache_self_ns));
    parts.retain(|(name, _)| !name.starts_with("frame."));
    parts.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite span means"));
    let top: Vec<String> = parts
        .iter()
        .take(4)
        .map(|(name, ns)| format!("`{name}` {:.0} %", ns / ladder.cached_ns * 100.0))
        .collect();
    format!(
        "## Why is a `put_clustered` op {:.1}x a `read_hot` op?\n\n\
         {:.2} vs {:.2} us of CPU per op. A `read_hot` op is wire + frame + a cache hit and \
         never leaves `cached`; a `put_clustered` op spends {:.1} us below `cached`, of which \
         {} — the placement model runs {:.1} times per PUT (place + recycle).\n\n",
        cpu(put) / cpu(read),
        cpu(put),
        cpu(read),
        ladder.cached_ns / 1e3,
        top.join(", "),
        put.per_layer
            .as_deref()
            .and_then(|v| v
                .iter()
                .find(|v| v.def.name == "engine.predictions_per_put"))
            .map_or(0.0, |v| v.value),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_file_matches_the_tables() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with `benchmark/run.sh --print-benchmark-json`"
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }
}
