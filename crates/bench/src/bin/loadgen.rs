//! Network load generator for `e2nvm-server`: drives the full YCSB
//! core matrix A–F over loopback with configurable connections ×
//! pipeline depth and records sustained throughput plus per-workload
//! device energy in `results/net_throughput.md`.
//!
//! The six mixes exercise every wire path: A/B/C are the GET/PUT
//! mixes, D inserts new keys under the latest distribution (with a
//! capacity-aware admission budget so a finite simulated device never
//! answers a full-store error mid-measurement), E drives short ranges
//! through the streaming SCAN_STREAM opcode (chunked multi-frame
//! responses), and F issues read-modify-writes as a pipelined GET→PUT
//! pair per key — both frames in one batch, in order, so the write
//! always follows its read on the same connection.
//!
//! By default it boots its own 4-shard server on an ephemeral loopback
//! port (the in-process [`e2nvm_server::Server`], so one binary is a
//! complete experiment); pass `--addr HOST:PORT` to aim it at an
//! already-running `e2nvm-server` instead. Self-hosted servers set a
//! deliberately small 1 KiB scan-chunk bound so workload E's short
//! ranges genuinely exercise multi-chunk streams (the CI-checkable
//! `multi-chunk scan responses: N` line comes from server telemetry).
//!
//! With `--cache` the generator runs the whole suite twice — once
//! against a plain server, once against one fronted by the DRAM
//! read-through cache — and records the side-by-side comparison (with
//! per-workload hit rates) in `results/cache_throughput.md` instead.
//!
//! With `--recovery` it runs the kill-and-restart experiment instead:
//! boot a *separate* `e2nvm-server` process with `--data-dir`, drive
//! an acked PUT burst, SIGKILL the server mid-burst, restart it from
//! the same directory, and verify every acked write reads back —
//! printing the CI-checkable line `acked writes recovered: A/A
//! (lost 0)`. It also measures recovery boot vs retrain-from-scratch
//! boot and WAL-on vs WAL-off PUT throughput, and records everything
//! in `results/recovery.md`.
//!
//! With `--cluster` it runs the two failover experiments instead:
//! boot three *separate* `e2nvm-server` processes, route over them
//! with `e2nvm-cluster` (R=2 replication), then (1) SIGKILL one
//! server mid-burst and (2) wear one server's simulated device out
//! (`--fault-endurance`) until the health prober drains it — in both
//! cases verifying that every acked write reads back and printing the
//! CI-checkable `(lost 0)` lines. Before/after routing tables and
//! wear counters land in `results/cluster_failover.md`.
//!
//! Run: `cargo run -p e2nvm-bench --release --bin e2nvm-loadgen`
//! (add `--quick` for a CI-sized burst that writes the `_quick`
//! variant of the results file).
//!
//! Flags: `--connections N` (default 4), `--pipeline D` (default 16),
//! `--ops N` per connection per workload, `--shards`, `--segments`,
//! `--seg-bytes`, `--workloads A,B,C,D,E,F` (the plain default; the
//! `--cache` experiment defaults to its established A,B,C scope),
//! `--addr`, `--cache`, `--cache-mb N` (default 64), `--workers N`
//! (reactor pool size, 0 = auto), `--recovery`, `--cluster`,
//! `--quick`. An unknown flag, a missing value or a value that does
//! not parse exits 2 with a usage line.
//!
//! After the run the binary prints `server error frames: N` (summed
//! across wire statuses from the final METRICS frame) so CI can assert
//! a clean run end to end.

use e2nvm_cluster::{ClusterClient, ClusterConfig, NodeState};
use e2nvm_kvstore::NvmKvStore as _;
use e2nvm_server::frame::{encode_request, Request, Status};
use e2nvm_server::{demo::demo_store, CacheConfig, Client, Server, ServerConfig, ServerHandle};
use e2nvm_telemetry::TelemetryRegistry;
use e2nvm_workloads::ycsb::{Operation, Ycsb};
use e2nvm_workloads::zipf::scramble;
use std::io::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

struct Args {
    addr: Option<String>,
    connections: usize,
    pipeline: usize,
    ops: usize,
    shards: usize,
    segments: usize,
    seg_bytes: usize,
    workloads: Vec<char>,
    cache: bool,
    cache_mb: usize,
    workers: usize,
    recovery: bool,
    cluster: bool,
    quick: bool,
}

const USAGE: &str = "usage: e2nvm-loadgen [--addr HOST:PORT] [--connections N] [--pipeline D] \
[--ops N] [--shards N] [--segments N] [--seg-bytes N] [--workloads A,B,C,D,E,F] [--workers N] \
[--cache] [--cache-mb N] [--recovery] [--cluster] [--quick]";

/// Reject the command line: say why, print the usage line, exit 2.
fn usage_exit(msg: &str) -> ! {
    eprintln!("e2nvm-loadgen: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// `raw` as the numeric value of `flag`, or a usage exit.
fn number(flag: &str, raw: String) -> usize {
    raw.parse()
        .unwrap_or_else(|_| usage_exit(&format!("invalid value {raw:?} for {flag}")))
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        connections: 4,
        pipeline: 16,
        ops: 0, // resolved after --quick is known
        shards: 4,
        segments: 0,
        seg_bytes: 64,
        workloads: vec!['A', 'B', 'C', 'D', 'E', 'F'],
        cache: false,
        cache_mb: 64,
        workers: 0,
        recovery: false,
        cluster: false,
        quick: false,
    };
    let mut ops_set = false;
    let mut segments_set = false;
    let mut workloads_set = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage_exit(&format!("{flag} requires a value")))
        };
        match flag {
            "--addr" => args.addr = Some(value()),
            "--connections" => args.connections = number(flag, value()),
            "--pipeline" => args.pipeline = number(flag, value()),
            "--ops" => {
                args.ops = number(flag, value());
                ops_set = true;
            }
            "--shards" => args.shards = number(flag, value()),
            "--segments" => {
                args.segments = number(flag, value());
                segments_set = true;
            }
            "--seg-bytes" => args.seg_bytes = number(flag, value()),
            "--workloads" => {
                args.workloads = value()
                    .split(',')
                    .map(|w| {
                        let c = w.trim().to_ascii_uppercase();
                        if !matches!(c.as_str(), "A" | "B" | "C" | "D" | "E" | "F") {
                            usage_exit(&format!(
                                "supported workloads: A, B, C, D, E, F (got {w:?})"
                            ));
                        }
                        c.chars().next().unwrap()
                    })
                    .collect();
                workloads_set = true;
            }
            "--cache" => args.cache = true,
            "--cache-mb" => args.cache_mb = number(flag, value()),
            "--workers" => args.workers = number(flag, value()),
            "--recovery" => args.recovery = true,
            "--cluster" => args.cluster = true,
            "--quick" => args.quick = true,
            other => usage_exit(&format!("unknown flag {other:?}")),
        }
    }
    if !ops_set {
        // The recovery and cluster experiments' ops are a *total*
        // burst size, not per connection (cluster puts are synchronous
        // R-way fan-outs, so their burst is smaller than the
        // single-server one).
        args.ops = if args.recovery {
            if args.quick {
                800
            } else {
                12_000
            }
        } else if args.cluster {
            if args.quick {
                600
            } else {
                6_000
            }
        } else if args.quick {
            150
        } else {
            25_000
        };
    }
    if !segments_set {
        args.segments = if args.quick { 256 } else { 2048 };
    }
    if !workloads_set && args.cache {
        // The cache experiment keeps its established A/B/C scope (its
        // report is a GET/PUT-shaped comparison); the plain run covers
        // the full matrix. An explicit --workloads overrides either
        // default.
        args.workloads = vec!['A', 'B', 'C'];
    }
    if args.connections == 0 || args.pipeline == 0 || args.cache_mb == 0 {
        usage_exit("--connections, --pipeline and --cache-mb must be > 0");
    }
    args
}

fn make_workload(name: char, records: u64, value_len: usize, seed: u64) -> Ycsb {
    match name {
        'A' => Ycsb::a(records, value_len, seed),
        'B' => Ycsb::b(records, value_len, seed),
        'D' => Ycsb::d(records, value_len, seed),
        'E' => Ycsb::e(records, value_len, seed),
        'F' => Ycsb::f(records, value_len, seed),
        _ => Ycsb::c(records, value_len, seed),
    }
}

#[derive(Default)]
struct ConnResult {
    ops: u64,
    reads: u64,
    writes: u64,
    scans: u64,
    rmws: u64,
    /// Workload-D/E inserts degraded to updates of an
    /// already-admitted insert key once the capacity budget ran out.
    degraded_inserts: u64,
    errors: u64,
}

/// One connection's pre-generated trace: the whole YCSB op stream
/// chunked into `pipeline`-deep batches — each already encoded to wire
/// bytes, paired with its response count — plus the read/write tallies
/// counted up front. Generating and encoding the trace before the
/// clock starts is the standard loadgen discipline: the timed region
/// then measures the server, not the Zipfian sampler or the codec.
struct ConnPlan {
    /// `(encoded request frames, terminal responses owed)` per batch.
    /// An RMW op owes two responses (its GET and its PUT); a streamed
    /// SCAN owes one *terminal* response however many chunk frames it
    /// spans — the drain counts with [`Client::recv_responses`].
    batches: Vec<(Vec<u8>, usize)>,
    result: ConnResult,
}

fn plan_connection(
    workload: char,
    records: u64,
    value_len: usize,
    seed: u64,
    ops: usize,
    pipeline: usize,
    insert_budget: usize,
) -> ConnPlan {
    let mut gen = make_workload(workload, records, value_len, seed);
    let mut result = ConnResult::default();
    // Capacity-aware insert admission (workloads D and E): the
    // simulated device is finite, so each connection may issue at most
    // `insert_budget` genuinely-new keys. Past the budget an insert
    // degrades to an update of a previously-admitted insert key —
    // write ratio and latest-skew are preserved, and the store never
    // answers a full-device error mid-measurement. (Connections share
    // the generator's insert key sequence, so distinct new keys across
    // the whole fleet are bounded by one budget, not the sum.)
    let mut admitted: Vec<u64> = Vec::new();
    let mut budget = insert_budget;
    let mut degrade_cursor = 0usize;
    let mut batches: Vec<(Vec<u8>, usize)> = Vec::with_capacity(ops.div_ceil(pipeline));
    let mut remaining = ops;
    while remaining > 0 {
        let depth = pipeline.min(remaining);
        let mut encoded = Vec::with_capacity(depth * 64);
        let mut owed = 0usize;
        for _ in 0..depth {
            result.ops += 1;
            match gen.next_op() {
                Operation::Read(key) => {
                    result.reads += 1;
                    owed += 1;
                    encode_request(&Request::Get { key }, &mut encoded);
                }
                Operation::Update(key, value) => {
                    result.writes += 1;
                    owed += 1;
                    encode_request(&Request::Put { key, value }, &mut encoded);
                }
                Operation::Insert(key, value) => {
                    let key = if budget > 0 {
                        budget -= 1;
                        admitted.push(key);
                        key
                    } else {
                        result.degraded_inserts += 1;
                        degrade_cursor += 1;
                        match admitted.get(degrade_cursor % admitted.len().max(1)) {
                            Some(&k) => k,
                            // Zero budget from the start: update the
                            // newest load-phase key instead.
                            None => scramble(records.saturating_sub(1)),
                        }
                    };
                    result.writes += 1;
                    owed += 1;
                    encode_request(&Request::Put { key, value }, &mut encoded);
                }
                Operation::Scan(key, len) => {
                    result.scans += 1;
                    owed += 1;
                    // Short range through the streaming opcode: lo is
                    // the sampled key, the limit (not hi) bounds the
                    // range length, exactly YCSB-E's contract.
                    encode_request(
                        &Request::ScanStream {
                            lo: key,
                            hi: u64::MAX,
                            limit: len as u32,
                        },
                        &mut encoded,
                    );
                }
                Operation::ReadModifyWrite(key, value) => {
                    // One op, two frames, one batch: the PUT rides the
                    // same pipelined batch as its GET and the server
                    // executes a connection's frames in order, so the
                    // write never reorders ahead of its read.
                    result.rmws += 1;
                    result.reads += 1;
                    result.writes += 1;
                    owed += 2;
                    encode_request(&Request::Get { key }, &mut encoded);
                    encode_request(&Request::Put { key, value }, &mut encoded);
                }
            }
        }
        remaining -= depth;
        batches.push((encoded, owed));
    }
    ConnPlan { batches, result }
}

struct WorkloadResult {
    name: char,
    ops: u64,
    reads: u64,
    writes: u64,
    scans: u64,
    rmws: u64,
    degraded_inserts: u64,
    errors: u64,
    elapsed_s: f64,
    /// Device-counter deltas over this workload's run, from STATS
    /// frames snapshotted between workloads: bit flips actually
    /// programmed into the simulated NVM and the device energy they
    /// (plus the line reads/writes) cost.
    bits_flipped: u64,
    energy_pj: f64,
    /// Cache hit/miss deltas over this workload's run, when the server
    /// exposes the `e2nvm_cache_*` series (a cache is attached).
    cache_hits: Option<u64>,
    cache_misses: Option<u64>,
}

impl WorkloadResult {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed_s
    }

    fn bits_per_op(&self) -> f64 {
        self.bits_flipped as f64 / self.ops.max(1) as f64
    }

    fn pj_per_op(&self) -> f64 {
        self.energy_pj / self.ops.max(1) as f64
    }

    fn hit_rate(&self) -> Option<f64> {
        match (self.cache_hits, self.cache_misses) {
            (Some(h), Some(m)) if h + m > 0 => Some(h as f64 / (h + m) as f64),
            _ => None,
        }
    }
}

/// One numeric field out of the STATS frame's flat JSON document
/// (schema in PROTOCOL.md §4), or `None` when absent.
fn stats_field(stats: &str, name: &str) -> Option<f64> {
    let pat = format!("\"{name}\":");
    let at = stats.find(&pat)? + pat.len();
    let rest = &stats[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// One unlabeled sample value from a Prometheus exposition, or `None`
/// when the series is absent (e.g. no cache attached).
fn metric_value(metrics: &str, name: &str) -> Option<u64> {
    metrics.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(' ')?;
        rest.trim().parse::<f64>().ok().map(|v| v as u64)
    })
}

/// The sum of every sample of `name` across its label sets (e.g. the
/// per-status `e2nvm_server_error_frames_total{status=...}` family),
/// or `None` when the series is absent entirely.
fn metric_sum(metrics: &str, name: &str) -> Option<u64> {
    let mut found = false;
    let mut total = 0f64;
    for line in metrics.lines() {
        let Some(rest) = line.strip_prefix(name) else {
            continue;
        };
        // Accept `name{labels} value` and `name value`; reject other
        // series that merely share the prefix.
        let value = if let Some(labeled) = rest.strip_prefix('{') {
            labeled
                .split_once('}')
                .and_then(|(_, v)| v.trim().parse::<f64>().ok())
        } else if let Some(v) = rest.strip_prefix(' ') {
            v.trim().parse::<f64>().ok()
        } else {
            None
        };
        if let Some(v) = value {
            found = true;
            total += v;
        }
    }
    found.then_some(total as u64)
}

/// Print the CI-checkable error-frame summary for one finished suite.
/// Every server registers the family at start, so a reply without it
/// is a server bug, not a configuration.
fn print_error_frames(metrics: &str) {
    let n = metric_sum(metrics, "e2nvm_server_error_frames_total")
        .expect("METRICS reply has no e2nvm_server_error_frames_total series");
    println!("server error frames: {n}");
}

/// Print the CI-checkable multi-chunk streaming-SCAN count: how many
/// SCAN_STREAM responses spanned more than one chunk frame, straight
/// from the server's telemetry. Non-zero proves workload E exercised
/// the chunked path, not just single-frame streams.
fn print_multi_chunk_scans(metrics: &str) {
    let n = metric_value(metrics, "e2nvm_server_scan_stream_multi_chunk_total")
        .expect("METRICS reply has no e2nvm_server_scan_stream_multi_chunk_total series");
    println!("multi-chunk scan responses: {n}");
}

/// Everything one full suite run produced: per-workload throughput,
/// the final STATS document, and the final METRICS exposition.
struct SuiteOutcome {
    results: Vec<WorkloadResult>,
    stats: String,
    metrics: String,
}

/// Target payload per streamed SCAN chunk on the loadgen's
/// self-hosted servers: deliberately small so workload E's short
/// ranges (≤ 100 records) genuinely span multiple chunk frames —
/// the streaming path under test, not just its degenerate
/// one-chunk case.
const LOADGEN_SCAN_CHUNK: usize = 1024;

/// Boot a server (unless `--addr` points at one), load every record,
/// then drive each requested workload with `connections` pipelined
/// connections. `cache_cfg` shapes the server-side read-through cache
/// (`None` serves every GET from the store).
fn run_suite(args: &Args, cache_cfg: Option<CacheConfig>) -> SuiteOutcome {
    let records = (args.segments / 4) as u64;
    let value_len = args.seg_bytes * 3 / 4;

    // Self-hosted server unless --addr points elsewhere. The in-process
    // option keeps the binary a one-command experiment; the traffic
    // still crosses real loopback sockets either way.
    let (addr, hosted): (SocketAddr, Option<ServerHandle>) = match &args.addr {
        Some(addr) => (addr.parse().expect("--addr must be HOST:PORT"), None),
        None => {
            eprintln!(
                "booting {}-shard server ({} segments x {} B{}) ...",
                args.shards,
                args.segments,
                args.seg_bytes,
                match &cache_cfg {
                    Some(c) => format!(", {} MiB cache", c.capacity_bytes >> 20),
                    None => String::new(),
                }
            );
            let mut store = demo_store(args.shards, args.segments, args.seg_bytes, 0xE2);
            let registry = TelemetryRegistry::new();
            store.attach_telemetry(&registry);
            // Leave headroom above the driven connection count: the
            // loader + shutdown connections ride alongside the fleet,
            // and a BUSY reject mid-run would poison the measurement.
            let mut config = ServerConfig::builder()
                .max_connections(args.connections + 16)
                .workers(args.workers)
                .scan_chunk_bytes(LOADGEN_SCAN_CHUNK);
            if let Some(cache) = cache_cfg.clone() {
                config = config.cache(cache);
            }
            let config = config.build().expect("loadgen server config");
            let handle = Server::new(store, config)
                .with_telemetry(&registry)
                .start()
                .expect("server binds an ephemeral port");
            (handle.local_addr(), Some(handle))
        }
    };

    // Load phase: one connection inserts every record through the
    // pipelined put_many helper, then spot-checks a sample via
    // get_many.
    let mut loader = Client::connect(addr).expect("connect for load phase");
    let mut gen = make_workload('C', records, value_len, 0);
    let load_keys: Vec<u64> = gen.load_keys().collect();
    let t0 = Instant::now();
    for chunk in load_keys.chunks(args.pipeline) {
        let pairs: Vec<(u64, Vec<u8>)> = chunk
            .iter()
            .map(|&key| (key, gen.value_for(key, 0)))
            .collect();
        loader.put_many(&pairs).expect("load phase put_many");
    }
    let sample: Vec<u64> = load_keys.iter().step_by(64).copied().collect();
    for (key, value) in sample
        .iter()
        .zip(loader.get_many(&sample).expect("load phase get_many"))
    {
        assert_eq!(
            value.as_deref(),
            Some(gen.value_for(*key, 0).as_slice()),
            "loaded key {key} did not read back"
        );
    }
    eprintln!(
        "loaded {} records in {:.2}s",
        load_keys.len(),
        t0.elapsed().as_secs_f64()
    );

    // Run phase: per workload, one driver thread multiplexes all
    // `connections` sockets — each round it sends every connection's
    // next `pipeline`-deep batch, then drains every connection's
    // responses, so each connection keeps `pipeline` requests
    // outstanding without an OS thread per socket (on small hosts the
    // per-batch context switches would otherwise dominate the
    // measurement). Cache hit/miss counters are snapshotted between
    // workloads so each row reports its own delta.
    let mut results: Vec<WorkloadResult> = Vec::new();
    let snapshot = |loader: &mut Client| {
        let metrics = loader.metrics().expect("METRICS frame");
        (
            metric_value(&metrics, "e2nvm_cache_hits_total"),
            metric_value(&metrics, "e2nvm_cache_misses_total"),
        )
    };
    let device_snapshot = |loader: &mut Client| {
        let stats = loader.stats().expect("STATS frame");
        (
            stats_field(&stats, "bits_flipped").unwrap_or(0.0) as u64,
            stats_field(&stats, "energy_pj").unwrap_or(0.0),
        )
    };
    // The load phase doubled occupancy headroom exists for: records
    // fill 1/4 of the device, so admitting another `records` distinct
    // insert keys tops out at 1/2 — the placement pipeline keeps ample
    // free segments and D/E never hit a full-store error.
    let insert_budget = records as usize;
    let (mut prev_hits, mut prev_misses) = snapshot(&mut loader);
    let (mut prev_bits, mut prev_pj) = device_snapshot(&mut loader);
    for &workload in &args.workloads {
        // Traces are generated before the clock starts, so the timed
        // region measures the server, not the Zipfian sampler.
        let mut plans: Vec<ConnPlan> = (0..args.connections)
            .map(|c| {
                plan_connection(
                    workload,
                    records,
                    value_len,
                    0x10AD + c as u64,
                    args.ops,
                    args.pipeline,
                    insert_budget,
                )
            })
            .collect();
        let mut clients: Vec<Client> = (0..args.connections)
            .map(|_| Client::connect(addr).expect("run-phase connect"))
            .collect();
        let rounds = plans.iter().map(|p| p.batches.len()).max().unwrap_or(0);
        let t0 = Instant::now();
        // Each round: send every connection's batch, then drain every
        // connection's responses. On a small host this clusters the
        // context switches — one client→servers hand-off per round
        // instead of one per connection — and a connection's
        // outstanding requests never exceed `pipeline`.
        for round in 0..rounds {
            for (client, plan) in clients.iter_mut().zip(&plans) {
                if let Some((encoded, _)) = plan.batches.get(round) {
                    client.send_encoded(encoded).expect("run-phase send");
                }
            }
            for (client, plan) in clients.iter_mut().zip(plans.iter_mut()) {
                if let Some(&(_, owed)) = plan.batches.get(round) {
                    // Typed error frames (e.g. DEGRADED under a worn
                    // pool) are counted, not fatal — the run keeps
                    // going. The zero-copy consumer keeps the
                    // measurement off the client allocator. Draining
                    // counts *terminal* responses, so a streamed SCAN
                    // settles one owed slot however many chunk frames
                    // it spans.
                    let errors = &mut plan.result.errors;
                    client
                        .recv_responses(owed, |raw| {
                            if raw.code != Status::Ok as u8 && raw.code != Status::NotFound as u8 {
                                *errors += 1;
                            }
                        })
                        .expect("run-phase recv");
                }
            }
        }
        let elapsed_s = t0.elapsed().as_secs_f64();
        let mut total = WorkloadResult {
            name: workload,
            ops: 0,
            reads: 0,
            writes: 0,
            scans: 0,
            rmws: 0,
            degraded_inserts: 0,
            errors: 0,
            elapsed_s,
            bits_flipped: 0,
            energy_pj: 0.0,
            cache_hits: None,
            cache_misses: None,
        };
        for plan in &plans {
            total.ops += plan.result.ops;
            total.reads += plan.result.reads;
            total.writes += plan.result.writes;
            total.scans += plan.result.scans;
            total.rmws += plan.result.rmws;
            total.degraded_inserts += plan.result.degraded_inserts;
            total.errors += plan.result.errors;
        }
        drop(clients);
        let (hits, misses) = snapshot(&mut loader);
        total.cache_hits = hits.zip(prev_hits).map(|(now, prev)| now - prev);
        total.cache_misses = misses.zip(prev_misses).map(|(now, prev)| now - prev);
        (prev_hits, prev_misses) = (hits, misses);
        let (bits, pj) = device_snapshot(&mut loader);
        total.bits_flipped = bits.saturating_sub(prev_bits);
        total.energy_pj = pj - prev_pj;
        (prev_bits, prev_pj) = (bits, pj);
        eprintln!(
            "YCSB-{}: {} ops in {:.2}s = {:.0} ops/s \
             ({} reads, {} writes, {} scans, {} rmws, {} errors, \
             {:.1} bit flips/op{}{})",
            total.name,
            total.ops,
            total.elapsed_s,
            total.ops_per_s(),
            total.reads,
            total.writes,
            total.scans,
            total.rmws,
            total.errors,
            total.bits_per_op(),
            match total.degraded_inserts {
                0 => String::new(),
                n => format!(", {n} inserts degraded to updates"),
            },
            match total.hit_rate() {
                Some(rate) => format!(", {:.1}% cache hits", rate * 100.0),
                None => String::new(),
            }
        );
        results.push(total);
    }

    let stats = loader.stats().expect("STATS frame");
    let metrics = loader.metrics().expect("METRICS frame");
    drop(loader);

    if let Some(handle) = hosted {
        let mut c = Client::connect(addr).expect("connect for shutdown");
        c.shutdown_server().expect("SHUTDOWN frame acknowledged");
        let served = handle.join();
        eprintln!("clean shutdown after {served} connections");
    }

    SuiteOutcome {
        results,
        stats,
        metrics,
    }
}

/// Shared methodology note for both reports — keeps regenerated
/// result files honest about how the numbers were taken.
const METHODOLOGY: &str = "Methodology: operation traces are pre-generated and pre-encoded \
    before the clock starts (standard loadgen practice — the measurement covers serving, not \
    trace generation), and one driver thread multiplexes all connections round-by-round \
    (send every connection's batch, then drain every connection's responses), which minimises \
    context switches when client and server share cores. Numbers come from a single run on a \
    shared host where run-to-run variance of 30-40% is routine; compare the suites within one \
    run rather than across files, and weight the speedup column over absolute ops/s.\n\n";

fn mix_label(name: char) -> &'static str {
    match name {
        'A' => "50R/50U zipf",
        'B' => "95R/5U zipf",
        'D' => "95R/5I latest",
        'E' => "95S/5I zipf",
        'F' => "50R/50RMW zipf",
        _ => "100R zipf",
    }
}

fn write_report(path: &str, md: &str) {
    std::fs::create_dir_all("results").ok();
    let mut f = std::fs::File::create(path).unwrap();
    f.write_all(md.as_bytes()).unwrap();
    eprintln!("wrote {path}");
}

/// The plain (no `--cache`) report: the full YCSB A–F matrix with
/// per-workload device energy.
fn report_plain(args: &Args, suite: &SuiteOutcome) {
    let records = (args.segments / 4) as u64;
    let value_len = args.seg_bytes * 3 / 4;
    let mut md = String::from(
        "# Network serving: the YCSB A\u{2013}F matrix over loopback, with device energy\n\n",
    );
    md.push_str(&format!(
        "`e2nvm-loadgen` against a {}-shard `e2nvm-server` ({} segments x {} B, {} records, \
         {}-byte values): {} client connections x pipeline depth {}, {} ops per connection per \
         workload. Frames cross real loopback TCP sockets; the wire format is PROTOCOL.md. \
         Workload D admits new-key inserts against a capacity budget (past it, inserts degrade \
         to updates of already-admitted insert keys, so a finite simulated device never answers \
         a full-store error mid-run); E drives 1\u{2013}100-record ranges through the streaming \
         SCAN_STREAM opcode with a {} B chunk bound, so short scans genuinely span multiple \
         frames; F issues each read-modify-write as a pipelined GET\u{2192}PUT pair in one \
         batch. Bit flips and pJ per op are per-workload deltas of the server's STATS \
         counters — device work, not wall-clock energy.\n\n",
        args.shards,
        args.segments,
        args.seg_bytes,
        records,
        value_len,
        args.connections,
        args.pipeline,
        args.ops,
        LOADGEN_SCAN_CHUNK,
    ));
    md.push_str(METHODOLOGY);
    md.push_str("## Throughput and device energy\n\n");
    md.push_str(
        "| workload | mix | ops | elapsed s | ops/s | bit flips/op | pJ/op | error frames |\n",
    );
    md.push_str(
        "|---------:|----:|----:|----------:|------:|-------------:|------:|-------------:|\n",
    );
    for r in &suite.results {
        md.push_str(&format!(
            "| YCSB-{} | {} | {} | {:.2} | {:.0} | {:.1} | {:.0} | {} |\n",
            r.name,
            mix_label(r.name),
            r.ops,
            r.elapsed_s,
            r.ops_per_s(),
            r.bits_per_op(),
            r.pj_per_op(),
            r.errors
        ));
    }
    let degraded: u64 = suite.results.iter().map(|r| r.degraded_inserts).sum();
    if degraded > 0 {
        md.push_str(&format!(
            "\n{degraded} inserts exceeded the capacity budget and were degraded to updates of \
             already-admitted insert keys.\n"
        ));
    }
    md.push_str(&format!(
        "\nServer stats after the run: `{}`\n",
        suite.stats
    ));
    let path = if args.quick {
        "results/net_throughput_quick.md"
    } else {
        "results/net_throughput.md"
    };
    write_report(path, &md);
}

/// The `--cache` report: baseline and cached suites side by side, with
/// per-workload hit rates.
fn report_cache(args: &Args, baseline: &SuiteOutcome, cached: &SuiteOutcome) {
    let records = (args.segments / 4) as u64;
    let value_len = args.seg_bytes * 3 / 4;
    let mut md = String::from(
        "# Hot-key caching: YCSB throughput with and without the DRAM read-through cache\n\n",
    );
    md.push_str(&format!(
        "`e2nvm-loadgen --cache` runs the suite twice against a {}-shard `e2nvm-server` \
         ({} segments x {} B, {} records, {}-byte values): once plain, once fronted by a \
         {} MiB read-through cache (PUT/DELETE invalidate before the ack; SCAN bypasses). \
         {} client connections x pipeline depth {}, {} ops per connection per workload. \
         Reads the cache absorbs never touch the simulated NVM device — on a read-heavy \
         mix that converts directly into throughput and saved device energy.\n\n",
        args.shards,
        args.segments,
        args.seg_bytes,
        records,
        value_len,
        args.cache_mb,
        args.connections,
        args.pipeline,
        args.ops,
    ));
    md.push_str(METHODOLOGY);
    md.push_str("| workload | mix | baseline ops/s | cached ops/s | speedup | cache hit rate |\n");
    md.push_str("|---------:|----:|---------------:|-------------:|--------:|---------------:|\n");
    for (b, c) in baseline.results.iter().zip(&cached.results) {
        assert_eq!(b.name, c.name, "suites ran the same workloads in order");
        let hit_rate = match c.hit_rate() {
            Some(rate) => format!("{:.1}%", rate * 100.0),
            None => "n/a".to_string(),
        };
        md.push_str(&format!(
            "| YCSB-{} | {} | {:.0} | {:.0} | {:.2}x | {} |\n",
            b.name,
            mix_label(b.name),
            b.ops_per_s(),
            c.ops_per_s(),
            c.ops_per_s() / b.ops_per_s(),
            hit_rate,
        ));
    }
    md.push_str(&format!(
        "\nBaseline server stats after the run: `{}`\n\nCached server stats after the run: `{}`\n",
        baseline.stats, cached.stats
    ));
    let path = if args.quick {
        "results/cache_throughput_quick.md"
    } else {
        "results/cache_throughput.md"
    };
    write_report(path, &md);
}

// ---------------------------------------------------------------------
// Kill-and-restart recovery experiment (`--recovery`).
// ---------------------------------------------------------------------

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
    child: std::process::Child,
    addr: SocketAddr,
    boot_s: f64,
    _stdout: std::io::BufReader<std::process::ChildStdout>,
}

/// Spawn an out-of-process server with `--data-dir` and wait for its
/// `listening on ADDR` banner. The boot time is the
/// train-from-scratch time on an empty directory and the
/// snapshot+WAL-replay time on a populated one.
fn spawn_server(args: &Args, data_dir: &std::path::Path) -> SpawnedServer {
    let mut cmd = std::process::Command::new(server_exe());
    cmd.arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--shards")
        .arg(args.shards.to_string())
        .arg("--segments")
        .arg(args.segments.to_string())
        .arg("--seg-bytes")
        .arg(args.seg_bytes.to_string())
        .arg("--data-dir")
        .arg(data_dir)
        // Periodic snapshots bound the WAL tail a crash leaves behind
        // (and therefore the replay a restart pays) to ~1/6 of the
        // burst — the production knob this experiment exists to size.
        .arg("--snapshot-every")
        .arg(((args.ops / 6).max(1)).to_string());
    spawn_banner(cmd)
}

/// Spawn a memory-only cluster node with explicit store geometry and,
/// for the wear-out experiment, the simulator's fault injector
/// (`--fault-endurance`/`--fault-seed`).
fn spawn_cluster_node(
    shards: usize,
    segments: usize,
    seg_bytes: usize,
    fault: Option<(u64, u64)>,
) -> SpawnedServer {
    let mut cmd = std::process::Command::new(server_exe());
    cmd.arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--shards")
        .arg(shards.to_string())
        .arg("--segments")
        .arg(segments.to_string())
        .arg("--seg-bytes")
        .arg(seg_bytes.to_string());
    if let Some((endurance_bits, seed)) = fault {
        cmd.arg("--fault-endurance")
            .arg(endurance_bits.to_string())
            .arg("--fault-seed")
            .arg(seed.to_string());
    }
    spawn_banner(cmd)
}

/// Launch a prepared server command and block until its
/// `listening on ADDR` banner, timing spawn-to-banner as the boot.
fn spawn_banner(mut cmd: std::process::Command) -> SpawnedServer {
    use std::io::BufRead as _;
    cmd.stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit());
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
fn burst_value(i: usize, len: usize) -> Vec<u8> {
    let seed = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    seed.to_le_bytes()
        .iter()
        .copied()
        .cycle()
        .take(len)
        .collect()
}

/// Sustained pipelined PUT throughput against an in-process server,
/// with or without persistence — the WAL-overhead twin the report's
/// within-10% claim rests on. Same keyspace, values, and pipeline
/// depth as the kill burst. The burst is driven `rounds` times against
/// one server and the best round is returned: the first round pays
/// one-time costs (first-touch placements, allocator growth) and a
/// shared host adds 30-40% run-to-run noise, so the max is the
/// honest estimate of each configuration's ceiling.
/// One in-process server plus a connected client driving pre-encoded
/// pipelined PUT batches — half of the WAL overhead twin. Both twins
/// stay alive together and their timing rounds interleave, so machine
/// drift (CPU frequency, page cache, scheduler state) hits both
/// equally instead of biasing whichever twin ran second.
struct BurstRig {
    client: Client,
    handle: Option<ServerHandle>,
    batches: Vec<(Vec<u8>, usize)>,
    ops: usize,
}

impl BurstRig {
    fn new(args: &Args, persist: Option<e2nvm_persist::PersistenceConfig>) -> Self {
        let mut store = demo_store(args.shards, args.segments, args.seg_bytes, 0xE2);
        if let Some(pcfg) = persist {
            store = store
                .with_persistence(pcfg, None)
                .expect("enable persistence");
        }
        // The default serving route on both sides, so the delta
        // isolates the WAL.
        let config = ServerConfig::builder()
            .max_connections(16)
            .build()
            .expect("config");
        let handle = Server::new(store, config).start().expect("bind");
        let client = Client::connect(handle.local_addr()).expect("connect");
        let keyspace = (args.segments / 4) as u64;
        let value_len = args.seg_bytes * 3 / 4;
        // Pre-encode every batch so the timed region measures serving.
        let batches: Vec<(Vec<u8>, usize)> = (0..args.ops)
            .collect::<Vec<_>>()
            .chunks(args.pipeline)
            .map(|chunk| {
                let mut encoded = Vec::with_capacity(chunk.len() * (value_len + 24));
                for &i in chunk {
                    encode_request(
                        &Request::Put {
                            key: i as u64 % keyspace,
                            value: burst_value(i, value_len),
                        },
                        &mut encoded,
                    );
                }
                (encoded, chunk.len())
            })
            .collect();
        Self {
            client,
            handle: Some(handle),
            batches,
            ops: args.ops,
        }
    }

    /// Drive every batch once; returns this round's ops/s.
    fn run_once(&mut self) -> f64 {
        let t0 = Instant::now();
        for (encoded, owed) in &self.batches {
            self.client.send_encoded(encoded).expect("send");
            self.client.recv_frames(*owed, |_| {}).expect("recv");
        }
        self.ops as f64 / t0.elapsed().as_secs_f64()
    }

    fn shutdown(mut self) {
        self.client.shutdown_server().expect("shutdown");
        if let Some(handle) = self.handle.take() {
            handle.join();
        }
    }
}

/// Best-of-`rounds` PUT throughput for the WAL-off and WAL-on twins,
/// with the rounds interleaved (off, on, off, on, ...).
fn wal_twin_ops_per_s(
    args: &Args,
    persist: e2nvm_persist::PersistenceConfig,
    rounds: usize,
) -> (f64, f64) {
    let mut off = BurstRig::new(args, None);
    let mut on = BurstRig::new(args, Some(persist));
    let (mut best_off, mut best_on) = (0f64, 0f64);
    for _ in 0..rounds {
        best_off = best_off.max(off.run_once());
        best_on = best_on.max(on.run_once());
    }
    off.shutdown();
    on.shutdown();
    (best_off, best_on)
}

/// The `--recovery` experiment: fresh boot → acked PUT burst →
/// SIGKILL mid-burst → restart from the data dir → verify every acked
/// write → measure boot-time speedup and WAL throughput overhead →
/// write `results/recovery.md`.
fn run_recovery(args: &Args) {
    let data_dir = std::env::temp_dir().join(format!("e2nvm-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let keyspace = (args.segments / 4) as u64;
    let value_len = args.seg_bytes * 3 / 4;

    // Phase 1: fresh boot on an empty directory — the server trains
    // its placement models from scratch and seeds the snapshot. This
    // boot time is what every restart would cost without persistence.
    eprintln!("== phase 1: fresh boot (train from scratch) ==");
    let mut server = spawn_server(args, &data_dir);
    let (addr, fresh_boot_s) = (server.addr, server.boot_s);
    eprintln!("fresh boot (retrain): {:.0} ms", fresh_boot_s * 1e3);

    // Phase 2: acked PUT burst, SIGKILL with the last batch in
    // flight. A write counts as acked only when its OK response was
    // read off the socket — exactly the client's durability contract.
    let mut client = Client::connect(addr).expect("connect for burst");
    let plan: Vec<(u64, Vec<u8>)> = (0..args.ops)
        .map(|i| (i as u64 % keyspace, burst_value(i, value_len)))
        .collect();
    let batches: Vec<&[(u64, Vec<u8>)]> = plan.chunks(args.pipeline).collect();
    let kill_at = batches.len().saturating_sub(1);
    let mut shadow: std::collections::BTreeMap<u64, Vec<u8>> = std::collections::BTreeMap::new();
    let mut acked_ops = 0usize;
    for (bi, batch) in batches.iter().enumerate() {
        let mut encoded = Vec::with_capacity(batch.len() * (value_len + 24));
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
        "burst: {} puts sent, {} acked before SIGKILL ({} distinct keys)",
        args.ops,
        acked_ops,
        shadow.len()
    );
    assert!(
        acked_ops > 0,
        "no writes acked before the kill — burst too small"
    );

    // Phase 3: restart from the same directory and verify every acked
    // write. Boot must recover (snapshot + WAL replay), not retrain.
    eprintln!("== phase 2: restart from {} ==", data_dir.display());
    let mut server = spawn_server(args, &data_dir);
    let (addr, recovery_boot_s) = (server.addr, server.boot_s);
    eprintln!("recovery boot: {:.0} ms", recovery_boot_s * 1e3);
    let mut verify = Client::connect(addr).expect("connect for verify");
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
        "acked writes recovered: {}/{} (lost {})",
        keys.len() - lost,
        keys.len(),
        lost
    );
    verify.shutdown_server().expect("shutdown recovered server");
    drop(verify);
    server.child.wait().expect("recovered server exits");
    drop(server);
    let speedup = fresh_boot_s / recovery_boot_s;
    println!("recovery speedup: {speedup:.1}x (retrain {fresh_boot_s:.3}s vs recover {recovery_boot_s:.3}s)");

    // Phase 4: WAL overhead twin — identical PUT bursts against
    // in-process servers with and without persistence at the default
    // flush policy.
    eprintln!("== phase 3: WAL-off vs WAL-on PUT throughput ==");
    let rounds = if args.quick { 2 } else { 8 };
    let wal_dir = std::env::temp_dir().join(format!("e2nvm-recovery-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    // Default flush policy on purpose: the acceptance number is the
    // out-of-the-box overhead, not a tuned one.
    let pcfg = e2nvm_persist::PersistenceConfig::builder()
        .data_dir(&wal_dir)
        .build()
        .expect("persistence config");
    let (wal_off, wal_on) = wal_twin_ops_per_s(args, pcfg, rounds);
    let delta_pct = (wal_off - wal_on) / wal_off * 100.0;
    println!(
        "wal throughput: {wal_off:.0} ops/s off, {wal_on:.0} ops/s on ({delta_pct:+.1}% overhead)"
    );
    let _ = std::fs::remove_dir_all(&wal_dir);

    // The report.
    let mut md = String::from("# Crash recovery: kill-and-restart with WAL + snapshots\n\n");
    md.push_str(&format!(
        "`e2nvm-loadgen --recovery` against an out-of-process {}-shard `e2nvm-server` \
         ({} segments x {} B, {}-byte values, pipeline depth {}, default flush policy): \
         boot with `--data-dir`, drive {} acked PUTs, SIGKILL the server with the final \
         batch in flight, restart from the same directory, and read back every acked \
         write. A write counts as acked only when its OK response was read off the \
         socket; the server appends to the per-shard WAL (one `write(2)` per batch, \
         before the ack) so a killed process can never lose an acked write under any \
         flush policy.\n\n",
        args.shards, args.segments, args.seg_bytes, value_len, args.pipeline, args.ops,
    ));
    md.push_str(METHODOLOGY);
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
    md.push_str(&format!(
        "| PUT throughput, WAL off | {wal_off:.0} ops/s |\n"
    ));
    md.push_str(&format!("| PUT throughput, WAL on | {wal_on:.0} ops/s |\n"));
    md.push_str(&format!("| WAL overhead | {delta_pct:+.1}% |\n"));
    md.push_str(
        "\nBoot times are spawn-to-`listening` of the real binary, so both include \
         process startup; the speedup is therefore a *lower* bound on the \
         model-retraining saving. The WAL rows drive identical pre-encoded PUT bursts \
         against a pair of in-process servers differing only in persistence, with the \
         twins' timing rounds interleaved (off, on, off, on, ...) and each side \
         reporting its best round, so host-load drift hits both columns alike. The \
         WAL-on twin runs the default flush policy: appends buffer in memory, one \
         `write(2)` per shard hands the batch to the kernel before its acks reach \
         the socket, and the periodic `fdatasync` runs on a background syncer thread. \
         Both twins serve on the default route, each pipelined PUT its own store call. \
         Versions of this report from before the server's PUT-run batching mode was \
         removed (DESIGN.md \u{a7}12) measured a pair with that mode switched on, so \
         the WAL rows changed meaning, not just value: they are now the overhead on \
         the route every client gets.\n",
    );
    let path = if args.quick {
        "results/recovery_quick.md"
    } else {
        "results/recovery.md"
    };
    write_report(path, &md);

    let _ = std::fs::remove_dir_all(&data_dir);
    assert_eq!(lost, 0, "recovery lost {lost} acked writes");
}

/// The `--cluster` experiments: three out-of-process servers behind
/// an `e2nvm-cluster` router, R=2 replication. Experiment 1 SIGKILLs
/// a node mid-burst; experiment 2 wears a node's simulated device out
/// until the health prober drains it. Both verify every acked write
/// reads back (the CI-checkable `(lost 0)` lines) and snapshot the
/// routing table before and after the event; everything lands in
/// `results/cluster_failover.md`.
fn run_cluster(args: &Args) {
    const REPLICATION: usize = 2;
    let value_len = args.seg_bytes * 3 / 4;
    let keyspace = (args.segments / 4) as u64;

    // ------ Experiment 1: SIGKILL a node mid-burst ------
    eprintln!("== cluster experiment 1: SIGKILL a node mid-burst ==");
    let mut servers: Vec<SpawnedServer> = (0..3)
        .map(|_| spawn_cluster_node(args.shards, args.segments, args.seg_bytes, None))
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.addr.to_string()).collect();
    let cfg = ClusterConfig::builder()
        .addrs(addrs.iter().cloned())
        .replication(REPLICATION)
        .probe_interval(Duration::from_millis(100))
        .build()
        .expect("cluster config");
    let mut cluster = ClusterClient::connect(cfg);

    let mut shadow: std::collections::BTreeMap<u64, Vec<u8>> = std::collections::BTreeMap::new();
    let kill_at = (args.ops / 2).max(1);
    let victim = 1usize;
    let mut kill_before = String::new();
    for i in 0..args.ops {
        if i == kill_at {
            // Give the prober one pass so the "before" table carries
            // live key/wear counts, then hard-kill the victim with
            // the burst still running.
            std::thread::sleep(Duration::from_millis(250));
            kill_before = cluster.routing_table();
            servers[victim].child.kill().expect("SIGKILL cluster node");
            servers[victim].child.wait().expect("reap killed node");
            eprintln!(
                "SIGKILLed node {victim} ({}) after {i} acked puts",
                addrs[victim]
            );
        }
        let key = i as u64 % keyspace;
        let value = burst_value(i, value_len);
        // Full-set acks: a put returns Ok only when every replica
        // acknowledged. A single node kill must never fail a write —
        // the router re-walks the ring onto the survivors.
        cluster
            .put(key, &value)
            .expect("replicated put survives a single node kill");
        shadow.insert(key, value);
    }
    let mut lost = 0usize;
    for (key, value) in &shadow {
        if cluster.get(*key).expect("verify get").as_deref() != Some(value.as_slice()) {
            eprintln!("LOST acked key {key}");
            lost += 1;
        }
    }
    assert_eq!(
        cluster.view().state(victim),
        NodeState::Down,
        "router never marked the killed node down"
    );
    let kill_after = cluster.routing_table();
    let kill_stats = cluster.cluster_stats().snapshot();
    println!(
        "acked writes recovered: {}/{} (lost {lost})",
        shadow.len() - lost,
        shadow.len()
    );
    cluster.shutdown_all();
    drop(cluster);
    for (i, mut s) in servers.into_iter().enumerate() {
        if i != victim {
            s.child.wait().expect("cluster node exits");
        }
    }

    // ------ Experiment 2: wear a node out, drain before it dies ------
    eprintln!("== cluster experiment 2: wear-driven drain ==");
    // Node 0 runs on a simulated device with a tiny endurance budget;
    // nodes 1 and 2 are effectively immortal. Geometry is fixed
    // (independent of --segments) so the wear-fraction math —
    // retired/total crossing the 2% drain threshold — is reproducible
    // regardless of CLI sizing.
    let wear_victim = 0usize;
    let servers: Vec<SpawnedServer> = (0..3usize)
        .map(|i| {
            if i == wear_victim {
                spawn_cluster_node(2, 128, 64, Some((6_000, 0xFA57)))
            } else {
                spawn_cluster_node(2, 256, 64, None)
            }
        })
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.addr.to_string()).collect();
    let cfg = ClusterConfig::builder()
        .addrs(addrs.iter().cloned())
        .replication(REPLICATION)
        .probe_interval(Duration::from_millis(100))
        .wear_drain_threshold(0.02)
        .build()
        .expect("cluster config");
    let mut shadow2: std::collections::BTreeMap<u64, Vec<u8>> = std::collections::BTreeMap::new();

    // Seed under-replicated keys: a router that believes both peers
    // are down writes through node 0 alone (the ring walk yields the
    // one reachable node, and full-set acks degrade to that set).
    // These are exactly the keys the drain exists for — they survive
    // node 0's death only if the drain re-homes them to the replicas.
    let mut degraded = ClusterClient::connect(
        ClusterConfig::builder()
            .addrs(addrs.iter().cloned())
            .replication(REPLICATION)
            .probing(false)
            .build()
            .expect("degraded router config"),
    );
    degraded.view().mark_down(1);
    degraded.view().mark_down(2);
    for key in 200..216u64 {
        let value = format!("only-on-node0-{key}").into_bytes();
        degraded
            .put(key, &value)
            .expect("degraded-topology put to the lone reachable node");
        shadow2.insert(key, value);
    }
    drop(degraded);

    let mut cluster = ClusterClient::connect(cfg);
    std::thread::sleep(Duration::from_millis(250));
    let wear_before = cluster.routing_table();

    // Dense overwrites burn node 0's endurance; keep writing until
    // the prober flips it to draining (or give up and fail).
    let mut drained_round = None;
    'wear: for round in 0..600u64 {
        for i in 0..8u64 {
            let key = (round * 8 + i) % 64;
            let value: Vec<u8> = (0..48)
                .map(|j| ((key ^ round).wrapping_mul(0x9E37) as u8).wrapping_add(j))
                .collect();
            cluster.put(key, &value).expect("replicated put under wear");
            shadow2.insert(key, value);
        }
        if cluster.view().state(wear_victim) == NodeState::Draining {
            drained_round = Some(round);
            break 'wear;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let drained_round = drained_round.expect(
        "the prober never flipped the wearing node to draining — endurance budget too large?",
    );
    // The dying device's wear counters at the moment of the drain
    // decision, straight from its HEALTH frame.
    let wear_at_drain = Client::connect(&addrs[wear_victim])
        .and_then(|mut c| c.health())
        .expect("probe the worn node directly");
    eprintln!(
        "node {wear_victim} hit the drain threshold in round {drained_round}: \
         {}/{} segments retired",
        wear_at_drain.retired_segments, wear_at_drain.total_segments
    );
    let rehomed = cluster.run_pending_drains().expect("drain re-homes keys");
    eprintln!("drain re-homed {rehomed} keys off node {wear_victim}");

    // Post-drain: new writes route around the draining node, and the
    // whole shadow — pre-drain and post-drain keys — must verify.
    for key in 100..140u64 {
        let value = format!("post-drain-{key}").into_bytes();
        cluster.put(key, &value).expect("put post-drain");
        shadow2.insert(key, value);
    }
    let mut lost2 = 0usize;
    for (key, value) in &shadow2 {
        if cluster.get(*key).expect("verify get").as_deref() != Some(value.as_slice()) {
            eprintln!("LOST acked key {key} across the wear drain");
            lost2 += 1;
        }
    }
    let wear_after = cluster.routing_table();
    let wear_stats = cluster.cluster_stats().snapshot();
    println!(
        "acked writes recovered after wear drain: {}/{} (lost {lost2})",
        shadow2.len() - lost2,
        shadow2.len()
    );
    cluster.shutdown_all();
    drop(cluster);
    for mut s in servers {
        s.child.wait().expect("cluster node exits");
    }

    // The report.
    let mut md = String::from("# Cluster failover: kill-a-server and wear-out-a-server\n\n");
    md.push_str(&format!(
        "`e2nvm-loadgen --cluster` boots three out-of-process `e2nvm-server`s and routes \
         over them with `e2nvm-cluster` (consistent-hash ring, R={REPLICATION} \
         replication, health probes every 100 ms). A write counts as acked only when \
         every node in its replica set acknowledged it, so the acceptance bar is \
         absolute: after either failure, **every** acked write must read back through \
         the survivors.\n\n"
    ));
    md.push_str(
        "Methodology: puts are synchronous R-way fan-outs through one router; values \
         are deterministic functions of the op index, so the verifier knows exactly \
         what every acked key must hold. Routing tables snapshot the router's live \
         view — `state` is what the router routes by; `keys` and `retired/total` come \
         from each server's HEALTH frame, so a just-killed node shows its last \
         successful probe.\n\n",
    );

    md.push_str("## Experiment 1 — SIGKILL a node mid-burst\n\n");
    md.push_str(&format!(
        "{} acked puts over a {keyspace}-key keyspace ({value_len}-byte values); node \
         {victim} is SIGKILLed after {kill_at} puts with the burst still running. The \
         router sees the dead socket, marks the node down, re-walks the ring, and \
         retries — no put fails, and every key stays replicated among the \
         survivors.\n\nRouting before the kill:\n\n",
        args.ops
    ));
    md.push_str(&kill_before);
    md.push_str("\nRouting after the kill and verification:\n\n");
    md.push_str(&kill_after);
    md.push_str(&format!(
        "\n| metric | value |\n|---|---:|\n\
         | puts acked | {} ({} distinct keys) |\n\
         | acked writes recovered | {}/{} (lost {lost}) |\n\
         | nodes marked down | {} |\n\
         | replica write failovers | {} |\n\n",
        args.ops,
        shadow.len(),
        shadow.len() - lost,
        shadow.len(),
        kill_stats.nodes_marked_down,
        kill_stats.replica_write_failures,
    ));

    md.push_str("## Experiment 2 — wear-driven drain before device death\n\n");
    md.push_str(&format!(
        "Node {wear_victim} runs on a simulated device with a deterministic ~6000-bit \
         endurance budget (128 x 64 B segments); its peers are effectively immortal. \
         Before the wear burst, 16 deliberately under-replicated keys are written \
         through a degraded-topology router that could only reach node {wear_victim} — \
         the keys whose survival genuinely depends on the dying device. Dense \
         overwrites then retire its segments until the health prober sees the wear \
         fraction cross the 2% drain threshold and flips the node to `draining`: writes \
         stop routing to it immediately, reads continue, and the drain pass re-homes \
         exactly those dependent keys to the replicas (fully-replicated keys are \
         skipped — a healthy copy is always at least as new) — all *before* the device \
         fails.\n\nRouting before the drain:\n\n"
    ));
    md.push_str(&wear_before);
    md.push_str("\nRouting after the drain and verification:\n\n");
    md.push_str(&wear_after);
    md.push_str(&format!(
        "\n| metric | value |\n|---|---:|\n\
         | rounds until the drain triggered | {drained_round} |\n\
         | worn node at drain time | {}/{} segments retired |\n\
         | under-replicated keys seeded | 16 |\n\
         | keys re-homed by the drain | {rehomed} |\n\
         | read repairs | {} |\n\
         | acked writes recovered | {}/{} (lost {lost2}) |\n\n",
        wear_at_drain.retired_segments,
        wear_at_drain.total_segments,
        wear_stats.read_repairs,
        shadow2.len() - lost2,
        shadow2.len(),
    ));
    md.push_str(
        "Both experiments hold the same invariant the single-server recovery \
         experiment holds for crashes: an acked write is never lost. Here the \
         mechanism is replication and routing rather than a WAL — the kill case \
         proves reactive failover (promotion on transport failure), the wear case \
         proves *proactive* failover (the paper's endurance failure mode, caught by \
         telemetry and drained before the device dies).\n",
    );
    let path = if args.quick {
        "results/cluster_failover_quick.md"
    } else {
        "results/cluster_failover.md"
    };
    write_report(path, &md);

    assert_eq!(lost, 0, "kill experiment lost {lost} acked writes");
    assert_eq!(lost2, 0, "wear experiment lost {lost2} acked writes");
}

fn main() {
    let args = parse_args();

    if args.cluster {
        if args.addr.is_some() || args.cache || args.recovery {
            usage_exit("--cluster boots its own servers; drop --addr/--cache/--recovery");
        }
        run_cluster(&args);
        return;
    }

    if args.recovery {
        if args.addr.is_some() || args.cache {
            usage_exit("--recovery boots its own servers; drop --addr/--cache");
        }
        run_recovery(&args);
        return;
    }

    if !args.cache {
        let suite = run_suite(&args, None);
        report_plain(&args, &suite);
        let total_ops: u64 = suite.results.iter().map(|r| r.ops).sum();
        println!("completed {total_ops} ops");
        print_error_frames(&suite.metrics);
        print_multi_chunk_scans(&suite.metrics);
        assert!(total_ops > 0, "load generator completed zero operations");
        return;
    }

    if args.addr.is_some() {
        usage_exit("--cache boots its own baseline and cached servers; drop --addr");
    }
    eprintln!("== baseline suite (no cache) ==");
    let baseline = run_suite(&args, None);
    eprintln!("== cached suite ({} MiB) ==", args.cache_mb);
    let cache_cfg = CacheConfig::builder()
        .capacity_bytes(args.cache_mb << 20)
        .build()
        .expect("loadgen cache config");
    let cached = run_suite(&args, Some(cache_cfg));

    // Accounting cross-check: every run-phase GET was either a hit or a
    // miss — the cache never double-counts and never loses a lookup.
    // Per-workload deltas exclude the load phase's own spot-check GETs.
    let hits: u64 = cached.results.iter().filter_map(|r| r.cache_hits).sum();
    let misses: u64 = cached.results.iter().filter_map(|r| r.cache_misses).sum();
    let reads: u64 = cached.results.iter().map(|r| r.reads).sum();
    assert!(hits > 0, "cached suite never hit the cache");
    assert_eq!(
        hits + misses,
        reads,
        "cache lookups ({hits} hits + {misses} misses) != GETs served ({reads})"
    );
    eprintln!("cache accounting: {hits} hits + {misses} misses == {reads} reads served");

    report_cache(&args, &baseline, &cached);
    let total_ops: u64 = (baseline.results.iter().chain(&cached.results))
        .map(|r| r.ops)
        .sum();
    println!("completed {total_ops} ops");
    print_error_frames(&cached.metrics);
    assert!(total_ops > 0, "load generator completed zero operations");
}
