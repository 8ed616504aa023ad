//! Single-threaded in-process replays of the merged trace, one per
//! depth of the stack, each checked against a `BTreeMap` oracle.
//!
//! A depth replays exactly the calls the depth above it would have
//! made: GETs the cache absorbs never reach `store` or below.

use crate::geometry::{PIPELINE_DEPTH, SCAN_CHUNK_BYTES, SHARDS};
use crate::span::Recorder;
use crate::workload::{Inputs, Keys, Op};
use e2nvm_core::{
    DynamicAddressPool, E2Model, Padder, PaddingLocation, PaddingType, ShardedEngine,
};
use e2nvm_kvstore::cache::Lookup;
use e2nvm_kvstore::{CachedKvStore, HotCache, NvmKvStore, ShardedE2KvStore};
use e2nvm_ml::data::bytes_to_features;
use e2nvm_persist::{PersistTelemetry, StoreSnapshot, Wal, WalSyncer};
use e2nvm_server::frame::{
    encode_response, encode_scan_chunk, encode_value_frame, parse_request, FrameDecoder, Opcode,
    Response, DEFAULT_MAX_BODY,
};
use e2nvm_sim::{DeviceStats, LogicalSegment, MemoryController};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// What a replay did, and how much of it was wrong.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Ops of the trace walked (executed at this depth or absorbed
    /// above it).
    pub ops: u64,
    /// PUTs executed.
    pub puts: u64,
    /// GETs executed at this depth.
    pub gets: u64,
    /// Scans executed.
    pub scans: u64,
    /// Records scans returned.
    pub scan_entries: u64,
    /// Executed ops whose result disagreed with the oracle.
    pub failed: u64,
}

/// One depth of the stack, as the depth above calls it.
pub trait Layer {
    /// Span name of this depth's ops.
    const NAME: &'static str;
    /// Span name of the depth above.
    const PARENT: Option<&'static str>;
    /// Span name of this depth's group-commit barrier, if it has one.
    const COMMIT: Option<&'static str>;
    /// Write; `false` on any error.
    fn put(&mut self, key: u64, value: &[u8]) -> bool;
    /// Read a present key; `true` if the bytes equal `expect`.
    fn get_matches(&mut self, key: u64, expect: &[u8]) -> bool;
    /// The first `limit` records of `lo..=hi`; `None` on any error.
    fn scan(&mut self, lo: u64, hi: u64, limit: usize) -> Option<Vec<(u64, Vec<u8>)>>;
    /// The group-commit barrier the serving layer runs per batch.
    fn commit(&mut self) -> bool;
}

impl Layer for CachedKvStore<ShardedE2KvStore> {
    const NAME: &'static str = "cached";
    const PARENT: Option<&'static str> = Some("wire");
    const COMMIT: Option<&'static str> = Some("cached.commit");
    fn put(&mut self, key: u64, value: &[u8]) -> bool {
        NvmKvStore::put(self, key, value).is_ok()
    }
    fn get_matches(&mut self, key: u64, expect: &[u8]) -> bool {
        // The server's GET path: the closure runs on the cached bytes.
        matches!(self.get_with(key, |bytes| bytes == expect), Ok(Some(true)))
    }
    fn scan(&mut self, lo: u64, hi: u64, limit: usize) -> Option<Vec<(u64, Vec<u8>)>> {
        // The server commits before it streams a scan.
        NvmKvStore::commit(self).ok()?;
        self.scan_limit(lo, hi, limit).ok()
    }
    fn commit(&mut self) -> bool {
        NvmKvStore::commit(self).is_ok()
    }
}

impl Layer for ShardedE2KvStore {
    const NAME: &'static str = "store";
    const PARENT: Option<&'static str> = Some("cached");
    const COMMIT: Option<&'static str> = Some("store.commit");
    fn put(&mut self, key: u64, value: &[u8]) -> bool {
        NvmKvStore::put(self, key, value).is_ok()
    }
    fn get_matches(&mut self, key: u64, expect: &[u8]) -> bool {
        matches!(NvmKvStore::get(self, key), Ok(Some(v)) if v == expect)
    }
    fn scan(&mut self, lo: u64, hi: u64, limit: usize) -> Option<Vec<(u64, Vec<u8>)>> {
        NvmKvStore::commit(self).ok()?;
        self.scan_limit(lo, hi, limit).ok()
    }
    fn commit(&mut self) -> bool {
        NvmKvStore::commit(self).is_ok()
    }
}

impl Layer for ShardedEngine {
    const NAME: &'static str = "engine";
    const PARENT: Option<&'static str> = Some("store");
    const COMMIT: Option<&'static str> = None;
    fn put(&mut self, key: u64, value: &[u8]) -> bool {
        ShardedEngine::put(self, key, value).is_ok()
    }
    fn get_matches(&mut self, key: u64, expect: &[u8]) -> bool {
        matches!(ShardedEngine::get(self, key), Ok(v) if v == expect)
    }
    fn scan(&mut self, lo: u64, hi: u64, limit: usize) -> Option<Vec<(u64, Vec<u8>)>> {
        self.scan_limit(lo, hi, limit).ok()
    }
    fn commit(&mut self) -> bool {
        true
    }
}

/// The oracle every replay starts from: each record holds the pool
/// item of its rank, as the load left it.
fn loaded_oracle(keys: &Keys) -> BTreeMap<u64, u32> {
    keys.key_of_rank
        .iter()
        .enumerate()
        .map(|(rank, &key)| (key, rank as u32))
        .collect()
}

/// Time `f` when recording; run it bare otherwise.
#[inline]
fn timed<T>(recording: bool, f: impl FnOnce() -> T) -> (T, Option<(Instant, Instant)>) {
    if recording {
        let start = Instant::now();
        let out = f();
        (out, Some((start, Instant::now())))
    } else {
        (f(), None)
    }
}

/// A depth of the stack being replayed: the layer, the oracle its
/// results are checked against, and what it has done so far. Replays
/// advance one op range at a time so that several depths can be
/// interleaved batch by batch over the same stretch of host time.
pub struct DepthReplay<L: Layer> {
    /// The layer under replay.
    pub layer: L,
    oracle: BTreeMap<u64, u32>,
    /// What the replay has done so far.
    pub counts: ReplayCounts,
}

impl<L: Layer> DepthReplay<L> {
    /// Start replaying through `layer`, which holds the loaded store.
    pub fn new(layer: L, inputs: &Inputs) -> Self {
        Self {
            layer,
            oracle: loaded_oracle(&inputs.keys),
            counts: ReplayCounts::default(),
        }
    }

    /// Replay ops `range` (whole pipeline batches) of the merged trace,
    /// executing only the ops `reaches` marks (all when `None`),
    /// committing after every batch, and checking every result.
    pub fn run(
        &mut self,
        inputs: &Inputs,
        range: std::ops::Range<usize>,
        reaches: Option<&[bool]>,
        mut rec: Option<&mut Recorder>,
    ) {
        let recording = rec.is_some();
        let (layer, oracle, counts) = (&mut self.layer, &mut self.oracle, &mut self.counts);
        for i in range {
            counts.ops += 1;
            let span = match inputs.merged.ops[i] {
                Op::Put { rank, value } => {
                    let key = inputs.keys.key_of_rank[rank as usize];
                    let (ok, span) =
                        timed(recording, || layer.put(key, &inputs.pool[value as usize]));
                    oracle.insert(key, value);
                    counts.puts += 1;
                    counts.failed += u64::from(!ok);
                    span
                }
                Op::Get { rank } if reaches.map_or(true, |r| r[i]) => {
                    let key = inputs.keys.key_of_rank[rank as usize];
                    let expect = &inputs.pool[oracle[&key] as usize];
                    let (ok, span) = timed(recording, || layer.get_matches(key, expect));
                    counts.gets += 1;
                    counts.failed += u64::from(!ok);
                    span
                }
                Op::Get { .. } => None,
                Op::Scan { rank, limit } => {
                    let lo = inputs.keys.key_of_rank[rank as usize];
                    let hi = Keys::scan_hi(rank);
                    let (got, span) = timed(recording, || layer.scan(lo, hi, limit as usize));
                    let want = oracle.range(lo..=hi).take(limit as usize);
                    let ok = got.as_ref().is_some_and(|got| {
                        got.len() == want.clone().count()
                            && got.iter().zip(want).all(|((k, v), (wk, &item))| {
                                k == wk && *v == inputs.pool[item as usize]
                            })
                    });
                    counts.scans += 1;
                    counts.scan_entries += got.map_or(0, |g| g.len() as u64);
                    counts.failed += u64::from(!ok);
                    span
                }
            };
            if let (Some(rec), Some((start, end))) = (rec.as_deref_mut(), span) {
                rec.record(L::NAME, L::PARENT, i, start, end);
            }
            if (i + 1) % PIPELINE_DEPTH == 0 {
                let (ok, span) = timed(recording, || layer.commit());
                counts.failed += u64::from(!ok);
                if let (Some(rec), Some(name), Some((start, end))) =
                    (rec.as_deref_mut(), L::COMMIT, span)
                {
                    // The barrier belongs to the batch; hang it on the
                    // batch's last op, under that op's span one depth up.
                    rec.record(name, L::PARENT, i, start, end);
                }
            }
        }
    }
}

/// Cache leaves: a standalone [`HotCache`] driven as `CachedKvStore`
/// drives its own, timing `lookup`/`fill`/`invalidate`.
pub struct CacheLeaves {
    cache: HotCache,
    oracle: BTreeMap<u64, u32>,
    /// Per op replayed so far: does it reach the store (everything but
    /// a GET the cache absorbs).
    pub reaches_store: Vec<bool>,
}

impl CacheLeaves {
    /// Leaves over `cache`, for a replay of `ops` ops.
    pub fn new(cache: HotCache, inputs: &Inputs, ops: usize) -> Self {
        Self {
            cache,
            oracle: loaded_oracle(&inputs.keys),
            reaches_store: vec![true; ops],
        }
    }

    /// Replay ops `range`.
    pub fn run(&mut self, inputs: &Inputs, range: std::ops::Range<usize>, rec: &mut Recorder) {
        let parent = Some("cached");
        for i in range {
            match inputs.merged.ops[i] {
                Op::Put { rank, value } => {
                    let key = inputs.keys.key_of_rank[rank as usize];
                    self.oracle.insert(key, value);
                    let start = Instant::now();
                    self.cache.invalidate(key);
                    rec.record("cache.invalidate", parent, i, start, Instant::now());
                }
                Op::Get { rank } => {
                    let key = inputs.keys.key_of_rank[rank as usize];
                    let start = Instant::now();
                    let found = self.cache.lookup(key);
                    rec.record("cache.lookup", parent, i, start, Instant::now());
                    match found {
                        Lookup::Hit(_) => self.reaches_store[i] = false,
                        Lookup::Miss { version } => {
                            let value = &inputs.pool[self.oracle[&key] as usize];
                            let start = Instant::now();
                            self.cache.fill(key, value, version);
                            rec.record("cache.fill", parent, i, start, Instant::now());
                        }
                    }
                }
                Op::Scan { .. } => {} // scans bypass the cache
            }
        }
    }
}

/// WAL leaves: one standalone log per shard with the store's flush
/// policy and background syncer, timing `append_put` per PUT and the
/// `commit` of every log per batch (and before each scan, as served).
pub struct WalLeaves {
    wals: Vec<Wal>,
    _syncer: WalSyncer,
    dir: std::path::PathBuf,
    dirty: [bool; SHARDS],
    /// Per-log commits so far that had records to write.
    pub dirty_commits: u64,
}

impl WalLeaves {
    /// Open the logs under `dir` (created; removed by `finish`).
    pub fn new(dir: &std::path::Path) -> Result<Self> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
        let syncer = WalSyncer::spawn(PersistTelemetry::disconnected())?;
        let wals = (0..SHARDS)
            .map(|i| {
                Ok(Wal::open(
                    dir.join(format!("leaf-{i}.wal")),
                    crate::geometry::flush_policy(),
                    PersistTelemetry::disconnected(),
                )?
                .with_syncer(syncer.port(i as u64)))
            })
            .collect::<std::io::Result<Vec<Wal>>>()?;
        Ok(Self {
            wals,
            _syncer: syncer,
            dir: dir.to_path_buf(),
            dirty: [false; SHARDS],
            dirty_commits: 0,
        })
    }

    fn commit_all(&mut self, rec: &mut Recorder, op: usize) -> std::io::Result<()> {
        let start = Instant::now();
        for wal in &mut self.wals {
            wal.commit()?;
        }
        rec.record("wal.commit", Some("store"), op, start, Instant::now());
        self.dirty_commits += self.dirty.iter().filter(|&&d| d).count() as u64;
        self.dirty = [false; SHARDS];
        Ok(())
    }

    /// Replay ops `range`; `shard_for` routes a key as the store does.
    pub fn run(
        &mut self,
        inputs: &Inputs,
        range: std::ops::Range<usize>,
        shard_for: impl Fn(u64) -> usize,
        rec: &mut Recorder,
    ) -> std::io::Result<()> {
        for i in range {
            match inputs.merged.ops[i] {
                Op::Put { rank, value } => {
                    let key = inputs.keys.key_of_rank[rank as usize];
                    let shard = shard_for(key);
                    let start = Instant::now();
                    self.wals[shard].append_put(key, &inputs.pool[value as usize])?;
                    rec.record("wal.append_put", Some("store"), i, start, Instant::now());
                    self.dirty[shard] = true;
                }
                Op::Scan { .. } => self.commit_all(rec, i)?,
                Op::Get { .. } => {}
            }
            if (i + 1) % PIPELINE_DEPTH == 0 {
                self.commit_all(rec, i)?;
            }
        }
        Ok(())
    }

    /// Close the logs and remove their directory.
    pub fn finish(self) -> std::io::Result<()> {
        let Self {
            wals, _syncer, dir, ..
        } = self;
        drop(wals);
        drop(_syncer);
        std::fs::remove_dir_all(dir)
    }
}

/// Frame leaves: decode + parse each pre-encoded request as the
/// reactor does (one `extend` per batch), and encode the reply the
/// server would send for it.
pub struct FrameLeaves {
    decoder: FrameDecoder,
    out: Vec<u8>,
    oracle: BTreeMap<u64, u32>,
}

impl FrameLeaves {
    /// Fresh decoder and output buffer.
    pub fn new(inputs: &Inputs) -> Self {
        Self {
            decoder: FrameDecoder::new(DEFAULT_MAX_BODY),
            out: Vec::with_capacity(64 * 1024),
            oracle: loaded_oracle(&inputs.keys),
        }
    }

    /// Replay ops `range`, one pipeline batch.
    pub fn run(
        &mut self,
        inputs: &Inputs,
        range: std::ops::Range<usize>,
        rec: &mut Recorder,
    ) -> Result<()> {
        let parent = Some("wire");
        self.out.clear();
        for i in range.clone() {
            let start = Instant::now();
            if i == range.start {
                self.decoder.extend(inputs.merged.frames_of(range.clone()));
            }
            let frame = self
                .decoder
                .next_frame()?
                .ok_or("request frame incomplete")?;
            let request = parse_request(&frame)?;
            let end = Instant::now();
            std::hint::black_box(request);
            rec.record("frame.decode", parent, i, start, end);

            match inputs.merged.ops[i] {
                Op::Put { rank, value } => {
                    self.oracle
                        .insert(inputs.keys.key_of_rank[rank as usize], value);
                    let start = Instant::now();
                    encode_response(&Response::Stored, Some(Opcode::Put), &mut self.out);
                    rec.record("frame.encode", parent, i, start, Instant::now());
                }
                Op::Get { rank } => {
                    let key = inputs.keys.key_of_rank[rank as usize];
                    let value = &inputs.pool[self.oracle[&key] as usize];
                    let start = Instant::now();
                    encode_value_frame(value, Some(Opcode::Get), &mut self.out);
                    rec.record("frame.encode", parent, i, start, Instant::now());
                }
                Op::Scan { rank, limit } => {
                    // The entries the store would hand the chunker,
                    // split where the server's chunk bound splits them.
                    let lo = inputs.keys.key_of_rank[rank as usize];
                    let entries: Vec<(u64, Vec<u8>)> = self
                        .oracle
                        .range(lo..=Keys::scan_hi(rank))
                        .take(limit as usize)
                        .map(|(&k, &item)| (k, inputs.pool[item as usize].clone()))
                        .collect();
                    let per_chunk = (SCAN_CHUNK_BYTES / (12 + entries[0].1.len())).max(1);
                    let start = Instant::now();
                    let mut chunks = entries.chunks(per_chunk).peekable();
                    while let Some(chunk) = chunks.next() {
                        encode_scan_chunk(chunks.peek().is_some(), chunk, &mut self.out);
                    }
                    rec.record("frame.encode", parent, i, start, Instant::now());
                }
            }
        }
        std::hint::black_box(&self.out);
        Ok(())
    }
}

/// What the engine leaves observed beyond their spans.
#[derive(Debug, Default, Clone)]
pub struct EngineLeafCounts {
    /// `cluster_order` + `predict_features` calls.
    pub predictions: u64,
    /// PUTs placed.
    pub puts: u64,
    /// Placements served by a cluster other than the predicted one.
    pub fallbacks: u64,
    /// Smallest free list any cluster had after any placement.
    pub min_cluster_free: usize,
    /// DRAM footprint of the address pools, bytes.
    pub dap_memory_bytes: usize,
    /// Device `read` calls.
    pub device_reads: u64,
    /// Device counters of the shadow devices, summed.
    pub device_stats: DeviceStats,
}

/// One shard of the engine, re-assembled from the layers' public
/// pieces in the state the baseline snapshot holds.
struct ShadowShard {
    controller: MemoryController,
    model: E2Model,
    dap: DynamicAddressPool,
    padder: Padder,
    rng: StdRng,
    index: BTreeMap<u64, LogicalSegment>,
}

impl ShadowShard {
    fn from_snapshot(shard: &e2nvm_persist::ShardState) -> Result<Self> {
        let device = e2nvm_sim::snapshot::from_image(&shard.device_image)?;
        let controller = match &shard.controller {
            Some(state) => MemoryController::from_state(device, state)?,
            None => MemoryController::without_wear_leveling(device),
        };
        let model = E2Model::from_bytes(&shard.state.model)?;
        let index: BTreeMap<u64, LogicalSegment> = shard
            .state
            .entries
            .iter()
            .map(|&(key, seg, _, _)| (key, seg))
            .collect();
        // Free = not indexed, classified by the model against current
        // contents, ascending — how `restore_state` rebuilds the pools.
        let used: std::collections::BTreeSet<LogicalSegment> = index.values().copied().collect();
        let free: Vec<LogicalSegment> = (0..controller.num_segments())
            .map(LogicalSegment)
            .filter(|seg| !used.contains(seg))
            .collect();
        let contents: Vec<Vec<u8>> = free
            .iter()
            .map(|&seg| controller.peek(seg).map(<[u8]>::to_vec))
            .collect::<std::result::Result<_, _>>()?;
        let clusters = model.classify_segments(&contents);
        let pairs: Vec<(LogicalSegment, usize)> = free.into_iter().zip(clusters).collect();
        let mut dap = DynamicAddressPool::new(model.k(), controller.num_segments(), 0);
        dap.rebuild(model.k(), &pairs);
        Ok(Self {
            controller,
            model,
            dap,
            padder: Padder::new(PaddingLocation::End, PaddingType::Zero),
            rng: StdRng::seed_from_u64(0),
            index,
        })
    }
}

/// Engine leaves: `E2Model::cluster_order`/`predict_features`,
/// `DynamicAddressPool::pop_with_fallback`/`push` and
/// `MemoryController::write_at`/`read`, called in the order
/// `E2Engine::put`/`get`/`scan_limit` call them, on a shadow engine
/// assembled from the baseline snapshot.
pub struct EngineLeaves {
    shards: Vec<ShadowShard>,
    counts: EngineLeafCounts,
}

impl EngineLeaves {
    /// Assemble the shadow engine from `snapshot`.
    pub fn new(snapshot: &std::path::Path) -> Result<Self> {
        let snap = StoreSnapshot::load(snapshot)?.ok_or("baseline snapshot missing")?;
        Ok(Self {
            shards: snap
                .shards
                .iter()
                .map(ShadowShard::from_snapshot)
                .collect::<Result<Vec<_>>>()?,
            counts: EngineLeafCounts {
                min_cluster_free: usize::MAX,
                ..EngineLeafCounts::default()
            },
        })
    }

    /// Replay the ops of `range` that reach the store.
    pub fn run(
        &mut self,
        inputs: &Inputs,
        range: std::ops::Range<usize>,
        reaches: &[bool],
        shard_for: impl Fn(u64) -> usize,
        rec: &mut Recorder,
    ) -> Result<()> {
        let parent = Some("engine");
        let (shards, counts) = (&mut self.shards, &mut self.counts);
        for i in range {
            match inputs.merged.ops[i] {
                Op::Put { rank, value } => {
                    let key = inputs.keys.key_of_rank[rank as usize];
                    let value = &inputs.pool[value as usize];
                    let s = &mut shards[shard_for(key)];

                    let start = Instant::now();
                    let order = s.model.cluster_order(value, &s.padder, &mut s.rng);
                    rec.record("model.cluster_order", parent, i, start, Instant::now());

                    let start = Instant::now();
                    let popped = s.dap.pop_with_fallback(&order);
                    rec.record("dap.pop", parent, i, start, Instant::now());
                    let (seg, used) = popped.ok_or("shadow address pool ran dry")?;

                    let start = Instant::now();
                    let report = s.controller.write_at(seg, 0, value);
                    rec.record("device.write_at", parent, i, start, Instant::now());
                    report?;

                    counts.puts += 1;
                    counts.predictions += 1;
                    counts.fallbacks += u64::from(used != order[0]);
                    counts.min_cluster_free = counts.min_cluster_free.min(s.dap.cluster_len(used));

                    if let Some(old) = s.index.insert(key, seg) {
                        // Recycle: classify the displaced segment's
                        // content, return its address to that pool.
                        let content = s.controller.peek(old)?.to_vec();
                        let start = Instant::now();
                        let cluster = s.model.predict_features(&bytes_to_features(&content));
                        rec.record("model.predict_features", parent, i, start, Instant::now());
                        counts.predictions += 1;

                        let start = Instant::now();
                        let pushed = s.dap.push(cluster, old);
                        rec.record("dap.push", parent, i, start, Instant::now());
                        pushed?;
                    }
                }
                Op::Get { rank } if reaches[i] => {
                    let key = inputs.keys.key_of_rank[rank as usize];
                    let s = &mut shards[shard_for(key)];
                    let seg = *s.index.get(&key).ok_or("shadow index lost a key")?;
                    let start = Instant::now();
                    let data = s.controller.read(seg);
                    rec.record("device.read", parent, i, start, Instant::now());
                    std::hint::black_box(data?);
                    counts.device_reads += 1;
                }
                Op::Get { .. } => {}
                Op::Scan { rank, limit } => {
                    // Every shard reads up to `limit` records; the
                    // merge above them keeps the first `limit` overall.
                    let lo = inputs.keys.key_of_rank[rank as usize];
                    let hi = Keys::scan_hi(rank);
                    let segs: Vec<(usize, LogicalSegment)> = shards
                        .iter()
                        .enumerate()
                        .flat_map(|(si, s)| {
                            s.index
                                .range(lo..=hi)
                                .take(limit as usize)
                                .map(move |(_, &seg)| (si, seg))
                        })
                        .collect();
                    let start = Instant::now();
                    for &(si, seg) in &segs {
                        std::hint::black_box(shards[si].controller.read(seg)?);
                    }
                    rec.record("device.read", parent, i, start, Instant::now());
                    counts.device_reads += segs.len() as u64;
                }
            }
        }
        Ok(())
    }

    /// The counts, with the pools' footprint and the shadow devices'
    /// counters filled in.
    pub fn finish(self) -> EngineLeafCounts {
        let mut counts = self.counts;
        for s in &self.shards {
            counts.dap_memory_bytes += s.dap.memory_bytes();
            counts.device_stats.merge(s.controller.stats());
        }
        counts
    }
}
