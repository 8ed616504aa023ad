//! Thread-safe serving (paper §5.1: "We utilize thread-safe methods in
//! E2-NVM. This is the case for the data structures that we utilize to
//! maintain address pools and mapping") with lazy background retraining
//! (§4.1.4), sharded: N independent engines over disjoint slices of the
//! device's segment space.
//!
//! One mutex over one engine caps throughput at one core no matter how
//! many clients call in. A [`ShardedEngine`] removes that cap
//! structurally: the segment space is partitioned with
//! [`e2nvm_sim::partition_controllers`], each shard gets a *private*
//! [`E2Engine`] — its own VAE+K-means model, dynamic address pool,
//! padder, RNG, and background retrainer — and keys are routed to
//! shards by hash. Operations on different shards share no locks, so
//! they proceed in parallel; operations on the same key always hit the
//! same shard, preserving per-key linearizability. A single engine is
//! the one-shard case, `ShardedEngine::new(vec![engine])`.
//!
//! Lock granularity: one mutex per shard engine. The hot path (pad →
//! predict → pop → device write) is microseconds and ends by checking
//! the retraining trigger inside the same critical section; the
//! expensive part — retraining — runs on the shard's worker thread with
//! no lock held. When a cluster's free list drops below the low-water
//! mark a snapshot goes to the [`BackgroundRetrainer`]; the serving
//! path keeps answering from the old model until the new one is ready, then
//! installs it under the shard mutex. The retrainer's own lock is taken
//! only while a retrain is tripped or in flight, always before the
//! engine lock, and never across a wait on the worker.
//!
//! Lock hierarchy, whole stack: WAL → engine (the store's logged
//! mutations and its snapshot) and retrain → engine (the pump) are the
//! only orders across kinds. Engine locks nest only in ascending shard
//! index — a scan holds every shard's engine lock at once, taken
//! 0, 1, …, N−1 — and a scan takes no WAL or retrain lock, so it
//! closes no cycle with either order.
//!
//! Cross-shard observability is by aggregation: device counters merge
//! with [`DeviceStats::merge`] and serving-path counters with
//! [`PredictionStats::merge`], so the paper's metrics (bit flips,
//! energy, latency) remain exact sums of per-shard accounting.

use crate::config::E2Config;
use crate::engine::{E2Engine, PredictionStats};
use crate::error::{E2Error, Result};
use crate::retrain::BackgroundRetrainer;
use crate::scan::{Cursor, Cursors, ScanBuffer};
use e2nvm_sim::{DeviceStats, MemoryController, WriteReport};
use e2nvm_telemetry::{Event, TelemetryRegistry};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// SplitMix64 finalizer: decorrelates adjacent keys before routing.
#[inline]
fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One shard: a mutexed engine plus the state of its lazy retrain.
struct Shard {
    engine: Mutex<E2Engine>,
    retrain: Mutex<Retrain>,
    /// Mirrors `retrain.worker.is_pending()` (written under `retrain`)
    /// so a mutation knows, without that lock, to poll for a finished
    /// model. A hint only — the model itself travels through the
    /// retrainer's channel — hence `Relaxed`.
    in_flight: AtomicBool,
    /// Models installed via the background path (diagnostics).
    swaps: AtomicU64,
}

struct Retrain {
    worker: BackgroundRetrainer,
    next_seed: u64,
    /// When the in-flight retrain was submitted (for the journal's
    /// retrain duration).
    started: Option<Instant>,
}

impl Shard {
    fn new(engine: E2Engine) -> Self {
        assert!(engine.is_trained(), "ShardedEngine: engine must be trained");
        Self {
            retrain: Mutex::new(Retrain {
                worker: BackgroundRetrainer::spawn(),
                next_seed: engine.config().seed ^ 0xBACC_6E55,
                started: None,
            }),
            engine: Mutex::new(engine),
            in_flight: AtomicBool::new(false),
            swaps: AtomicU64::new(0),
        }
    }

    /// Advance the retraining state machine: install a finished model
    /// if one is waiting (frees the worker), then — when `may_submit` —
    /// send a snapshot if a cluster is below its threshold. Returns
    /// whether a retrain is still in flight.
    fn pump(&self, may_submit: bool) -> bool {
        let mut retrain = self.retrain.lock();
        if let Some(model) = retrain.worker.try_take() {
            let loss = model.history().train.last().map(|l| f64::from(l.total()));
            let duration_ms = retrain
                .started
                .take()
                .map_or(0, |t| t.elapsed().as_millis() as u64);
            let mut engine = self.engine.lock();
            engine
                .install_model_now(model)
                .expect("the retrainer trains at the engine's width");
            let telemetry = engine.telemetry();
            telemetry.record_event(Event::RetrainFinished {
                shard: telemetry.shard(),
                loss,
                duration_ms,
            });
            self.swaps.fetch_add(1, Ordering::Relaxed);
        }
        if may_submit && !retrain.worker.is_pending() {
            let engine = self.engine.lock();
            if engine.needs_retrain() {
                let seed = retrain.next_seed;
                retrain.next_seed = seed.wrapping_add(1);
                if retrain
                    .worker
                    .submit(engine.config(), engine.training_snapshot(), seed)
                {
                    retrain.started = Some(Instant::now());
                    let telemetry = engine.telemetry();
                    telemetry.record_event(Event::RetrainStarted {
                        shard: telemetry.shard(),
                    });
                }
            }
        }
        let pending = retrain.worker.is_pending();
        self.in_flight.store(pending, Ordering::Relaxed);
        pending
    }
}

/// The thread-safe engine handle: N independent shards, each a mutexed
/// [`E2Engine`] over its own partition of the segment space plus that
/// shard's background retrainer. `Clone` is cheap and clones share the
/// shards.
#[derive(Clone)]
pub struct ShardedEngine {
    shards: Arc<[Shard]>,
}

impl ShardedEngine {
    /// Wrap already-trained engines, one per shard, and spawn their
    /// retraining workers.
    ///
    /// # Panics
    /// Panics if `engines` is empty or any engine is untrained.
    pub fn new(engines: Vec<E2Engine>) -> Self {
        assert!(!engines.is_empty(), "ShardedEngine: need >= 1 shard");
        Self {
            shards: engines.into_iter().map(Shard::new).collect(),
        }
    }

    /// Build and train one engine per controller (the partition is the
    /// only source of truth for the shard count); each shard trains on
    /// its own resident contents under [`ShardedEngine::shard_config`].
    pub fn train(controllers: Vec<MemoryController>, cfg: &E2Config) -> Result<Self> {
        if controllers.is_empty() {
            return Err(E2Error::Config("ShardedEngine: need >= 1 shard".into()));
        }
        let engines = controllers
            .into_iter()
            .enumerate()
            .map(|(i, controller)| {
                let mut engine = E2Engine::new(controller, Self::shard_config(cfg, i))?;
                engine.train()?;
                Ok(engine)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self::new(engines))
    }

    /// The configuration shard `shard` runs under: `cfg` with the seed
    /// advanced by a golden-ratio stride so the shards' models are
    /// decorrelated. Shard 0 keeps `cfg.seed` itself, so a single-shard
    /// build is bit-identical to an unsharded [`E2Engine`] with the
    /// same configuration. Training and recovery both derive their
    /// per-shard seeds here.
    pub fn shard_config(cfg: &E2Config, shard: usize) -> E2Config {
        E2Config {
            seed: cfg
                .seed
                .wrapping_add((shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ..cfg.clone()
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Register every shard's event handles on one shared `registry`,
    /// each labeled with its shard index, and one read-through source
    /// over the shards: each scrape takes each shard's engine lock once
    /// and reads its device ledger, fault counters, prediction counters
    /// and per-cluster free-list lengths. Aggregate across shards at
    /// read time with
    /// [`e2nvm_telemetry::TelemetryRegistry::counter_total`] (the
    /// label-summed device counters equal
    /// [`ShardedEngine::device_stats`]'s merge until a reset). Attaching
    /// twice, or through two clones, registers one source.
    pub fn attach_telemetry(&self, registry: &TelemetryRegistry) {
        for (i, shard) in self.shards.iter().enumerate() {
            shard.engine.lock().attach_telemetry(registry, i);
        }
        registry.source(&self.shards, |shards: &[Shard], out| {
            for (i, shard) in shards.iter().enumerate() {
                crate::telemetry::emit(&shard.engine.lock(), i, out);
            }
        });
    }

    /// The shard a key routes to. Deterministic, uniform over shards.
    #[inline]
    pub fn shard_for(&self, key: u64) -> usize {
        ((hash64(key) as u128 * self.shards.len() as u128) >> 64) as usize
    }

    /// Run a closure with exclusive access to one shard's engine
    /// (inspection and admin; the retraining trigger is not checked).
    pub fn with_shard_engine<T>(&self, i: usize, f: impl FnOnce(&mut E2Engine) -> T) -> T {
        f(&mut self.shards[i].engine.lock())
    }

    /// Run a mutation on shard `i` under one acquisition of its engine
    /// lock, judge the retraining trigger in the same critical section,
    /// then drive that shard's retraining state machine only if it
    /// tripped or a retrain is in flight (no other lock is touched
    /// otherwise). Every mutating op below is this call; a caller that
    /// holds its own per-shard lock around it (the store's WAL) gets
    /// "that lock, then the engine lock" as the one lock order.
    pub fn mutate_shard<T>(&self, i: usize, f: impl FnOnce(&mut E2Engine) -> T) -> T {
        let shard = &self.shards[i];
        let (out, tripped) = {
            let mut engine = shard.engine.lock();
            let out = f(&mut engine);
            (out, engine.needs_retrain())
        };
        if tripped || shard.in_flight.load(Ordering::Relaxed) {
            shard.pump(true);
        }
        out
    }

    /// Fold over every shard's engine, each read under one acquisition
    /// of its lock — the one pass behind every cross-shard aggregate.
    pub fn fold_shards<A>(&self, init: A, mut f: impl FnMut(A, &E2Engine) -> A) -> A {
        self.shards
            .iter()
            .fold(init, |acc, shard| f(acc, &shard.engine.lock()))
    }

    /// PUT/UPDATE (Algorithm 1), routed to the key's shard.
    pub fn put(&self, key: u64, value: &[u8]) -> Result<WriteReport> {
        self.mutate_shard(self.shard_for(key), |e| e.put(key, value))
    }

    /// GET, routed to the key's shard.
    pub fn get(&self, key: u64) -> Result<Vec<u8>> {
        self.with_shard_engine(self.shard_for(key), |e| e.get(key))
    }

    /// DELETE (Algorithm 2), routed to the key's shard.
    pub fn delete(&self, key: u64) -> Result<bool> {
        self.mutate_shard(self.shard_for(key), |e| e.delete(key))
    }

    /// SCAN over an inclusive key range, merged into key order —
    /// [`ShardedEngine::scan_into`] collected.
    pub fn scan(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>> {
        self.scan_limit(lo, hi, usize::MAX)
    }

    /// SCAN stopping after `limit` entries in global key order —
    /// [`ShardedEngine::scan_into`] collected.
    pub fn scan_limit(&self, lo: u64, hi: u64, limit: usize) -> Result<Vec<(u64, Vec<u8>)>> {
        let mut out = Vec::new();
        self.scan_into(lo, hi, limit, &mut ScanBuffer::new(), &mut |key, value| {
            out.push((key, value.to_vec()));
            true
        })?;
        Ok(out)
    }

    /// The one scan path: call `f(key, value)` for the first `limit`
    /// entries of `lo..=hi` in global key order until it returns
    /// `false`, and return how many it was called with. Keys are
    /// hash-routed, so any shard may hold any of the `limit` smallest
    /// matches: the shards' index cursors are merged lazily, a cursor
    /// advancing only when it holds the least key, and the winners are
    /// recorded in `buf`. Each shard's other matches are then counted up
    /// to `limit`, and the shard is charged its winners plus that count.
    /// The winners are visited last, straight from device memory, so an
    /// error means `f` saw nothing. Afterwards `buf` tells what the scan
    /// returned ([`ScanBuffer::len`]) and charged
    /// ([`ScanBuffer::read`]); on an error it is empty.
    ///
    /// Every shard's engine lock is held from the merge through the
    /// visit, taken in ascending shard index, so a scan sees all shards
    /// at one instant — and `f` must not call back into this engine. An
    /// inverted range (`lo > hi`) is empty.
    pub fn scan_into(
        &self,
        lo: u64,
        hi: u64,
        limit: usize,
        buf: &mut ScanBuffer,
        f: &mut dyn FnMut(u64, &[u8]) -> bool,
    ) -> Result<usize> {
        buf.clear();
        // `BTreeMap::range` panics on an inverted range, and would do
        // so here with the shard locks held.
        if lo > hi {
            return Ok(0);
        }
        let visited = Self::scan_shards(&self.shards, None, lo, hi, limit, buf, f);
        if visited.is_err() {
            buf.clear();
        }
        visited
    }

    /// Lock the first of `shards` and open its cursor after `outer`;
    /// with the guard held, recurse on the rest, or — on the last shard,
    /// with every guard held — merge, charge and visit. The guards and
    /// cursors live on the stack, one per frame, so a warm scan
    /// allocates nothing.
    fn scan_shards(
        shards: &[Shard],
        outer: Option<&mut dyn Cursors>,
        lo: u64,
        hi: u64,
        limit: usize,
        buf: &mut ScanBuffer,
        f: &mut dyn FnMut(u64, &[u8]) -> bool,
    ) -> Result<usize> {
        let (shard, rest) = shards
            .split_first()
            .expect("a handle has at least one shard");
        let mut engine = shard.engine.lock();
        let (matches, controller) = engine.scan_cursor(lo, hi);
        let mut cursor = Cursor::new(matches, controller, outer);
        if rest.is_empty() {
            cursor.merge_charge_visit(limit, buf, f)
        } else {
            Self::scan_shards(rest, Some(&mut cursor), lo, hi, limit, buf, f)
        }
    }

    /// Advance every shard's lazy-retraining state machine. Mutations
    /// do this for their own shard; a maintenance loop may call it too.
    pub fn pump_retraining(&self) {
        for shard in self.shards.iter() {
            shard.pump(true);
        }
    }

    /// Block until every shard's in-flight retraining (if any) completes
    /// and is installed (tests / shutdown). Polls: the retrainer lock is
    /// released between looks, so a mutation that needs it never queues
    /// behind the training run.
    pub fn finish_retraining(&self) {
        for shard in self.shards.iter() {
            while shard.pump(false) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// Background model swaps across all shards.
    pub fn model_swaps(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.swaps.load(Ordering::Relaxed))
            .sum()
    }

    /// Keys stored across all shards.
    pub fn len(&self) -> usize {
        self.fold_shards(0, |n, e| n + e.len())
    }

    /// Whether no shard holds any key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free segments available across all shards.
    pub fn free_count(&self) -> usize {
        self.fold_shards(0, |n, e| n + e.free_count())
    }

    /// Device statistics aggregated over all shards.
    pub fn device_stats(&self) -> DeviceStats {
        self.fold_shards(DeviceStats::default(), |mut total, e| {
            total.merge(e.device_stats());
            total
        })
    }

    /// Reset every shard's device statistics (e.g. after a warm-up
    /// phase).
    pub fn reset_device_stats(&self) {
        for shard in self.shards.iter() {
            shard.engine.lock().reset_device_stats();
        }
    }

    /// Serving-path prediction counters aggregated over all shards.
    pub fn prediction_stats(&self) -> PredictionStats {
        self.fold_shards(PredictionStats::default(), |mut total, e| {
            total.merge(&e.prediction_stats());
            total
        })
    }
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (keys, free) =
            self.fold_shards((0, 0), |(k, fr), e| (k + e.len(), fr + e.free_count()));
        f.debug_struct("ShardedEngine")
            .field("shards", &self.shards.len())
            .field("keys", &keys)
            .field("free", &free)
            .field("model_swaps", &self.model_swaps())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::padding::PaddingType;
    use e2nvm_sim::{partition_controllers, DeviceConfig, LogicalSegment};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn test_config(seg_bytes: usize) -> E2Config {
        E2Config::builder()
            .fast(seg_bytes, 2)
            .pretrain_epochs(4)
            .joint_epochs(1)
            .retrain_min_free(0)
            .padding_type(PaddingType::Zero)
            .build()
            .unwrap()
    }

    fn seed_families(mc: &mut MemoryController, seg_bytes: usize, rng: &mut StdRng) {
        for i in 0..mc.num_segments() {
            let base = if i % 2 == 0 { 0x00u8 } else { 0xFF };
            let content: Vec<u8> = (0..seg_bytes)
                .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
                .collect();
            mc.seed(LogicalSegment(i), &content).unwrap();
        }
    }

    fn sharded(num_shards: usize, total_segments: usize, seg_bytes: usize) -> ShardedEngine {
        sharded_with(num_shards, total_segments, &test_config(seg_bytes))
    }

    fn sharded_with(num_shards: usize, total_segments: usize, cfg: &E2Config) -> ShardedEngine {
        let seg_bytes = cfg.segment_bytes;
        let dev_cfg = DeviceConfig::builder()
            .segment_bytes(seg_bytes)
            .num_segments(total_segments)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let controllers: Vec<MemoryController> = partition_controllers(&dev_cfg, num_shards)
            .unwrap()
            .into_iter()
            .map(|(_, mut mc)| {
                seed_families(&mut mc, seg_bytes, &mut rng);
                mc
            })
            .collect();
        ShardedEngine::train(controllers, cfg).unwrap()
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let s = sharded(4, 64, 32);
        for key in 0..256u64 {
            let a = s.shard_for(key);
            assert_eq!(a, s.shard_for(key));
            assert!(a < 4);
        }
    }

    #[test]
    fn routing_spreads_keys() {
        let s = sharded(4, 64, 32);
        let mut counts = [0usize; 4];
        for key in 0..1000u64 {
            counts[s.shard_for(key)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (150..=350).contains(&c),
                "shard {i} got {c}/1000 keys — router badly skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn crud_roundtrip_across_shards() {
        let s = sharded(4, 128, 32);
        for key in 0..48u64 {
            s.put(key, &key.to_le_bytes()).unwrap();
        }
        assert_eq!(s.len(), 48);
        for key in 0..48u64 {
            assert_eq!(s.get(key).unwrap(), key.to_le_bytes());
        }
        for key in (0..48u64).step_by(2) {
            assert!(s.delete(key).unwrap());
        }
        assert_eq!(s.len(), 24);
        assert_eq!(s.get(2), Err(E2Error::KeyNotFound(2)));
        assert_eq!(s.get(3).unwrap(), 3u64.to_le_bytes());
    }

    #[test]
    fn scan_merges_shards_in_key_order() {
        let s = sharded(3, 96, 32);
        for key in [9u64, 1, 5, 30, 12, 7] {
            s.put(key, &key.to_le_bytes()).unwrap();
        }
        let keys: Vec<u64> = s.scan(2, 29).unwrap().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![5, 7, 9, 12]);
    }

    #[test]
    fn inverted_scan_range_is_empty() {
        let s = sharded(2, 64, 32);
        s.put(4, b"four").unwrap();
        assert_eq!(s.scan(5, 3).unwrap(), vec![]);
        assert_eq!(s.scan_limit(5, 3, 10).unwrap(), vec![]);
        // No shard lock was lost to a panic: the same handle still serves.
        assert_eq!(s.scan(3, 5).unwrap(), vec![(4, b"four".to_vec())]);
    }

    /// Four writers on a shared handle while the background retrain
    /// triggers, trains and swaps in underneath them: per-key
    /// consistency, the swap itself, scans and clone-shared state.
    #[test]
    fn retraining_while_writers_run() {
        const PER_THREAD: u64 = 20;
        let cfg = E2Config {
            retrain_min_free: 2,
            ..test_config(32)
        };
        let s = sharded_with(2, 96, &cfg);
        let value = |t: u64, i: u64| vec![(t as u8) << 1 | (i as u8 & 1); 24];
        // All-but-zero values drain each shard's zeros cluster, so a
        // threshold trips well before the 80 keys could fill 96 segments.
        let tripped = AtomicBool::new(false);
        let start = std::sync::Barrier::new(4);
        let written: Vec<u64> = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..4u64)
                .map(|t| {
                    let (s, tripped, start) = (s.clone(), &tripped, &start);
                    scope.spawn(move || {
                        start.wait();
                        let mut i = 0;
                        while i < PER_THREAD && !tripped.load(Ordering::SeqCst) {
                            let key = t * 100 + i;
                            s.put(key, &value(t, i)).unwrap();
                            assert_eq!(s.get(key).unwrap(), value(t, i), "t{t} key{key}");
                            if i % 3 == 0 {
                                assert!(s.delete(key).unwrap());
                            }
                            let shard = s.shard_for(key);
                            if s.model_swaps() > 0
                                || s.with_shard_engine(shard, |e| e.needs_retrain())
                            {
                                tripped.store(true, Ordering::SeqCst);
                            }
                            i += 1;
                        }
                        i
                    })
                })
                .collect();
            writers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(tripped.load(Ordering::SeqCst), "no cluster ever tripped");

        s.finish_retraining();
        s.pump_retraining();
        assert!(s.model_swaps() >= 1, "no background swap happened");

        // Every surviving key reads back after the swap, through a
        // clone as through the original.
        let clone = s.clone();
        let mut survivors = 0;
        for (t, &n) in written.iter().enumerate() {
            let t = t as u64;
            for i in (0..n).filter(|i| i % 3 != 0) {
                assert_eq!(clone.get(t * 100 + i).unwrap(), value(t, i));
                survivors += 1;
            }
            let keys: Vec<u64> = s
                .scan(t * 100, t * 100 + 99)
                .unwrap()
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            let expect: Vec<u64> = (0..n).filter(|i| i % 3 != 0).map(|i| t * 100 + i).collect();
            assert_eq!(keys, expect);
        }
        assert_eq!(s.len(), survivors);
        assert_eq!(clone.len(), survivors);
        assert_eq!(clone.model_swaps(), s.model_swaps());
        clone.put(9_999, b"via clone").unwrap();
        assert_eq!(s.get(9_999).unwrap(), b"via clone");
        assert!(s.delete(9_999).unwrap());
        assert_eq!(clone.get(9_999), Err(E2Error::KeyNotFound(9_999)));
    }

    #[test]
    fn single_shard_matches_unsharded_engine() {
        // With one shard, ShardedEngine::train must be bit-identical to
        // an unsharded E2Engine on the same device content and seed.
        let seg_bytes = 32;
        let dev_cfg = DeviceConfig::builder()
            .segment_bytes(seg_bytes)
            .num_segments(48)
            .build()
            .unwrap();
        let cfg = test_config(seg_bytes);

        let mut rng = StdRng::seed_from_u64(7);
        let mut mc = partition_controllers(&dev_cfg, 1).unwrap().remove(0).1;
        seed_families(&mut mc, seg_bytes, &mut rng);
        let sharded = ShardedEngine::train(vec![mc], &cfg).unwrap();

        let mut rng = StdRng::seed_from_u64(7);
        let mut mc = partition_controllers(&dev_cfg, 1).unwrap().remove(0).1;
        seed_families(&mut mc, seg_bytes, &mut rng);
        let mut single = E2Engine::new(mc, cfg).unwrap();
        single.train().unwrap();

        for key in 0..20u64 {
            let a = sharded.put(key, &[key as u8; 24]).unwrap();
            let b = single.put(key, &[key as u8; 24]).unwrap();
            assert_eq!(a.bits_flipped, b.bits_flipped, "key {key}");
        }
        assert_eq!(sharded.device_stats(), *single.device_stats());
    }

    #[test]
    fn free_count_and_stats_aggregate() {
        let s = sharded(4, 64, 32);
        let free_before = s.free_count();
        assert_eq!(free_before, 64);
        s.put(1, &[0u8; 32]).unwrap();
        s.put(2, &[0xFFu8; 32]).unwrap();
        assert_eq!(s.free_count(), free_before - 2);
        let stats = s.device_stats();
        assert_eq!(stats.writes, 2);
        assert_eq!(s.prediction_stats().predictions, 2);
    }
}
