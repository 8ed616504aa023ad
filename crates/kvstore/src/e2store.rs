//! The paper's Figure 3 system: a persistent key-value store on hybrid
//! DRAM-NVM built on E2-NVM — [`ShardedE2KvStore`], the
//! [`NvmKvStore`] face of a [`ShardedEngine`]. Each shard's
//! [`E2Engine`] owns its ordered DRAM key index (the data index of
//! Algorithm 1); this layer adds the WAL + snapshot persistence and the
//! KV-op telemetry. A single-engine store is one shard:
//! `ShardedE2KvStore::new(ShardedEngine::new(vec![engine]))`.

use crate::store::{Result, StoreError};
use crate::telemetry::StoreTelemetry;
use crate::traits::NvmKvStore;
use e2nvm_core::{E2Config, E2Engine, E2Error, ScanBuffer, ShardedEngine};
use e2nvm_persist::{
    replay_and_truncate, FlushPolicy, PersistTelemetry, PersistenceConfig, ShardState,
    StoreSnapshot, Wal, WalOp, WalSyncer,
};
use e2nvm_sim::MemoryController;
use e2nvm_telemetry::{Sampler, TelemetryRegistry};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The attached persistence layer of a [`ShardedE2KvStore`]: one WAL
/// per shard plus snapshot-trigger state. Shared by clones.
struct PersistState {
    cfg: PersistenceConfig,
    /// Per-shard WALs. **Lock ordering**: a mutation takes its shard's
    /// WAL lock *first* and holds it *across* the engine apply
    /// ([`ShardedEngine::mutate_shard`]), so WAL record order always
    /// equals apply order within a shard. The snapshot path takes every
    /// WAL lock (in shard order) and then each engine lock — the same
    /// wal-then-engine order, so no cycle.
    wals: Vec<Mutex<Wal>>,
    /// Acked mutations since the last snapshot (drives
    /// [`PersistenceConfig::snapshot_every_ops`]).
    ops_since_snapshot: AtomicU64,
    telemetry: PersistTelemetry,
    /// Background fsync thread for `EveryN` policies (`None`
    /// otherwise). Declared after `wals` so the WALs' sync ports drop
    /// first and the syncer's drop can drain and join.
    _syncer: Option<WalSyncer>,
}

impl std::fmt::Debug for PersistState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistState")
            .field("data_dir", &self.cfg.data_dir)
            .field("flush_policy", &self.cfg.flush_policy)
            .field("wals", &self.wals.len())
            .finish()
    }
}

/// Spawn the store's background fsync thread when the policy can use
/// it ([`FlushPolicy::EveryN`]); `EveryAppend` must sync inline and
/// `OsOnly` never syncs, so neither gets a thread.
fn spawn_syncer(policy: FlushPolicy, telemetry: &PersistTelemetry) -> Result<Option<WalSyncer>> {
    match policy {
        FlushPolicy::EveryN(_) => WalSyncer::spawn(telemetry.clone())
            .map(Some)
            .map_err(|e| StoreError::Persistence(format!("spawn wal syncer: {e}"))),
        FlushPolicy::EveryAppend | FlushPolicy::OsOnly => Ok(None),
    }
}

/// Attach the store's syncer port (if any) to a freshly opened WAL,
/// keyed by shard index so the syncer can coalesce per log.
fn attach_syncer(wal: Wal, shard: usize, syncer: &Option<WalSyncer>) -> Wal {
    match syncer {
        Some(s) => wal.with_syncer(s.port(shard as u64)),
        None => wal,
    }
}

/// A point-in-time summary of a store's segment wear, cheap enough to
/// poll every few hundred milliseconds: live keys plus the three pool
/// counters whose trajectory is the endurance story (free shrinking,
/// retired growing, total constant).
///
/// This is the body of the wire protocol's HEALTH frame: an operator
/// polling it sees [`wear_fraction`](WearSummary::wear_fraction) climb
/// while the server still accepts writes, *before* the pool depletes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WearSummary {
    /// Live keys in the store.
    pub keys: u64,
    /// Free segments still available for placement.
    pub free_segments: u64,
    /// Logical segments permanently retired by wear-out (pool
    /// shrinkage, as the placement layer sees it).
    pub retired_segments: u64,
    /// Physical slots quarantined by the memory controllers — the
    /// ground truth of which device segments actually died. Equals
    /// `retired_segments` under identity mapping; under wear leveling
    /// it is the count relocations route around.
    pub retired_physical: u64,
    /// Total segments the store manages (free + in use + retired);
    /// constant over a store's lifetime.
    pub total_segments: u64,
}

impl WearSummary {
    /// Fraction of the store's segments permanently retired by
    /// wear-out, in `[0, 1]`. `0.0` for an empty geometry.
    pub fn wear_fraction(&self) -> f64 {
        if self.total_segments == 0 {
            0.0
        } else {
            self.retired_segments as f64 / self.total_segments as f64
        }
    }

    /// Whether the placement pool has run dry — the next write that
    /// needs a fresh segment will fail with `Degraded`/`PoolDepleted`.
    pub fn is_depleted(&self) -> bool {
        self.free_segments == 0
    }
}

/// What [`ShardedE2KvStore::recover`] rebuilt, for operator logs and
/// the recovery benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Shards restored from the snapshot.
    pub shards: usize,
    /// Keys resident after snapshot restore + WAL replay.
    pub keys: usize,
    /// WAL records replayed on top of the snapshot.
    pub replayed_ops: usize,
    /// Torn-tail bytes truncated from the WALs (unacked crash debris).
    pub truncated_bytes: u64,
    /// Wall-clock milliseconds of the whole recovery.
    pub duration_ms: u64,
}

/// The E2-NVM-backed key-value store: the KV interface over a
/// [`ShardedEngine`], whose per-shard engines each keep their own key
/// index, so no extra DRAM index is needed here. The store is
/// `Clone` — clones share the shards — so the serving layer, a
/// drain-time snapshot handle and application threads can each hold
/// one.
///
/// Optionally crash-consistent: [`ShardedE2KvStore::with_persistence`]
/// attaches a per-shard WAL plus snapshot layer, and
/// [`ShardedE2KvStore::recover`] rebuilds a store from them after a
/// kill — every acknowledged mutation survives (see DESIGN.md §14).
#[derive(Debug)]
pub struct ShardedE2KvStore {
    engine: ShardedEngine,
    telemetry: StoreTelemetry,
    persist: Option<Arc<PersistState>>,
    /// Where this handle's scans keep their winners until they are
    /// visited. Owned, not shared: every clone (the server's one
    /// execution context, an application thread) scans through its
    /// own, so no lock guards it.
    scan_buf: ScanBuffer,
    /// Which puts, gets and scans this handle times; owned, like
    /// `scan_buf`.
    clocks: OpClocks,
}

/// One latency [`Sampler`] per timed store operation.
#[derive(Debug, Default)]
struct OpClocks {
    put: Sampler,
    get: Sampler,
    scan: Sampler,
}

impl Clone for ShardedE2KvStore {
    /// Share the shards, the telemetry series and the persistence
    /// layer; start with an empty scan buffer and fresh samplers. The
    /// server's event loop holds one clone and its wear gauges'
    /// telemetry source another; neither scans through the other's
    /// buffer.
    fn clone(&self) -> Self {
        Self {
            engine: self.engine.clone(),
            telemetry: self.telemetry.clone(),
            persist: self.persist.clone(),
            scan_buf: ScanBuffer::new(),
            clocks: OpClocks::default(),
        }
    }
}

impl ShardedE2KvStore {
    /// Build over trained shards (no persistence attached).
    pub fn new(engine: ShardedEngine) -> Self {
        Self {
            engine,
            telemetry: StoreTelemetry::disconnected(),
            persist: None,
            scan_buf: ScanBuffer::new(),
            clocks: OpClocks::default(),
        }
    }

    /// Attach a WAL + snapshot persistence layer (and take the initial
    /// snapshot, so the data dir is replayable from op zero: every later
    /// acked mutation is recoverable as snapshot + WAL suffix).
    ///
    /// Works under active wear leveling: each shard's snapshot carries
    /// the controller's [`e2nvm_sim::ControllerState`] (policy state,
    /// logical→physical remap, quarantined physical slots), so recovery
    /// resumes the rotation exactly where the crash interrupted it
    /// (DESIGN.md §14). Pass `registry` to publish the
    /// `e2nvm_persist_*` series.
    pub fn with_persistence(
        mut self,
        cfg: PersistenceConfig,
        registry: Option<&TelemetryRegistry>,
    ) -> Result<Self> {
        cfg.validate()?;
        std::fs::create_dir_all(cfg.data_dir.join("wal"))
            .map_err(|e| StoreError::Persistence(format!("create data dir: {e}")))?;
        let telemetry = match registry {
            Some(r) => PersistTelemetry::register(r),
            None => PersistTelemetry::disconnected(),
        };
        let syncer = spawn_syncer(cfg.flush_policy, &telemetry)?;
        let wals = (0..self.engine.num_shards())
            .map(|i| {
                Wal::open(cfg.wal_path(i), cfg.flush_policy, telemetry.clone())
                    .map(|w| attach_syncer(w, i, &syncer))
                    .map(Mutex::new)
                    .map_err(|e| StoreError::Persistence(format!("open wal {i}: {e}")))
            })
            .collect::<Result<Vec<_>>>()?;
        self.persist = Some(Arc::new(PersistState {
            cfg,
            wals,
            ops_since_snapshot: AtomicU64::new(0),
            telemetry,
            _syncer: syncer,
        }));
        // Also supersedes any stale WAL records from a previous
        // incarnation of the data dir (snapshot_now resets the logs).
        self.snapshot_now()?;
        Ok(self)
    }

    /// Take a stop-the-world snapshot now: acquire every shard's WAL
    /// lock (quiescing mutations), capture each shard's device image and
    /// engine state, write the snapshot atomically, then truncate the
    /// WALs. Returns the snapshot bytes written, or `Ok(0)` when no
    /// persistence layer is attached (documented no-op, mirroring the
    /// [`NvmKvStore::flush`] contract).
    ///
    /// A crash between the snapshot rename and the WAL truncation is
    /// safe: WAL records are full-value upserts/deletes, so replaying
    /// ops the snapshot already contains is idempotent.
    pub fn snapshot_now(&self) -> Result<u64> {
        let Some(p) = &self.persist else {
            return Ok(0);
        };
        let mut wals: Vec<_> = p.wals.iter().map(Mutex::lock).collect();
        let mut shards = Vec::with_capacity(self.engine.num_shards());
        for i in 0..self.engine.num_shards() {
            shards.push(
                self.engine
                    .with_shard_engine(i, |e| -> Result<ShardState> {
                        let mc = e.controller();
                        Ok(ShardState {
                            device_image: e2nvm_sim::snapshot::to_image(mc.device()),
                            state: e.export_state()?,
                            controller: Some(mc.export_state()),
                        })
                    })?,
            );
        }
        let bytes = StoreSnapshot { shards }.save_atomic(&p.cfg.snapshot_path())?;
        for wal in wals.iter_mut() {
            wal.reset()
                .map_err(|e| StoreError::Persistence(format!("wal reset: {e}")))?;
        }
        p.ops_since_snapshot.store(0, Ordering::Relaxed);
        p.telemetry.snapshots.inc();
        p.telemetry.snapshot_bytes.add(bytes);
        Ok(bytes)
    }

    /// Rebuild a store from `cfg.data_dir`: load the snapshot, restore
    /// each shard's device and engine, replay the WAL suffix (truncating
    /// any torn tail), and re-attach the logs for appending. `Ok(None)`
    /// when no snapshot exists (fresh start — train and call
    /// [`ShardedE2KvStore::with_persistence`] instead).
    ///
    /// `e2cfg` must be the same engine config the store was built with;
    /// per-shard seeds are re-derived by
    /// [`ShardedEngine::shard_config`], as training derived them, and
    /// geometry mismatches (segment size, input bits) are rejected
    /// during restore.
    pub fn recover(
        cfg: &PersistenceConfig,
        e2cfg: &E2Config,
        registry: Option<&TelemetryRegistry>,
    ) -> Result<Option<(Self, RecoveryReport)>> {
        cfg.validate()?;
        let t0 = Instant::now();
        let Some(snap) = StoreSnapshot::load(&cfg.snapshot_path())? else {
            return Ok(None);
        };
        let mut engines = Vec::with_capacity(snap.shards.len());
        for (i, shard) in snap.shards.iter().enumerate() {
            let device = e2nvm_sim::snapshot::from_image(&shard.device_image)
                .map_err(|e| StoreError::Persistence(format!("shard {i} device image: {e}")))?;
            // A shard block carries the controller's translation state
            // (remap, policy, quarantined slots); one without it stands
            // for a pass-through controller.
            let mc = match &shard.controller {
                Some(cs) => MemoryController::from_state(device, cs).map_err(|e| {
                    StoreError::Persistence(format!("shard {i} controller state: {e}"))
                })?,
                None => MemoryController::without_wear_leveling(device),
            };
            let mut engine = E2Engine::new(mc, ShardedEngine::shard_config(e2cfg, i))?;
            engine.restore_state(&shard.state)?;
            engines.push(engine);
        }
        let engine = ShardedEngine::new(engines);
        let telemetry = match registry {
            Some(r) => PersistTelemetry::register(r),
            None => PersistTelemetry::disconnected(),
        };
        std::fs::create_dir_all(cfg.data_dir.join("wal"))
            .map_err(|e| StoreError::Persistence(format!("create data dir: {e}")))?;
        let syncer = spawn_syncer(cfg.flush_policy, &telemetry)?;
        let mut replayed_ops = 0usize;
        let mut truncated_bytes = 0u64;
        let mut wals = Vec::with_capacity(engine.num_shards());
        for i in 0..engine.num_shards() {
            let path = cfg.wal_path(i);
            let replay = replay_and_truncate(&path)
                .map_err(|e| StoreError::Persistence(format!("replay wal {i}: {e}")))?;
            truncated_bytes += replay.total_bytes - replay.valid_bytes;
            replayed_ops += replay.ops.len();
            engine.with_shard_engine(i, |e| -> Result<()> {
                for op in &replay.ops {
                    match op {
                        WalOp::Put { key, value } => {
                            e.put(*key, value)?;
                        }
                        WalOp::Delete { key } => {
                            e.delete(*key)?;
                        }
                    }
                }
                Ok(())
            })?;
            wals.push(Mutex::new(attach_syncer(
                Wal::open(&path, cfg.flush_policy, telemetry.clone())
                    .map_err(|e| StoreError::Persistence(format!("open wal {i}: {e}")))?,
                i,
                &syncer,
            )));
        }
        // The replayed records stay in the logs until the next snapshot
        // truncates them: crashing again before then replays the same
        // idempotent prefix onto the same snapshot.
        let store = Self {
            engine,
            telemetry: StoreTelemetry::disconnected(),
            persist: Some(Arc::new(PersistState {
                cfg: cfg.clone(),
                wals,
                ops_since_snapshot: AtomicU64::new(replayed_ops as u64),
                telemetry: telemetry.clone(),
                _syncer: syncer,
            })),
            scan_buf: ScanBuffer::new(),
            clocks: OpClocks::default(),
        };
        let report = RecoveryReport {
            shards: store.engine.num_shards(),
            keys: store.len(),
            replayed_ops,
            truncated_bytes,
            duration_ms: t0.elapsed().as_millis() as u64,
        };
        telemetry.recovery_ms.set(report.duration_ms as i64);
        Ok(Some((store, report)))
    }

    /// Count one acked mutation toward the periodic snapshot trigger.
    /// Best-effort: if the triggered snapshot fails, the previous
    /// snapshot plus the (longer) WAL still cover every acked write, so
    /// the failure degrades recovery time, not durability; explicit
    /// [`ShardedE2KvStore::snapshot_now`]/[`NvmKvStore::flush`] calls
    /// surface snapshot errors to the caller.
    fn note_mutation(&self, p: &PersistState) {
        let every = p.cfg.snapshot_every_ops;
        if every == 0 {
            return;
        }
        if p.ops_since_snapshot.fetch_add(1, Ordering::Relaxed) + 1 >= every {
            // Claim the trigger: only the thread that swaps out a
            // large count snapshots; racers see 0 and move on.
            if p.ops_since_snapshot.swap(0, Ordering::Relaxed) >= every {
                let _ = self.snapshot_now();
            }
        }
    }

    /// The one scan behind [`NvmKvStore::scan_limit`] and
    /// [`NvmKvStore::scan_visit`]: [`ShardedEngine::scan_into`] through
    /// this handle's buffer, timed and accounted. The timing includes
    /// the visit, which runs under the shards' engine locks.
    fn scan_with(
        &mut self,
        lo: u64,
        hi: u64,
        limit: usize,
        f: &mut dyn FnMut(u64, &[u8]) -> bool,
    ) -> Result<usize> {
        let started = self.clocks.scan.start();
        self.telemetry.scans.inc();
        let visited = self.engine.scan_into(lo, hi, limit, &mut self.scan_buf, f);
        self.telemetry.scan_latency_ns.observe_since(started);
        let visited = visited?;
        self.telemetry
            .scan_entries_read
            .add(self.scan_buf.read() as u64);
        self.telemetry
            .scan_entries_returned
            .add(self.scan_buf.len() as u64);
        Ok(visited)
    }

    /// The untimed body of [`NvmKvStore::put`]: apply, and log when
    /// persistence is attached.
    fn put_logged(&self, key: u64, value: &[u8]) -> Result<()> {
        let Some(p) = &self.persist else {
            self.engine.put(key, value)?;
            return Ok(());
        };
        let shard = self.engine.shard_for(key);
        {
            // WAL lock held across the apply: record order == apply
            // order. The record buffers in the WAL and reaches the
            // kernel at the next `commit` — which the serving layer
            // runs before the ack leaves the process, so a crash in
            // between loses only mutations the client was never acked.
            let mut wal = p.wals[shard].lock();
            self.engine.mutate_shard(shard, |e| e.put(key, value))?;
            wal.append_put(key, value)
                .map_err(|e| StoreError::Persistence(format!("wal append: {e}")))?;
        }
        self.note_mutation(p);
        Ok(())
    }

    /// Register this store's KV-op metrics — and every shard's engine
    /// and device series — on `registry`. Attach before handing out
    /// clones so all clones share the same series. (The
    /// `e2nvm_persist_*` series are registered separately, at
    /// [`ShardedE2KvStore::with_persistence`]/[`ShardedE2KvStore::recover`]
    /// time.)
    pub fn attach_telemetry(&mut self, registry: &TelemetryRegistry) {
        self.engine.attach_telemetry(registry);
        self.telemetry = StoreTelemetry::register(registry, "sharded");
    }

    /// Borrow the sharded engine (stats, retraining, shard inspection).
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// Segments permanently retired by wear-out across all shards
    /// (degraded mode).
    pub fn retired_count(&self) -> usize {
        self.wear_summary().retired_segments as usize
    }

    /// Physical slots quarantined by the shards' memory controllers —
    /// the device-side counterpart of [`Self::retired_count`], and the
    /// figure the HEALTH frame reports as ground truth.
    pub fn retired_physical_count(&self) -> usize {
        self.wear_summary().retired_physical as usize
    }

    /// Point-in-time wear summary across all shards — what the wire
    /// protocol's HEALTH frame carries. One pass: each shard's five
    /// counters are read under a single acquisition of its lock.
    pub fn wear_summary(&self) -> WearSummary {
        self.engine
            .fold_shards(WearSummary::default(), |w, e| WearSummary {
                keys: w.keys + e.len() as u64,
                free_segments: w.free_segments + e.free_count() as u64,
                retired_segments: w.retired_segments + e.retired_count() as u64,
                retired_physical: w.retired_physical + e.retired_physical_count() as u64,
                total_segments: w.total_segments + e.controller().num_segments() as u64,
            })
    }

    /// Number of keys stored across all shards.
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }
}

impl NvmKvStore for ShardedE2KvStore {
    fn name(&self) -> &'static str {
        "E2-NVM KV (sharded)"
    }

    fn put(&mut self, key: u64, value: &[u8]) -> Result<()> {
        let started = self.clocks.put.start();
        self.telemetry.puts.inc();
        let result = self.put_logged(key, value);
        self.telemetry.put_latency_ns.observe_since(started);
        result
    }

    fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>> {
        let started = self.clocks.get.start();
        self.telemetry.gets.inc();
        let got = self.engine.get(key);
        self.telemetry.get_latency_ns.observe_since(started);
        match got {
            Ok(v) => Ok(Some(v)),
            Err(E2Error::KeyNotFound(_)) => Ok(None),
            Err(e) => Err(StoreError::from(e)),
        }
    }

    fn delete(&mut self, key: u64) -> Result<bool> {
        self.telemetry.deletes.inc();
        let Some(p) = self.persist.clone() else {
            return Ok(self.engine.delete(key)?);
        };
        let shard = self.engine.shard_for(key);
        let existed = {
            let mut wal = p.wals[shard].lock();
            let existed = self.engine.mutate_shard(shard, |e| e.delete(key))?;
            if existed {
                // Deleting an absent key changes nothing; log only
                // actual state transitions.
                wal.append_delete(key)
                    .map_err(|e| StoreError::Persistence(format!("wal append: {e}")))?;
            }
            existed
        };
        if existed {
            self.note_mutation(&p);
        }
        Ok(existed)
    }

    fn scan(&mut self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>> {
        self.scan_limit(lo, hi, usize::MAX)
    }

    fn scan_limit(&mut self, lo: u64, hi: u64, limit: usize) -> Result<Vec<(u64, Vec<u8>)>> {
        let mut out = Vec::new();
        self.scan_with(lo, hi, limit, &mut |key, value| {
            out.push((key, value.to_vec()));
            true
        })?;
        Ok(out)
    }

    fn scan_visit(
        &mut self,
        lo: u64,
        hi: u64,
        limit: usize,
        f: &mut dyn FnMut(u64, &[u8]) -> bool,
    ) -> Result<usize> {
        self.scan_with(lo, hi, limit, f)
    }

    fn stats(&self) -> e2nvm_sim::DeviceStats {
        self.engine.device_stats()
    }

    fn reset_stats(&mut self) {
        self.engine.reset_device_stats();
    }

    fn maintenance(&mut self) {
        self.engine.pump_retraining();
    }

    fn flush(&mut self) -> Result<u64> {
        self.snapshot_now()
    }

    fn commit(&mut self) -> Result<()> {
        let Some(p) = &self.persist else {
            return Ok(());
        };
        for wal in &p.wals {
            wal.lock()
                .commit()
                .map_err(|e| StoreError::Persistence(format!("wal commit: {e}")))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::check_against_shadow;
    use e2nvm_core::E2Config;
    use e2nvm_sim::{DeviceConfig, LogicalSegment, MemoryController, NvmDevice};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A one-shard store over a hand-built engine.
    fn store(segments: usize, seg_bytes: usize) -> ShardedE2KvStore {
        let dev = NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(seg_bytes)
                .num_segments(segments)
                .build()
                .unwrap(),
        );
        let cfg = E2Config::builder()
            .fast(seg_bytes, 2)
            .pretrain_epochs(5)
            .joint_epochs(1)
            .padding_type(e2nvm_core::PaddingType::Zero)
            .build()
            .unwrap();
        let mut engine = E2Engine::new(MemoryController::without_wear_leveling(dev), cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        for i in 0..segments {
            let base = if i % 2 == 0 { 0x00u8 } else { 0xFF };
            let content: Vec<u8> = (0..seg_bytes)
                .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
                .collect();
            engine
                .controller_mut()
                .seed(LogicalSegment(i), &content)
                .unwrap();
        }
        engine.train().unwrap();
        ShardedE2KvStore::new(ShardedEngine::new(vec![engine]))
    }

    #[test]
    fn scan_in_key_order() {
        let mut s = store(32, 64);
        for k in [4u64, 8, 2, 6] {
            s.put(k, &k.to_le_bytes()).unwrap();
        }
        let keys: Vec<u64> = s.scan(3, 7).unwrap().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![4, 6]);
    }

    #[test]
    fn inverted_scan_range_is_empty() {
        let mut s = store(32, 64);
        s.put(4, b"four").unwrap();
        assert_eq!(s.scan(5, 3).unwrap(), vec![]);
        assert_eq!(s.scan_limit(5, 3, 10).unwrap(), vec![]);
        // The cache front passes scans straight through.
        let mut cached = crate::CachedKvStore::new(s, crate::CacheConfig::default());
        assert_eq!(cached.scan(5, 3).unwrap(), vec![]);
        // No shard lock was lost to a panic: the store still serves.
        assert_eq!(cached.scan(3, 5).unwrap(), vec![(4, b"four".to_vec())]);
    }

    fn kv_cfg(seg_bytes: usize) -> E2Config {
        E2Config::builder()
            .fast(seg_bytes, 2)
            .pretrain_epochs(5)
            .joint_epochs(1)
            .padding_type(e2nvm_core::PaddingType::Zero)
            .build()
            .unwrap()
    }

    fn sharded_store(num_shards: usize, segments: usize, seg_bytes: usize) -> ShardedE2KvStore {
        let dev_cfg = DeviceConfig::builder()
            .segment_bytes(seg_bytes)
            .num_segments(segments)
            .build()
            .unwrap();
        let cfg = kv_cfg(seg_bytes);
        let mut rng = StdRng::seed_from_u64(23);
        let controllers: Vec<MemoryController> =
            e2nvm_sim::partition_controllers(&dev_cfg, num_shards)
                .unwrap()
                .into_iter()
                .map(|(_, mut mc)| {
                    for i in 0..mc.num_segments() {
                        let base = if i % 2 == 0 { 0x00u8 } else { 0xFF };
                        let content: Vec<u8> = (0..seg_bytes)
                            .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
                            .collect();
                        mc.seed(LogicalSegment(i), &content).unwrap();
                    }
                    mc
                })
                .collect();
        ShardedE2KvStore::new(ShardedEngine::train(controllers, &cfg).unwrap())
    }

    #[test]
    fn put_count_is_exact_and_its_latency_sampled() {
        let registry = TelemetryRegistry::new();
        let mut s = store(64, 64);
        s.attach_telemetry(&registry);
        for i in 0..100u64 {
            s.put(i % 8, &[i as u8; 16]).unwrap();
        }
        let samples = || {
            registry
                .histogram_with_labels("e2nvm_kv_put_latency_ns", "", &[], &[("store", "sharded")])
                .count()
        };
        assert_eq!(registry.counter_total("e2nvm_kv_puts_total"), 100);
        assert_eq!(samples(), 2);
        // A clone times with a fresh sampler: its first put is sampled.
        s.clone().put(0, b"clone").unwrap();
        assert_eq!(registry.counter_total("e2nvm_kv_puts_total"), 101);
        assert_eq!(samples(), 3);
    }

    #[test]
    fn attaching_twice_counts_each_write_once() {
        let registry = TelemetryRegistry::new();
        let mut s = sharded_store(2, 64, 64);
        s.attach_telemetry(&registry);
        s.clone().attach_telemetry(&registry);
        s.put(7, b"once").unwrap();
        assert_eq!(registry.counter_total("e2nvm_device_writes_total"), 1);
        assert_eq!(registry.counter_total("e2nvm_kv_puts_total"), 1);
    }

    #[test]
    fn sharded_basic_crud() {
        let mut s = sharded_store(4, 64, 64);
        s.put(10, b"ten").unwrap();
        assert_eq!(s.get(10).unwrap().unwrap(), b"ten");
        s.put(10, b"TEN").unwrap();
        assert_eq!(s.get(10).unwrap().unwrap(), b"TEN");
        assert!(s.delete(10).unwrap());
        assert!(!s.delete(10).unwrap());
        assert_eq!(s.get(10).unwrap(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn sharded_shadow_stress() {
        let mut s = sharded_store(4, 192, 64);
        check_against_shadow(&mut s, 400, 12, 31).unwrap();
    }

    #[test]
    fn persistence_recovers_acked_writes_after_kill() {
        let dir = std::env::temp_dir().join(format!(
            "e2nvm_kv_recover_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let e2cfg = kv_cfg(64);
        let pcfg = || {
            PersistenceConfig::builder()
                .data_dir(&dir)
                .flush_policy(e2nvm_persist::FlushPolicy::OsOnly)
                .build()
                .unwrap()
        };
        let mut shadow: std::collections::BTreeMap<u64, Vec<u8>> = Default::default();
        {
            let mut s = sharded_store(4, 192, 64)
                .with_persistence(pcfg(), None)
                .unwrap();
            for k in 0..24u64 {
                let v = vec![k as u8; 16];
                s.put(k, &v).unwrap();
                shadow.insert(k, v);
            }
            for k in 100..112u64 {
                let v = vec![!(k as u8); 12];
                s.put(k, &v).unwrap();
                shadow.insert(k, v);
            }
            for k in [3u64, 7, 105] {
                assert!(s.delete(k).unwrap());
                shadow.remove(&k);
            }
            // Group-commit barrier: hand the buffered records to the
            // kernel, as the server does before flushing acks.
            s.commit().unwrap();
            // Drop without a final snapshot: the data dir now holds the
            // *initial* (empty-ish) snapshot plus every op in the WALs —
            // the SIGKILL shape.
        }
        let (mut r, report) = ShardedE2KvStore::recover(&pcfg(), &e2cfg, None)
            .unwrap()
            .expect("snapshot present");
        assert_eq!(report.shards, 4);
        assert_eq!(report.keys, shadow.len());
        assert!(report.replayed_ops >= 24 + 12 + 3);
        assert_eq!(report.truncated_bytes, 0);
        for (k, v) in &shadow {
            assert_eq!(r.get(*k).unwrap().as_ref(), Some(v), "key {k}");
        }
        assert_eq!(r.get(3).unwrap(), None);
        // Second generation: snapshot compacts the WAL, then more ops
        // land in the fresh log; a second recovery sees both layers.
        assert!(r.snapshot_now().unwrap() > 0);
        r.put(500, b"after-snapshot").unwrap();
        shadow.insert(500, b"after-snapshot".to_vec());
        assert!(r.delete(0).unwrap());
        shadow.remove(&0);
        drop(r);
        let (mut r2, report2) = ShardedE2KvStore::recover(&pcfg(), &e2cfg, None)
            .unwrap()
            .expect("snapshot present");
        assert_eq!(report2.replayed_ops, 2);
        assert_eq!(r2.len(), shadow.len());
        for (k, v) in &shadow {
            assert_eq!(r2.get(*k).unwrap().as_ref(), Some(v), "key {k}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_rederives_each_shards_config() {
        let dir = std::env::temp_dir().join(format!(
            "e2nvm_kv_seeds_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let e2cfg = kv_cfg(64);
        let pcfg = PersistenceConfig::builder()
            .data_dir(&dir)
            .flush_policy(e2nvm_persist::FlushPolicy::OsOnly)
            .build()
            .unwrap();
        let configs = |s: &ShardedE2KvStore| -> Vec<E2Config> {
            (0..3)
                .map(|i| s.engine().with_shard_engine(i, |e| e.config().clone()))
                .collect()
        };
        let trained = configs(
            &sharded_store(3, 96, 64)
                .with_persistence(pcfg.clone(), None)
                .unwrap(),
        );
        let (recovered, _) = ShardedE2KvStore::recover(&pcfg, &e2cfg, None)
            .unwrap()
            .expect("snapshot present");
        assert_eq!(configs(&recovered), trained);
        // Decorrelated, not merely equal: three distinct seeds, shard 0
        // keeping the caller's.
        let seeds: Vec<u64> = trained.iter().map(|c| c.seed).collect();
        assert_eq!(seeds[0], e2cfg.seed);
        assert!(seeds[0] != seeds[1] && seeds[1] != seeds[2] && seeds[0] != seeds[2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_truncates_torn_wal_tail() {
        let dir = std::env::temp_dir().join(format!(
            "e2nvm_kv_torn_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let e2cfg = kv_cfg(64);
        let pcfg = PersistenceConfig::builder()
            .data_dir(&dir)
            .flush_policy(e2nvm_persist::FlushPolicy::OsOnly)
            .build()
            .unwrap();
        {
            let mut s = sharded_store(2, 96, 64)
                .with_persistence(pcfg.clone(), None)
                .unwrap();
            for k in 0..8u64 {
                s.put(k, &[k as u8; 16]).unwrap();
            }
        }
        // Tear every WAL mid-record, as a crash mid-append would.
        let mut tore = false;
        for i in 0..2 {
            let path = pcfg.wal_path(i);
            let len = std::fs::metadata(&path).unwrap().len();
            if len > 3 {
                let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                f.set_len(len - 3).unwrap();
                tore = true;
            }
        }
        assert!(tore, "workload must hit at least one shard's WAL");
        let (mut r, report) = ShardedE2KvStore::recover(&pcfg, &e2cfg, None)
            .unwrap()
            .expect("snapshot present");
        // The torn record is gone (it was never acked in this scenario);
        // every fully-written record survives.
        assert!(report.truncated_bytes > 0);
        assert!(report.keys < 8);
        for k in 0..8u64 {
            if let Some(v) = r.get(k).unwrap() {
                assert_eq!(v, vec![k as u8; 16]);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Build a sharded store whose shards all run start-gap wear
    /// leveling (ψ = `psi`), over `segments` *physical* slots split
    /// across `num_shards` shards. Each shard's logical capacity is one
    /// less than its slice of the physical space (the reserved gap).
    fn wear_leveled_store(
        num_shards: usize,
        segments: usize,
        seg_bytes: usize,
        psi: u64,
    ) -> ShardedE2KvStore {
        let dev_cfg = DeviceConfig::builder()
            .segment_bytes(seg_bytes)
            .num_segments(segments)
            .build()
            .unwrap();
        let cfg = kv_cfg(seg_bytes);
        let mut rng = StdRng::seed_from_u64(23);
        let controllers: Vec<MemoryController> =
            e2nvm_sim::partition_controllers_with(&dev_cfg, num_shards, |dev| {
                MemoryController::with_start_gap(dev, psi)
            })
            .unwrap()
            .into_iter()
            .map(|(_, mut mc)| {
                for i in 0..mc.num_segments() {
                    let base = if i % 2 == 0 { 0x00u8 } else { 0xFF };
                    let content: Vec<u8> = (0..seg_bytes)
                        .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
                        .collect();
                    mc.seed(LogicalSegment(i), &content).unwrap();
                }
                mc
            })
            .collect();
        ShardedE2KvStore::new(ShardedEngine::train(controllers, &cfg).unwrap())
    }

    /// Per-shard controller state of a recovered/live store, for
    /// comparing translation layers across a kill.
    fn controller_states(s: &ShardedE2KvStore) -> Vec<e2nvm_sim::ControllerState> {
        (0..s.engine().num_shards())
            .map(|i| {
                s.engine()
                    .with_shard_engine(i, |e| e.controller().export_state())
            })
            .collect()
    }

    #[test]
    fn persistence_roundtrips_under_active_wear_leveling() {
        let dir = std::env::temp_dir().join(format!(
            "e2nvm_kv_wl_recover_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let e2cfg = kv_cfg(64);
        let pcfg = || {
            PersistenceConfig::builder()
                .data_dir(&dir)
                .flush_policy(e2nvm_persist::FlushPolicy::OsOnly)
                .build()
                .unwrap()
        };
        let mut shadow: std::collections::BTreeMap<u64, Vec<u8>> = Default::default();
        {
            // ψ=2 so ordinary test traffic rotates every shard's remap
            // away from identity while the WAL is live.
            let mut s = wear_leveled_store(2, 98, 64, 2)
                .with_persistence(pcfg(), None)
                .unwrap();
            for k in 0..40u64 {
                let v = vec![(k as u8) ^ 0xA5; 24];
                s.put(k, &v).unwrap();
                shadow.insert(k, v);
            }
            for k in [5u64, 17, 31] {
                assert!(s.delete(k).unwrap());
                shadow.remove(&k);
            }
            s.commit().unwrap();
            for cs in controller_states(&s) {
                assert!(cs.remap.iter().enumerate().any(|(l, &p)| l != p));
            }
            // Kill: drop without a final snapshot. The data dir holds
            // the attach-time snapshot plus every op in the WALs.
        }
        let (mut r, report) = ShardedE2KvStore::recover(&pcfg(), &e2cfg, None)
            .unwrap()
            .expect("snapshot present");
        assert_eq!(report.keys, shadow.len());
        for (k, v) in &shadow {
            assert_eq!(r.get(*k).unwrap().as_ref(), Some(v), "key {k}");
        }
        // The wear-leveling policy survived the kill and kept rotating
        // through replay: still active, still a consistent bijection.
        for i in 0..r.engine().num_shards() {
            r.engine().with_shard_engine(i, |e| {
                assert!(matches!(
                    e.controller().export_state().policy,
                    e2nvm_sim::WearPolicy::StartGap { .. }
                ));
                assert!(e.controller().remap_is_consistent());
            });
        }
        // Second cycle: snapshot the *mid-rotation* state, kill with no
        // further ops, and recover — the restored controllers must equal
        // the snapshotted ones exactly (replayed_ops == 0, so nothing
        // can have evolved).
        assert!(r.snapshot_now().unwrap() > 0);
        let frozen = controller_states(&r);
        assert!(frozen
            .iter()
            .any(|cs| cs.remap.iter().enumerate().any(|(l, &p)| l != p)));
        drop(r);
        let (mut r2, report2) = ShardedE2KvStore::recover(&pcfg(), &e2cfg, None)
            .unwrap()
            .expect("snapshot present");
        assert_eq!(report2.replayed_ops, 0);
        assert_eq!(controller_states(&r2), frozen);
        for (k, v) in &shadow {
            assert_eq!(r2.get(*k).unwrap().as_ref(), Some(v), "key {k}");
        }
        // And the recovered store keeps serving mutations.
        r2.put(900, b"post-recovery").unwrap();
        assert_eq!(r2.get(900).unwrap().unwrap(), b"post-recovery");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deletes_recycle_capacity() {
        let mut s = store(16, 64);
        for k in 0..10u64 {
            s.put(k, &[k as u8; 32]).unwrap();
        }
        for k in 0..10u64 {
            s.delete(k).unwrap();
        }
        // All capacity back: another 10 puts must succeed.
        for k in 100..110u64 {
            s.put(k, &[1u8; 32]).unwrap();
        }
        assert_eq!(s.len(), 10);
    }
}
