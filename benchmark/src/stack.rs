//! Building the system under test: the measured set-up (seed → train →
//! persist → boot → load) and the recovery every pass starts from.

use crate::calibrate::Calibration;
use crate::clock::peak_rss_mib;
use crate::geometry::{
    cache_config, device_config, e2_config, flush_policy, GEOMETRY_SEED, RECORDS, SCAN_CHUNK_BYTES,
    SEGMENT_BYTES, SHARDS,
};
use crate::wire::{drive, WireConn};
use crate::workload::{Inputs, Spec};
use e2nvm_core::ShardedEngine;
use e2nvm_kvstore::{CachedKvStore, NvmKvStore, ShardedE2KvStore};
use e2nvm_persist::PersistenceConfig;
use e2nvm_server::{Server, ServerConfig, ServerHandle};
use e2nvm_sim::{partition_controllers, DeviceStats, LogicalSegment, MemoryController};
use e2nvm_telemetry::TelemetryRegistry;
use e2nvm_workloads::datasets::{resize_item, DatasetKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::Instant;

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// One measured set-up and what it left behind.
#[derive(Debug, Clone)]
pub struct SetUp {
    /// Snapshot of the loaded store: the state every pass recovers.
    pub snapshot: PathBuf,
    /// Device counters of the load phase (seeding is unaccounted).
    pub load_stats: DeviceStats,
    /// Wall seconds: seed + train + persist + boot + load.
    pub setup_s: f64,
    /// Training speed of the host relative to the reference while it
    /// ran (mean of the compute kernel's readings before and after).
    pub host_speed: f64,
    /// Wall seconds training every shard's model (sequentially).
    pub train_s: f64,
    /// Mean final training loss across shards.
    pub train_final_loss: f64,
    /// Multiply-accumulates of one training epoch, all shards.
    pub train_macs_per_epoch: u64,
    /// Multiply-accumulates of one prediction.
    pub predict_macs: u64,
    /// Wall seconds of the baseline snapshot (not part of `setup_s`).
    pub snapshot_save_s: f64,
    /// Bytes of that snapshot.
    pub snapshot_bytes: u64,
    /// Peak RSS once the set-up is done, MiB.
    pub rss_mib: f64,
}

fn persistence(dir: &Path) -> Result<PersistenceConfig> {
    Ok(PersistenceConfig::builder()
        .data_dir(dir)
        .flush_policy(flush_policy())
        .build()?)
}

fn server_config(spec: &Spec) -> Result<ServerConfig> {
    Ok(ServerConfig::builder()
        .scan_chunk_bytes(SCAN_CHUNK_BYTES)
        .cache(cache_config(spec.cache_records, spec.cache_exact))
        .build()?)
}

/// Set the system up once under `out/<tag>` and leave its loaded state
/// in `out/<tag>.e2s`. Only `inputs.load` and the pool it draws from
/// depend on the seed; device contents and models do not.
pub fn set_up(
    out: &Path,
    tag: &str,
    spec: &Spec,
    inputs: &Inputs,
    calibration: &mut Calibration,
) -> Result<SetUp> {
    let dir = out.join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let speed_before = calibration.training_speed();
    let t0 = Instant::now();

    let mut rng = StdRng::seed_from_u64(GEOMETRY_SEED);
    let controllers: Vec<MemoryController> = partition_controllers(&device_config(), SHARDS)?
        .into_iter()
        .map(|(_, mut mc)| {
            let items = DatasetKind::MnistLike.generate(mc.num_segments(), &mut rng);
            for (i, item) in items.iter().enumerate() {
                mc.seed(LogicalSegment(i), &resize_item(item, SEGMENT_BYTES))
                    .expect("seed segment in range");
            }
            mc
        })
        .collect();

    let t_train = Instant::now();
    let engine = ShardedEngine::train(controllers, &e2_config())?;
    let train_s = t_train.elapsed().as_secs_f64();

    let registry = TelemetryRegistry::new();
    let mut store =
        ShardedE2KvStore::new(engine).with_persistence(persistence(&dir)?, Some(&registry))?;
    store.attach_telemetry(&registry);
    let server = Server::new(store.clone(), server_config(spec)?)
        .with_telemetry(&registry)
        .start()?;

    let mut conn = WireConn::connect(server.local_addr(), &inputs.load, inputs, false, t0)?;
    let loaded = drive(std::slice::from_mut(&mut conn), |ops| ops >= RECORDS as u64)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let host_speed = (speed_before + calibration.training_speed()) / 2.0;
    if loaded.failed > 0 || loaded.ops != RECORDS as u64 {
        return Err(format!("load: {} of {} PUTs failed", loaded.failed, loaded.ops).into());
    }
    drop(conn);

    let load_stats = store.stats();
    let (mut loss, mut train_macs, mut predict_macs) = (0.0, 0u64, 0u64);
    for shard in 0..SHARDS {
        store.engine().with_shard_engine(shard, |e| {
            let model = e.model().expect("trained shard");
            let epochs = &model.history().train;
            loss += f64::from(epochs.last().expect("trained at least one epoch").total());
            let cfg = e.config();
            // 10 % of the capped sample is held out for validation.
            let trained_on = cfg.train_sample_cap.min(e.controller().num_segments()) * 9 / 10;
            train_macs += model.train_macs_per_epoch(trained_on);
            predict_macs = model.predict_macs();
        });
    }

    let t_snap = Instant::now();
    let snapshot_bytes = store.snapshot_now()?;
    let snapshot_save_s = t_snap.elapsed().as_secs_f64();
    server.shutdown();
    server.join();
    drop(store);
    let snapshot = out.join(format!("{tag}.e2s"));
    std::fs::rename(persistence(&dir)?.snapshot_path(), &snapshot)?;
    std::fs::remove_dir_all(&dir)?;

    Ok(SetUp {
        snapshot,
        load_stats,
        setup_s,
        host_speed,
        train_s,
        train_final_loss: loss / SHARDS as f64,
        train_macs_per_epoch: train_macs,
        predict_macs,
        snapshot_save_s,
        snapshot_bytes,
        rss_mib: peak_rss_mib(),
    })
}

/// A store recovered from the baseline snapshot into its own data
/// directory (removed again by [`Recovered::discard`]), with telemetry
/// attached as the server binary attaches it.
pub struct Recovered {
    /// The store; WAL on, flush policy as in [`flush_policy`].
    pub store: ShardedE2KvStore,
    /// The registry every layer's series are on.
    pub registry: TelemetryRegistry,
    /// Wall seconds `ShardedE2KvStore::recover` took.
    pub recover_s: f64,
    dir: PathBuf,
}

impl Recovered {
    /// Recover `snapshot` under `out/<tag>`.
    pub fn new(out: &Path, tag: &str, snapshot: &Path) -> Result<Self> {
        let dir = out.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let pcfg = persistence(&dir)?;
        std::fs::copy(snapshot, pcfg.snapshot_path())?;
        let registry = TelemetryRegistry::new();
        let t0 = Instant::now();
        let (mut store, report) = ShardedE2KvStore::recover(&pcfg, &e2_config(), Some(&registry))?
            .ok_or("baseline snapshot missing")?;
        let recover_s = t0.elapsed().as_secs_f64();
        if report.keys != RECORDS || report.replayed_ops != 0 {
            return Err(format!("recovered an unexpected state: {report:?}").into());
        }
        store.attach_telemetry(&registry);
        Ok(Self {
            store,
            registry,
            recover_s,
            dir,
        })
    }

    /// Front the store with `spec`'s cache, as the server assembles it.
    pub fn cached(&self, spec: &Spec) -> CachedKvStore<ShardedE2KvStore> {
        CachedKvStore::with_telemetry(
            self.store.clone(),
            cache_config(spec.cache_records, spec.cache_exact),
            &self.registry,
        )
    }

    /// Boot the server over the store, as the binary does.
    pub fn serve(&self, spec: &Spec) -> Result<ServerHandle> {
        Ok(Server::new(self.store.clone(), server_config(spec)?)
            .with_telemetry(&self.registry)
            .start()?)
    }

    /// Bytes in the store's WAL files right now.
    pub fn wal_bytes(&self) -> u64 {
        let pcfg = persistence(&self.dir).expect("valid persistence config");
        (0..SHARDS)
            .filter_map(|i| std::fs::metadata(pcfg.wal_path(i)).ok())
            .map(|m| m.len())
            .sum()
    }

    /// Drop the store and remove its data directory.
    pub fn discard(self) {
        let Self { store, dir, .. } = self;
        drop(store);
        let _ = std::fs::remove_dir_all(dir);
    }
}
