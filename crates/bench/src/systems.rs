//! A uniform "write system" wrapper so every figure can stream the same
//! values through E2-NVM, the placement baselines, and the RBW in-place
//! baselines, each over its own identically seeded device. PNW is the
//! E2-NVM engine serving a PCA + K-means placer ([`E2System::serving`]).

use e2nvm_baselines::{InPlaceScheme, PlacementScheme};
use e2nvm_core::{E2Config, E2Engine, E2Error, E2Model, PaddingType};
use e2nvm_ml::data::segments_to_matrix;
use e2nvm_ml::{KMeans, Pca, Placer};
use e2nvm_sim::{
    DeviceConfig, DeviceStats, LogicalSegment, MemoryController, NvmDevice, PhysicalSegment,
    WearTracking,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Anything that can absorb a stream of values and report device stats.
pub trait WriteSystem {
    /// Display name.
    fn name(&self) -> String;
    /// Store one value somewhere on the device.
    fn write(&mut self, value: &[u8]) -> Result<(), String>;
    /// Cumulative device stats, including any scheme-level auxiliary
    /// flips.
    fn stats(&self) -> DeviceStats;
    /// Reset stats (after warm-up).
    fn reset_stats(&mut self);
    /// Access to the underlying device (wear inspection).
    fn device(&self) -> &NvmDevice;
}

/// Build a device seeded with `contents` (cycled over the pool).
pub fn seeded_device(
    segment_bytes: usize,
    num_segments: usize,
    wear: WearTracking,
    contents: &[Vec<u8>],
) -> NvmDevice {
    let cfg = DeviceConfig::builder()
        .segment_bytes(segment_bytes)
        .num_segments(num_segments)
        .block_bytes(segment_bytes.clamp(64, 256))
        .wear_tracking(wear)
        .build()
        .expect("valid device config");
    let mut dev = NvmDevice::new(cfg);
    if !contents.is_empty() {
        for i in 0..num_segments {
            let item = &contents[i % contents.len()];
            let mut data = item.clone();
            data.resize(segment_bytes, 0);
            dev.seed_segment(PhysicalSegment(i), &data).expect("seed");
        }
    }
    dev
}

/// PNW's model (Kargar et al., ICDE '21) of a seeded device: PCA to 12
/// components (10 sweeps) of every segment's bits, then K-means (30
/// iterations) on the scores, drawing from an RNG seeded with `seed` —
/// compiled into a placer for [`E2System::serving`].
pub fn pnw_placer(device: &NvmDevice, k: usize, seed: u64) -> Placer {
    let pool: Vec<&[u8]> = (0..device.config().num_segments)
        .map(|i| device.peek(PhysicalSegment(i)))
        .collect();
    let raw = segments_to_matrix(&pool);
    let mut rng = StdRng::seed_from_u64(seed);
    let pca = Pca::fit(&raw, 12, 10, &mut rng);
    let kmeans = KMeans::fit(&pca.transform(&raw), k, 30, &mut rng).model;
    pca.placer(kmeans)
}

/// Pad/truncate a value to the device segment size.
fn fit(value: &[u8], segment_bytes: usize) -> Vec<u8> {
    let mut v = value.to_vec();
    v.truncate(segment_bytes);
    v
}

// ---------------------------------------------------------------------
// In-place (RBW) systems
// ---------------------------------------------------------------------

/// Round-robin in-place updates through an RBW scheme — models prior
/// methods that "pick the memory location for a write operation
/// arbitrarily" and overwrite in place.
pub struct InPlaceSystem {
    scheme: Box<dyn InPlaceScheme>,
    controller: MemoryController,
    next: usize,
    aux_flips: u64,
}

impl InPlaceSystem {
    /// Wrap a scheme over a device, or over a controller that
    /// wear-levels one. Under start-gap the controller reserves one
    /// physical slot as the gap, so the system's logical pool is one
    /// segment smaller than the device.
    pub fn new(scheme: Box<dyn InPlaceScheme>, controller: impl Into<MemoryController>) -> Self {
        Self {
            scheme,
            controller: controller.into(),
            next: 0,
            aux_flips: 0,
        }
    }
}

impl WriteSystem for InPlaceSystem {
    fn name(&self) -> String {
        self.scheme.name().to_string()
    }

    fn write(&mut self, value: &[u8]) -> Result<(), String> {
        let seg = LogicalSegment(self.next % self.controller.num_segments());
        self.next += 1;
        let seg_bytes = self.controller.device().config().segment_bytes;
        let value = fit(value, seg_bytes);
        let old = self.controller.peek(seg).map_err(|e| e.to_string())?[..value.len()].to_vec();
        let enc = self.scheme.encode(seg.index(), &old, &value);
        self.aux_flips += enc.aux_bits_flipped;
        self.controller
            .write_at(seg, 0, &enc.stored)
            .map_err(|e| e.to_string())?;
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        let mut s = self.controller.stats().clone();
        s.bits_flipped += self.aux_flips;
        s.bits_programmed += self.aux_flips;
        s
    }

    fn reset_stats(&mut self) {
        self.controller.reset_stats();
        self.aux_flips = 0;
    }

    fn device(&self) -> &NvmDevice {
        self.controller.device()
    }
}

// ---------------------------------------------------------------------
// Placement-scheme systems (DATACON / Hamming-Tree)
// ---------------------------------------------------------------------

/// Streams values through a [`PlacementScheme`], keeping the pool at a
/// target occupancy by recycling the oldest occupied segment.
pub struct PlacementSystem {
    scheme: Box<dyn PlacementScheme>,
    controller: MemoryController,
    occupied: VecDeque<LogicalSegment>,
    max_occupied: usize,
}

impl PlacementSystem {
    /// Wrap and initialize the scheme on the seeded device (all
    /// segments start free), or on a controller over it.
    pub fn new(
        mut scheme: Box<dyn PlacementScheme>,
        controller: impl Into<MemoryController>,
        occupancy: f64,
        seed: u64,
    ) -> Self {
        let controller = controller.into();
        let free: Vec<(LogicalSegment, Vec<u8>)> = (0..controller.num_segments())
            .map(|i| {
                let seg = LogicalSegment(i);
                (seg, controller.peek(seg).expect("in range").to_vec())
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        scheme.initialize(&free, &mut rng);
        let max_occupied = ((controller.num_segments() as f64) * occupancy)
            .floor()
            .max(1.0) as usize;
        Self {
            scheme,
            controller,
            occupied: VecDeque::new(),
            max_occupied,
        }
    }
}

impl WriteSystem for PlacementSystem {
    fn name(&self) -> String {
        self.scheme.name().to_string()
    }

    fn write(&mut self, value: &[u8]) -> Result<(), String> {
        // Keep occupancy bounded: recycle the oldest segment first.
        if self.occupied.len() >= self.max_occupied {
            let victim = self.occupied.pop_front().expect("occupied nonempty");
            let content = self
                .controller
                .peek(victim)
                .map_err(|e| e.to_string())?
                .to_vec();
            self.scheme.recycle(victim, &content);
        }
        let seg_bytes = self.controller.device().config().segment_bytes;
        let value = fit(value, seg_bytes);
        let seg = self
            .scheme
            .choose(&value)
            .ok_or_else(|| format!("{}: pool exhausted", self.scheme.name()))?;
        self.controller
            .write_at(seg, 0, &value)
            .map_err(|e| e.to_string())?;
        self.occupied.push_back(seg);
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        self.controller.stats().clone()
    }

    fn reset_stats(&mut self) {
        self.controller.reset_stats();
    }

    fn device(&self) -> &NvmDevice {
        self.controller.device()
    }
}

// ---------------------------------------------------------------------
// E2-NVM system
// ---------------------------------------------------------------------

/// The E2-NVM engine behind the same streaming interface, serving the
/// VAE it trains itself or a placer it is given.
pub struct E2System {
    name: &'static str,
    engine: E2Engine,
    occupied: VecDeque<LogicalSegment>,
    max_occupied: usize,
    train_time: Duration,
}

impl E2System {
    /// Build and train over a seeded device, or over a controller that
    /// wear-levels one (the engine's logical pool is the controller's:
    /// one segment smaller than the device under start-gap).
    pub fn new(
        controller: impl Into<MemoryController>,
        cfg: E2Config,
        occupancy: f64,
    ) -> Result<Self, E2Error> {
        Self::build("E2-NVM", controller, cfg, occupancy, E2Engine::train)
    }

    /// Build over a seeded device and serve `placer` instead of training
    /// one: the engine classifies its whole pool with it, the way it
    /// installs a model it trained.
    pub fn serving(
        name: &'static str,
        controller: impl Into<MemoryController>,
        cfg: E2Config,
        placer: Placer,
        occupancy: f64,
    ) -> Result<Self, E2Error> {
        Self::build(name, controller, cfg, occupancy, |engine| {
            engine.install_model_now(E2Model::from_placer(placer))
        })
    }

    fn build(
        name: &'static str,
        controller: impl Into<MemoryController>,
        cfg: E2Config,
        occupancy: f64,
        model: impl FnOnce(&mut E2Engine) -> Result<(), E2Error>,
    ) -> Result<Self, E2Error> {
        let controller = controller.into();
        let num_segments = controller.num_segments();
        let mut engine = E2Engine::new(controller, cfg)?;
        let t0 = Instant::now();
        model(&mut engine)?;
        let train_time = t0.elapsed();
        let max_occupied = ((num_segments as f64) * occupancy).floor().max(1.0) as usize;
        Ok(Self {
            name,
            engine,
            occupied: VecDeque::new(),
            max_occupied,
            train_time,
        })
    }

    /// Quick E2 config for experiments at a given segment size / k.
    pub fn quick_config(segment_bytes: usize, k: usize) -> E2Config {
        E2Config::builder()
            .fast(segment_bytes, k)
            .latent_dim(8)
            .hidden(vec![64])
            .pretrain_epochs(20)
            .joint_epochs(5)
            .lr(3e-3)
            .beta(0.1)
            .train_sample_cap(768)
            .padding_type(PaddingType::Zero)
            .build()
            .unwrap()
    }

    /// Borrow the engine (retraining experiments).
    pub fn engine_mut(&mut self) -> &mut E2Engine {
        &mut self.engine
    }

    /// Wall clock of training (or installing) the model at build.
    pub fn train_time(&self) -> Duration {
        self.train_time
    }
}

impl WriteSystem for E2System {
    fn name(&self) -> String {
        format!("{}(k={})", self.name, self.engine.config().k)
    }

    fn write(&mut self, value: &[u8]) -> Result<(), String> {
        if self.occupied.len() >= self.max_occupied {
            let victim = self.occupied.pop_front().expect("occupied nonempty");
            self.engine
                .recycle_segment(victim)
                .map_err(|e| e.to_string())?;
        }
        let seg_bytes = self.engine.config().segment_bytes;
        let value = fit(value, seg_bytes);
        let (seg, _) = self.engine.place_value(&value).map_err(|e| e.to_string())?;
        self.occupied.push_back(seg);
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        self.engine.device_stats().clone()
    }

    fn reset_stats(&mut self) {
        self.engine.reset_device_stats();
    }

    fn device(&self) -> &NvmDevice {
        self.engine.controller().device()
    }
}

/// Stream `values` through a system, with the first `warmup` writes
/// excluded from the stats.
pub fn stream(
    system: &mut dyn WriteSystem,
    values: &[Vec<u8>],
    warmup: usize,
) -> Result<DeviceStats, String> {
    for (i, v) in values.iter().enumerate() {
        if i == warmup {
            system.reset_stats();
        }
        system.write(v)?;
    }
    Ok(system.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2nvm_baselines::{Datacon, Dcw, FlipNWrite, HammingTree};
    use e2nvm_core::Stage;
    use e2nvm_workloads::DatasetKind;

    fn dataset(n: usize) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(5);
        DatasetKind::MnistLike.generate_sized(n, 64, &mut rng)
    }

    #[test]
    fn inplace_system_counts_flips() {
        let data = dataset(32);
        let dev = seeded_device(64, 16, WearTracking::None, &data);
        let mut sys = InPlaceSystem::new(Box::new(Dcw), dev);
        let stats = stream(&mut sys, &data, 4).unwrap();
        assert_eq!(stats.writes, 28);
        assert!(stats.bits_flipped > 0);
    }

    #[test]
    fn fnw_beats_dcw_on_random_overwrites() {
        let mut rng = StdRng::seed_from_u64(6);
        let random: Vec<Vec<u8>> = (0..64)
            .map(|_| (0..64).map(|_| rand::Rng::gen::<u8>(&mut rng)).collect())
            .collect();
        let dev = seeded_device(64, 8, WearTracking::None, &random);
        let mut dcw = InPlaceSystem::new(Box::new(Dcw), dev.clone());
        let mut fnw = InPlaceSystem::new(Box::new(FlipNWrite::default()), dev);
        let d = stream(&mut dcw, &random, 0).unwrap();
        let f = stream(&mut fnw, &random, 0).unwrap();
        assert!(
            f.bits_flipped <= d.bits_flipped,
            "fnw={} dcw={}",
            f.bits_flipped,
            d.bits_flipped
        );
    }

    #[test]
    fn placement_system_streams_with_occupancy() {
        let data = dataset(64);
        let dev = seeded_device(64, 32, WearTracking::None, &data);
        let mut sys = PlacementSystem::new(Box::new(Datacon::new(false)), dev, 0.5, 1);
        let stats = stream(&mut sys, &data, 0).unwrap();
        assert_eq!(stats.writes, 64);
    }

    #[test]
    fn hamming_tree_beats_datacon_on_clusterable_data() {
        let data = dataset(128);
        let dev = seeded_device(64, 64, WearTracking::None, &data);
        let mut tree = PlacementSystem::new(Box::new(HammingTree::new()), dev.clone(), 0.5, 1);
        let mut dc = PlacementSystem::new(Box::new(Datacon::new(false)), dev, 0.5, 1);
        let t = stream(&mut tree, &data, 16).unwrap();
        let d = stream(&mut dc, &data, 16).unwrap();
        assert!(
            t.bits_flipped < d.bits_flipped,
            "tree={} datacon={}",
            t.bits_flipped,
            d.bits_flipped
        );
    }

    #[test]
    fn e2_system_end_to_end() {
        let data = dataset(96);
        let dev = seeded_device(64, 48, WearTracking::None, &data);
        let mut e2 = E2System::new(dev, E2System::quick_config(64, 4), 0.5).unwrap();
        let stats = stream(&mut e2, &data, 16).unwrap();
        assert_eq!(stats.writes, 80);
        let order = e2.engine_mut().telemetry().stage_ns(Stage::Order);
        assert!(order.count() > 0 && order.sum() > 0);
        assert!(e2.train_time() > Duration::ZERO);
    }

    #[test]
    fn e2_beats_pnw_raw_flip_count() {
        // The headline Figure 10 ordering at matched k on clusterable
        // image data: one engine, two models.
        let data = dataset(256);
        let dev = seeded_device(64, 128, WearTracking::None, &data);
        let cfg = E2System::quick_config(64, 10);
        let placer = pnw_placer(&dev, 10, 2);
        let mut e2 = E2System::new(dev.clone(), cfg.clone(), 0.5).unwrap();
        let mut pnw = E2System::serving("PNW", dev, cfg, placer, 0.5).unwrap();
        assert_eq!(pnw.name(), "PNW(k=10)");
        let e = stream(&mut e2, &data, 64).unwrap();
        let p = stream(&mut pnw, &data, 64).unwrap();
        assert!(
            (e.bits_flipped as f64) < (p.bits_flipped as f64) * 1.15,
            "e2={} pnw={}",
            e.bits_flipped,
            p.bits_flipped
        );
    }
}
