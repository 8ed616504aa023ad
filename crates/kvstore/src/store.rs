//! The node-store abstraction that lets every index structure run
//! either **directly** on NVM (update-in-place, arbitrary placement) or
//! **plugged into E2-NVM** (copy-on-write node images placed by content
//! similarity) — the two bars per structure in the paper's Figure 12.
//!
//! Index structures address *logical nodes*; the store maps nodes to
//! device segments. `DirectNodeStore` pins each node to a fixed segment
//! and supports partial in-place writes (what FP-Tree's slot updates and
//! Path Hashing's cell writes need). `E2NodeStore` routes every node
//! image through an [`E2Engine`]'s placement model: the write lands on
//! the free segment whose old content is most similar, and the node's
//! previous segment is recycled into the pool.

use e2nvm_core::{E2Engine, E2Error};
use e2nvm_sim::{DeviceStats, LogicalSegment, MemoryController, SimError, WriteReport};
use std::collections::HashMap;
use std::collections::VecDeque;

/// Logical node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

/// Errors from node stores.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// No free segment available.
    OutOfSpace,
    /// The store is in degraded mode: worn-out segments have been
    /// permanently retired, and the shrunken pool has now run dry.
    /// Previously written data stays readable; only new placements
    /// fail.
    Degraded {
        /// Number of segments permanently retired by wear-out.
        retired: usize,
    },
    /// The node id was never allocated (or already freed).
    UnknownNode(NodeId),
    /// An invalid configuration was rejected at build time (e.g. a
    /// [`crate::CacheConfig`] with a non-power-of-two shard count).
    Config(String),
    /// Device-level failure.
    Sim(SimError),
    /// E2 engine failure (the original error, not a rendered string, so
    /// callers can still match on the cause).
    Engine(E2Error),
    /// Persistence-layer failure (WAL append, snapshot IO, recovery
    /// decode). Rendered to a string because IO errors are not
    /// `Clone`/`PartialEq`.
    Persistence(String),
    /// Cluster routing failure: every server in the key's hash-ring
    /// replica set is down or draining, so there is nowhere to route
    /// the operation. Raised by the `e2nvm-cluster` router; typed here
    /// so clustered stores speak the same error language as single-node
    /// ones through [`crate::NvmKvStore`].
    Unroutable {
        /// The key that could not be routed.
        key: u64,
    },
    /// Cluster replication failure: a replicated write was acknowledged
    /// by fewer servers than the policy requires (the mutation may
    /// still exist on the servers that did ack — callers retry or
    /// surface the partial state, they must not assume it was applied
    /// nowhere). Raised by the `e2nvm-cluster` replicator.
    ReplicationFailed {
        /// Replicas that acknowledged the write.
        acked: usize,
        /// Acknowledgements the policy required.
        required: usize,
    },
    /// A remote server answered a cluster operation with an error
    /// frame (rendered to a string — the typed wire statuses live in
    /// the server crate, which this crate cannot depend on). Raised by
    /// the `e2nvm-cluster` router when every replica rejects an
    /// operation at the store level rather than the transport level.
    Remote(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::OutOfSpace => write!(f, "node store out of space"),
            StoreError::Degraded { retired } => write!(
                f,
                "node store degraded: pool dry after {retired} segments retired by wear-out"
            ),
            StoreError::UnknownNode(n) => write!(f, "unknown node {n:?}"),
            StoreError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            StoreError::Sim(e) => write!(f, "device error: {e}"),
            StoreError::Engine(e) => write!(f, "E2 engine error: {e}"),
            StoreError::Persistence(msg) => write!(f, "persistence error: {msg}"),
            StoreError::Unroutable { key } => write!(
                f,
                "cluster unroutable: every replica for key {key} is down or draining"
            ),
            StoreError::ReplicationFailed { acked, required } => write!(
                f,
                "cluster replication failed: {acked} of {required} required \
                 replica acknowledgements"
            ),
            StoreError::Remote(msg) => write!(f, "remote store error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Sim(e) => Some(e),
            StoreError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for StoreError {
    fn from(e: SimError) -> Self {
        StoreError::Sim(e)
    }
}

impl From<E2Error> for StoreError {
    fn from(e: E2Error) -> Self {
        match e {
            E2Error::OutOfSpace => StoreError::OutOfSpace,
            E2Error::PoolDepleted { retired } => StoreError::Degraded { retired },
            E2Error::Sim(e) => StoreError::Sim(e),
            other => StoreError::Engine(other),
        }
    }
}

impl From<e2nvm_persist::PersistError> for StoreError {
    fn from(e: e2nvm_persist::PersistError) -> Self {
        StoreError::Persistence(e.to_string())
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, StoreError>;

/// Node-granular storage over NVM.
pub trait NodeStore {
    /// Reserve a fresh logical node (no segment is consumed until the
    /// first write in the E2 store).
    fn alloc(&mut self) -> Result<NodeId>;

    /// Release a node and its segment.
    fn free(&mut self, node: NodeId) -> Result<()>;

    /// Write a full node image (`data.len() <= node_bytes`; the
    /// remainder of the segment keeps its previous bytes).
    fn write(&mut self, node: NodeId, data: &[u8]) -> Result<WriteReport>;

    /// Partial write at a byte offset within the node. Direct stores do
    /// this in place; the E2 store falls back to read-modify-write of
    /// the full image (copy-on-write placement cannot patch in place).
    fn write_at(&mut self, node: NodeId, offset: usize, data: &[u8]) -> Result<WriteReport>;

    /// Read the full node image.
    fn read(&mut self, node: NodeId) -> Result<Vec<u8>>;

    /// Node capacity in bytes (== device segment size).
    fn node_bytes(&self) -> usize;

    /// Device statistics.
    fn stats(&self) -> DeviceStats;

    /// Reset device statistics.
    fn reset_stats(&mut self);

    /// Free nodes remaining.
    fn free_capacity(&self) -> usize;

    /// Store flavor name ("direct" / "e2").
    fn flavor(&self) -> &'static str;

    /// Periodic maintenance (model retraining for the E2 store).
    fn maintenance(&mut self) {}
}

impl<T: NodeStore + ?Sized> NodeStore for Box<T> {
    fn alloc(&mut self) -> Result<NodeId> {
        (**self).alloc()
    }
    fn free(&mut self, node: NodeId) -> Result<()> {
        (**self).free(node)
    }
    fn write(&mut self, node: NodeId, data: &[u8]) -> Result<WriteReport> {
        (**self).write(node, data)
    }
    fn write_at(&mut self, node: NodeId, offset: usize, data: &[u8]) -> Result<WriteReport> {
        (**self).write_at(node, offset, data)
    }
    fn read(&mut self, node: NodeId) -> Result<Vec<u8>> {
        (**self).read(node)
    }
    fn node_bytes(&self) -> usize {
        (**self).node_bytes()
    }
    fn stats(&self) -> DeviceStats {
        (**self).stats()
    }
    fn reset_stats(&mut self) {
        (**self).reset_stats()
    }
    fn free_capacity(&self) -> usize {
        (**self).free_capacity()
    }
    fn flavor(&self) -> &'static str {
        (**self).flavor()
    }
    fn maintenance(&mut self) {
        (**self).maintenance()
    }
}

/// Update-in-place store: nodes pinned to fixed segments handed out in
/// address order (arbitrary placement — what the paper's baselines do).
pub struct DirectNodeStore {
    controller: MemoryController,
    free: VecDeque<LogicalSegment>,
    map: HashMap<NodeId, LogicalSegment>,
    next: u64,
}

impl DirectNodeStore {
    /// Build over a controller, with every segment initially free.
    pub fn new(controller: MemoryController) -> Self {
        let free = (0..controller.num_segments()).map(LogicalSegment).collect();
        Self {
            controller,
            free,
            map: HashMap::new(),
            next: 0,
        }
    }

    fn seg(&self, node: NodeId) -> Result<LogicalSegment> {
        self.map
            .get(&node)
            .copied()
            .ok_or(StoreError::UnknownNode(node))
    }
}

impl NodeStore for DirectNodeStore {
    fn alloc(&mut self) -> Result<NodeId> {
        let seg = self.free.pop_front().ok_or(StoreError::OutOfSpace)?;
        let node = NodeId(self.next);
        self.next += 1;
        self.map.insert(node, seg);
        Ok(node)
    }

    fn free(&mut self, node: NodeId) -> Result<()> {
        let seg = self
            .map
            .remove(&node)
            .ok_or(StoreError::UnknownNode(node))?;
        self.free.push_back(seg);
        Ok(())
    }

    fn write(&mut self, node: NodeId, data: &[u8]) -> Result<WriteReport> {
        let seg = self.seg(node)?;
        Ok(self.controller.write_at(seg, 0, data)?)
    }

    fn write_at(&mut self, node: NodeId, offset: usize, data: &[u8]) -> Result<WriteReport> {
        let seg = self.seg(node)?;
        Ok(self.controller.write_at(seg, offset, data)?)
    }

    fn read(&mut self, node: NodeId) -> Result<Vec<u8>> {
        let seg = self.seg(node)?;
        Ok(self.controller.read(seg)?.to_vec())
    }

    fn node_bytes(&self) -> usize {
        self.controller.device().config().segment_bytes
    }

    fn stats(&self) -> DeviceStats {
        self.controller.stats().clone()
    }

    fn reset_stats(&mut self) {
        self.controller.reset_stats();
    }

    fn free_capacity(&self) -> usize {
        self.free.len()
    }

    fn flavor(&self) -> &'static str {
        "direct"
    }
}

/// Copy-on-write store over an [`E2Engine`]: every node image write is
/// placed on the most content-similar free segment.
pub struct E2NodeStore {
    engine: E2Engine,
    map: HashMap<NodeId, LogicalSegment>,
    next: u64,
}

impl E2NodeStore {
    /// Build over a *trained* engine.
    ///
    /// # Panics
    /// Panics if the engine has not been trained.
    pub fn new(engine: E2Engine) -> Self {
        assert!(engine.is_trained(), "E2NodeStore: engine must be trained");
        Self {
            engine,
            map: HashMap::new(),
            next: 0,
        }
    }

    /// Borrow the engine (retraining, stats).
    pub fn engine_mut(&mut self) -> &mut E2Engine {
        &mut self.engine
    }
}

impl NodeStore for E2NodeStore {
    fn alloc(&mut self) -> Result<NodeId> {
        // Lazy: the segment is chosen at first write, when the content
        // is known — that is the entire point of memory-aware placement.
        let node = NodeId(self.next);
        self.next += 1;
        Ok(node)
    }

    fn free(&mut self, node: NodeId) -> Result<()> {
        if let Some(seg) = self.map.remove(&node) {
            self.engine.recycle_segment(seg)?;
        }
        Ok(())
    }

    fn write(&mut self, node: NodeId, data: &[u8]) -> Result<WriteReport> {
        // For an already-placed node, compare updating it in place
        // against relocating to the best-matching free segment and keep
        // the cheaper option — an E2-NVM integration only redirects a
        // write when the move pays for itself.
        if let Some(&cur) = self.map.get(&node) {
            if data.len() > self.node_bytes() {
                return Err(StoreError::Sim(SimError::RangeOutOfBounds {
                    offset: 0,
                    len: data.len(),
                    segment_bytes: self.node_bytes(),
                }));
            }
            let in_place_flips = {
                let content = self.engine.controller().peek(cur)?;
                e2nvm_sim::bitops::hamming(&content[..data.len()], data)
            };
            let relocate = self.engine.preview_placement(data)?;
            if relocate.is_none_or(|(_, cand_flips)| in_place_flips <= cand_flips) {
                return Ok(self.engine.controller_mut().write_at(cur, 0, data)?);
            }
        }
        let (seg, report) = self.engine.place_value(data)?;
        if let Some(old) = self.map.insert(node, seg) {
            self.engine.recycle_segment(old)?;
        }
        Ok(report)
    }

    fn write_at(&mut self, node: NodeId, offset: usize, data: &[u8]) -> Result<WriteReport> {
        // E2-NVM intercepts *segment-granular* writes (new data items /
        // node images). A sub-segment update to an already-placed node
        // is not a new item: patch it in place, exactly as the direct
        // store would. Only the node's *first* write goes through
        // placement (as a full image).
        if let Some(&seg) = self.map.get(&node) {
            return Ok(self.engine.controller_mut().write_at(seg, offset, data)?);
        }
        // First write of this node: place by the record's content and
        // write only the record — the rest of the segment keeps the
        // recycled content (never semantically read before it is
        // written), so it costs no flips.
        if offset + data.len() > self.node_bytes() {
            return Err(StoreError::Sim(SimError::RangeOutOfBounds {
                offset,
                len: data.len(),
                segment_bytes: self.node_bytes(),
            }));
        }
        let (seg, report) = self.engine.place_at(offset, data)?;
        self.map.insert(node, seg);
        Ok(report)
    }

    fn read(&mut self, node: NodeId) -> Result<Vec<u8>> {
        let seg = self
            .map
            .get(&node)
            .copied()
            .ok_or(StoreError::UnknownNode(node))?;
        Ok(self.engine.controller_mut().read(seg)?.to_vec())
    }

    fn node_bytes(&self) -> usize {
        self.engine.config().segment_bytes
    }

    fn stats(&self) -> DeviceStats {
        self.engine.device_stats().clone()
    }

    fn reset_stats(&mut self) {
        self.engine.reset_device_stats();
    }

    fn free_capacity(&self) -> usize {
        self.engine.free_count()
    }

    fn flavor(&self) -> &'static str {
        "e2"
    }

    fn maintenance(&mut self) {
        // Retrain on the current free pool — by now it holds recycled
        // node images, which is exactly what future writes will look
        // like.
        let _ = self.engine.train();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2nvm_core::E2Config;
    use e2nvm_sim::{DeviceConfig, NvmDevice};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn direct(n: usize, bytes: usize) -> DirectNodeStore {
        let dev = NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(bytes)
                .num_segments(n)
                .build()
                .unwrap(),
        );
        DirectNodeStore::new(MemoryController::without_wear_leveling(dev))
    }

    fn e2(n: usize, bytes: usize) -> E2NodeStore {
        let dev = NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(bytes)
                .num_segments(n)
                .build()
                .unwrap(),
        );
        let cfg = E2Config::builder()
            .fast(bytes, 2)
            .pretrain_epochs(5)
            .joint_epochs(1)
            .padding_type(e2nvm_core::PaddingType::Zero)
            .build()
            .unwrap();
        let mut engine = E2Engine::new(MemoryController::without_wear_leveling(dev), cfg).unwrap();
        // Seed clusterable content so training has structure.
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..n {
            let base = if i % 2 == 0 { 0x00u8 } else { 0xFF };
            let content: Vec<u8> = (0..bytes)
                .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
                .collect();
            engine
                .controller_mut()
                .seed(e2nvm_sim::LogicalSegment(i), &content)
                .unwrap();
        }
        engine.train().unwrap();
        E2NodeStore::new(engine)
    }

    fn roundtrip(store: &mut dyn NodeStore) {
        let a = store.alloc().unwrap();
        let b = store.alloc().unwrap();
        store.write(a, &[1u8; 32]).unwrap();
        store.write(b, &[2u8; 32]).unwrap();
        assert_eq!(&store.read(a).unwrap()[..32], &[1u8; 32]);
        assert_eq!(&store.read(b).unwrap()[..32], &[2u8; 32]);
        // Partial update.
        store.write_at(a, 4, &[9u8; 4]).unwrap();
        let img = store.read(a).unwrap();
        assert_eq!(&img[..4], &[1u8; 4]);
        assert_eq!(&img[4..8], &[9u8; 4]);
        assert_eq!(&img[8..32], &[1u8; 24]);
        store.free(a).unwrap();
        assert!(matches!(store.read(a), Err(StoreError::UnknownNode(_))));
    }

    #[test]
    fn direct_roundtrip() {
        let mut s = direct(8, 64);
        roundtrip(&mut s);
        assert_eq!(s.flavor(), "direct");
    }

    #[test]
    fn e2_roundtrip() {
        let mut s = e2(24, 64);
        roundtrip(&mut s);
        assert_eq!(s.flavor(), "e2");
    }

    #[test]
    fn e2_oversized_rewrite_of_a_placed_node_is_an_error() {
        let mut s = e2(24, 64);
        let node = s.alloc().unwrap();
        s.write(node, &[0u8; 64]).unwrap();
        assert!(matches!(
            s.write(node, &[0u8; 65]),
            Err(StoreError::Sim(SimError::RangeOutOfBounds {
                offset: 0,
                len: 65,
                segment_bytes: 64,
            }))
        ));
        assert_eq!(s.read(node).unwrap(), vec![0u8; 64]);
    }

    #[test]
    fn direct_out_of_space() {
        let mut s = direct(2, 64);
        s.alloc().unwrap();
        s.alloc().unwrap();
        assert!(matches!(s.alloc(), Err(StoreError::OutOfSpace)));
    }

    #[test]
    fn e2_rewrite_moves_segment_and_recycles() {
        let mut s = e2(24, 64);
        let node = s.alloc().unwrap();
        let free_before = s.free_capacity();
        s.write(node, &[0u8; 64]).unwrap();
        assert_eq!(s.free_capacity(), free_before - 1);
        // Rewrite: still exactly one segment held.
        s.write(node, &[0xFFu8; 64]).unwrap();
        assert_eq!(s.free_capacity(), free_before - 1);
        assert_eq!(s.read(node).unwrap(), vec![0xFFu8; 64]);
    }

    #[test]
    fn e2_free_after_in_place_rewrite_recycles_by_content() {
        let mut s = e2(24, 64);
        let model = s.engine_mut().model().unwrap().clone();
        let clusters = model.classify_segments(&[[0u8; 64], [0xFF; 64]]);
        let (zeros, ones) = (clusters[0], clusters[1]);
        assert_ne!(zeros, ones, "families not separated");
        let node = s.alloc().unwrap();
        s.write_at(node, 0, &[0u8; 64]).unwrap();
        let held = s.engine_mut().dap().occupancy();
        // Patched in place into the other family: the segment was
        // placed as zeros, but what it holds when freed decides where
        // it goes.
        s.write_at(node, 0, &[0xFFu8; 64]).unwrap();
        s.free(node).unwrap();
        let freed = s.engine_mut().dap().occupancy();
        assert_eq!(freed[ones], held[ones] + 1);
        assert_eq!(freed[zeros], held[zeros]);
        let stats = s.engine_mut().prediction_stats();
        assert_eq!((stats.tag_hits, stats.tag_fallbacks), (0, 1));
    }

    #[test]
    fn e2_placement_beats_direct_on_clusterable_content() {
        // Alternate writing zeros-like and ones-like images: E2 routes
        // each to a like-contented segment, the direct store writes
        // wherever the next free segment happens to be.
        // The write stream is NOT alternating (first all zeros-like,
        // then all ones-like) while the device's free segments alternate
        // families by address — so allocation-order placement is wrong
        // for half the writes while content-aware placement never is.
        let run = |store: &mut dyn NodeStore| -> u64 {
            let mut rng = StdRng::seed_from_u64(17);
            store.reset_stats();
            for i in 0..16 {
                let node = store.alloc().unwrap();
                let base = if i < 8 { 0x00u8 } else { 0xFF };
                let img: Vec<u8> = (0..64)
                    .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
                    .collect();
                store.write(node, &img).unwrap();
            }
            store.stats().bits_flipped
        };
        // Direct store over a device seeded with the same alternating
        // content (so the comparison is placement-only).
        let mut d = direct(64, 64);
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..64 {
            let base = if i % 2 == 0 { 0x00u8 } else { 0xFF };
            let content: Vec<u8> = (0..64)
                .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
                .collect();
            d.controller.seed(LogicalSegment(i), &content).unwrap();
        }
        // A slightly larger training budget than `e2()`: with only 5
        // pretrain epochs the joint model's cluster separation is at the
        // mercy of the RNG stream, and the 2x margin below is a claim
        // about converged placement, not about a lucky init.
        let mut e = {
            let dev = NvmDevice::new(
                DeviceConfig::builder()
                    .segment_bytes(64)
                    .num_segments(64)
                    .build()
                    .unwrap(),
            );
            let cfg = E2Config::builder()
                .fast(64, 2)
                .pretrain_epochs(12)
                .joint_epochs(3)
                .padding_type(e2nvm_core::PaddingType::Zero)
                .build()
                .unwrap();
            let mut engine =
                E2Engine::new(MemoryController::without_wear_leveling(dev), cfg).unwrap();
            let mut rng = StdRng::seed_from_u64(9);
            for i in 0..64 {
                let base = if i % 2 == 0 { 0x00u8 } else { 0xFF };
                let content: Vec<u8> = (0..64)
                    .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
                    .collect();
                engine
                    .controller_mut()
                    .seed(e2nvm_sim::LogicalSegment(i), &content)
                    .unwrap();
            }
            engine.train().unwrap();
            E2NodeStore::new(engine)
        };
        let direct_flips = run(&mut d);
        let e2_flips = run(&mut e);
        assert!(
            e2_flips * 2 < direct_flips,
            "e2={e2_flips} direct={direct_flips}"
        );
    }
}
