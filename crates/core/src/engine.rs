//! The E2-NVM engine: the storage layer of the paper's Figure 3, tying
//! together the trained model, the dynamic address pool, the data index,
//! and the NVM device behind its memory controller.
//!
//! * **Write** (Algorithm 1): pad → predict cluster → pop an address
//!   from the DAP → write only the differing bits (the device model
//!   performs the comparison) → update the index.
//! * **Delete** (Algorithm 2): look up the address → drop the index
//!   entry (the "flag bit" lives in DRAM) → re-classify the content and
//!   recycle the address into the DAP.
//! * **Read / Scan**: pure index lookups plus device reads.
//!
//! Every segment behind the index holds exactly one value, written at
//! its byte 0, so a key's segment is free again the moment the key is
//! overwritten or deleted.

use crate::config::E2Config;
use crate::dap::DynamicAddressPool;
use crate::error::{E2Error, Result};
use crate::model::{E2Model, PlacementScratch};
use crate::padding::Padder;
use crate::scan::{self, Cursor, ScanBuffer};
use crate::telemetry::{EngineTelemetry, Stage};
use e2nvm_sim::{LogicalSegment, MemoryController, SimError, WriteReport};
use e2nvm_telemetry::{Event, Sampler, TelemetryRegistry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::ops::RangeBounds;
use std::time::Instant;

/// An index entry: the segment a key's value occupies, alone and from
/// byte 0, and the value's length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    seg: LogicalSegment,
    len: usize,
}

/// Serving-path prediction counters, all exact. A *full* prediction
/// walks every set bit of its input: one per placement, plus one per
/// recycle whose segment carries no cluster tag. A *resumed* one
/// continues a placement's first-layer sums over the written segment's
/// tail (the write-time classification behind the tag) and costs the
/// tail's set bits only. Their latencies are the stage clock's `order`,
/// `tag` and `recycle` ([`EngineTelemetry::stage_ns`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictionStats {
    /// Full model predictions performed.
    pub predictions: u64,
    /// Resumed (tail-only) predictions performed.
    pub resumed: u64,
    /// Recycles served by the segment's write-time cluster tag.
    pub tag_hits: u64,
    /// Recycles that classified the content in full: no tag, or
    /// [`E2Engine::recycle_segment`], which trusts none.
    pub tag_fallbacks: u64,
}

impl PredictionStats {
    /// Merge another counter block into this one (cross-shard
    /// aggregation).
    pub fn merge(&mut self, other: &PredictionStats) {
        self.predictions += other.predictions;
        self.resumed += other.resumed;
        self.tag_hits += other.tag_hits;
        self.tag_fallbacks += other.tag_fallbacks;
    }
}

/// Everything an engine must remember across a restart, in a
/// serialization-friendly shape: the trained model artifact
/// ([`E2Model::to_bytes`]), the permanently retired segments, and the
/// key index. The DAP free lists are *not* part of the state — they are
/// derived (free = not retired ∧ not indexed, classified by the
/// restored model), which keeps the persisted format independent of
/// in-memory bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineState {
    /// Serialized model ([`E2Model::to_bytes`]).
    pub model: Vec<u8>,
    /// Permanently retired segments, ascending.
    pub retired: Vec<LogicalSegment>,
    /// Index entries as `(key, segment, byte offset, length)`, one key
    /// per segment. The offset is always 0 — a value starts at its
    /// segment's first byte — and stays in the tuple because the
    /// snapshot format (E2SS) stores it.
    pub entries: Vec<(u64, LogicalSegment, usize, usize)>,
}

/// The free segments at one instant and a copy of what each holds,
/// index-aligned: what a model is trained on and the address pool is
/// rebuilt from.
struct FreeSnapshot {
    segments: Vec<LogicalSegment>,
    contents: Vec<Vec<u8>>,
}

/// "No cluster tag" in [`E2Engine::tags`]; a cluster id this large is
/// never tagged.
const NO_TAG: u8 = u8::MAX;

/// How many times a placement re-programs a segment after a transient
/// write failure before it retires the segment and falls back to
/// another address.
const MAX_WRITE_RETRIES: usize = 2;

/// The E2-NVM engine.
pub struct E2Engine {
    cfg: E2Config,
    controller: MemoryController,
    model: Option<E2Model>,
    dap: DynamicAddressPool,
    padder: Padder,
    index: BTreeMap<u64, Entry>,
    /// Write-time cluster tag per segment ([`NO_TAG`] = unknown): the
    /// cluster the current model gives the segment's *whole* content,
    /// computed right after the engine's own KV path wrote it (see
    /// [`E2Engine::tag_written`]) so that recycling it needs no model
    /// call. Only segments behind live index entries carry one; not
    /// persisted.
    tags: Vec<u8>,
    /// Whether any tag is set — lets [`E2Engine::controller_mut`] void
    /// them without sweeping the table on every call.
    tagged: bool,
    rng: StdRng,
    /// Padded input and kernel working memory of every prediction.
    scratch: PlacementScratch,
    prediction: PredictionStats,
    /// The stage clock's one sampler, ticked once per public operation
    /// ([`E2Engine::clocked`]), never by the calls nested inside one.
    sampler: Sampler,
    /// Whether the running operation is armed: only then does a
    /// [`Stage`] boundary read the clock.
    armed: bool,
    /// Incremental indexing frontier (§4.1.4): after
    /// [`E2Engine::train_partial`], segments below it have been handed
    /// to the DAP and those at or above it await
    /// [`E2Engine::index_more`]. `None` when training covered the whole
    /// device.
    mapped: Option<usize>,
    telemetry: EngineTelemetry,
}

impl E2Engine {
    /// Create an untrained engine over a controller. The controller's
    /// segment size must match the config.
    pub fn new(controller: MemoryController, cfg: E2Config) -> Result<Self> {
        cfg.validate()?;
        if controller.device().config().segment_bytes != cfg.segment_bytes {
            return Err(E2Error::Config(format!(
                "controller segment size {} != config segment size {}",
                controller.device().config().segment_bytes,
                cfg.segment_bytes
            )));
        }
        let num_segments = controller.num_segments();
        let padder = Padder::new(cfg.padding_location, cfg.padding_type);
        Ok(Self {
            dap: DynamicAddressPool::new(cfg.k, num_segments, cfg.retrain_min_free),
            rng: StdRng::seed_from_u64(cfg.seed),
            model: None,
            padder,
            index: BTreeMap::new(),
            tags: vec![NO_TAG; num_segments],
            tagged: false,
            scratch: PlacementScratch::default(),
            prediction: PredictionStats::default(),
            sampler: Sampler::default(),
            armed: false,
            mapped: None,
            telemetry: EngineTelemetry::disconnected(),
            controller,
            cfg,
        })
    }

    /// Register this engine's event handles and journal (and its
    /// controller/device's histograms) on `registry`, labeled with
    /// `shard`, and start feeding them. What the engine counts itself
    /// is read by the source [`crate::ShardedEngine::attach_telemetry`]
    /// registers over its shards.
    pub(crate) fn attach_telemetry(&mut self, registry: &TelemetryRegistry, shard: usize) {
        let shard_label = shard.to_string();
        self.controller
            .attach_telemetry(registry, &[("shard", &shard_label)]);
        self.telemetry = EngineTelemetry::register(registry, shard);
    }

    /// The engine's telemetry sink (disconnected handles until
    /// [`crate::ShardedEngine::attach_telemetry`] is called).
    pub fn telemetry(&self) -> &EngineTelemetry {
        &self.telemetry
    }

    /// The configuration.
    pub fn config(&self) -> &E2Config {
        &self.cfg
    }

    /// Snapshot the contents of every *free* segment. Before the first
    /// training, every segment is free; afterwards the DAP's membership
    /// table is the source of truth (placements may be made through
    /// [`E2Engine::place_value`] by callers that keep their own index,
    /// e.g. the node stores in `e2nvm-kvstore`, so the key index alone
    /// cannot be trusted here).
    fn free_snapshot(&self) -> FreeSnapshot {
        let segments: Vec<LogicalSegment> = if self.model.is_some() {
            self.dap.free_segments()
        } else {
            (0..self.controller.num_segments())
                .map(LogicalSegment)
                .filter(|&seg| !self.dap.is_retired(seg))
                .collect()
        };
        self.snapshot_of(segments)
    }

    /// Copy the current contents of `segments` off the device.
    fn snapshot_of(&self, segments: Vec<LogicalSegment>) -> FreeSnapshot {
        let contents = segments
            .iter()
            .map(|&seg| {
                self.controller
                    .peek(seg)
                    .expect("segment in range")
                    .to_vec()
            })
            .collect();
        FreeSnapshot { segments, contents }
    }

    /// Replace the padding strategy. For [`crate::padding::PaddingType::Learned`] the
    /// generator is retrained on the current free-segment contents.
    pub fn set_padding(
        &mut self,
        location: crate::padding::PaddingLocation,
        ptype: crate::padding::PaddingType,
    ) {
        self.cfg.padding_location = location;
        self.cfg.padding_type = ptype;
        self.padder = Padder::new(location, ptype);
        if ptype == crate::padding::PaddingType::Learned && self.model.is_some() {
            let free = self.free_snapshot();
            self.padder.train_learned(&free.contents, 10, &mut self.rng);
        }
    }

    /// Train (or retrain) the model on the current free-segment contents
    /// and rebuild the dynamic address pool. This is the synchronous
    /// path; see [`crate::retrain`] for the background variant.
    pub fn train(&mut self) -> Result<()> {
        let free = self.free_snapshot();
        if free.segments.is_empty() {
            return Err(E2Error::OutOfSpace);
        }
        let shard = self.telemetry.shard();
        self.telemetry.record_event(Event::RetrainStarted { shard });
        let started = Instant::now();
        let model = E2Model::train(&self.cfg, &free.contents, &mut self.rng);
        let loss = model.history().train.last().map(|l| f64::from(l.total()));
        self.install_model(model, &free);
        self.telemetry.record_event(Event::RetrainFinished {
            shard,
            loss,
            duration_ms: started.elapsed().as_millis() as u64,
        });
        Ok(())
    }

    /// Train on only the first `initial` segments and map just those
    /// into the address pool — the paper's §4.1.4 incremental indexing
    /// ("starts by indexing a portion of the memory"). Grow coverage
    /// later with [`E2Engine::index_more`].
    ///
    /// Only a freshly constructed engine takes it: the first `initial`
    /// segments all enter the pool, so on a trained engine they would
    /// include segments that live values occupy.
    pub fn train_partial(&mut self, initial: usize) -> Result<()> {
        if self.model.is_some() {
            return Err(E2Error::Config(
                "train_partial requires a freshly constructed engine".into(),
            ));
        }
        let total = self.controller.num_segments();
        if initial == 0 || initial > total {
            return Err(E2Error::Config(format!(
                "train_partial: initial {initial} out of 1..={total}"
            )));
        }
        let free = self.snapshot_of((0..initial).map(LogicalSegment).collect());
        let model = E2Model::train(&self.cfg, &free.contents, &mut self.rng);
        self.install_model(model, &free);
        self.mapped = Some(initial);
        Ok(())
    }

    /// Map up to `count` previously unmapped segments into the DAP
    /// (classified with the current model). Returns how many were
    /// added. A no-op (0) once coverage is complete or when the engine
    /// was fully trained from the start.
    pub fn index_more(&mut self, count: usize) -> Result<usize> {
        let model = self.model.as_ref().ok_or(E2Error::NotTrained)?;
        let Some(mapped) = self.mapped else {
            return Ok(0);
        };
        let end = mapped + count.min(self.controller.num_segments() - mapped);
        self.mapped = Some(end);
        for seg in (mapped..end).map(LogicalSegment) {
            let content = self.controller.peek(seg).expect("in range");
            let cluster = model.classify(content, &mut self.scratch);
            self.dap.push(cluster, seg)?;
        }
        Ok(end - mapped)
    }

    /// Install an externally trained model (from the background
    /// retrainer or a model file) and rebuild the DAP against the
    /// current free set. A model of another input width is refused
    /// with [`E2Error::Config`], and the engine keeps the model it had.
    pub fn install_model_now(&mut self, model: E2Model) -> Result<()> {
        self.check_model_width(&model)?;
        let free = self.free_snapshot();
        self.install_model(model, &free);
        Ok(())
    }

    /// A model serves this engine only if it reads segments of the
    /// configured width.
    fn check_model_width(&self, model: &E2Model) -> Result<()> {
        if model.input_bits() != self.cfg.input_bits() {
            return Err(E2Error::Config(format!(
                "model expects {} input bits, config provides {}",
                model.input_bits(),
                self.cfg.input_bits()
            )));
        }
        Ok(())
    }

    fn install_model(&mut self, model: E2Model, free: &FreeSnapshot) {
        let FreeSnapshot { segments, contents } = free;
        let pairs: Vec<(LogicalSegment, usize)> = segments
            .iter()
            .zip(contents)
            .map(|(&seg, content)| (seg, model.classify(content, &mut self.scratch)))
            .collect();
        self.dap.rebuild(model.k(), &pairs);
        // Tags name the old model's clusters.
        self.void_tags();
        // Refresh padding state from the snapshot.
        let total_bits: u64 = contents.iter().map(|c| (c.len() * 8) as u64).sum();
        let ones: u64 = contents
            .iter()
            .map(|c| e2nvm_sim::bitops::popcount(c))
            .sum();
        if total_bits > 0 {
            self.padder
                .set_memory_ratio(ones as f32 / total_bits as f32);
        }
        if self.cfg.padding_type == crate::padding::PaddingType::Learned {
            self.padder.train_learned(contents, 10, &mut self.rng);
        }
        self.model = Some(model);
        self.telemetry.retrains.inc();
    }

    /// Whether the model has been trained.
    pub fn is_trained(&self) -> bool {
        self.model.is_some()
    }

    /// Whether any cluster's free list has reached the retraining
    /// threshold (§4.1.4).
    pub fn needs_retrain(&self) -> bool {
        self.model.is_some() && self.dap.below_threshold().is_some()
    }

    /// Low-level placement: choose a free segment for `value`, write it,
    /// and return the segment and the device report. Does not touch the
    /// key index (the KV layer and the benchmarks both build on this).
    pub fn place_value(&mut self, value: &[u8]) -> Result<(LogicalSegment, WriteReport)> {
        self.clocked(|e| e.place(0, value))
    }

    /// Like [`E2Engine::place_value`], but writes `value` at a byte
    /// `offset` within the chosen segment, leaving the rest of the
    /// segment's (recycled) content untouched. Integrators that append
    /// records into partially filled segments use this so the untouched
    /// region costs no flips.
    ///
    /// Fault handling (graceful degradation): a transient verify
    /// failure is re-programmed up to twice — each retry only touches
    /// the bits that still differ. A segment that wears out, or keeps
    /// failing after the retries, is permanently retired from the pool
    /// and the placement falls back to the next free address; capacity
    /// shrinks but no write is ever lost. When the pool runs dry *and*
    /// segments have been retired the error is
    /// [`E2Error::PoolDepleted`] rather than plain `OutOfSpace`, so
    /// callers can tell degraded mode from ordinary fill-up.
    pub fn place_at(
        &mut self,
        offset: usize,
        value: &[u8],
    ) -> Result<(LogicalSegment, WriteReport)> {
        self.clocked(|e| e.place(offset, value))
    }

    /// Run the public operation `op` under the stage clock: tick the
    /// sampler once and, if it fires, arm the stages `op` runs and time
    /// `op` whole as [`Stage::Op`].
    fn clocked<T>(&mut self, op: impl FnOnce(&mut Self) -> T) -> T {
        let started = self.sampler.start();
        self.armed = started.is_some();
        let out = op(self);
        self.armed = false;
        self.telemetry.stage_ns(Stage::Op).observe_since(started);
        out
    }

    /// [`E2Engine::place_at`] inside an operation.
    fn place(&mut self, offset: usize, value: &[u8]) -> Result<(LogicalSegment, WriteReport)> {
        if offset + value.len() > self.cfg.segment_bytes {
            return Err(E2Error::ValueTooLarge {
                len: offset + value.len(),
                segment_bytes: self.cfg.segment_bytes,
            });
        }
        let model = self.model.as_ref().ok_or(E2Error::NotTrained)?;
        let started = self.armed.then(Instant::now);
        let order = model.order_into(value, &self.padder, &mut self.rng, &mut self.scratch);
        self.telemetry.stage_ns(Stage::Order).observe_since(started);
        self.prediction.predictions += 1;
        let predicted = order.first().copied().unwrap_or(0);
        loop {
            let started = self.armed.then(Instant::now);
            let Some((seg, used)) = self.dap.pop_with_fallback(order) else {
                let retired = self.dap.retired_count();
                return Err(if retired > 0 {
                    E2Error::PoolDepleted { retired }
                } else {
                    E2Error::OutOfSpace
                });
            };
            // Warm the cluster's next placement while this one is
            // written: the free lists are FIFO, so the new head is the
            // next PUT into `used` (DESIGN.md §5, prefetch clause). A
            // hint only.
            if let Some(head) = self.dap.peek_head(used) {
                self.controller.prefetch(head);
            }
            self.telemetry.stage_ns(Stage::Pop).observe_since(started);
            let started = self.armed.then(Instant::now);
            let mut attempts = 0usize;
            // Program-and-verify with bounded retry: the device reports
            // a transient failure after keeping some bits stale, so a
            // retry re-programs only what still differs.
            let result = loop {
                match self.controller.write_at(seg, offset, value) {
                    Err(SimError::WriteFailed { .. }) if attempts < MAX_WRITE_RETRIES => {
                        attempts += 1;
                        self.telemetry.write_retries.inc();
                    }
                    other => break other,
                }
            };
            self.telemetry.stage_ns(Stage::Write).observe_since(started);
            match result {
                Ok(report) => {
                    self.telemetry.record_placement(predicted, used);
                    self.padder.observe(value);
                    return Ok((seg, report));
                }
                Err(SimError::SegmentWornOut { .. } | SimError::WriteFailed { .. }) => {
                    // Worn out, or still failing verify after the retry
                    // budget: permanently quarantine the address and
                    // fall back. It leaves the pool for good, the
                    // *physical* slot the dying write actually hit is
                    // quarantined on the controller (so later
                    // relocations route around the dead medium), and
                    // the retirement is journaled with both ids. The
                    // remap only mutates after *successful* writes, so
                    // the failed write's translation is still live.
                    if self.dap.retire(seg) {
                        let phys = self
                            .controller
                            .retire(seg)
                            .expect("retired logical id must still translate");
                        self.telemetry.record_retirement(seg.index(), phys.index());
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Preview where [`E2Engine::place_value`] would land `value` and
    /// how many bits the write would flip there, without consuming the
    /// address. Integrators use this to decide between relocating a
    /// node image and updating it in place. Returns `None` when the
    /// pool is empty.
    pub fn preview_placement(&mut self, value: &[u8]) -> Result<Option<(LogicalSegment, u64)>> {
        if value.len() > self.cfg.segment_bytes {
            return Err(E2Error::ValueTooLarge {
                len: value.len(),
                segment_bytes: self.cfg.segment_bytes,
            });
        }
        let model = self.model.as_ref().ok_or(E2Error::NotTrained)?;
        let order = model.order_into(value, &self.padder, &mut self.rng, &mut self.scratch);
        for &c in order {
            if let Some(seg) = self.dap.peek_head(c) {
                let content = self.controller.peek(seg)?;
                let flips = e2nvm_sim::bitops::hamming(&content[..value.len()], value);
                return Ok(Some((seg, flips)));
            }
        }
        Ok(None)
    }

    /// Low-level recycle: classify the segment's current content and
    /// return it to the DAP. Recycling a retired segment is a no-op —
    /// dead addresses never re-enter circulation. Always asks the
    /// model: a caller that placed the segment itself may have patched
    /// it in place since, so no write-time tag is trusted here.
    ///
    /// Not an operation of the stage clock: its callers pair it with a
    /// [`E2Engine::place_value`] (a bounded pool streamed through, a
    /// store relocating a node), and one countdown of an even period
    /// ticked by both would arm every recycle and never a placement.
    pub fn recycle_segment(&mut self, seg: LogicalSegment) -> Result<()> {
        if let Some(tag) = self.tags.get_mut(seg.index()) {
            *tag = NO_TAG;
        }
        self.recycle_by_content(seg)
    }

    fn recycle_by_content(&mut self, seg: LogicalSegment) -> Result<()> {
        if self.dap.is_retired(seg) {
            return Ok(());
        }
        let content = self.controller.peek(seg)?;
        let model = self.model.as_ref().ok_or(E2Error::NotTrained)?;
        let cluster = model.classify(content, &mut self.scratch);
        self.prediction.predictions += 1;
        self.prediction.tag_fallbacks += 1;
        self.dap.push(cluster, seg)?;
        Ok(())
    }

    /// Recycle a segment the engine's own KV path wrote and nothing
    /// else has touched since: its write-time tag *is* its cluster, so
    /// the model is asked only when there is no tag. The
    /// [`Stage::Recycle`] of a PUT or DELETE.
    fn recycle_by_tag(&mut self, seg: LogicalSegment) -> Result<()> {
        let started = self.armed.then(Instant::now);
        let tag = std::mem::replace(&mut self.tags[seg.index()], NO_TAG);
        if tag == NO_TAG {
            self.recycle_by_content(seg)?;
        } else if !self.dap.is_retired(seg) {
            debug_assert_eq!(
                Some(usize::from(tag)),
                self.model.as_ref().map(|m| m.classify(
                    self.controller.peek(seg).expect("tagged segment in range"),
                    &mut self.scratch
                )),
                "cluster tag of {seg} disagrees with its content"
            );
            self.prediction.tag_hits += 1;
            self.dap.push(usize::from(tag), seg)?;
        }
        self.telemetry
            .stage_ns(Stage::Recycle)
            .observe_since(started);
        Ok(())
    }

    /// Classify segment `seg` at write time: the placement just made
    /// put `len` bytes at its offset 0, and predicted for them padded
    /// with zeros at the end — so the first-layer sums still in the
    /// scratch are exactly the prefix of the sums for what `seg` holds
    /// now (DESIGN.md §5, resume clause), and continuing them over the
    /// old tail behind the value yields the cluster
    /// [`E2Model::classify`] would give the whole content. Remembered
    /// as the segment's tag for [`E2Engine::recycle_by_tag`]. Any other
    /// padding puts bits into the prediction that the segment does not
    /// hold; then no tag is set.
    ///
    /// Must directly follow the placement it describes: nothing may run
    /// the model in between.
    fn tag_written(&mut self, seg: LogicalSegment, len: usize) {
        use crate::padding::{PaddingLocation, PaddingType};
        let Some(model) = self.model.as_ref() else {
            return;
        };
        if self.padder.location() != PaddingLocation::End
            || self.padder.padding_type() != PaddingType::Zero
            || model.k() > usize::from(NO_TAG)
        {
            return;
        }
        let started = self.armed.then(Instant::now);
        let content = self.controller.peek(seg).expect("placed segment in range");
        let cluster = model.classify_written(content, len, &mut self.scratch);
        self.telemetry.stage_ns(Stage::Tag).observe_since(started);
        self.prediction.resumed += 1;
        self.tags[seg.index()] = cluster as u8;
        self.tagged = true;
    }

    /// Forget every tag.
    fn void_tags(&mut self) {
        if self.tagged {
            self.tags.fill(NO_TAG);
            self.tagged = false;
        }
    }

    /// PUT / UPDATE (Algorithm 1). Returns the device write report.
    pub fn put(&mut self, key: u64, value: &[u8]) -> Result<WriteReport> {
        self.clocked(|e| {
            let (seg, report) = e.place(0, value)?;
            e.tag_written(seg, value.len());
            let entry = Entry {
                seg,
                len: value.len(),
            };
            if let Some(old) = e.index.insert(key, entry) {
                // The key's previous segment becomes free again.
                e.recycle_by_tag(old.seg)?;
            }
            Ok(report)
        })
    }

    /// GET: read the value back.
    pub fn get(&mut self, key: u64) -> Result<Vec<u8>> {
        self.clocked(|e| {
            let entry = *e.index.get(&key).ok_or(E2Error::KeyNotFound(key))?;
            let started = e.armed.then(Instant::now);
            let data = e.controller.read(entry.seg)?;
            e.telemetry.stage_ns(Stage::Read).observe_since(started);
            Ok(data[..entry.len].to_vec())
        })
    }

    /// DELETE (Algorithm 2). Returns true if the key existed.
    pub fn delete(&mut self, key: u64) -> Result<bool> {
        self.clocked(|e| {
            let Some(entry) = e.index.remove(&key) else {
                return Ok(false);
            };
            e.recycle_by_tag(entry.seg)?;
            Ok(true)
        })
    }

    /// SCAN: all key/value pairs with keys in `range`, in key order —
    /// the one-cursor case of [`crate::ShardedEngine::scan_into`], one
    /// device read charged per match. A range that holds no key
    /// (inverted, or empty between two excluded bounds) is empty.
    pub fn scan<R: RangeBounds<u64>>(&mut self, range: R) -> Result<Vec<(u64, Vec<u8>)>> {
        let mut out = Vec::new();
        let Some((lo, hi)) = scan::inclusive(&range) else {
            return Ok(out);
        };
        let (matches, controller) = self.scan_cursor(lo, hi);
        Cursor::new(matches, controller, None).merge_charge_visit(
            usize::MAX,
            &mut ScanBuffer::new(),
            &mut |k, v| {
                out.push((k, v.to_vec()));
                true
            },
        )?;
        Ok(out)
    }

    /// The index matches of `lo..=hi` in key order, beside the
    /// controller their bytes sit on: what a scan's [`Cursor`] walks.
    /// `lo <= hi`, or `BTreeMap::range` panics.
    pub(crate) fn scan_cursor(
        &mut self,
        lo: u64,
        hi: u64,
    ) -> (
        impl Iterator<Item = scan::Match> + '_,
        &mut MemoryController,
    ) {
        let matches = self
            .index
            .range(lo..=hi)
            .map(|(&key, e)| (key, e.seg, e.len));
        (matches, &mut self.controller)
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Free segments available for placement.
    pub fn free_count(&self) -> usize {
        self.dap.free_count()
    }

    /// Segments permanently retired by wear-out (degraded-mode
    /// capacity loss).
    pub fn retired_count(&self) -> usize {
        self.dap.retired_count()
    }

    /// The retired segments themselves, ascending.
    pub fn retired_segments(&self) -> Vec<LogicalSegment> {
        self.dap.retired_segments()
    }

    /// Physical slots quarantined on the controller — the address space
    /// wear heatmaps and the HEALTH wire summary are keyed by. Under
    /// the identity mapping this equals [`E2Engine::retired_count`];
    /// under active wear leveling only the physical set names the dead
    /// medium.
    pub fn retired_physical_count(&self) -> usize {
        self.controller.retired_physical_count()
    }

    /// Device statistics (flips, energy, latency).
    pub fn device_stats(&self) -> &e2nvm_sim::DeviceStats {
        self.controller.stats()
    }

    /// Reset device statistics (e.g. after a warm-up phase).
    pub fn reset_device_stats(&mut self) {
        self.controller.reset_stats();
    }

    /// Prediction-path counters.
    pub fn prediction_stats(&self) -> PredictionStats {
        self.prediction
    }

    /// Estimated DRAM footprint of the DAP and the per-segment cluster
    /// tags beside it (Figure 7's y-axis).
    pub fn dap_memory_bytes(&self) -> usize {
        self.dap.memory_bytes() + self.tags.len()
    }

    /// Modeled multiply-accumulates per prediction.
    pub fn predict_macs(&self) -> u64 {
        self.model.as_ref().map(E2Model::predict_macs).unwrap_or(0)
    }

    /// The trained model, if any.
    pub fn model(&self) -> Option<&E2Model> {
        self.model.as_ref()
    }

    /// The address pool: which cluster holds which free segment, in pop
    /// order.
    pub fn dap(&self) -> &DynamicAddressPool {
        &self.dap
    }

    /// Borrow the controller (seeding, wear inspection, in-place
    /// patches). The caller may rewrite any segment behind the engine's
    /// back, so every write-time cluster tag is voided: the next
    /// recycle of each segment classifies its content again.
    pub fn controller_mut(&mut self) -> &mut MemoryController {
        self.void_tags();
        &mut self.controller
    }

    /// Borrow the controller immutably.
    pub fn controller(&self) -> &MemoryController {
        &self.controller
    }

    /// Snapshot the free-segment contents (for the background
    /// retrainer).
    pub fn training_snapshot(&self) -> Vec<Vec<u8>> {
        self.free_snapshot().contents
    }

    /// Export the engine's durable state (model, retirement, index) for
    /// persistence. Device contents and wear live in the device image
    /// (`e2nvm_sim::snapshot`); together the two reconstruct the engine
    /// via [`E2Engine::restore_state`]. Fails with
    /// [`E2Error::NotTrained`] before the first training — an untrained
    /// engine has nothing worth persisting.
    pub fn export_state(&self) -> Result<EngineState> {
        let model = self.model.as_ref().ok_or(E2Error::NotTrained)?;
        Ok(EngineState {
            model: model.to_bytes(),
            retired: self.dap.retired_segments(),
            entries: self
                .index
                .iter()
                .map(|(&k, e)| (k, e.seg, 0, e.len))
                .collect(),
        })
    }

    /// Restore a previously exported state onto a *fresh* engine whose
    /// controller was rebuilt from the matching device image. Installs
    /// the model without retraining, re-retires dead segments, rebuilds
    /// the index, and reconstructs the DAP free lists from first
    /// principles (free = not retired ∧ not indexed, classified by the
    /// restored model against the device's current contents). A state
    /// the engine could not have exported — an entry at a nonzero
    /// offset, or one segment under two keys — is rejected with
    /// [`E2Error::Config`], and the engine is left fresh.
    pub fn restore_state(&mut self, state: &EngineState) -> Result<()> {
        if self.model.is_some() || !self.index.is_empty() {
            return Err(E2Error::Config(
                "restore_state requires a freshly constructed engine".into(),
            ));
        }
        let model = E2Model::from_bytes(&state.model)
            .map_err(|e| E2Error::Config(format!("restore_state: bad model artifact: {e}")))?;
        self.check_model_width(&model)?;
        let num_segments = self.controller.num_segments();
        for &seg in &state.retired {
            if seg.index() >= num_segments {
                return Err(E2Error::Config(format!(
                    "restore_state: retired {seg} out of range ({num_segments} segments)"
                )));
            }
        }
        // Built aside and installed only once every entry checks out, so
        // a rejected state leaves the engine fresh.
        let mut index = BTreeMap::new();
        let mut indexed = vec![false; num_segments];
        for &(key, seg, off, len) in &state.entries {
            if seg.index() >= num_segments {
                return Err(E2Error::Config(format!(
                    "restore_state: key {key} on out-of-range {seg}"
                )));
            }
            if off != 0 {
                return Err(E2Error::Config(format!(
                    "restore_state: key {key} at offset {off} of {seg}; a value starts at byte 0"
                )));
            }
            if len > self.cfg.segment_bytes {
                return Err(E2Error::Config(format!(
                    "restore_state: key {key} of {len} bytes past segment size {}",
                    self.cfg.segment_bytes
                )));
            }
            if state.retired.contains(&seg) {
                return Err(E2Error::Config(format!(
                    "restore_state: key {key} lives on retired {seg}"
                )));
            }
            if index.insert(key, Entry { seg, len }).is_some() {
                return Err(E2Error::Config(format!(
                    "restore_state: duplicate key {key}"
                )));
            }
            if std::mem::replace(&mut indexed[seg.index()], true) {
                return Err(E2Error::Config(format!(
                    "restore_state: key {key} shares {seg} with another key"
                )));
            }
        }
        self.index = index;
        for &seg in &state.retired {
            self.dap.retire(seg);
        }
        // Mirror the quarantine onto the controller's physical flags
        // when the mapping is the identity (a shard block without a
        // controller section restores onto a pass-through controller,
        // and under identity logical == physical).
        // A controller rebuilt from a persisted `ControllerState`
        // already has authoritative flags and a possibly non-identity
        // remap — retiring through the *current* translation would mark
        // the wrong slot, so it is skipped.
        if self.controller.remap().is_identity() {
            for &seg in &state.retired {
                let _ = self.controller.retire(seg);
            }
        }
        let free = self.snapshot_of(
            (0..num_segments)
                .map(LogicalSegment)
                .filter(|seg| !self.dap.is_retired(*seg) && !indexed[seg.index()])
                .collect(),
        );
        self.install_model(model, &free);
        Ok(())
    }
}

impl std::fmt::Debug for E2Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("E2Engine")
            .field("trained", &self.model.is_some())
            .field("keys", &self.index.len())
            .field("free", &self.dap.free_count())
            .field("k", &self.cfg.k)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlacementModel;
    use e2nvm_sim::{DeviceConfig, NvmDevice};
    use rand::Rng;

    fn engine(num_segments: usize, seg_bytes: usize, k: usize) -> E2Engine {
        let dev = NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(seg_bytes)
                .num_segments(num_segments)
                .build()
                .unwrap(),
        );
        let cfg = E2Config::builder()
            .fast(seg_bytes, k)
            .pretrain_epochs(6)
            .joint_epochs(2)
            .padding_type(crate::padding::PaddingType::Zero)
            .build()
            .unwrap();
        E2Engine::new(MemoryController::without_wear_leveling(dev), cfg).unwrap()
    }

    fn seed_two_families(e: &mut E2Engine, rng: &mut StdRng) {
        let n = e.controller.num_segments();
        let bytes = e.cfg.segment_bytes;
        for i in 0..n {
            let base = if i % 2 == 0 { 0x00u8 } else { 0xFF };
            let content: Vec<u8> = (0..bytes)
                .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
                .collect();
            e.controller_mut()
                .seed(LogicalSegment(i), &content)
                .unwrap();
        }
    }

    #[test]
    fn untrained_engine_rejects_ops() {
        let mut e = engine(8, 32, 2);
        assert_eq!(e.put(1, &[0u8; 16]), Err(E2Error::NotTrained));
        assert!(!e.is_trained());
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut e = engine(32, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        assert!(e.is_trained());
        e.put(7, b"hello world").unwrap();
        assert_eq!(e.get(7).unwrap(), b"hello world");
        assert_eq!(e.len(), 1);
        assert!(e.delete(7).unwrap());
        assert!(!e.delete(7).unwrap());
        assert_eq!(e.get(7), Err(E2Error::KeyNotFound(7)));
        assert!(e.is_empty());
    }

    #[test]
    fn update_recycles_old_segment() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut e = engine(16, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        let before = e.free_count();
        e.put(1, &[0xAAu8; 32]).unwrap();
        assert_eq!(e.free_count(), before - 1);
        // Update: new segment taken, old one returned.
        e.put(1, &[0x55u8; 32]).unwrap();
        assert_eq!(e.free_count(), before - 1);
        assert_eq!(e.get(1).unwrap(), vec![0x55u8; 32]);
    }

    /// A segment wider than the model's `u16` input indices reach is
    /// refused as a config error when the engine is built — never a
    /// panic in training or placement later. (The device takes wide
    /// segments in whole cache lines, so the narrowest too wide is one
    /// line past the widest.)
    #[test]
    fn a_segment_wider_than_the_model_indexes_is_refused() {
        let widest = e2nvm_ml::bits::MAX_INPUT_BITS / 8;
        for (seg_bytes, ok) in [(widest, true), (widest + 64, false)] {
            let dev = NvmDevice::new(
                DeviceConfig::builder()
                    .segment_bytes(seg_bytes)
                    .num_segments(2)
                    .build()
                    .unwrap(),
            );
            let built = E2Engine::new(
                MemoryController::without_wear_leveling(dev),
                E2Config::fast(seg_bytes, 2),
            );
            match built {
                Ok(_) => assert!(ok, "{seg_bytes}-byte segments accepted"),
                Err(e) => assert!(
                    !ok && matches!(e, E2Error::Config(_)),
                    "{seg_bytes}-byte segments: {e}"
                ),
            }
        }
    }

    #[test]
    fn placement_prefers_similar_content() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut e = engine(64, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        // Writing all-zeros content must land on a zeros-family segment
        // (even index) — that is the whole point of E2-NVM.
        let (seg, report) = e.place_value(&[0u8; 32]).unwrap();
        assert_eq!(seg.index() % 2, 0, "zeros value placed on ones segment");
        // Few flips: the old content is already ~95% zeros.
        assert!(
            report.bits_flipped < 64,
            "too many flips: {}",
            report.bits_flipped
        );
        let (_, report_ones) = e.place_value(&[0xFFu8; 32]).unwrap();
        assert!(report_ones.bits_flipped < 64);
    }

    #[test]
    fn scan_returns_sorted_range() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut e = engine(32, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        for k in [5u64, 1, 9, 3] {
            e.put(k, &k.to_le_bytes()).unwrap();
        }
        let result = e.scan(2..=8).unwrap();
        let keys: Vec<u64> = result.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![3, 5]);
        assert_eq!(result[0].1, 3u64.to_le_bytes().to_vec());
    }

    #[test]
    fn scan_of_a_range_without_keys_is_empty() {
        use std::ops::Bound::Excluded;
        let mut rng = StdRng::seed_from_u64(4);
        let mut e = engine(32, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        for k in 2..=6u64 {
            e.put(k, &k.to_le_bytes()).unwrap();
        }
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = e.scan(5..=3).unwrap();
        assert_eq!(inverted, vec![]);
        assert_eq!(e.scan((Excluded(4), Excluded(4))).unwrap(), vec![]);
        assert_eq!(e.scan((Excluded(4), Excluded(5))).unwrap(), vec![]);
        assert_eq!(e.device_stats().reads, 0);
        let keys: Vec<u64> = e.scan(..).unwrap().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![2, 3, 4, 5, 6]);
        assert_eq!(e.device_stats().reads, 5);
    }

    #[test]
    fn out_of_space_detected() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut e = engine(8, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        for k in 0..8u64 {
            e.put(k, &[1u8; 8]).unwrap();
        }
        assert_eq!(e.put(99, &[1u8; 8]), Err(E2Error::OutOfSpace));
        // Deleting frees space again.
        e.delete(0).unwrap();
        e.put(99, &[1u8; 8]).unwrap();
    }

    #[test]
    fn value_too_large_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut e = engine(8, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        assert!(matches!(
            e.put(1, &[0u8; 33]),
            Err(E2Error::ValueTooLarge { len: 33, .. })
        ));
    }

    #[test]
    fn needs_retrain_when_cluster_drains() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut e = engine(12, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        assert!(!e.needs_retrain());
        // Drain most of the pool.
        for k in 0..9u64 {
            e.put(k, &[0u8; 32]).unwrap();
        }
        assert!(e.needs_retrain());
    }

    #[test]
    fn prediction_stats_accumulate() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut e = engine(16, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        e.put(1, &[0u8; 8]).unwrap();
        e.put(2, &[0u8; 8]).unwrap();
        let s = e.prediction_stats();
        assert_eq!(s.predictions, 2);
        // The clock arms the first operation.
        let order = e.telemetry().stage_ns(Stage::Order);
        assert_eq!(order.count(), 1);
        assert!(order.sum() > 0);
        // The write-time tail passes are model time too, kept apart.
        assert_eq!(s.resumed, 2);
        let tag = e.telemetry().stage_ns(Stage::Tag);
        assert_eq!(tag.count(), 1);
        assert!(tag.sum() > 0);
        assert!(e.predict_macs() > 0);
    }

    #[test]
    fn prediction_counts_are_exact_and_each_site_samples_its_own_latencies() {
        let mut rng = StdRng::seed_from_u64(34);
        let mut e = engine(32, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        let registry = TelemetryRegistry::new();
        let e = crate::ShardedEngine::new(vec![e]);
        e.attach_telemetry(&registry);
        // 100 PUTs over 4 keys: 100 placements, 100 resumed passes,
        // and every recycle by tag.
        for i in 0..100u64 {
            e.put(i % 4, &[i as u8; 20]).unwrap();
        }
        let samples = |stage| {
            registry
                .histogram_with_labels(
                    "e2nvm_engine_stage_ns",
                    "",
                    &[],
                    &[("shard", "0"), ("stage", stage)],
                )
                .count()
        };
        assert_eq!(registry.counter_total("e2nvm_engine_placements_total"), 100);
        assert_eq!(
            registry.counter_total("e2nvm_engine_predictions_total"),
            100
        );
        assert_eq!(
            registry.counter_total("e2nvm_engine_resumed_predictions_total"),
            100
        );
        // One PUT in 64 is armed, the 1st and the 65th, and each
        // times its placement's prediction and its resumed pass.
        assert_eq!(samples("order"), 2);
        assert_eq!(samples("tag"), 2);
        let s = e.prediction_stats();
        assert_eq!((s.predictions, s.resumed), (100, 100));
    }

    /// An armed PUT times every stage of Algorithm 1 once, inside its
    /// own span; an armed GET its read.
    #[test]
    fn an_armed_put_times_each_stage_once_within_the_op() {
        // A restored engine holds keys 1 and 2 untagged: its first
        // operation, always armed, is a PUT that updates key 1 and
        // recycles the old segment by content.
        let (state, mut fresh) = exported_and_fresh(35);
        fresh.restore_state(&state).unwrap();
        let registry = TelemetryRegistry::new();
        let e = crate::ShardedEngine::new(vec![fresh]);
        e.attach_telemetry(&registry);
        let stage = |stage| {
            let labels = [("shard", "0"), ("stage", stage)];
            let h = registry.histogram_with_labels("e2nvm_engine_stage_ns", "", &[], &labels);
            (h.count(), h.sum())
        };
        e.put(1, b"uno").unwrap();
        let leaves = ["order", "pop", "write", "tag", "recycle"];
        let (ops, put_ns) = stage("op");
        assert_eq!(ops, 1);
        for leaf in leaves {
            assert_eq!(stage(leaf).0, 1, "{leaf}");
        }
        let leaf_ns: u64 = leaves.iter().map(|&leaf| stage(leaf).1).sum();
        assert!(leaf_ns <= put_ns, "stages {leaf_ns} ns > op {put_ns} ns");
        assert_eq!(stage("read").0, 0);
        // Operations 2 to 64 are disarmed; the 65th is armed again.
        for _ in 2..=Sampler::EVERY {
            e.get(2).unwrap();
        }
        assert_eq!(stage("op").0, 1);
        assert_eq!(e.get(1).unwrap(), b"uno");
        let (ops, op_ns) = stage("op");
        let (reads, read_ns) = stage("read");
        assert_eq!((ops, reads), (2, 1));
        assert!(read_ns <= op_ns - put_ns, "read {read_ns} ns > its op");
        for leaf in leaves {
            assert_eq!(stage(leaf).0, 1, "{leaf}");
        }
    }

    #[test]
    fn updating_put_tags_the_segment_and_recycles_by_tag() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut e = engine(32, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        // First write of each key: one full prediction, one resumed
        // pass over the 12-byte tail the value leaves in place.
        e.put(1, &[0u8; 20]).unwrap();
        e.put(2, &[0xFFu8; 20]).unwrap();
        let s = e.prediction_stats();
        assert_eq!((s.predictions, s.resumed, s.tag_hits), (2, 2, 0));
        // Updates and deletes recycle by tag: no further full calls
        // beyond the one per placement.
        e.put(1, &[0xFFu8; 7]).unwrap();
        e.put(2, &[]).unwrap();
        assert!(e.delete(1).unwrap());
        let s = e.prediction_stats();
        assert_eq!((s.predictions, s.resumed), (4, 4));
        assert_eq!((s.tag_hits, s.tag_fallbacks), (3, 0));
        // A new model renumbers the clusters: the surviving tag is
        // dropped and the next recycle asks the model.
        e.train().unwrap();
        assert!(e.delete(2).unwrap());
        let s = e.prediction_stats();
        assert_eq!((s.predictions, s.tag_hits, s.tag_fallbacks), (5, 3, 1));
    }

    #[test]
    fn tags_are_set_only_where_the_prediction_saw_the_segment() {
        use crate::padding::{PaddingLocation, PaddingType};
        // Any padding but zeros-at-the-end predicts for bits the
        // segment will not hold; so does no padding rule at all when
        // the value lands at an offset.
        let untagged = [
            (PaddingLocation::Beginning, PaddingType::Zero),
            (PaddingLocation::Middle, PaddingType::Zero),
            (PaddingLocation::End, PaddingType::One),
            (PaddingLocation::End, PaddingType::Random),
            (PaddingLocation::End, PaddingType::MemoryBased),
            (PaddingLocation::End, PaddingType::Learned),
        ];
        for (location, ptype) in untagged {
            let mut rng = StdRng::seed_from_u64(32);
            let mut e = engine(32, 32, 2);
            seed_two_families(&mut e, &mut rng);
            e.train().unwrap();
            e.set_padding(location, ptype);
            for round in 0..6u8 {
                e.put(u64::from(round % 2), &[round; 20]).unwrap();
            }
            e.put(0, &[1u8; 9]).unwrap();
            e.put(1, &[2u8; 9]).unwrap();
            let s = e.prediction_stats();
            assert_eq!((s.resumed, s.tag_hits), (0, 0), "{location:?} {ptype:?}");
            assert_eq!(s.tag_fallbacks, 6, "{location:?} {ptype:?}");
        }

        let mut rng = StdRng::seed_from_u64(33);
        let mut e = engine(32, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        let (at_offset, _) = e.place_at(8, &[0xFFu8; 16]).unwrap();
        let (whole, _) = e.place_value(&[0u8; 32]).unwrap();
        assert_eq!(e.prediction_stats().resumed, 0);
        assert!(e.tags.iter().all(|&t| t == NO_TAG));
        // Callers that place for themselves recycle by content.
        e.recycle_segment(at_offset).unwrap();
        e.recycle_segment(whole).unwrap();
        let s = e.prediction_stats();
        assert_eq!((s.tag_hits, s.tag_fallbacks), (0, 2));
    }

    fn faulty_engine(num_segments: usize, endurance_bits: u64, transient_rate: f64) -> E2Engine {
        let dev = NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(32)
                .num_segments(num_segments)
                .fault(e2nvm_sim::FaultConfig {
                    seed: 9,
                    endurance_bits,
                    endurance_shape: 3.0,
                    transient_rate,
                })
                .build()
                .unwrap(),
        );
        let cfg = E2Config::builder()
            .fast(32, 2)
            .pretrain_epochs(6)
            .joint_epochs(2)
            .retrain_min_free(0)
            .padding_type(crate::padding::PaddingType::Zero)
            .build()
            .unwrap();
        E2Engine::new(MemoryController::without_wear_leveling(dev), cfg).unwrap()
    }

    /// Per-round pseudo-random content: ~half the bits differ from any
    /// earlier round, so content-similar placement cannot dodge the
    /// flips and endurance burns fast.
    fn burn_pattern(round: usize) -> [u8; 32] {
        let mut x = round as u64 ^ 0xB17_B17;
        let mut out = [0u8; 32];
        for b in out.iter_mut() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (x >> 56) as u8;
        }
        out
    }

    #[test]
    fn worn_segment_is_retired_and_serving_continues() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut e = faulty_engine(16, 4_000, 0.0);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        let mut round = 0usize;
        while e.retired_count() == 0 {
            assert!(round < 2_000, "no segment ever wore out");
            e.put(1, &burn_pattern(round)).unwrap();
            round += 1;
        }
        // Degraded mode: a segment died mid-write, the engine retired it
        // and fell back — the value of that very write survived intact.
        assert_eq!(e.get(1).unwrap(), burn_pattern(round - 1).to_vec());
        let retired = e.retired_segments();
        assert_eq!(retired.len(), e.retired_count());
        // Writes keep working after retirement.
        e.put(2, &[0x0Fu8; 32]).unwrap();
        assert_eq!(e.get(2).unwrap(), vec![0x0Fu8; 32]);
    }

    #[test]
    fn transient_failures_are_retried_transparently() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut e = faulty_engine(16, u64::MAX >> 8, 0.2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        for round in 0..60 {
            e.put(round as u64 % 4, &burn_pattern(round)).unwrap();
        }
        for k in 0..4u64 {
            // Every key readable: retries converged on each value.
            assert_eq!(e.get(k).unwrap().len(), 32);
        }
        // With a 20% transient rate over 60 writes, at least one retry
        // must have been needed somewhere — but none escalated to
        // retirement (endurance is unreachable, verify converges).
        assert_eq!(e.retired_count(), 0);
    }

    #[test]
    fn depleted_pool_reports_degraded_mode() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut e = faulty_engine(8, 1_500, 0.0);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        let mut last = Ok(());
        for round in 0..2_000 {
            last = e.put(1, &burn_pattern(round)).map(|_| ());
            if last.is_err() {
                break;
            }
        }
        match last {
            Err(E2Error::PoolDepleted { retired }) => {
                assert!(retired > 0, "depletion must report retirements");
                assert_eq!(retired, e.retired_count());
            }
            other => panic!("expected PoolDepleted, got {other:?}"),
        }
        // The key's last successful value is still readable.
        assert_eq!(e.get(1).unwrap().len(), 32);
    }

    #[test]
    fn retrain_preserves_retirements() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut e = faulty_engine(16, 4_000, 0.0);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        let mut round = 0usize;
        while e.retired_count() == 0 {
            assert!(round < 2_000, "no segment ever wore out");
            e.put(1, &burn_pattern(round)).unwrap();
            round += 1;
        }
        let retired = e.retired_segments();
        e.train().unwrap();
        assert_eq!(
            e.retired_segments(),
            retired,
            "retraining must not resurrect dead segments"
        );
        for seg in retired {
            assert!(!e.dap.is_free(seg));
        }
    }

    /// A trained engine holding keys 1 and 2, its exported state, and
    /// a fresh engine over the same device to restore it onto.
    fn exported_and_fresh(seed: u64) -> (EngineState, E2Engine) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut e = engine(16, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        e.put(1, b"one").unwrap();
        e.put(2, b"two").unwrap();
        let state = e.export_state().unwrap();
        assert!(state.entries.iter().all(|&(_, _, off, _)| off == 0));
        let dev = e.controller().device().clone();
        let fresh = E2Engine::new(MemoryController::without_wear_leveling(dev), e.cfg.clone());
        (state, fresh.unwrap())
    }

    /// The default model, PCA + K-means, trains to the same bytes on two
    /// engines over the same content.
    #[test]
    fn a_pca_engine_trains_to_the_same_model_bytes_twice() {
        let train = || {
            let mut e = engine(64, 32, 4);
            seed_two_families(&mut e, &mut StdRng::seed_from_u64(8));
            e.train().unwrap();
            let model = e.model().unwrap();
            assert!(matches!(model.kind(), PlacementModel::PcaKMeans));
            model.to_bytes()
        };
        assert_eq!(train(), train());
    }

    /// A state a VAE engine exported, restored by an engine configured
    /// with the PCA default, serves the persisted VAE as it was: the
    /// snapshot holds a placer, whichever model trained it, and restoring
    /// never retrains.
    #[test]
    fn a_vae_snapshot_restored_under_the_pca_default_serves_its_own_model() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut vae = engine(32, 32, 2);
        vae.cfg.model = PlacementModel::Vae;
        seed_two_families(&mut vae, &mut rng);
        vae.train().unwrap();
        vae.put(1, b"one").unwrap();
        let state = vae.export_state().unwrap();
        let dev = vae.controller().device().clone();
        let pca_cfg = E2Config {
            model: PlacementModel::default(),
            ..vae.cfg.clone()
        };
        let mut restored =
            E2Engine::new(MemoryController::without_wear_leveling(dev), pca_cfg).unwrap();
        restored.restore_state(&state).unwrap();
        let model = restored.model().unwrap();
        assert_eq!(model.kind(), PlacementModel::Vae);
        assert_eq!(model.to_bytes(), state.model);
        assert_eq!(restored.get(1).unwrap(), b"one");
        assert_eq!(restored.dap().occupancy(), vae.dap().occupancy());
        for value in [[0x00u8; 32], [0xFF; 32]] {
            assert_eq!(
                restored.preview_placement(&value).unwrap(),
                vae.preview_placement(&value).unwrap()
            );
        }
    }

    /// Restore `state` onto `fresh`: it must be refused, and the engine
    /// must still take the unmodified state afterwards.
    fn assert_restore_refused(state: &EngineState, mut fresh: E2Engine, clean: &EngineState) {
        assert!(matches!(
            fresh.restore_state(state),
            Err(E2Error::Config(_))
        ));
        assert!(fresh.is_empty() && !fresh.is_trained());
        fresh.restore_state(clean).unwrap();
        assert_eq!(fresh.get(2).unwrap(), b"two");
    }

    #[test]
    fn restore_rejects_an_entry_at_a_nonzero_offset() {
        let (clean, fresh) = exported_and_fresh(26);
        let mut state = clean.clone();
        state.entries[1].2 = 4;
        state.entries[1].3 = 2;
        assert_restore_refused(&state, fresh, &clean);
    }

    #[test]
    fn restore_rejects_a_segment_named_by_two_keys() {
        let (clean, fresh) = exported_and_fresh(27);
        let mut state = clean.clone();
        // Key 2 now points at key 1's segment: recycling either would
        // free a segment the other still names.
        state.entries[1].1 = state.entries[0].1;
        assert_restore_refused(&state, fresh, &clean);
    }

    /// A model blob with no centroids is refused at decode, so the
    /// restore fails instead of rebuilding a pool of zero clusters.
    #[test]
    fn restore_rejects_a_model_without_clusters() {
        let (clean, fresh) = exported_and_fresh(28);
        use e2nvm_ml::persist::{Persist, PersistError};
        let placer = e2nvm_ml::Placer::from_bytes(&clean.model).unwrap();
        let latent = *placer.widths().last().unwrap();
        let centroids = 4 * placer.k() * latent;
        let mut state = clean.clone();
        // The centroids come last: rows, columns, element count, then
        // the elements.
        let end = state.model.len() - centroids;
        state.model.truncate(end);
        state.model[end - 24..end - 16].copy_from_slice(&0u64.to_le_bytes());
        state.model[end - 8..end].copy_from_slice(&0u64.to_le_bytes());
        // A whole model with no clusters, not a cut one.
        assert!(matches!(
            E2Model::from_bytes(&state.model),
            Err(PersistError::NoClusters)
        ));
        assert_restore_refused(&state, fresh, &clean);
    }

    /// A model of another segment width is refused on install, fresh
    /// or trained, and the engine keeps what it had.
    #[test]
    fn install_refuses_a_model_of_another_width() {
        let mut narrow = engine(16, 16, 2);
        seed_two_families(&mut narrow, &mut StdRng::seed_from_u64(29));
        narrow.train().unwrap();
        let narrow = narrow.model().unwrap();
        let (state, mut fresh) = exported_and_fresh(30);
        assert!(matches!(
            fresh.install_model_now(narrow.clone()),
            Err(E2Error::Config(_))
        ));
        assert!(!fresh.is_trained());
        fresh.restore_state(&state).unwrap();
        assert!(matches!(
            fresh.install_model_now(narrow.clone()),
            Err(E2Error::Config(_))
        ));
        assert_eq!(fresh.model().unwrap().to_bytes(), state.model);
        assert_eq!(fresh.get(2).unwrap(), b"two");
    }

    #[test]
    fn mismatched_segment_size_rejected() {
        let dev = NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(64)
                .num_segments(8)
                .build()
                .unwrap(),
        );
        let cfg = E2Config::fast(32, 2);
        assert!(matches!(
            E2Engine::new(MemoryController::without_wear_leveling(dev), cfg),
            Err(E2Error::Config(_))
        ));
    }
}
