//! A sharded, bounded read-through DRAM cache in front of any
//! [`NvmKvStore`].
//!
//! The paper's economics motivate this layer: NVM *writes* are the
//! expensive operation (bit flips cost energy and wear, which is why
//! the VAE placement engine exists), while *reads* are cheap — and a
//! DRAM hit is cheaper still. Under zipfian read-heavy traffic
//! (YCSB-B/C) the hot tail of keys is small enough to pin in DRAM, so
//! the cache absorbs the read majority and the flip-aware write path
//! keeps exclusive ownership of mutations.
//!
//! # Design
//!
//! * **Sharding**: a power-of-two number of shards, each behind its own
//!   mutex, selected by a SplitMix64 hash of the key — no global lock,
//!   so the cache composes with [`crate::ShardedE2KvStore`]'s
//!   per-shard engine locks without serializing traffic.
//! * **Eviction**: CLOCK with *cold insertion*. New fills start with a
//!   cleared reference bit and only a hit sets it, so one-touch scans
//!   behave like segmented-LRU probation and cannot flush the
//!   established hot set. Each shard evicts against its own byte
//!   budget (`capacity_bytes / shards`).
//! * **Coherence**: strictly read-through. [`CachedKvStore`] mutators
//!   write the inner store first and invalidate *before returning*, so
//!   an acknowledged PUT/DELETE is never followed by a stale read.
//!   Every shard carries a version counter bumped by every
//!   invalidation; a miss snapshots the version before reading the
//!   inner store and its later fill is dropped if the version moved —
//!   closing the race where a concurrent writer lands between the
//!   inner read and the fill.
//! * **Degraded mode**: a hit never consults the inner store, so keys
//!   resident in the cache stay readable even while the store reports
//!   [`crate::StoreError::Degraded`]; misses surface the store's error
//!   unchanged.
//! * **Scans bypass** the cache entirely: they are range reads over
//!   many keys with no reuse signal, and caching them would let a
//!   single scan evict the hot set.

use crate::store::{Result, StoreError};
use crate::traits::NvmKvStore;
use e2nvm_telemetry::{Histogram, Sampler, TelemetryRegistry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Approximate per-entry DRAM bookkeeping overhead (slot + hash-map
/// entry + allocation headers) charged against the byte budget in
/// addition to the value bytes, so millions of tiny values cannot
/// balloon past `capacity_bytes`.
const ENTRY_OVERHEAD_BYTES: usize = 48;

/// SplitMix64 finalizer: decorrelates adjacent keys before shard
/// selection (the same mix the sharded engine uses for routing).
#[inline]
fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Configuration for a [`HotCache`] / [`CachedKvStore`].
///
/// Construct via [`CacheConfig::builder`]; [`CacheConfig::default`] is
/// 64 MiB over 8 shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total DRAM budget in bytes across all shards (values plus a
    /// fixed per-entry overhead).
    pub capacity_bytes: usize,
    /// Number of independently locked shards; must be a power of two.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: 64 * 1024 * 1024,
            shards: 8,
        }
    }
}

impl CacheConfig {
    /// Start building a config from the defaults.
    pub fn builder() -> CacheConfigBuilder {
        CacheConfigBuilder::default()
    }

    /// Check invariants: a nonzero budget and a power-of-two shard
    /// count large enough that every shard gets at least one byte.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 || !self.shards.is_power_of_two() {
            return Err(StoreError::Config(format!(
                "cache shards must be a power of two >= 1, got {}",
                self.shards
            )));
        }
        if self.capacity_bytes / self.shards == 0 {
            return Err(StoreError::Config(format!(
                "cache capacity {}B spread over {} shards leaves empty shards",
                self.capacity_bytes, self.shards
            )));
        }
        Ok(())
    }
}

/// Builder for [`CacheConfig`] — the same validated-`build()` idiom as
/// [`e2nvm_core::E2Config::builder`].
#[derive(Debug, Clone, Default)]
pub struct CacheConfigBuilder {
    cfg: CacheConfig,
}

impl CacheConfigBuilder {
    /// Total DRAM budget in bytes across all shards.
    pub fn capacity_bytes(mut self, value: usize) -> Self {
        self.cfg.capacity_bytes = value;
        self
    }

    /// Number of independently locked shards (power of two).
    pub fn shards(mut self, value: usize) -> Self {
        self.cfg.shards = value;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<CacheConfig> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// The cache's own counters, aggregated across shards on demand —
/// available to tests and tools whether or not a registry is attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from DRAM.
    pub hits: u64,
    /// Lookups that fell through to the inner store.
    pub misses: u64,
    /// Entries evicted by the CLOCK hand to make room.
    pub evictions: u64,
    /// Entries (or pending fills) removed by PUT/DELETE coherence.
    pub invalidations: u64,
    /// Fills dropped because an invalidation raced the inner read.
    pub fills_dropped: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently charged against the budget.
    pub occupancy_bytes: usize,
    /// The configured byte budget.
    pub capacity_bytes: usize,
}

/// The outcome of a cache lookup: a DRAM hit, or a miss carrying the
/// shard's coherence version to guard the eventual [`HotCache::fill`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// The value, served without touching the inner store.
    Hit(Vec<u8>),
    /// Not resident; pass `version` back to [`HotCache::fill`].
    Miss {
        /// Shard coherence version at miss time.
        version: u64,
    },
}

/// Hasher for the per-shard key maps: the same SplitMix64 finalizer
/// used for shard routing, instead of the standard library's SipHash —
/// measurably cheaper on the hit path, and full-avalanche over the
/// whole key. (No hashing secret, so this trades SipHash's flooding
/// resistance for speed — the right trade for a cache whose worst case
/// under crafted keys is misses, not unbounded chains of state.)
#[derive(Debug, Default, Clone)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("shard maps hash only u64 keys");
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = hash64(key);
    }
}

type KeyMap = HashMap<u64, usize, std::hash::BuildHasherDefault<KeyHasher>>;

/// One cached entry.
#[derive(Debug)]
struct Slot {
    key: u64,
    value: Box<[u8]>,
    /// CLOCK reference bit: cleared on insertion (cold/probationary),
    /// set by a hit, cleared again by a passing hand sweep.
    ref_bit: bool,
}

/// One independently locked cache shard: a slab of slots, a key → slot
/// map, a free list, the CLOCK hand, and the coherence version.
#[derive(Debug, Default)]
struct Shard {
    slots: Vec<Option<Slot>>,
    map: KeyMap,
    free: Vec<usize>,
    hand: usize,
    used_bytes: usize,
    budget: usize,
    /// Bumped by every invalidation (even of absent keys) so that a
    /// miss's later fill can detect any intervening write.
    version: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
    fills_dropped: u64,
}

impl Shard {
    fn charge(value_len: usize) -> usize {
        value_len + ENTRY_OVERHEAD_BYTES
    }

    /// Remove the slot at `idx` and release its byte charge.
    fn remove_slot(&mut self, idx: usize) {
        let slot = self.slots[idx].take().expect("occupied slot");
        self.map.remove(&slot.key);
        self.free.push(idx);
        self.used_bytes -= Self::charge(slot.value.len());
    }

    /// Advance the CLOCK hand until `need` bytes fit, evicting
    /// unreferenced slots and demoting referenced ones.
    fn evict_until_fits(&mut self, need: usize) {
        while self.used_bytes + need > self.budget && !self.map.is_empty() {
            let idx = self.hand % self.slots.len();
            self.hand = self.hand.wrapping_add(1);
            match &mut self.slots[idx] {
                Some(slot) if slot.ref_bit => slot.ref_bit = false,
                Some(_) => {
                    self.remove_slot(idx);
                    self.evictions += 1;
                }
                None => {}
            }
        }
    }
}

/// The sharded hot-key cache itself. Clonable; clones share the shards.
///
/// Most integrations want [`CachedKvStore`], which pairs a `HotCache`
/// with an inner store and keeps the two coherent. The raw handle is
/// exposed for embedders that manage their own backing reads.
#[derive(Clone, Debug)]
pub struct HotCache {
    inner: Arc<CacheInner>,
}

/// Cache-lookup latency bucket bounds in nanoseconds. Hits are DRAM
/// map lookups (sub-microsecond); misses additionally pay the inner
/// store's read path, so the buckets span both regimes.
const CACHE_LATENCY_BOUNDS: [u64; 8] =
    [100, 500, 1_000, 5_000, 25_000, 100_000, 500_000, 2_000_000];

#[derive(Debug)]
struct CacheInner {
    shards: Box<[Mutex<Shard>]>,
    mask: u64,
    capacity_bytes: usize,
    /// GET latency served from the cache, one GET in [`Sampler::EVERY`].
    hit_latency_ns: Histogram,
    /// GET latency falling through to the store, sampled alike.
    miss_latency_ns: Histogram,
}

impl HotCache {
    /// Build a cache with no telemetry attached (its series go to a
    /// private registry nobody renders).
    ///
    /// # Panics
    /// Panics if `cfg` fails [`CacheConfig::validate`] (construct via
    /// [`CacheConfig::builder`] to catch this as an error instead).
    pub fn new(cfg: CacheConfig) -> Self {
        Self::with_telemetry(cfg, &TelemetryRegistry::with_journal_capacity(0))
    }

    /// Build a cache whose series are registered on `registry`
    /// (`e2nvm_cache_*` namespace): the hit and miss latency
    /// histograms, and a read-through source that reads
    /// [`HotCache::stats`] when a scrape renders. The source lives as
    /// long as the cache: once the last clone is dropped its series are
    /// gone from the registry.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`CacheConfig::validate`].
    pub fn with_telemetry(cfg: CacheConfig, registry: &TelemetryRegistry) -> Self {
        cfg.validate().expect("invalid CacheConfig");
        let budget = cfg.capacity_bytes / cfg.shards;
        let shards: Box<[Mutex<Shard>]> = (0..cfg.shards)
            .map(|_| {
                Mutex::new(Shard {
                    budget,
                    ..Shard::default()
                })
            })
            .collect();
        let latency =
            |name: &str, help: &str| registry.histogram(name, help, &CACHE_LATENCY_BOUNDS);
        let inner = Arc::new(CacheInner {
            shards,
            mask: cfg.shards as u64 - 1,
            capacity_bytes: cfg.capacity_bytes,
            hit_latency_ns: latency(
                "e2nvm_cache_hit_latency_ns",
                "GET latency when served from the cache, sampled 1 in 64",
            ),
            miss_latency_ns: latency(
                "e2nvm_cache_miss_latency_ns",
                "GET latency when falling through to the store, sampled 1 in 64",
            ),
        });
        registry.source(&inner, |inner: &CacheInner, out| {
            let s = inner.stats();
            for (name, help, value) in [
                ("hits", "Cache lookups served from DRAM", s.hits),
                (
                    "misses",
                    "Cache lookups that fell through to the store",
                    s.misses,
                ),
                (
                    "evictions",
                    "Entries evicted by the CLOCK hand",
                    s.evictions,
                ),
                (
                    "invalidations",
                    "Coherence invalidations from puts/deletes",
                    s.invalidations,
                ),
                (
                    "fills_dropped",
                    "Fills dropped because an invalidation raced the read",
                    s.fills_dropped,
                ),
            ] {
                out.counter(&format!("e2nvm_cache_{name}_total"), help, &[], value);
            }
            for (name, help, value) in [
                (
                    "occupancy_bytes",
                    "Bytes currently charged against the cache budget",
                    s.occupancy_bytes,
                ),
                ("entries", "Entries currently resident", s.entries),
            ] {
                out.gauge(&format!("e2nvm_cache_{name}"), help, &[], value as i64);
            }
        });
        Self { inner }
    }

    #[inline]
    fn shard(&self, key: u64) -> &Mutex<Shard> {
        &self.inner.shards[(hash64(key) & self.inner.mask) as usize]
    }

    /// Look `key` up. A hit clones the value out under the shard lock
    /// and marks the slot referenced; a miss returns the shard's
    /// coherence version for the eventual [`HotCache::fill`].
    pub fn lookup(&self, key: u64) -> Lookup {
        match self.lookup_apply(key, |bytes: &[u8]| bytes.to_vec()) {
            Ok(value) => Lookup::Hit(value),
            Err((version, _)) => Lookup::Miss { version },
        }
    }

    /// The allocation-free lookup underneath [`HotCache::lookup`]: a
    /// hit applies `f` to the value bytes *under the shard lock* (keep
    /// it short) and returns its result; a miss hands `f` back along
    /// with the shard's coherence version.
    fn lookup_apply<R, F: FnOnce(&[u8]) -> R>(
        &self,
        key: u64,
        f: F,
    ) -> std::result::Result<R, (u64, F)> {
        let mut shard = self.shard(key).lock();
        match shard.map.get(&key).copied() {
            Some(idx) => {
                shard.hits += 1;
                let slot = shard.slots[idx].as_mut().expect("mapped slot occupied");
                slot.ref_bit = true;
                Ok(f(&slot.value))
            }
            None => {
                shard.misses += 1;
                Err((shard.version, f))
            }
        }
    }

    /// Insert `value` for `key`, unless the shard's version moved past
    /// `version` (a writer invalidated between the caller's inner-store
    /// read and now — caching that read would resurrect a stale value).
    /// Values too large for a shard's budget are not cached. Returns
    /// whether the value is now resident.
    pub fn fill(&self, key: u64, value: &[u8], version: u64) -> bool {
        let need = Shard::charge(value.len());
        let mut shard = self.shard(key).lock();
        if shard.version != version {
            shard.fills_dropped += 1;
            return false;
        }
        if shard.map.contains_key(&key) {
            // A concurrent miss at the same version already filled this
            // key; both reads saw the same inner value.
            return true;
        }
        if need > shard.budget {
            return false;
        }
        shard.evict_until_fits(need);
        let idx = match shard.free.pop() {
            Some(idx) => idx,
            None => {
                shard.slots.push(None);
                shard.slots.len() - 1
            }
        };
        shard.slots[idx] = Some(Slot {
            key,
            value: value.into(),
            ref_bit: false,
        });
        shard.map.insert(key, idx);
        shard.used_bytes += need;
        true
    }

    /// Drop `key` if resident and bump the shard's coherence version
    /// unconditionally (also cancelling any in-flight fill for *any*
    /// key of the shard — correctness over precision). Returns whether
    /// a resident entry was removed.
    pub fn invalidate(&self, key: u64) -> bool {
        let mut shard = self.shard(key).lock();
        shard.version += 1;
        shard.invalidations += 1;
        match shard.map.get(&key).copied() {
            Some(idx) => {
                shard.remove_slot(idx);
                true
            }
            None => false,
        }
    }

    /// Aggregate counters across all shards.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

impl CacheInner {
    /// Aggregate counters across all shards, each read under one
    /// acquisition of its lock.
    fn stats(&self) -> CacheStats {
        let mut out = CacheStats {
            capacity_bytes: self.capacity_bytes,
            ..CacheStats::default()
        };
        for shard in self.shards.iter() {
            let s = shard.lock();
            out.hits += s.hits;
            out.misses += s.misses;
            out.evictions += s.evictions;
            out.invalidations += s.invalidations;
            out.fills_dropped += s.fills_dropped;
            out.entries += s.map.len();
            out.occupancy_bytes += s.used_bytes;
        }
        out
    }
}

/// A read-through cache wrapped around any [`NvmKvStore`].
///
/// * GET consults the cache first; only misses reach the inner store,
///   and successful reads are cached (guarded by the shard version so a
///   racing write can never resurrect a stale value).
/// * PUT/DELETE apply to the inner store first and invalidate before
///   returning — acknowledged writes are never followed by stale reads.
/// * SCAN bypasses the cache in both directions.
/// * A hit never touches the inner store, so cached keys stay readable
///   while the store is degraded.
///
/// Clones share both the cache and the inner store's shared state (for
/// [`crate::ShardedE2KvStore`], clones of the inner store already share
/// shards), which is how the server hands one coherent cache to every
/// connection thread.
#[derive(Clone, Debug)]
pub struct CachedKvStore<S> {
    inner: S,
    cache: HotCache,
    /// Which GETs, hit or miss, this handle times.
    clock: Sampler,
}

impl<S: NvmKvStore> CachedKvStore<S> {
    /// Wrap `inner` with a cache built from `cfg` (no telemetry).
    ///
    /// # Panics
    /// Panics if `cfg` fails [`CacheConfig::validate`].
    pub fn new(inner: S, cfg: CacheConfig) -> Self {
        Self::with_cache(inner, HotCache::new(cfg))
    }

    /// Wrap `inner` with a cache whose `e2nvm_cache_*` series are
    /// registered on `registry`.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`CacheConfig::validate`].
    pub fn with_telemetry(inner: S, cfg: CacheConfig, registry: &TelemetryRegistry) -> Self {
        Self::with_cache(inner, HotCache::with_telemetry(cfg, registry))
    }

    /// Wrap `inner` around an existing cache handle (shared with other
    /// wrappers).
    pub fn with_cache(inner: S, cache: HotCache) -> Self {
        Self {
            inner,
            cache,
            clock: Sampler::default(),
        }
    }

    /// Borrow the inner store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The shared cache handle.
    pub fn cache(&self) -> &HotCache {
        &self.cache
    }

    /// Aggregate cache counters (always available, telemetry feature or
    /// not).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// GET through the cache, applying `f` to the value bytes instead
    /// of returning an owned copy. On a hit `f` runs on the cached
    /// bytes *under the shard lock* (keep it short — e.g. encode into
    /// an output buffer), so the hot path allocates nothing. Misses
    /// behave exactly like [`NvmKvStore::get`]: read the inner store,
    /// fill, then apply `f` to the fetched value. One GET in
    /// [`Sampler::EVERY`] is timed.
    pub fn get_with<R>(&mut self, key: u64, f: impl FnOnce(&[u8]) -> R) -> Result<Option<R>> {
        let started = self.clock.start();
        match self.cache.lookup_apply(key, f) {
            Ok(r) => {
                self.cache.inner.hit_latency_ns.observe_since(started);
                Ok(Some(r))
            }
            Err((version, f)) => {
                let got = self.inner.get(key)?;
                let r = got.map(|value| {
                    self.cache.fill(key, &value, version);
                    f(&value)
                });
                self.cache.inner.miss_latency_ns.observe_since(started);
                Ok(r)
            }
        }
    }
}

impl<S: NvmKvStore> NvmKvStore for CachedKvStore<S> {
    fn name(&self) -> &'static str {
        "cached"
    }

    fn put(&mut self, key: u64, value: &[u8]) -> Result<()> {
        // Inner store first, invalidate before the ack. (The other
        // order is racy: a concurrent miss could re-fill the *old*
        // value after our invalidation but before our inner write.)
        // Invalidate even on error — a failed put may still have
        // changed the store (e.g. an index update whose recycle step
        // failed).
        let result = self.inner.put(key, value);
        self.cache.invalidate(key);
        result
    }

    fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>> {
        self.get_with(key, <[u8]>::to_vec)
    }

    fn delete(&mut self, key: u64) -> Result<bool> {
        let result = self.inner.delete(key);
        self.cache.invalidate(key);
        result
    }

    fn scan(&mut self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>> {
        self.inner.scan(lo, hi)
    }

    fn scan_limit(&mut self, lo: u64, hi: u64, limit: usize) -> Result<Vec<(u64, Vec<u8>)>> {
        self.inner.scan_limit(lo, hi, limit)
    }

    fn scan_visit(
        &mut self,
        lo: u64,
        hi: u64,
        limit: usize,
        f: &mut dyn FnMut(u64, &[u8]) -> bool,
    ) -> Result<usize> {
        self.inner.scan_visit(lo, hi, limit, f)
    }

    fn stats(&self) -> e2nvm_sim::DeviceStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn maintenance(&mut self) {
        self.inner.maintenance();
    }

    fn flush(&mut self) -> Result<u64> {
        // Snapshotting reads state, it doesn't change it — cached
        // entries stay valid, so no invalidation is needed.
        self.inner.flush()
    }

    fn commit(&mut self) -> Result<()> {
        self.inner.commit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2nvm_sim::DeviceStats;

    /// A scripted inner store: a plain map that can be switched into
    /// degraded mode, counting how many reads reach it.
    #[derive(Default)]
    struct MockStore {
        map: std::collections::BTreeMap<u64, Vec<u8>>,
        degraded: bool,
        inner_gets: u64,
    }

    impl NvmKvStore for MockStore {
        fn name(&self) -> &'static str {
            "mock"
        }
        fn put(&mut self, key: u64, value: &[u8]) -> Result<()> {
            if self.degraded {
                return Err(StoreError::Degraded { retired: 3 });
            }
            self.map.insert(key, value.to_vec());
            Ok(())
        }
        fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>> {
            self.inner_gets += 1;
            if self.degraded {
                return Err(StoreError::Degraded { retired: 3 });
            }
            Ok(self.map.get(&key).cloned())
        }
        fn delete(&mut self, key: u64) -> Result<bool> {
            Ok(self.map.remove(&key).is_some())
        }
        fn scan(&mut self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>> {
            Ok(self
                .map
                .range(lo..=hi)
                .map(|(k, v)| (*k, v.clone()))
                .collect())
        }
        fn stats(&self) -> DeviceStats {
            DeviceStats::default()
        }
        fn reset_stats(&mut self) {}
    }

    fn small_cache() -> CacheConfig {
        CacheConfig::builder()
            .capacity_bytes(4096)
            .shards(2)
            .build()
            .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(CacheConfig::builder().shards(3).build().is_err());
        assert!(CacheConfig::builder().shards(0).build().is_err());
        assert!(CacheConfig::builder()
            .capacity_bytes(1)
            .shards(8)
            .build()
            .is_err());
        let cfg = CacheConfig::builder()
            .capacity_bytes(1024)
            .shards(4)
            .build()
            .unwrap();
        assert_eq!(cfg.shards, 4);
    }

    #[test]
    fn read_through_and_hit_serving() {
        let mut s = CachedKvStore::new(MockStore::default(), small_cache());
        s.put(1, b"one").unwrap();
        assert_eq!(s.get(1).unwrap().as_deref(), Some(&b"one"[..]));
        let after_first = s.inner().inner_gets;
        // Second read: pure DRAM, the inner store sees nothing.
        assert_eq!(s.get(1).unwrap().as_deref(), Some(&b"one"[..]));
        assert_eq!(s.inner().inner_gets, after_first);
        let stats = s.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!(stats.occupancy_bytes > 0);
    }

    #[test]
    fn hit_and_miss_counts_are_exact_and_their_latencies_sampled() {
        let registry = TelemetryRegistry::new();
        let cfg = CacheConfig::builder()
            .capacity_bytes(64 * 1024)
            .shards(2)
            .build()
            .unwrap();
        let mut s = CachedKvStore::with_telemetry(MockStore::default(), cfg, &registry);
        for key in 0..128u64 {
            s.put(key, &key.to_le_bytes()).unwrap();
        }
        // `get` and `get_with` are one timed path with one sampler:
        // 128 misses are GETs 1..=128 (sampled: 1, 65), 200 hits GETs
        // 129..=328 (sampled: 129, 193, 257, 321).
        for key in 0..128u64 {
            s.get(key).unwrap();
        }
        for i in 0..200u64 {
            assert_eq!(s.get_with(i % 128, <[u8]>::len).unwrap(), Some(8));
        }
        let samples = |name| registry.histogram(name, "", &[]).count();
        assert_eq!(registry.counter_total("e2nvm_cache_misses_total"), 128);
        assert_eq!(samples("e2nvm_cache_miss_latency_ns"), 2);
        assert_eq!(registry.counter_total("e2nvm_cache_hits_total"), 200);
        assert_eq!(samples("e2nvm_cache_hit_latency_ns"), 4);
    }

    #[test]
    fn occupancy_gauges_leave_with_their_cache() {
        let registry = TelemetryRegistry::new();
        let gauge = |name: &str| {
            let text = registry.render_prometheus();
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse::<i64>().ok())
                .unwrap_or_else(|| panic!("{name} missing:\n{text}"))
        };
        let filled = HotCache::with_telemetry(small_cache(), &registry);
        for key in 0..3u64 {
            assert!(filled.fill(key, b"value", 0));
        }
        assert_eq!(gauge("e2nvm_cache_entries"), 3);
        assert!(gauge("e2nvm_cache_occupancy_bytes") > 0);
        drop(filled);
        // A second, empty cache on the same registry reads as empty.
        let _empty = HotCache::with_telemetry(small_cache(), &registry);
        assert_eq!(gauge("e2nvm_cache_entries"), 0);
        assert_eq!(gauge("e2nvm_cache_occupancy_bytes"), 0);
        assert_eq!(registry.counter_total("e2nvm_cache_misses_total"), 0);
    }

    #[test]
    fn put_and_delete_invalidate() {
        let mut s = CachedKvStore::new(MockStore::default(), small_cache());
        s.put(1, b"v1").unwrap();
        s.get(1).unwrap();
        s.put(1, b"v2").unwrap();
        // No stale read after the acknowledged overwrite.
        assert_eq!(s.get(1).unwrap().as_deref(), Some(&b"v2"[..]));
        s.delete(1).unwrap();
        assert_eq!(s.get(1).unwrap(), None);
        // Negative results are not cached: a later put is visible.
        s.put(1, b"v3").unwrap();
        assert_eq!(s.get(1).unwrap().as_deref(), Some(&b"v3"[..]));
    }

    #[test]
    fn degraded_store_still_serves_cached_keys() {
        let mut s = CachedKvStore::new(MockStore::default(), small_cache());
        s.put(7, b"resident").unwrap();
        s.get(7).unwrap(); // cache it
        s.inner.degraded = true;
        // Cached key: served from DRAM, no error.
        assert_eq!(s.get(7).unwrap().as_deref(), Some(&b"resident"[..]));
        // Uncached key: the store's degraded error surfaces unchanged.
        assert_eq!(s.get(8), Err(StoreError::Degraded { retired: 3 }));
    }

    #[test]
    fn stale_fill_is_dropped_after_version_bump() {
        let cache = HotCache::new(small_cache());
        let Lookup::Miss { version } = cache.lookup(5) else {
            panic!("expected miss");
        };
        // A writer invalidates between the miss and the fill.
        cache.invalidate(5);
        assert!(!cache.fill(5, b"stale", version), "stale fill must drop");
        assert_eq!(
            cache.lookup(5),
            Lookup::Miss {
                version: version + 1
            }
        );
        assert_eq!(cache.stats().fills_dropped, 1);
    }

    #[test]
    fn bounded_by_byte_budget_with_clock_eviction() {
        // One shard, tiny budget: 4 entries of 100B + overhead fit,
        // the 5th evicts.
        let cfg = CacheConfig::builder()
            .capacity_bytes(4 * (100 + ENTRY_OVERHEAD_BYTES))
            .shards(1)
            .build()
            .unwrap();
        let cache = HotCache::new(cfg.clone());
        for key in 0..5u64 {
            let Lookup::Miss { version } = cache.lookup(key) else {
                panic!("fresh key must miss");
            };
            assert!(cache.fill(key, &[key as u8; 100], version));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 4);
        assert_eq!(stats.evictions, 1);
        assert!(stats.occupancy_bytes <= cfg.capacity_bytes);
        // Values larger than the whole budget are never cached.
        let Lookup::Miss { version } = cache.lookup(99) else {
            panic!();
        };
        assert!(!cache.fill(99, &vec![0u8; cfg.capacity_bytes + 1], version));
    }

    #[test]
    fn clock_hits_protect_hot_entries_from_one_touch_scans() {
        let cfg = CacheConfig::builder()
            .capacity_bytes(4 * (100 + ENTRY_OVERHEAD_BYTES))
            .shards(1)
            .build()
            .unwrap();
        let cache = HotCache::new(cfg);
        let fill = |key: u64| {
            if let Lookup::Miss { version } = cache.lookup(key) {
                cache.fill(key, &[key as u8; 100], version);
            }
        };
        fill(1);
        // Re-reference key 1: its ref bit protects it.
        assert!(matches!(cache.lookup(1), Lookup::Hit(_)));
        // Stream cold keys through the remaining space.
        for key in 10..16u64 {
            fill(key);
        }
        // The hot key survived the cold stream.
        assert!(
            matches!(cache.lookup(1), Lookup::Hit(_)),
            "hot key evicted by one-touch traffic"
        );
    }

    #[test]
    fn scan_bypasses_cache() {
        let mut s = CachedKvStore::new(MockStore::default(), small_cache());
        s.put(1, b"x").unwrap();
        s.put(2, b"y").unwrap();
        let scanned = s.scan(0, 10).unwrap();
        assert_eq!(scanned.len(), 2);
        // Scans must not populate the cache.
        assert_eq!(s.cache_stats().entries, 0);
        let limited = s.scan_limit(0, 10, 1).unwrap();
        assert_eq!(limited.len(), 1);
    }

    #[test]
    fn shared_clones_stay_coherent() {
        // Clones of the wrapper share the cache: writes through one
        // clone invalidate reads through the other. Use an Arc'd mock
        // via HotCache directly to avoid needing a Clone mock.
        let cache = HotCache::new(small_cache());
        let cache2 = cache.clone();
        let Lookup::Miss { version } = cache.lookup(1) else {
            panic!();
        };
        assert!(cache.fill(1, b"v", version));
        assert!(matches!(cache2.lookup(1), Lookup::Hit(_)));
        cache2.invalidate(1);
        assert!(matches!(cache.lookup(1), Lookup::Miss { .. }));
    }
}
