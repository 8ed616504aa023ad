//! Range scans against an oracle: whatever the shard count, key set,
//! range and limit, [`ShardedEngine::scan_limit`], the store's
//! [`NvmKvStore::scan_limit`] and its visiting form
//! [`NvmKvStore::scan_visit`] all return exactly what a `BTreeMap`
//! returns — same keys, same order, same bytes — and a scan costs
//! exactly the device reads the design says it does: Σ over shards of
//! min(`limit`, matches in that shard), losers included, although only
//! the winners are ever visited — and a visit that stops early is
//! charged no less.

use e2nvm_core::{E2Config, ShardedEngine};
use e2nvm_kvstore::{NvmKvStore, ShardedE2KvStore};
use e2nvm_sim::{partition_controllers, DeviceConfig, LogicalSegment};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::OnceLock;

const SEG_BYTES: usize = 32;
const SEGMENTS: usize = 384;

/// A trained, empty `shards`-way engine and a store over it (they
/// share the shards).
fn build(shards: usize) -> (ShardedEngine, ShardedE2KvStore) {
    let dev_cfg = DeviceConfig::builder()
        .segment_bytes(SEG_BYTES)
        .num_segments(SEGMENTS)
        .build()
        .unwrap();
    let cfg = E2Config::builder()
        .fast(SEG_BYTES, 2)
        .pretrain_epochs(2)
        .joint_epochs(1)
        .retrain_min_free(0)
        .padding_type(e2nvm_core::PaddingType::Zero)
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(31);
    let controllers = partition_controllers(&dev_cfg, shards)
        .unwrap()
        .into_iter()
        .map(|(_, mut mc)| {
            for i in 0..mc.num_segments() {
                let base = if i % 2 == 0 { 0x00u8 } else { 0xFF };
                let content: Vec<u8> = (0..SEG_BYTES)
                    .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
                    .collect();
                mc.seed(LogicalSegment(i), &content).unwrap();
            }
            mc
        })
        .collect();
    let engine = ShardedEngine::train(controllers, &cfg).unwrap();
    (engine.clone(), ShardedE2KvStore::new(engine))
}

/// One engine + store per shard count 1..=5, trained once; every case
/// works on clones and leaves them empty again.
fn stacks() -> &'static [(ShardedEngine, ShardedE2KvStore)] {
    static STACKS: OnceLock<Vec<(ShardedEngine, ShardedE2KvStore)>> = OnceLock::new();
    STACKS.get_or_init(|| (1..=5).map(build).collect())
}

/// Keys that collide with range bounds: a dense low universe, the top
/// of the key space, and anything in between.
fn arb_key() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..48, (0u64..4).prop_map(|d| u64::MAX - d), any::<u64>(),]
}

/// One step of a history: a value to put, or — one step in four —
/// `None`, a delete of the key, present or not.
fn arb_step() -> impl Strategy<Value = Option<Vec<u8>>> {
    (
        0u8..4,
        proptest::collection::vec(any::<u8>(), 0..SEG_BYTES + 1),
    )
        .prop_map(|(op, value)| (op != 0).then_some(value))
}

/// The limit of a scan, relative to how many entries match.
#[derive(Debug, Clone, Copy)]
enum Limit {
    One,
    Half,
    Exact,
    Larger,
    Unbounded,
}

impl Limit {
    fn resolve(self, matches: usize) -> usize {
        match self {
            Limit::One => 1,
            Limit::Half => (matches / 2).max(1),
            Limit::Exact => matches.max(1),
            Limit::Larger => matches + 3,
            Limit::Unbounded => usize::MAX,
        }
    }
}

fn arb_limit() -> impl Strategy<Value = Limit> {
    prop_oneof![
        Just(Limit::One),
        Just(Limit::Half),
        Just(Limit::Exact),
        Just(Limit::Larger),
        Just(Limit::Unbounded),
    ]
}

/// What the oracle says `lo..=hi` limited to `limit` holds. An
/// inverted range is empty.
fn expect(oracle: &BTreeMap<u64, Vec<u8>>, lo: u64, hi: u64, limit: usize) -> Vec<(u64, Vec<u8>)> {
    if lo > hi {
        return Vec::new();
    }
    oracle
        .range(lo..=hi)
        .take(limit)
        .map(|(&k, v)| (k, v.clone()))
        .collect()
}

/// The device reads a scan of `lo..=hi` limited to `limit` costs: every
/// shard is charged for up to `limit` of its own matches.
fn expected_reads(
    engine: &ShardedEngine,
    oracle: &BTreeMap<u64, Vec<u8>>,
    lo: u64,
    hi: u64,
    limit: usize,
) -> u64 {
    let mut per_shard = vec![0usize; engine.num_shards()];
    for &(key, _) in &expect(oracle, lo, hi, usize::MAX) {
        per_shard[engine.shard_for(key)] += 1;
    }
    per_shard.iter().map(|&m| m.min(limit) as u64).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scans_match_a_btreemap_at_every_layer(
        shards in 1usize..=5,
        history in proptest::collection::vec((arb_key(), arb_step()), 0..60),
        ranges in proptest::collection::vec((arb_key(), arb_key(), arb_limit()), 1..12),
    ) {
        let (engine, store) = &stacks()[shards - 1];
        let mut store = store.clone();
        let mut oracle = BTreeMap::new();
        for (key, value) in &history {
            match value {
                Some(value) => {
                    store.put(*key, value).unwrap();
                    oracle.insert(*key, value.clone());
                }
                None => {
                    prop_assert_eq!(store.delete(*key).unwrap(), oracle.remove(key).is_some());
                }
            }
        }
        // The drawn ranges (inverted ones included), plus the two the
        // draw is unlikely to hit: everything, and nothing.
        let gap = (48..u64::MAX - 4).find(|k| !oracle.contains_key(k)).unwrap();
        let fixed = [(0, u64::MAX, Limit::Unbounded), (gap, gap, Limit::Larger)];
        for &(lo, hi, limit) in ranges.iter().chain(&fixed) {
            let matches = expect(&oracle, lo, hi, usize::MAX).len();
            let limit = limit.resolve(matches);
            let want = expect(&oracle, lo, hi, limit);

            prop_assert_eq!(&engine.scan_limit(lo, hi, limit).unwrap(), &want);
            prop_assert_eq!(&store.scan_limit(lo, hi, limit).unwrap(), &want);

            let mut visited = Vec::new();
            let reads_before = store.stats().reads;
            let n = store
                .scan_visit(lo, hi, limit, &mut |k, v| {
                    visited.push((k, v.to_vec()));
                    true
                })
                .unwrap();
            prop_assert_eq!(n, want.len());
            prop_assert_eq!(&visited, &want);
            prop_assert_eq!(
                store.stats().reads - reads_before,
                expected_reads(engine, &oracle, lo, hi, limit)
            );

            // A visitor that has seen enough stops the visit there, and
            // the scan is charged in full all the same.
            let stop_after = want.len() / 2 + 1;
            let mut seen = 0;
            let reads_before = store.stats().reads;
            let n = store
                .scan_visit(lo, hi, limit, &mut |_, _| {
                    seen += 1;
                    seen < stop_after
                })
                .unwrap();
            prop_assert_eq!(n, stop_after.min(want.len()));
            prop_assert_eq!(
                store.stats().reads - reads_before,
                expected_reads(engine, &oracle, lo, hi, limit)
            );
        }
        prop_assert_eq!(&engine.scan(0, u64::MAX).unwrap(), &expect(&oracle, 0, u64::MAX, usize::MAX));
        for key in oracle.keys() {
            prop_assert!(store.delete(*key).unwrap());
        }
    }
}

/// The device reads one scan costs: every shard is charged for up to
/// `limit` of its own matches — its winners among the lowest `limit`
/// overall, plus its losers, counted — Σ over shards of min(`limit`,
/// matches in that shard). The
/// benchmark's shadow engine assumes exactly this
/// (`benchmark/src/replay.rs`); reading only the winners changes both
/// on purpose, together.
#[test]
fn a_scan_reads_up_to_the_limit_from_every_shard() {
    let (engine, mut store) = build(3);
    for key in 0..90u64 {
        store.put(key, &[key as u8; 20]).unwrap();
    }
    for (lo, hi, limit) in [
        (0, 89, 10),
        (0, 89, 1),
        (0, 89, usize::MAX),
        (40, 49, 100),
        (7, 7, 5),
        (90, 200, 5),
        (50, 10, 5),
    ] {
        let mut per_shard = [0usize; 3];
        if lo <= hi {
            for key in (lo..=hi).filter(|k| *k < 90) {
                per_shard[engine.shard_for(key)] += 1;
            }
        }
        let want: u64 = per_shard.iter().map(|&m| m.min(limit) as u64).sum();
        let returned = per_shard.iter().sum::<usize>().min(limit);

        let before = store.stats().reads;
        let n = store.scan_visit(lo, hi, limit, &mut |_, _| true).unwrap();
        assert_eq!(n, returned, "scan({lo}, {hi}, {limit}) returned");
        assert_eq!(
            store.stats().reads - before,
            want,
            "scan({lo}, {hi}, {limit}) device reads"
        );
    }
}

/// A visitor that returns `false` at once sees one entry, yet the scan
/// is charged exactly what a full visit is — the charge is settled
/// before the first visit — and it leaves nothing behind: the scans
/// after it still match the oracle, reads included.
#[test]
fn a_visit_stopped_early_is_charged_in_full_and_leaves_no_trace() {
    let (engine, mut store) = build(3);
    let mut oracle = BTreeMap::new();
    for key in (0..120u64).map(|k| k * 3) {
        let value = vec![key as u8; (key % 31) as usize];
        store.put(key, &value).unwrap();
        oracle.insert(key, value);
    }
    for (lo, hi, limit) in [
        (0, 400, 50),
        (30, 200, 7),
        (0, u64::MAX, usize::MAX),
        (5, 5, 3),
    ] {
        let before = store.stats().reads;
        let mut first = None;
        let n = store
            .scan_visit(lo, hi, limit, &mut |k, v| {
                first = Some((k, v.to_vec()));
                false
            })
            .unwrap();
        let want = expect(&oracle, lo, hi, limit);
        assert_eq!(n, want.len().min(1), "scan({lo}, {hi}, {limit})");
        assert_eq!(first, want.first().cloned(), "scan({lo}, {hi}, {limit})");
        assert_eq!(
            store.stats().reads - before,
            expected_reads(&engine, &oracle, lo, hi, limit),
            "scan({lo}, {hi}, {limit}) stopped at once"
        );

        let before = store.stats().reads;
        assert_eq!(store.scan_limit(lo, hi, limit).unwrap(), want);
        assert_eq!(engine.scan_limit(lo, hi, limit).unwrap(), want);
        assert_eq!(
            store.stats().reads - before,
            2 * expected_reads(&engine, &oracle, lo, hi, limit),
            "scan({lo}, {hi}, {limit}) after the early stop"
        );
    }
}

/// The merge's edge cases, fixed: every winner routed to one shard
/// (the other shards' matches are all losers, counted, charged and
/// never visited), and a limit of 1 (one winner among one head per
/// shard).
#[test]
fn one_shard_takes_every_winner_and_limit_one_takes_the_least_head() {
    let (engine, mut store) = build(3);
    let low: Vec<u64> = (0..)
        .filter(|&k| engine.shard_for(k) == 1)
        .take(12)
        .collect();
    let high: Vec<u64> = (1_000..1_040).collect();
    assert!(low[11] < high[0]);
    let mut oracle = BTreeMap::new();
    for &key in low.iter().chain(&high) {
        let value = vec![key as u8 ^ 0x5A; (key % 29) as usize];
        store.put(key, &value).unwrap();
        oracle.insert(key, value);
    }
    for (lo, hi, limit) in [
        (0, u64::MAX, 12),
        (0, u64::MAX, 5),
        (low[3], 1_039, 9),
        (0, u64::MAX, 1),
        (low[4] + 1, u64::MAX, 1),
        (1_000, 1_039, 1),
    ] {
        let want = expect(&oracle, lo, hi, limit);
        let before = store.stats().reads;
        let mut visited = Vec::new();
        let n = store
            .scan_visit(lo, hi, limit, &mut |k, v| {
                visited.push((k, v.to_vec()));
                true
            })
            .unwrap();
        assert_eq!(n, want.len(), "scan({lo}, {hi}, {limit})");
        assert_eq!(visited, want, "scan({lo}, {hi}, {limit})");
        assert_eq!(
            store.stats().reads - before,
            expected_reads(&engine, &oracle, lo, hi, limit),
            "scan({lo}, {hi}, {limit}) device reads"
        );
    }
    // The first two cases' winners are shard 1's alone.
    let first = expect(&oracle, 0, u64::MAX, 12);
    assert!(first.iter().all(|&(k, _)| engine.shard_for(k) == 1));
}
