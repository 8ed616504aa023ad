//! The four workloads and their inputs. Everything here is a pure
//! function of `--seed`: the value pool, each connection's op trace,
//! and the request frames encoded from it before any clock starts.

use crate::geometry::{
    CONNECTIONS, PIPELINE_DEPTH, POOL_ITEMS, RECORDS, SCAN_MAX_RECORDS, TRACE_OPS_PER_CONN,
    VALUE_BYTES, ZIPF_THETA,
};
use e2nvm_server::frame::{encode_request, Request};
use e2nvm_workloads::datasets::DatasetKind;
use e2nvm_workloads::zipf::{scramble, Zipfian};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// One workload: its op mix and the cache it runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Name used on the command line and in every report.
    pub name: &'static str,
    /// Why the workload exists (copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// Percent of ops that are GETs.
    pub get_pct: u32,
    /// Percent of ops that are PUTs; the rest are SCAN_STREAMs.
    pub put_pct: u32,
    /// Records the server's cache is sized for.
    pub cache_records: usize,
    /// Size the cache to exactly that many records (so it evicts)
    /// rather than with slack (so it never does).
    pub cache_exact: bool,
}

/// The workloads, in report order. Later issues refer to these names.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "put_clustered",
        why: "100% PUT of class-structured values on Zipfian keys: model, DAP, device write, WAL and engine do the work; the only place flips_per_write shows placement quality",
        get_pct: 0,
        put_pct: 100,
        cache_records: RECORDS,
        cache_exact: false,
    },
    Spec {
        name: "read_hot",
        why: "100% GET with every record cached: wire, frame and cache do all the work and the write path none, so a write-path change must read no change here",
        get_pct: 100,
        put_pct: 0,
        cache_records: RECORDS,
        cache_exact: false,
    },
    Spec {
        name: "mixed_a",
        why: "50% GET / 50% PUT, cache sized to 25% of the records: reads share cache, shard mutex and device with writes, so a gain for one side that costs the other shows",
        get_pct: 50,
        put_pct: 50,
        cache_records: RECORDS / 4,
        cache_exact: true,
    },
    Spec {
        name: "scan_short",
        why: "95% SCAN_STREAM of 1-100 records / 5% PUT: index range walk, many device reads per op and multi-frame encoding; bypasses the cache; the slowest op class",
        get_pct: 0,
        put_pct: 5,
        cache_records: RECORDS,
        cache_exact: false,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One request. `rank` is a key's popularity rank (see [`Keys`]);
/// `value` indexes the value pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read the key of `rank`.
    Get { rank: u32 },
    /// Write pool item `value` under the key of `rank`.
    Put { rank: u32, value: u32 },
    /// Stream up to `limit` records from the key of `rank` upwards,
    /// within the issuing connection's half of the key space.
    Scan { rank: u32, limit: u32 },
}

/// The key space: `RECORDS` keys, one per popularity rank. Rank `r`
/// belongs to connection `r % 2`, and that connection's keys all sort
/// below (connection 0) or above (connection 1) the other's, so a scan
/// bounded to the owner's half only ever returns the owner's keys and
/// every reply is checkable against one connection's oracle.
#[derive(Debug)]
pub struct Keys {
    /// Key of each rank.
    pub key_of_rank: Vec<u64>,
    /// `(key, rank)` ascending by key.
    pub sorted: Vec<(u64, u32)>,
    /// Position in `sorted` of each rank's key.
    pub pos_of_rank: Vec<u32>,
}

impl Keys {
    /// Build the key space (independent of the seed).
    ///
    /// # Panics
    /// Panics if two ranks scramble to one key.
    pub fn new() -> Self {
        let key_of_rank: Vec<u64> = (0..RECORDS as u64)
            .map(|r| ((r & 1) << 63) | (scramble(r) >> 1))
            .collect();
        let mut sorted: Vec<(u64, u32)> = key_of_rank
            .iter()
            .enumerate()
            .map(|(r, &k)| (k, r as u32))
            .collect();
        sorted.sort_unstable();
        assert!(
            sorted.windows(2).all(|w| w[0].0 != w[1].0),
            "scrambled keys collide"
        );
        let mut pos_of_rank = vec![0u32; RECORDS];
        for (pos, &(_, rank)) in sorted.iter().enumerate() {
            pos_of_rank[rank as usize] = pos as u32;
        }
        Self {
            key_of_rank,
            sorted,
            pos_of_rank,
        }
    }

    /// Inclusive upper bound of the half of the key space `rank`'s
    /// owner scans within.
    pub fn scan_hi(rank: u32) -> u64 {
        if rank & 1 == 0 {
            (1 << 63) - 1
        } else {
            u64::MAX
        }
    }

    /// The `(key, rank)` entries a scan from `rank` with `limit` must
    /// return, given that every record stays present.
    pub fn scan_expect(&self, rank: u32, limit: u32) -> &[(u64, u32)] {
        let start = self.pos_of_rank[rank as usize] as usize;
        // Connection 0's keys are the lower half of `sorted`.
        let half_end = if rank & 1 == 0 { RECORDS / 2 } else { RECORDS };
        &self.sorted[start..(start + limit as usize).min(half_end)]
    }
}

/// An op sequence with its request frames encoded back to back.
#[derive(Debug, Default)]
pub struct Trace {
    /// The ops, in issue order.
    pub ops: Vec<Op>,
    /// Their encoded request frames, concatenated.
    pub frames: Vec<u8>,
    /// End offset in `frames` of each op's frame.
    pub ends: Vec<u32>,
}

impl Trace {
    fn push(&mut self, op: Op, keys: &Keys, pool: &[Vec<u8>]) {
        let req = match op {
            Op::Get { rank } => Request::Get {
                key: keys.key_of_rank[rank as usize],
            },
            Op::Put { rank, value } => Request::Put {
                key: keys.key_of_rank[rank as usize],
                value: pool[value as usize].clone(),
            },
            Op::Scan { rank, limit } => Request::ScanStream {
                lo: keys.key_of_rank[rank as usize],
                hi: Keys::scan_hi(rank),
                limit,
            },
        };
        encode_request(&req, &mut self.frames);
        self.ops.push(op);
        self.ends
            .push(u32::try_from(self.frames.len()).expect("trace frames fit in 4 GiB"));
    }

    fn extend_from(&mut self, other: &Trace, range: std::ops::Range<usize>) {
        let bytes = other.frames_of(range.clone());
        self.frames.extend_from_slice(bytes);
        let shift = self.frames.len() - bytes.len() - other.start_of(range.start);
        self.ops.extend_from_slice(&other.ops[range.clone()]);
        self.ends.extend(
            other.ends[range]
                .iter()
                .map(|&e| (e as usize + shift) as u32),
        );
    }

    fn start_of(&self, op: usize) -> usize {
        if op == 0 {
            0
        } else {
            self.ends[op - 1] as usize
        }
    }

    /// The encoded frames of ops `range`, contiguous.
    pub fn frames_of(&self, range: std::ops::Range<usize>) -> &[u8] {
        &self.frames[self.start_of(range.start)..self.start_of(range.end)]
    }
}

/// What fills the value pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Class-structured MNIST-like items: what every workload uses.
    MnistLike,
    /// Uniform-random bytes: the control that shows content-aware
    /// placement has nothing to hold on to (attribution.md only).
    Random,
}

/// Everything a run feeds the program, generated before any clock.
#[derive(Debug)]
pub struct Inputs {
    /// The key space.
    pub keys: Keys,
    /// The value pool PUTs (and the load) draw from.
    pub pool: Vec<Vec<u8>>,
    /// The load: one PUT per record, in rank order, pool item = rank.
    pub load: Trace,
    /// Each connection's trace over its own half of the ranks.
    pub conns: Vec<Trace>,
    /// The connections' traces interleaved one pipeline batch at a
    /// time — the order a single-threaded replay applies them in.
    pub merged: Trace,
    /// FNV-1a digest of every encoded frame above.
    pub digest: u64,
}

impl Inputs {
    /// Generate the inputs of `spec` from `seed`.
    pub fn generate(spec: &Spec, seed: u64, pool_kind: PoolKind) -> Self {
        let keys = Keys::new();
        let mut pool_rng = StdRng::seed_from_u64(seed ^ 0x9001_F00D);
        let pool = match pool_kind {
            PoolKind::MnistLike => DatasetKind::MnistLike.generate(POOL_ITEMS, &mut pool_rng),
            PoolKind::Random => (0..POOL_ITEMS)
                .map(|_| {
                    let mut item = vec![0u8; VALUE_BYTES];
                    pool_rng.fill_bytes(&mut item);
                    item
                })
                .collect(),
        };
        assert!(pool.iter().all(|v| v.len() == VALUE_BYTES));

        let mut load = Trace::default();
        for rank in 0..RECORDS as u32 {
            load.push(Op::Put { rank, value: rank }, &keys, &pool);
        }

        let zipf = Zipfian::with_theta(RECORDS / CONNECTIONS, ZIPF_THETA);
        let conns: Vec<Trace> = (0..CONNECTIONS)
            .map(|conn| {
                let mut rng = StdRng::seed_from_u64(
                    seed.wrapping_add((conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                );
                let mut trace = Trace::default();
                for _ in 0..TRACE_OPS_PER_CONN {
                    let rank = (zipf.sample(&mut rng) * CONNECTIONS + conn) as u32;
                    let roll = rng.gen_range(0..100u32);
                    let op = if roll < spec.get_pct {
                        Op::Get { rank }
                    } else if roll < spec.get_pct + spec.put_pct {
                        Op::Put {
                            rank,
                            value: rng.gen_range(0..POOL_ITEMS as u32),
                        }
                    } else {
                        Op::Scan {
                            rank,
                            limit: rng.gen_range(1..=SCAN_MAX_RECORDS),
                        }
                    };
                    trace.push(op, &keys, &pool);
                }
                trace
            })
            .collect();

        let mut merged = Trace::default();
        for first in (0..TRACE_OPS_PER_CONN).step_by(PIPELINE_DEPTH) {
            for conn in &conns {
                merged.extend_from(conn, first..first + PIPELINE_DEPTH);
            }
        }

        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        for trace in std::iter::once(&load).chain(&conns) {
            for &b in &trace.frames {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        Self {
            keys,
            pool,
            load,
            conns,
            merged,
            digest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_a_pure_function_of_the_seed() {
        for w in &WORKLOADS {
            let a = Inputs::generate(w, 7, PoolKind::MnistLike);
            let b = Inputs::generate(w, 7, PoolKind::MnistLike);
            let c = Inputs::generate(w, 8, PoolKind::MnistLike);
            assert_eq!(a.digest, b.digest, "{}", w.name);
            assert_eq!(a.merged.frames, b.merged.frames, "{}", w.name);
            assert_ne!(a.digest, c.digest, "{}", w.name);
        }
    }

    #[test]
    fn mixes_match_their_specs() {
        for w in &WORKLOADS {
            let inputs = Inputs::generate(w, 1, PoolKind::MnistLike);
            let n = inputs.merged.ops.len() as f64;
            assert_eq!(inputs.merged.ops.len(), CONNECTIONS * TRACE_OPS_PER_CONN);
            let gets = inputs
                .merged
                .ops
                .iter()
                .filter(|op| matches!(op, Op::Get { .. }))
                .count() as f64;
            let puts = inputs
                .merged
                .ops
                .iter()
                .filter(|op| matches!(op, Op::Put { .. }))
                .count() as f64;
            assert!(
                (gets / n * 100.0 - f64::from(w.get_pct)).abs() < 1.0,
                "{}",
                w.name
            );
            assert!(
                (puts / n * 100.0 - f64::from(w.put_pct)).abs() < 1.0,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn connections_own_disjoint_ordered_halves() {
        let keys = Keys::new();
        let (lower, upper) = keys.sorted.split_at(RECORDS / 2);
        assert!(lower
            .iter()
            .all(|&(k, r)| r % 2 == 0 && k <= Keys::scan_hi(0)));
        assert!(upper
            .iter()
            .all(|&(k, r)| r % 2 == 1 && k > Keys::scan_hi(0)));
        // A scan near the top of a half is cut at the half's end.
        let (_, top_rank) = lower[RECORDS / 2 - 3];
        assert_eq!(keys.scan_expect(top_rank, 100).len(), 3);
        let (_, low_rank) = upper[0];
        assert_eq!(keys.scan_expect(low_rank, 7).len(), 7);
        let inputs = Inputs::generate(&WORKLOADS[3], 3, PoolKind::MnistLike);
        for (conn, trace) in inputs.conns.iter().enumerate() {
            assert!(trace.ops.iter().all(|op| match *op {
                Op::Get { rank } | Op::Put { rank, .. } | Op::Scan { rank, .. } =>
                    rank as usize % CONNECTIONS == conn,
            }));
        }
    }

    #[test]
    fn merged_trace_interleaves_whole_batches_with_matching_frames() {
        let inputs = Inputs::generate(&WORKLOADS[2], 5, PoolKind::MnistLike);
        let d = PIPELINE_DEPTH;
        assert_eq!(&inputs.merged.ops[..d], &inputs.conns[0].ops[..d]);
        assert_eq!(&inputs.merged.ops[d..2 * d], &inputs.conns[1].ops[..d]);
        assert_eq!(
            &inputs.merged.ops[2 * d..3 * d],
            &inputs.conns[0].ops[d..2 * d]
        );
        assert_eq!(
            inputs.merged.frames_of(d..2 * d),
            inputs.conns[1].frames_of(0..d)
        );
        assert_eq!(
            inputs.merged.frames_of(2 * d..3 * d),
            inputs.conns[0].frames_of(d..2 * d)
        );
        assert_eq!(
            inputs.merged.frames.len(),
            *inputs.merged.ends.last().unwrap() as usize
        );
    }
}
