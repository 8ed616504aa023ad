//! A native YCSB-compatible workload generator (Cooper et al., SoCC
//! '10): the six core workloads A–F with their standard operation
//! mixes and request distributions, as used in the paper's §5.2.1.

use crate::zipf::{scramble, Latest, Zipfian};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One generated operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operation {
    /// Read one key.
    Read(u64),
    /// Overwrite an existing key.
    Update(u64, Vec<u8>),
    /// Insert a new key.
    Insert(u64, Vec<u8>),
    /// Range scan from a key, with a record count.
    Scan(u64, usize),
    /// Read-modify-write of one key.
    ReadModifyWrite(u64, Vec<u8>),
}

impl Operation {
    /// The key the operation addresses.
    pub fn key(&self) -> u64 {
        match self {
            Operation::Read(k)
            | Operation::Update(k, _)
            | Operation::Insert(k, _)
            | Operation::Scan(k, _)
            | Operation::ReadModifyWrite(k, _) => *k,
        }
    }
}

/// Request-distribution choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Distribution {
    /// Scrambled zipfian (workloads A, B, C, E, F).
    Zipfian,
    /// Skewed toward recent inserts (workload D).
    Latest,
    /// Uniform.
    Uniform,
}

/// Operation mix (proportions sum to 1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mix {
    /// Proportion of reads.
    pub read: f64,
    /// Proportion of updates.
    pub update: f64,
    /// Proportion of inserts.
    pub insert: f64,
    /// Proportion of scans.
    pub scan: f64,
    /// Proportion of read-modify-writes.
    pub rmw: f64,
}

/// The workload generator.
#[derive(Debug)]
pub struct Ycsb {
    name: &'static str,
    mix: Mix,
    dist: Distribution,
    value_len: usize,
    record_count: u64,
    zipf: Zipfian,
    latest: Latest,
    max_scan: usize,
    rng: StdRng,
}

impl Ycsb {
    fn new(
        name: &'static str,
        mix: Mix,
        dist: Distribution,
        record_count: u64,
        value_len: usize,
        seed: u64,
    ) -> Self {
        let n = record_count.max(1) as usize;
        Self {
            name,
            mix,
            dist,
            value_len,
            record_count,
            zipf: Zipfian::new(n),
            latest: Latest::new(n),
            max_scan: 100,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Workload A: 50% reads, 50% updates, zipfian.
    pub fn a(records: u64, value_len: usize, seed: u64) -> Self {
        Self::new(
            "A",
            Mix {
                read: 0.5,
                update: 0.5,
                insert: 0.0,
                scan: 0.0,
                rmw: 0.0,
            },
            Distribution::Zipfian,
            records,
            value_len,
            seed,
        )
    }

    /// Workload B: 95% reads, 5% updates, zipfian.
    pub fn b(records: u64, value_len: usize, seed: u64) -> Self {
        Self::new(
            "B",
            Mix {
                read: 0.95,
                update: 0.05,
                insert: 0.0,
                scan: 0.0,
                rmw: 0.0,
            },
            Distribution::Zipfian,
            records,
            value_len,
            seed,
        )
    }

    /// Workload C: 100% reads, zipfian.
    pub fn c(records: u64, value_len: usize, seed: u64) -> Self {
        Self::new(
            "C",
            Mix {
                read: 1.0,
                update: 0.0,
                insert: 0.0,
                scan: 0.0,
                rmw: 0.0,
            },
            Distribution::Zipfian,
            records,
            value_len,
            seed,
        )
    }

    /// Workload D: 95% reads, 5% inserts, latest distribution.
    pub fn d(records: u64, value_len: usize, seed: u64) -> Self {
        Self::new(
            "D",
            Mix {
                read: 0.95,
                update: 0.0,
                insert: 0.05,
                scan: 0.0,
                rmw: 0.0,
            },
            Distribution::Latest,
            records,
            value_len,
            seed,
        )
    }

    /// Workload E: 95% scans, 5% inserts, zipfian.
    pub fn e(records: u64, value_len: usize, seed: u64) -> Self {
        Self::new(
            "E",
            Mix {
                read: 0.0,
                update: 0.0,
                insert: 0.05,
                scan: 0.95,
                rmw: 0.0,
            },
            Distribution::Zipfian,
            records,
            value_len,
            seed,
        )
    }

    /// Workload F: 50% reads, 50% read-modify-writes, zipfian.
    pub fn f(records: u64, value_len: usize, seed: u64) -> Self {
        Self::new(
            "F",
            Mix {
                read: 0.5,
                update: 0.0,
                insert: 0.0,
                scan: 0.0,
                rmw: 0.5,
            },
            Distribution::Zipfian,
            records,
            value_len,
            seed,
        )
    }

    /// All six core workloads.
    pub fn all(records: u64, value_len: usize, seed: u64) -> Vec<Ycsb> {
        vec![
            Self::a(records, value_len, seed),
            Self::b(records, value_len, seed + 1),
            Self::c(records, value_len, seed + 2),
            Self::d(records, value_len, seed + 3),
            Self::e(records, value_len, seed + 4),
            Self::f(records, value_len, seed + 5),
        ]
    }

    /// Workload name ("A".."F").
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Keys loaded in the load phase: `0..records`, scrambled.
    pub fn load_keys(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.record_count).map(scramble)
    }

    /// Generate the value for a key (deterministic content derived from
    /// the key plus a version counter, so updates actually change bits).
    pub fn value_for(&mut self, key: u64, version: u32) -> Vec<u8> {
        let mut state = key ^ (u64::from(version) << 32) ^ 0x9E37_79B9;
        (0..self.value_len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    fn pick_key(&mut self) -> u64 {
        match self.dist {
            Distribution::Zipfian => {
                scramble(self.zipf.sample(&mut self.rng) as u64) % self.record_count.max(1)
            }
            Distribution::Latest => {
                let max = self.record_count.saturating_sub(1);
                self.latest.sample(&mut self.rng, max)
            }
            Distribution::Uniform => self.rng.gen_range(0..self.record_count.max(1)),
        }
        .min(self.record_count.saturating_sub(1))
    }

    /// Generate the next operation. Keys for reads/updates refer to
    /// load-phase keys via [`scramble`] of the picked index for zipfian
    /// workloads, the raw index for latest/uniform.
    pub fn next_op(&mut self) -> Operation {
        let r: f64 = self.rng.gen();
        let m = self.mix.clone();
        let idx = self.pick_key();
        let key = match self.dist {
            Distribution::Zipfian => scramble(idx),
            _ => scramble(idx),
        };
        let version = self.rng.gen::<u32>() & 0xFF;
        if r < m.read {
            Operation::Read(key)
        } else if r < m.read + m.update {
            let value = self.value_for(key, version);
            Operation::Update(key, value)
        } else if r < m.read + m.update + m.insert {
            let new_index = self.record_count;
            self.record_count += 1;
            self.zipf.grow(self.record_count as usize);
            self.latest.grow(self.record_count as usize);
            let new_key = scramble(new_index);
            let value = self.value_for(new_key, 0);
            Operation::Insert(new_key, value)
        } else if r < m.read + m.update + m.insert + m.scan {
            let len = self.rng.gen_range(1..=self.max_scan);
            Operation::Scan(key, len)
        } else {
            let value = self.value_for(key, version);
            Operation::ReadModifyWrite(key, value)
        }
    }

    /// Generate `n` operations.
    pub fn take_ops(&mut self, n: usize) -> Vec<Operation> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix_of(ops: &[Operation]) -> (f64, f64, f64, f64, f64) {
        let n = ops.len() as f64;
        let count = |f: &dyn Fn(&Operation) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / n;
        (
            count(&|o| matches!(o, Operation::Read(_))),
            count(&|o| matches!(o, Operation::Update(..))),
            count(&|o| matches!(o, Operation::Insert(..))),
            count(&|o| matches!(o, Operation::Scan(..))),
            count(&|o| matches!(o, Operation::ReadModifyWrite(..))),
        )
    }

    #[test]
    fn workload_a_mix() {
        let mut w = Ycsb::a(1000, 64, 1);
        let ops = w.take_ops(10_000);
        let (r, u, ..) = mix_of(&ops);
        assert!((r - 0.5).abs() < 0.03, "reads {r}");
        assert!((u - 0.5).abs() < 0.03, "updates {u}");
    }

    #[test]
    fn workload_c_read_only() {
        let mut w = Ycsb::c(1000, 64, 2);
        let ops = w.take_ops(1000);
        assert!(ops.iter().all(|o| matches!(o, Operation::Read(_))));
    }

    #[test]
    fn workload_d_inserts_new_keys() {
        let mut w = Ycsb::d(1000, 64, 3);
        let ops = w.take_ops(10_000);
        let inserts: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                Operation::Insert(k, _) => Some(*k),
                _ => None,
            })
            .collect();
        assert!(!inserts.is_empty());
        // Inserted keys are unique.
        let distinct: std::collections::HashSet<_> = inserts.iter().collect();
        assert_eq!(distinct.len(), inserts.len());
    }

    #[test]
    fn workload_e_scan_heavy() {
        let mut w = Ycsb::e(1000, 64, 4);
        let ops = w.take_ops(5000);
        let (_, _, _, s, _) = mix_of(&ops);
        assert!((s - 0.95).abs() < 0.02, "scans {s}");
        for op in &ops {
            if let Operation::Scan(_, len) = op {
                assert!((1..=100).contains(len));
            }
        }
    }

    #[test]
    fn workload_f_has_rmw() {
        let mut w = Ycsb::f(1000, 64, 5);
        let ops = w.take_ops(5000);
        let (r, _, _, _, m) = mix_of(&ops);
        assert!((r - 0.5).abs() < 0.03);
        assert!((m - 0.5).abs() < 0.03);
    }

    #[test]
    fn zipfian_skew_visible_in_ops() {
        let mut w = Ycsb::a(1000, 16, 6);
        let ops = w.take_ops(20_000);
        let mut counts: std::collections::HashMap<u64, usize> = Default::default();
        for op in &ops {
            *counts.entry(op.key()).or_default() += 1;
        }
        let max = *counts.values().max().unwrap();
        assert!(max > 500, "no hot key: max={max}");
    }

    #[test]
    fn values_differ_across_versions() {
        let mut w = Ycsb::a(10, 32, 7);
        let v1 = w.value_for(5, 1);
        let v2 = w.value_for(5, 2);
        assert_eq!(v1.len(), 32);
        assert_ne!(v1, v2);
        // Deterministic per (key, version).
        assert_eq!(v1, w.value_for(5, 1));
    }

    #[test]
    fn update_keys_come_from_loaded_set() {
        let mut w = Ycsb::b(100, 16, 8);
        let loaded: std::collections::HashSet<u64> = w.load_keys().collect();
        for op in w.take_ops(2000) {
            if let Operation::Update(k, _) = op {
                assert!(loaded.contains(&k), "update key {k} never loaded");
            }
        }
    }
}
