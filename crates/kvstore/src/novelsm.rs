//! NoveLSM (Kannan et al., ATC '18): an LSM redesigned for NVM. The
//! mutable memtable lives **directly in NVM** (no WAL, no serialization
//! through DRAM), and immutable tables are compacted into sorted runs.
//!
//! Reproduction shape: the memtable is an append-only region of NVM
//! segments with a DRAM skiplist-equivalent index (an ordered map);
//! when the memtable region fills, it is merged with level-1
//! into fresh sorted-run segments and the old segments are freed.
//! Deletes write tombstones (vlen = 0xFFFF).

use crate::store::{NodeId, NodeStore, Result, StoreError};
use crate::traits::NvmKvStore;
use std::collections::BTreeMap;

const HEADER: usize = 10;
const TOMBSTONE: u16 = u16::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct MemLoc {
    node_slot: usize,
    offset: usize,
    /// `None` = tombstone.
    len: Option<usize>,
}

/// One sorted run at level 1: contiguous sorted records across nodes.
#[derive(Debug)]
struct SortedRun {
    nodes: Vec<(NodeId, usize)>, // (node, bytes used)
    /// DRAM sparse index: key -> (node index in run, offset, len).
    index: BTreeMap<u64, MemLoc>,
}

/// The NoveLSM-style store.
pub struct NoveLsm<S: NodeStore> {
    store: S,
    /// Memtable segments cap before a flush.
    memtable_cap: usize,
    mem_nodes: Vec<(NodeId, usize)>,
    mem_index: BTreeMap<u64, MemLoc>,
    level1: Option<SortedRun>,
}

impl<S: NodeStore> NoveLsm<S> {
    /// Create with the given memtable size in segments.
    ///
    /// # Panics
    /// Panics if `memtable_segments == 0`.
    pub fn new(store: S, memtable_segments: usize) -> Self {
        assert!(memtable_segments > 0, "NoveLsm: zero memtable");
        Self {
            store,
            memtable_cap: memtable_segments,
            mem_nodes: Vec::new(),
            mem_index: BTreeMap::new(),
            level1: None,
        }
    }

    fn node_bytes(&self) -> usize {
        self.store.node_bytes()
    }

    fn append_record(&mut self, key: u64, value: Option<&[u8]>) -> Result<MemLoc> {
        let vlen = value.map(<[u8]>::len).unwrap_or(0);
        let rec_len = HEADER + vlen;
        let need_new = match self.mem_nodes.last() {
            Some(&(_, used)) => used + rec_len > self.node_bytes(),
            None => true,
        };
        if need_new {
            if self.mem_nodes.len() >= self.memtable_cap {
                self.flush()?;
            }
            let node = self.store.alloc()?;
            self.mem_nodes.push((node, 0));
        }
        let slot = self.mem_nodes.len() - 1;
        let (node, used) = *self.mem_nodes.last().expect("memtable nonempty");
        let mut rec = Vec::with_capacity(rec_len);
        rec.extend_from_slice(&key.to_le_bytes());
        let wire_len = if value.is_some() {
            vlen as u16
        } else {
            TOMBSTONE
        };
        rec.extend_from_slice(&wire_len.to_le_bytes());
        if let Some(v) = value {
            rec.extend_from_slice(v);
        }
        self.store.write_at(node, used, &rec)?;
        self.mem_nodes.last_mut().expect("memtable nonempty").1 = used + rec_len;
        Ok(MemLoc {
            node_slot: slot,
            offset: used + HEADER,
            len: value.map(|_| vlen),
        })
    }

    /// Merge the memtable with level 1 into a fresh sorted run.
    fn flush(&mut self) -> Result<()> {
        // Materialize the merged view: memtable wins over level 1;
        // tombstones drop keys.
        let mut merged: Vec<(u64, Vec<u8>)> = Vec::new();
        // Level-1 survivors not shadowed by the memtable.
        if let Some(run) = &self.level1 {
            for (&k, loc) in &run.index {
                if self.mem_index.contains_key(&k) {
                    continue;
                }
                if let Some(len) = loc.len {
                    let node = run.nodes[loc.node_slot].0;
                    let image = self.store.read(node)?;
                    merged.push((k, image[loc.offset..loc.offset + len].to_vec()));
                }
            }
        }
        for (k, loc) in &self.mem_index {
            if let Some(len) = loc.len {
                let node = self.mem_nodes[loc.node_slot].0;
                let image = self.store.read(node)?;
                merged.push((*k, image[loc.offset..loc.offset + len].to_vec()));
            }
        }
        merged.sort_by_key(|(k, _)| *k);

        // Write the new sorted run.
        let mut run = SortedRun {
            nodes: Vec::new(),
            index: BTreeMap::new(),
        };
        for (k, v) in &merged {
            let rec_len = HEADER + v.len();
            let need_new = match run.nodes.last() {
                Some(&(_, used)) => used + rec_len > self.node_bytes(),
                None => true,
            };
            if need_new {
                run.nodes.push((self.store.alloc()?, 0));
            }
            let slot = run.nodes.len() - 1;
            let (node, used) = *run.nodes.last().expect("run nonempty");
            let mut rec = Vec::with_capacity(rec_len);
            rec.extend_from_slice(&k.to_le_bytes());
            rec.extend_from_slice(&(v.len() as u16).to_le_bytes());
            rec.extend_from_slice(v);
            self.store.write_at(node, used, &rec)?;
            run.nodes.last_mut().expect("run nonempty").1 = used + rec_len;
            run.index.insert(
                *k,
                MemLoc {
                    node_slot: slot,
                    offset: used + HEADER,
                    len: Some(v.len()),
                },
            );
        }

        // Free the old memtable and the old run.
        for (node, _) in self.mem_nodes.drain(..) {
            self.store.free(node)?;
        }
        self.mem_index = BTreeMap::new();
        if let Some(old) = self.level1.take() {
            for (node, _) in old.nodes {
                self.store.free(node)?;
            }
        }
        self.level1 = Some(run);
        Ok(())
    }

    fn read_loc(&mut self, nodes: &[(NodeId, usize)], loc: MemLoc) -> Result<Option<Vec<u8>>> {
        let Some(len) = loc.len else {
            return Ok(None);
        };
        let node = nodes[loc.node_slot].0;
        let image = self.store.read(node)?;
        Ok(Some(image[loc.offset..loc.offset + len].to_vec()))
    }

    /// Memtable segments currently in use (diagnostics).
    pub fn memtable_segments(&self) -> usize {
        self.mem_nodes.len()
    }
}

impl<S: NodeStore> NvmKvStore for NoveLsm<S> {
    fn name(&self) -> &'static str {
        "NoveLSM"
    }

    fn put(&mut self, key: u64, value: &[u8]) -> Result<()> {
        if HEADER + value.len() > self.node_bytes() {
            return Err(StoreError::Sim(e2nvm_sim::SimError::SizeMismatch {
                expected: self.node_bytes() - HEADER,
                actual: value.len(),
            }));
        }
        let loc = self.append_record(key, Some(value))?;
        self.mem_index.insert(key, loc);
        Ok(())
    }

    fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>> {
        if let Some(loc) = self.mem_index.get(&key).copied() {
            let nodes = self.mem_nodes.clone();
            return self.read_loc(&nodes, loc);
        }
        if let Some(run) = &self.level1 {
            if let Some(loc) = run.index.get(&key).copied() {
                let nodes = run.nodes.clone();
                return self.read_loc(&nodes, loc);
            }
        }
        Ok(None)
    }

    fn delete(&mut self, key: u64) -> Result<bool> {
        let existed = self.get(key)?.is_some();
        if existed {
            let loc = self.append_record(key, None)?;
            self.mem_index.insert(key, loc);
        }
        Ok(existed)
    }

    fn scan(&mut self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>> {
        if lo > hi {
            return Ok(Vec::new());
        }
        // Merge memtable view over level-1 view.
        let mem: Vec<(u64, MemLoc)> = self
            .mem_index
            .range(lo..=hi)
            .map(|(k, loc)| (*k, *loc))
            .collect();
        let l1: Vec<(u64, MemLoc)> = self
            .level1
            .as_ref()
            .map(|run| {
                run.index
                    .range(lo..=hi)
                    .map(|(k, loc)| (*k, *loc))
                    .collect()
            })
            .unwrap_or_default();
        let mem_keys: std::collections::HashSet<u64> = mem.iter().map(|(k, _)| *k).collect();
        let mut out: Vec<(u64, Vec<u8>)> = Vec::new();
        for (k, loc) in mem {
            let nodes = self.mem_nodes.clone();
            if let Some(v) = self.read_loc(&nodes, loc)? {
                out.push((k, v));
            }
        }
        for (k, loc) in l1 {
            if mem_keys.contains(&k) {
                continue;
            }
            let nodes = self.level1.as_ref().expect("run exists").nodes.clone();
            if let Some(v) = self.read_loc(&nodes, loc)? {
                out.push((k, v));
            }
        }
        out.sort_by_key(|(k, _)| *k);
        Ok(out)
    }

    fn stats(&self) -> e2nvm_sim::DeviceStats {
        self.store.stats()
    }

    fn reset_stats(&mut self) {
        self.store.reset_stats();
    }

    fn maintenance(&mut self) {
        self.store.maintenance();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DirectNodeStore;
    use crate::traits::check_against_shadow;
    use e2nvm_sim::{DeviceConfig, MemoryController, NvmDevice};

    fn lsm(segments: usize, seg_bytes: usize, mem_cap: usize) -> NoveLsm<DirectNodeStore> {
        let dev = NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(seg_bytes)
                .num_segments(segments)
                .build()
                .unwrap(),
        );
        NoveLsm::new(
            DirectNodeStore::new(MemoryController::without_wear_leveling(dev)),
            mem_cap,
        )
    }

    #[test]
    fn basic_crud() {
        let mut l = lsm(16, 128, 2);
        l.put(1, b"one").unwrap();
        l.put(2, b"two").unwrap();
        assert_eq!(l.get(1).unwrap().unwrap(), b"one");
        l.put(1, b"ONE").unwrap();
        assert_eq!(l.get(1).unwrap().unwrap(), b"ONE");
        assert!(l.delete(1).unwrap());
        assert_eq!(l.get(1).unwrap(), None);
        assert!(!l.delete(1).unwrap());
    }

    #[test]
    fn flush_and_read_from_level1() {
        let mut l = lsm(128, 64, 2);
        // Enough writes to force several flushes.
        for k in 0..40u64 {
            l.put(k, &[k as u8; 16]).unwrap();
        }
        assert!(l.level1.is_some(), "never flushed");
        for k in 0..40u64 {
            assert_eq!(l.get(k).unwrap().unwrap(), vec![k as u8; 16], "key {k}");
        }
    }

    #[test]
    fn tombstones_survive_flush() {
        let mut l = lsm(32, 64, 1);
        for k in 0..10u64 {
            l.put(k, &[1u8; 16]).unwrap();
        }
        l.delete(5).unwrap();
        // Force a flush cycle.
        for k in 10..30u64 {
            l.put(k, &[2u8; 16]).unwrap();
        }
        assert_eq!(l.get(5).unwrap(), None);
        assert_eq!(l.get(4).unwrap().unwrap(), vec![1u8; 16]);
    }

    #[test]
    fn scan_merges_levels() {
        let mut l = lsm(32, 64, 1);
        for k in 0..20u64 {
            l.put(k, &k.to_le_bytes()).unwrap();
        }
        // Overwrite some keys post-flush so the memtable shadows L1.
        l.put(3, b"fresh3xx").unwrap();
        let result = l.scan(2, 4).unwrap();
        let keys: Vec<u64> = result.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![2, 3, 4]);
        assert_eq!(result[1].1, b"fresh3xx");
    }

    #[test]
    fn shadow_stress() {
        let mut l = lsm(128, 256, 2);
        check_against_shadow(&mut l, 700, 12, 19).unwrap();
    }

    #[test]
    fn memtable_capacity_respected() {
        let mut l = lsm(64, 64, 2);
        for k in 0..200u64 {
            l.put(k % 8, &[k as u8; 20]).unwrap();
            assert!(l.memtable_segments() <= 2);
        }
    }
}
