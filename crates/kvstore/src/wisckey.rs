//! WiscKey (Lu et al., FAST '16 / TOS '17): key-value separation. Keys
//! live in a small DRAM-side index (an ordered map, as in the paper's
//! system model); values are appended to a
//! sequential **value log** on NVM. Updates never rewrite in place —
//! they append and garbage-collect, which minimizes write amplification
//! (the property the paper's §2.3 contrasts with bit-flip reduction).

use crate::store::{NodeId, NodeStore, Result, StoreError};
use crate::traits::NvmKvStore;
use std::collections::{BTreeMap, VecDeque};

/// Value-log record: `[key: 8][vlen: 2][value]`.
const HEADER: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct ValueLoc {
    node_slot: usize, // index into `log` (the open segment chain)
    offset: usize,
    len: usize,
}

/// The WiscKey-style store.
pub struct WiscKey<S: NodeStore> {
    store: S,
    /// DRAM key index: key -> location in the value log.
    index: BTreeMap<u64, ValueLoc>,
    /// Log segments in append order (front = oldest).
    log: VecDeque<(NodeId, usize)>, // (node, bytes used)
    /// Live bytes per log slot, for GC victim choice.
    live_bytes: VecDeque<usize>,
}

impl<S: NodeStore> WiscKey<S> {
    /// An empty store.
    pub fn new(store: S) -> Self {
        Self {
            store,
            index: BTreeMap::new(),
            log: VecDeque::new(),
            live_bytes: VecDeque::new(),
        }
    }

    fn node_bytes(&self) -> usize {
        self.store.node_bytes()
    }

    fn append(&mut self, key: u64, value: &[u8]) -> Result<ValueLoc> {
        let rec_len = HEADER + value.len();
        let need_new = match self.log.back() {
            Some(&(_, used)) => used + rec_len > self.node_bytes(),
            None => true,
        };
        if need_new {
            if self.store.free_capacity() == 0 {
                self.collect_garbage()?;
            }
            let node = self.store.alloc()?;
            self.log.push_back((node, 0));
            self.live_bytes.push_back(0);
        }
        let slot = self.log.len() - 1;
        let (node, used) = *self.log.back().expect("log nonempty");
        let mut rec = Vec::with_capacity(rec_len);
        rec.extend_from_slice(&key.to_le_bytes());
        rec.extend_from_slice(&(value.len() as u16).to_le_bytes());
        rec.extend_from_slice(value);
        self.store.write_at(node, used, &rec)?;
        self.log.back_mut().expect("log nonempty").1 = used + rec_len;
        *self.live_bytes.back_mut().expect("log nonempty") += rec_len;
        Ok(ValueLoc {
            node_slot: slot,
            offset: used + HEADER,
            len: value.len(),
        })
    }

    /// Reclaim the log segment with the least live data by re-appending
    /// its live records.
    fn collect_garbage(&mut self) -> Result<()> {
        if self.log.len() < 2 {
            return Err(StoreError::OutOfSpace);
        }
        // Victim: the fullest-of-garbage (lowest live bytes) among all
        // but the open tail segment.
        let victim_slot = (0..self.log.len() - 1)
            .min_by_key(|&s| self.live_bytes[s])
            .expect("at least one sealed segment");
        let (victim_node, victim_used) = self.log[victim_slot];
        let image = self.store.read(victim_node)?;
        // Collect live records of the victim.
        let mut live: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut off = 0;
        while off + HEADER <= victim_used {
            let key = u64::from_le_bytes(image[off..off + 8].try_into().expect("8 bytes"));
            let vlen =
                u16::from_le_bytes(image[off + 8..off + 10].try_into().expect("2 bytes")) as usize;
            let loc = self.index.get(&key).copied();
            if loc
                == Some(ValueLoc {
                    node_slot: victim_slot,
                    offset: off + HEADER,
                    len: vlen,
                })
            {
                live.push((key, image[off + HEADER..off + HEADER + vlen].to_vec()));
            }
            off += HEADER + vlen;
        }
        // Remove the victim and renumber slots.
        self.log.remove(victim_slot);
        self.live_bytes.remove(victim_slot);
        self.index_renumber_after_removal(victim_slot);
        self.store.free(victim_node)?;
        // Re-append the survivors.
        for (key, value) in live {
            let loc = self.append(key, &value)?;
            self.index.insert(key, loc);
        }
        Ok(())
    }

    fn index_renumber_after_removal(&mut self, removed_slot: usize) {
        // Slots above the removed one shift down by one.
        for loc in self.index.values_mut() {
            if loc.node_slot > removed_slot {
                loc.node_slot -= 1;
            }
        }
    }
}

impl<S: NodeStore> NvmKvStore for WiscKey<S> {
    fn name(&self) -> &'static str {
        "WiscKey"
    }

    fn put(&mut self, key: u64, value: &[u8]) -> Result<()> {
        if HEADER + value.len() > self.node_bytes() {
            return Err(StoreError::Sim(e2nvm_sim::SimError::SizeMismatch {
                expected: self.node_bytes() - HEADER,
                actual: value.len(),
            }));
        }
        // Old location (if any) becomes garbage.
        if let Some(old) = self.index.get(&key).copied() {
            self.live_bytes[old.node_slot] =
                self.live_bytes[old.node_slot].saturating_sub(HEADER + old.len);
        }
        let loc = self.append(key, value)?;
        self.index.insert(key, loc);
        Ok(())
    }

    fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>> {
        let Some(loc) = self.index.get(&key).copied() else {
            return Ok(None);
        };
        let (node, _) = self.log[loc.node_slot];
        let image = self.store.read(node)?;
        Ok(Some(image[loc.offset..loc.offset + loc.len].to_vec()))
    }

    fn delete(&mut self, key: u64) -> Result<bool> {
        let Some(loc) = self.index.remove(&key) else {
            return Ok(false);
        };
        // Pure index operation: the log record becomes garbage.
        self.live_bytes[loc.node_slot] =
            self.live_bytes[loc.node_slot].saturating_sub(HEADER + loc.len);
        Ok(true)
    }

    fn scan(&mut self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>> {
        if lo > hi {
            return Ok(Vec::new());
        }
        let locs: Vec<(u64, ValueLoc)> = self
            .index
            .range(lo..=hi)
            .map(|(k, loc)| (*k, *loc))
            .collect();
        locs.into_iter()
            .map(|(k, loc)| {
                let (node, _) = self.log[loc.node_slot];
                let image = self.store.read(node)?;
                Ok((k, image[loc.offset..loc.offset + loc.len].to_vec()))
            })
            .collect()
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

    fn wk(segments: usize, seg_bytes: usize) -> WiscKey<DirectNodeStore> {
        let dev = NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(seg_bytes)
                .num_segments(segments)
                .build()
                .unwrap(),
        );
        WiscKey::new(DirectNodeStore::new(
            MemoryController::without_wear_leveling(dev),
        ))
    }

    #[test]
    fn basic_crud() {
        let mut w = wk(8, 128);
        w.put(1, b"one").unwrap();
        w.put(2, b"two").unwrap();
        assert_eq!(w.get(1).unwrap().unwrap(), b"one");
        w.put(1, b"ONE").unwrap();
        assert_eq!(w.get(1).unwrap().unwrap(), b"ONE");
        assert!(w.delete(1).unwrap());
        assert_eq!(w.get(1).unwrap(), None);
        assert!(!w.delete(1).unwrap());
    }

    #[test]
    fn updates_append_not_overwrite() {
        let mut w = wk(8, 128);
        w.put(1, &[0xAAu8; 16]).unwrap();
        w.reset_stats();
        // Identical value appended to fresh (zeroed) space still writes
        // every set bit -> append semantics, not in-place skip.
        w.put(1, &[0xAAu8; 16]).unwrap();
        assert!(w.stats().bits_flipped > 0);
    }

    #[test]
    fn gc_reclaims_dead_space() {
        let mut w = wk(4, 64);
        // Keep overwriting a handful of keys far beyond raw capacity:
        // without GC this would exhaust 4 segments quickly.
        for round in 0..40u64 {
            for key in 0..3u64 {
                w.put(key, &[round as u8; 20]).unwrap();
            }
        }
        for key in 0..3u64 {
            assert_eq!(w.get(key).unwrap().unwrap(), vec![39u8; 20]);
        }
        assert!(w.log.len() <= 4);
    }

    #[test]
    fn shadow_stress() {
        let mut w = wk(64, 256);
        check_against_shadow(&mut w, 800, 12, 17).unwrap();
    }

    #[test]
    fn scan_in_key_order() {
        let mut w = wk(8, 256);
        for k in [9u64, 3, 7, 1] {
            w.put(k, &k.to_le_bytes()).unwrap();
        }
        let keys: Vec<u64> = w.scan(2, 8).unwrap().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![3, 7]);
    }

    #[test]
    fn oversized_value_rejected() {
        let mut w = wk(4, 32);
        assert!(w.put(1, &[0u8; 30]).is_err());
    }
}
