//! Path Hashing (Zuo & Hua, MSST '17): a write-friendly hash scheme for
//! NVM with **zero writes for structural maintenance** — no chaining
//! pointers, no cuckoo evictions. Buckets form an inverted complete
//! binary tree; a key hashes to a leaf position and, on collision, may
//! instead use any ancestor position along its leaf-to-root *path*
//! (positions are shared between the two subtrees below them).
//!
//! Every insert/delete writes exactly one fixed-size cell, which keeps
//! its Figure 12 bar low even without E2-NVM.

use crate::store::{NodeId, NodeStore, Result, StoreError};
use crate::traits::NvmKvStore;

/// Cell layout: `[flag: 1][key: 8][vlen: 2][value: max_value]`.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    /// Leaf bucket count (power of two).
    leaves: usize,
    /// Tree levels above and including the leaves that accept
    /// placements (the "reserved levels" of the paper).
    levels: usize,
    max_value: usize,
}

impl Geometry {
    fn cell_bytes(&self) -> usize {
        11 + self.max_value
    }

    /// Total cells across levels: leaves + leaves/2 + ... (levels terms).
    fn total_cells(&self) -> usize {
        (0..self.levels).map(|l| self.leaves >> l).sum()
    }

    /// Flat cell index of position `pos` at `level`.
    fn cell_index(&self, level: usize, pos: usize) -> usize {
        let before: usize = (0..level).map(|l| self.leaves >> l).sum();
        before + pos
    }
}

fn hash_key(key: u64) -> u64 {
    key.wrapping_mul(0xD6E8_FEB8_6659_FD93).rotate_left(29) ^ key
}

/// The path-hashing table.
pub struct PathHashing<S: NodeStore> {
    store: S,
    geo: Geometry,
    nodes: Vec<NodeId>,
    cells_per_node: usize,
    /// DRAM occupancy + key mirror (the NVM flag byte is the truth; the
    /// mirror avoids device reads on probes).
    occupancy: Vec<Option<u64>>,
    len: usize,
}

impl<S: NodeStore> PathHashing<S> {
    /// Create with `leaves` leaf buckets (rounded up to a power of two)
    /// and `levels` shared path levels.
    ///
    /// # Panics
    /// Panics if the store cannot hold the table or parameters are
    /// degenerate.
    pub fn new(mut store: S, leaves: usize, levels: usize, max_value: usize) -> Result<Self> {
        assert!(
            leaves >= 2 && levels >= 1,
            "PathHashing: degenerate geometry"
        );
        let leaves = leaves.next_power_of_two();
        let levels = levels.min(leaves.trailing_zeros() as usize + 1);
        let geo = Geometry {
            leaves,
            levels,
            max_value,
        };
        let cells_per_node = store.node_bytes() / geo.cell_bytes();
        assert!(
            cells_per_node >= 1,
            "PathHashing: node smaller than one cell"
        );
        let n_nodes = geo.total_cells().div_ceil(cells_per_node);
        let nodes: Vec<NodeId> = (0..n_nodes).map(|_| store.alloc()).collect::<Result<_>>()?;
        Ok(Self {
            store,
            occupancy: vec![None; geo.total_cells()],
            geo,
            nodes,
            cells_per_node,
            len: 0,
        })
    }

    /// Rebuild the DRAM occupancy mirror from the persisted cell flags
    /// after a crash. `nodes` must be the table's node list in
    /// construction order (durable allocator metadata).
    pub fn recover(
        mut store: S,
        nodes: Vec<NodeId>,
        leaves: usize,
        levels: usize,
        max_value: usize,
    ) -> Result<Self> {
        let leaves = leaves.next_power_of_two();
        let levels = levels.min(leaves.trailing_zeros() as usize + 1);
        let geo = Geometry {
            leaves,
            levels,
            max_value,
        };
        let cells_per_node = store.node_bytes() / geo.cell_bytes();
        let mut occupancy = vec![None; geo.total_cells()];
        let mut len = 0;
        for (cell, slot) in occupancy.iter_mut().enumerate() {
            let node = nodes[cell / cells_per_node];
            let off = (cell % cells_per_node) * geo.cell_bytes();
            let image = store.read(node)?;
            if image[off] == 1 {
                let key = u64::from_le_bytes(image[off + 1..off + 9].try_into().expect("8 bytes"));
                *slot = Some(key);
                len += 1;
            }
        }
        Ok(Self {
            store,
            geo,
            nodes,
            cells_per_node,
            occupancy,
            len,
        })
    }

    /// Consume the structure, returning the node store (simulates a
    /// crash: all DRAM state is dropped; NVM contents survive).
    pub fn into_store(self) -> S {
        self.store
    }

    /// The table's node list (recovery metadata).
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Stored key count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn locate(&self, cell: usize) -> (NodeId, usize) {
        (
            self.nodes[cell / self.cells_per_node],
            (cell % self.cells_per_node) * self.geo.cell_bytes(),
        )
    }

    /// The candidate cells of `key`, leaf first then up the path.
    fn path_cells(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let leaf = (hash_key(key) as usize) & (self.geo.leaves - 1);
        (0..self.geo.levels).map(move |level| self.geo.cell_index(level, leaf >> level))
    }

    fn write_cell(&mut self, cell: usize, key: u64, value: &[u8]) -> Result<()> {
        let (node, off) = self.locate(cell);
        let mut payload = Vec::with_capacity(11 + value.len());
        payload.push(1u8);
        payload.extend_from_slice(&key.to_le_bytes());
        payload.extend_from_slice(&(value.len() as u16).to_le_bytes());
        payload.extend_from_slice(value);
        self.store.write_at(node, off, &payload)?;
        self.occupancy[cell] = Some(key);
        Ok(())
    }

    fn read_cell_value(&mut self, cell: usize) -> Result<Vec<u8>> {
        let (node, off) = self.locate(cell);
        let image = self.store.read(node)?;
        let vlen =
            u16::from_le_bytes(image[off + 9..off + 11].try_into().expect("2 bytes")) as usize;
        Ok(image[off + 11..off + 11 + vlen].to_vec())
    }
}

impl<S: NodeStore> NvmKvStore for PathHashing<S> {
    fn name(&self) -> &'static str {
        "Path Hashing"
    }

    fn put(&mut self, key: u64, value: &[u8]) -> Result<()> {
        if value.len() > self.geo.max_value {
            return Err(StoreError::Sim(e2nvm_sim::SimError::SizeMismatch {
                expected: self.geo.max_value,
                actual: value.len(),
            }));
        }
        // Update in place if present; otherwise take the first free
        // cell along the path.
        let mut free = None;
        let cells: Vec<usize> = self.path_cells(key).collect();
        for cell in cells {
            match self.occupancy[cell] {
                Some(k) if k == key => {
                    return self.write_cell(cell, key, value);
                }
                None if free.is_none() => free = Some(cell),
                _ => {}
            }
        }
        match free {
            Some(cell) => {
                self.len += 1;
                self.write_cell(cell, key, value)
            }
            None => Err(StoreError::OutOfSpace),
        }
    }

    fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>> {
        let cells: Vec<usize> = self.path_cells(key).collect();
        for cell in cells {
            if self.occupancy[cell] == Some(key) {
                return Ok(Some(self.read_cell_value(cell)?));
            }
        }
        Ok(None)
    }

    fn delete(&mut self, key: u64) -> Result<bool> {
        let cells: Vec<usize> = self.path_cells(key).collect();
        for cell in cells {
            if self.occupancy[cell] == Some(key) {
                let (node, off) = self.locate(cell);
                // One flag byte reset — the paper's Algorithm 2 cost.
                self.store.write_at(node, off, &[0u8])?;
                self.occupancy[cell] = None;
                self.len -= 1;
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn scan(&mut self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>> {
        // Hash tables do not support ordered scans natively; enumerate
        // the occupancy mirror (the paper's SCAN goes through the tree
        // index instead — this path exists for harness completeness).
        let mut hits: Vec<(usize, u64)> = self
            .occupancy
            .iter()
            .enumerate()
            .filter_map(|(cell, k)| k.filter(|k| (lo..=hi).contains(k)).map(|k| (cell, k)))
            .collect();
        hits.sort_by_key(|&(_, k)| k);
        hits.into_iter()
            .map(|(cell, k)| Ok((k, self.read_cell_value(cell)?)))
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

    fn table(leaves: usize, levels: usize) -> PathHashing<DirectNodeStore> {
        let dev = NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(256)
                .num_segments(256)
                .build()
                .unwrap(),
        );
        PathHashing::new(
            DirectNodeStore::new(MemoryController::without_wear_leveling(dev)),
            leaves,
            levels,
            16,
        )
        .unwrap()
    }

    #[test]
    fn basic_crud() {
        let mut t = table(64, 4);
        t.put(10, b"ten").unwrap();
        t.put(11, b"eleven").unwrap();
        assert_eq!(t.get(10).unwrap().unwrap(), b"ten");
        assert_eq!(t.get(12).unwrap(), None);
        t.put(10, b"TEN").unwrap();
        assert_eq!(t.get(10).unwrap().unwrap(), b"TEN");
        assert_eq!(t.len(), 2);
        assert!(t.delete(10).unwrap());
        assert!(!t.delete(10).unwrap());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn collisions_resolve_along_path() {
        let mut t = table(4, 3); // tiny: lots of collisions
        let mut inserted = 0;
        for k in 0..7u64 {
            // 4 + 2 + 1 = 7 cells total.
            if t.put(k, &[k as u8; 4]).is_ok() {
                inserted += 1;
            }
        }
        assert!(inserted >= 4, "only {inserted} fit");
        for k in 0..7u64 {
            if let Some(v) = t.get(k).unwrap() {
                assert_eq!(v, vec![k as u8; 4]);
            }
        }
    }

    #[test]
    fn fills_to_out_of_space() {
        let mut t = table(2, 2); // 3 cells
        let mut errs = 0;
        for k in 0..10u64 {
            if matches!(t.put(k, b"x"), Err(StoreError::OutOfSpace)) {
                errs += 1;
            }
        }
        assert!(errs > 0);
        assert!(t.len <= t.geo.total_cells());
    }

    #[test]
    fn shadow_stress() {
        let mut t = table(256, 5);
        check_against_shadow(&mut t, 800, 12, 13).unwrap();
    }

    #[test]
    fn writes_are_single_cell() {
        let mut t = table(64, 4);
        t.put(5, &[0xFFu8; 16]).unwrap();
        t.reset_stats();
        t.put(6, &[0xFFu8; 16]).unwrap();
        let s = t.stats();
        // One cell = 27 bytes -> at most 27*8 flips.
        assert!(s.bits_flipped <= 27 * 8, "flips={}", s.bits_flipped);
        t.reset_stats();
        t.delete(6).unwrap();
        assert!(t.stats().bits_flipped <= 8);
    }
}
