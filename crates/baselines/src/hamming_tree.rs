//! Hamming-Tree (Kargar & Nawab, CIDR '21 / SIGMOD '23): organize free
//! memory segments in a metric tree over hamming distance and serve each
//! write from the *nearest* free segment.
//!
//! Implemented as a BK-tree (Burkhard–Keller), the standard structure
//! for discrete-metric nearest-neighbour search. Exact nearest search
//! makes Hamming-Tree the quality upper bound among the placement
//! baselines — at a per-write search cost that grows with pool size,
//! which is exactly the trade-off E2-NVM's clustering avoids.

use crate::scheme::PlacementScheme;
use e2nvm_sim::bitops::hamming;
use e2nvm_sim::LogicalSegment;
use rand::rngs::StdRng;
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct Node {
    seg: LogicalSegment,
    content: Vec<u8>,
    /// True once the segment was taken; tombstones are skipped in
    /// search and purged on rebuild.
    dead: bool,
    children: HashMap<u64, usize>,
}

/// BK-tree based exact-nearest placement.
#[derive(Debug, Clone, Default)]
pub struct HammingTree {
    nodes: Vec<Node>,
    root: Option<usize>,
    live: usize,
    /// Distance computations performed (cost diagnostics).
    pub distance_evals: u64,
}

impl HammingTree {
    /// An empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a free segment.
    pub fn insert(&mut self, seg: LogicalSegment, content: Vec<u8>) {
        let new_idx = self.nodes.len();
        let node = Node {
            seg,
            content,
            dead: false,
            children: HashMap::new(),
        };
        self.live += 1;
        let Some(mut cur) = self.root else {
            self.nodes.push(node);
            self.root = Some(new_idx);
            return;
        };
        loop {
            let d = hamming(&self.nodes[cur].content, &node.content);
            self.distance_evals += 1;
            if d == 0 && self.nodes[cur].dead {
                // Revive the tombstone in place (same content).
                self.nodes[cur].dead = false;
                self.nodes[cur].seg = node.seg;
                return;
            }
            match self.nodes[cur].children.get(&d) {
                Some(&child) => cur = child,
                None => {
                    self.nodes[cur].children.insert(d, new_idx);
                    self.nodes.push(node);
                    return;
                }
            }
        }
    }

    /// Exact nearest live node; marks it dead and returns it.
    fn take_nearest(&mut self, query: &[u8]) -> Option<(LogicalSegment, u64)> {
        let root = self.root?;
        if self.live == 0 {
            return None;
        }
        let mut best: Option<(usize, u64)> = None;
        let mut stack = vec![root];
        while let Some(idx) = stack.pop() {
            let d = hamming(&self.nodes[idx].content, query);
            self.distance_evals += 1;
            if !self.nodes[idx].dead && best.is_none_or(|(_, bd)| d < bd) {
                best = Some((idx, d));
            }
            let radius = best.map_or(u64::MAX, |(_, bd)| bd);
            for (&edge, &child) in &self.nodes[idx].children {
                // Triangle inequality pruning: only children whose edge
                // distance is within `radius` of `d` can contain a
                // closer node.
                if edge.abs_diff(d) <= radius {
                    stack.push(child);
                }
            }
        }
        let (idx, d) = best?;
        self.nodes[idx].dead = true;
        self.live -= 1;
        Some((self.nodes[idx].seg, d))
    }

    /// Live (available) segment count.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live segments remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Rebuild the tree, dropping tombstones (amortized maintenance).
    pub fn rebuild(&mut self) {
        let live: Vec<(LogicalSegment, Vec<u8>)> = self
            .nodes
            .iter()
            .filter(|n| !n.dead)
            .map(|n| (n.seg, n.content.clone()))
            .collect();
        self.nodes.clear();
        self.root = None;
        self.live = 0;
        for (seg, content) in live {
            self.insert(seg, content);
        }
    }
}

impl PlacementScheme for HammingTree {
    fn name(&self) -> &'static str {
        "Hamming-Tree"
    }

    fn initialize(&mut self, free: &[(LogicalSegment, Vec<u8>)], _rng: &mut StdRng) {
        self.nodes.clear();
        self.root = None;
        self.live = 0;
        self.distance_evals = 0;
        for (seg, content) in free {
            self.insert(*seg, content.clone());
        }
    }

    fn choose(&mut self, data: &[u8]) -> Option<LogicalSegment> {
        // Periodically purge tombstones to keep searches cheap.
        if self.nodes.len() > 64 && self.live * 4 < self.nodes.len() {
            self.rebuild();
        }
        self.take_nearest(data).map(|(seg, _)| seg)
    }

    fn recycle(&mut self, seg: LogicalSegment, content: &[u8]) {
        self.insert(seg, content.to_vec());
    }

    fn free_count(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2nvm_ml::rng::seeded;
    use rand::Rng;

    fn seg(i: usize) -> LogicalSegment {
        LogicalSegment(i)
    }

    #[test]
    fn nearest_is_exact() {
        let mut rng = seeded(1);
        let mut tree = HammingTree::new();
        let contents: Vec<Vec<u8>> = (0..64)
            .map(|_| (0..16).map(|_| rng.gen()).collect())
            .collect();
        for (i, c) in contents.iter().enumerate() {
            tree.insert(seg(i), c.clone());
        }
        for _ in 0..32 {
            let query: Vec<u8> = (0..16).map(|_| rng.gen()).collect();
            let mut t = tree.clone();
            let (chosen, d) = t.take_nearest(&query).unwrap();
            let brute = contents.iter().map(|c| hamming(c, &query)).min().unwrap();
            assert_eq!(d, brute, "tree nearest {d} != brute {brute}");
            assert_eq!(d, hamming(&contents[chosen.index()], &query));
        }
    }

    #[test]
    fn take_removes_and_pool_drains() {
        let mut tree = HammingTree::new();
        tree.insert(seg(0), vec![0x00]);
        tree.insert(seg(1), vec![0xFF]);
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.take_nearest(&[0x01]).unwrap().0, seg(0));
        assert_eq!(tree.len(), 1);
        // Only the far one remains.
        assert_eq!(tree.take_nearest(&[0x01]).unwrap().0, seg(1));
        assert!(tree.take_nearest(&[0x01]).is_none());
    }

    #[test]
    fn recycle_makes_segment_available_again() {
        let mut tree = HammingTree::new();
        let mut rng = seeded(2);
        tree.initialize(&[(seg(0), vec![0u8; 4])], &mut rng);
        assert_eq!(tree.choose(&[0u8; 4]), Some(seg(0)));
        assert_eq!(tree.choose(&[0u8; 4]), None);
        tree.recycle(seg(0), &[1u8; 4]);
        assert_eq!(tree.choose(&[1u8; 4]), Some(seg(0)));
    }

    #[test]
    fn rebuild_preserves_live_set() {
        let mut rng = seeded(3);
        let mut tree = HammingTree::new();
        for i in 0..40 {
            tree.insert(seg(i), (0..8).map(|_| rng.gen()).collect());
        }
        for _ in 0..30 {
            let q: Vec<u8> = (0..8).map(|_| rng.gen()).collect();
            tree.take_nearest(&q);
        }
        let before = tree.len();
        tree.rebuild();
        assert_eq!(tree.len(), before);
        assert_eq!(before, 10);
    }

    #[test]
    fn placement_trait_workflow() {
        let mut rng = seeded(4);
        let mut tree = HammingTree::new();
        let free: Vec<(LogicalSegment, Vec<u8>)> =
            (0..10).map(|i| (seg(i), vec![i as u8 * 25; 8])).collect();
        tree.initialize(&free, &mut rng);
        assert_eq!(tree.free_count(), 10);
        // Query exactly matching segment 4's content.
        assert_eq!(tree.choose(&[100u8; 8]), Some(seg(4)));
    }
}
