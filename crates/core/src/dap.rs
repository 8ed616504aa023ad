//! The Cluster-to-Memory **Dynamic Address Pool** (paper §3.3.1): a map
//! from cluster id to the list of free memory segments belonging to that
//! cluster.
//!
//! PUT pops the *first* available address of the predicted cluster (the
//! paper deliberately does not search within a cluster: "we just take
//! the first available address in the cluster knowing that it will have
//! a very similar content"); DELETE recycles addresses back. A
//! membership table enforces that no address is ever in two pools or
//! handed out twice, and a minimum-threshold check drives the
//! background-retraining trigger of §4.1.4.

use e2nvm_sim::LogicalSegment;
use std::collections::VecDeque;

/// Error type for pool misuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DapError {
    /// The segment is already in the pool (double free).
    AlreadyFree(LogicalSegment),
    /// The cluster id is out of range.
    BadCluster {
        /// The offending cluster id.
        cluster: usize,
        /// Number of clusters in the pool.
        k: usize,
    },
    /// The segment has been permanently retired (worn out) and can
    /// never re-enter a free pool.
    Retired(LogicalSegment),
}

impl std::fmt::Display for DapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DapError::AlreadyFree(seg) => write!(f, "segment {seg} is already free"),
            DapError::BadCluster { cluster, k } => {
                write!(f, "cluster {cluster} out of range (k = {k})")
            }
            DapError::Retired(seg) => write!(f, "segment {seg} is retired (worn out)"),
        }
    }
}

impl std::error::Error for DapError {}

/// The dynamic address pool. Two pools are equal when every cluster
/// would hand out the same addresses in the same order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicAddressPool {
    pools: VecVecDeque,
    /// `membership[seg] == Some(cluster)` iff the segment is free and
    /// parked in that cluster's pool.
    membership: Vec<Option<u32>>,
    /// The quarantine list: `retired[seg]` is permanently true once the
    /// segment wears out. Retired segments are barred from `push` and
    /// filtered out of `rebuild`, so the pool can never hand one out.
    retired: Vec<bool>,
    min_threshold: usize,
}

type VecVecDeque = Vec<VecDeque<LogicalSegment>>;

impl DynamicAddressPool {
    /// An empty pool with `k` clusters covering `num_segments` segment
    /// ids. `min_threshold` is the per-cluster low-water mark that
    /// triggers retraining.
    pub fn new(k: usize, num_segments: usize, min_threshold: usize) -> Self {
        assert!(k > 0, "DynamicAddressPool: k must be >= 1");
        Self {
            pools: (0..k).map(|_| VecDeque::new()).collect(),
            membership: vec![None; num_segments],
            retired: vec![false; num_segments],
            min_threshold,
        }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.pools.len()
    }

    /// Total free segments.
    pub fn free_count(&self) -> usize {
        self.pools.iter().map(VecDeque::len).sum()
    }

    /// Free segments in one cluster.
    pub fn cluster_len(&self, cluster: usize) -> usize {
        self.pools.get(cluster).map(VecDeque::len).unwrap_or(0)
    }

    /// Park a free segment in `cluster`'s pool.
    pub fn push(&mut self, cluster: usize, seg: LogicalSegment) -> Result<(), DapError> {
        if cluster >= self.pools.len() {
            return Err(DapError::BadCluster {
                cluster,
                k: self.pools.len(),
            });
        }
        if self.is_retired(seg) {
            return Err(DapError::Retired(seg));
        }
        let slot = &mut self.membership[seg.index()];
        if slot.is_some() {
            return Err(DapError::AlreadyFree(seg));
        }
        *slot = Some(cluster as u32);
        self.pools[cluster].push_back(seg);
        Ok(())
    }

    /// The first free address of `cluster` without removing it: the
    /// address its next pop hands out. The lists are FIFO, so the engine
    /// knows each cluster's next placement one PUT ahead and warms it.
    pub fn peek_head(&self, cluster: usize) -> Option<LogicalSegment> {
        self.pools.get(cluster)?.front().copied()
    }

    /// The cluster whose free list holds `seg`, or `None` if it is not
    /// free.
    pub fn cluster_of(&self, seg: LogicalSegment) -> Option<usize> {
        self.membership.get(seg.index())?.map(|c| c as usize)
    }

    /// `cluster`'s free segments in the order its pops hand them out,
    /// head first. Empty for a cluster out of range.
    pub fn free_list(&self, cluster: usize) -> impl Iterator<Item = LogicalSegment> + '_ {
        self.pools.get(cluster).into_iter().flatten().copied()
    }

    /// Take the first free address of `cluster`, if any.
    pub fn pop(&mut self, cluster: usize) -> Option<LogicalSegment> {
        let seg = self.pools.get_mut(cluster)?.pop_front()?;
        self.membership[seg.index()] = None;
        Some(seg)
    }

    /// Take the first free address following a nearest-first cluster
    /// order (fallback when the predicted cluster is empty). Returns the
    /// segment together with the cluster that supplied it, so callers
    /// can tell a first-choice hit from a fallback.
    pub fn pop_with_fallback(&mut self, order: &[usize]) -> Option<(LogicalSegment, usize)> {
        order.iter().find_map(|&c| self.pop(c).map(|seg| (seg, c)))
    }

    /// The first cluster whose free list is below the threshold, if
    /// any — the retraining trigger. At threshold 0 it never trips.
    pub fn below_threshold(&self) -> Option<usize> {
        self.pools.iter().position(|p| p.len() < self.min_threshold)
    }

    /// Permanently retire a segment (quarantine: it wore out). Removes
    /// it from its free pool if currently parked; after this, `push`
    /// rejects it and `rebuild` silently drops it. Returns `true` if
    /// the segment was newly retired.
    pub fn retire(&mut self, seg: LogicalSegment) -> bool {
        let Some(flag) = self.retired.get_mut(seg.index()) else {
            return false;
        };
        if *flag {
            return false;
        }
        *flag = true;
        if let Some(cluster) = self.membership[seg.index()].take() {
            self.pools[cluster as usize].retain(|&s| s != seg);
        }
        true
    }

    /// Whether `seg` has been permanently retired.
    pub fn is_retired(&self, seg: LogicalSegment) -> bool {
        self.retired.get(seg.index()).copied().unwrap_or(false)
    }

    /// Number of retired segments.
    pub fn retired_count(&self) -> usize {
        self.retired.iter().filter(|&&r| r).count()
    }

    /// All retired segments, ascending.
    pub fn retired_segments(&self) -> Vec<LogicalSegment> {
        self.retired
            .iter()
            .enumerate()
            .filter_map(|(i, &r)| r.then_some(LogicalSegment(i)))
            .collect()
    }

    /// Rebuild the pool from scratch with a new cluster count and
    /// assignment list (after retraining). Retirement is permanent:
    /// retired segments in `assignments` are dropped, so a retrain can
    /// classify every segment without resurrecting dead ones.
    pub fn rebuild(&mut self, k: usize, assignments: &[(LogicalSegment, usize)]) {
        assert!(k > 0, "rebuild: k must be >= 1");
        self.pools = (0..k).map(|_| VecDeque::new()).collect();
        self.membership.iter_mut().for_each(|m| *m = None);
        for &(seg, cluster) in assignments {
            if self.is_retired(seg) {
                continue;
            }
            self.push(cluster, seg)
                .expect("rebuild: duplicate segment in assignments");
        }
    }

    /// Estimated DRAM footprint of the pool in bytes: one address slot
    /// per free segment plus the membership table — the quantity the
    /// paper's Figure 7 plots against segment count.
    pub fn memory_bytes(&self) -> usize {
        let slots: usize = self
            .pools
            .iter()
            .map(|p| p.capacity() * std::mem::size_of::<LogicalSegment>())
            .sum();
        slots
            + self.membership.len() * std::mem::size_of::<Option<u32>>()
            + self.retired.len() * std::mem::size_of::<bool>()
    }

    /// Whether `seg` is currently free.
    pub fn is_free(&self, seg: LogicalSegment) -> bool {
        self.membership
            .get(seg.index())
            .map(Option::is_some)
            .unwrap_or(false)
    }

    /// Per-cluster occupancy snapshot.
    pub fn occupancy(&self) -> Vec<usize> {
        self.pools.iter().map(VecDeque::len).collect()
    }

    /// All currently free segments (order unspecified).
    pub fn free_segments(&self) -> Vec<LogicalSegment> {
        self.membership
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.map(|_| LogicalSegment(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(i: usize) -> LogicalSegment {
        LogicalSegment(i)
    }

    #[test]
    fn push_pop_fifo() {
        let mut dap = DynamicAddressPool::new(2, 10, 0);
        dap.push(0, seg(3)).unwrap();
        dap.push(0, seg(5)).unwrap();
        assert_eq!(dap.pop(0), Some(seg(3)));
        assert_eq!(dap.pop(0), Some(seg(5)));
        assert_eq!(dap.pop(0), None);
    }

    #[test]
    fn double_free_rejected() {
        let mut dap = DynamicAddressPool::new(2, 10, 0);
        dap.push(0, seg(1)).unwrap();
        assert_eq!(dap.push(1, seg(1)), Err(DapError::AlreadyFree(seg(1))));
        assert_eq!(dap.push(0, seg(1)), Err(DapError::AlreadyFree(seg(1))));
        // After pop it can be pushed again (possibly elsewhere).
        dap.pop(0);
        dap.push(1, seg(1)).unwrap();
        assert_eq!(dap.cluster_len(1), 1);
    }

    #[test]
    fn bad_cluster_rejected() {
        let mut dap = DynamicAddressPool::new(2, 4, 0);
        assert!(matches!(
            dap.push(7, seg(0)),
            Err(DapError::BadCluster { cluster: 7, k: 2 })
        ));
    }

    #[test]
    fn fallback_order_respected() {
        let mut dap = DynamicAddressPool::new(3, 10, 0);
        dap.push(2, seg(9)).unwrap();
        // Cluster 0 and 1 empty; order [0, 1, 2] must reach cluster 2.
        assert_eq!(dap.pop_with_fallback(&[0, 1, 2]), Some((seg(9), 2)));
        assert_eq!(dap.pop_with_fallback(&[0, 1, 2]), None);
    }

    #[test]
    fn threshold_detection() {
        let mut dap = DynamicAddressPool::new(2, 10, 1);
        dap.push(0, seg(0)).unwrap();
        dap.push(0, seg(1)).unwrap();
        dap.push(1, seg(2)).unwrap();
        dap.push(1, seg(3)).unwrap();
        // Both clusters above threshold (2 > 1).
        assert_eq!(dap.below_threshold(), None);
        dap.pop(1);
        // Cluster 1 at threshold (1 = 1): not below it yet.
        assert_eq!(dap.below_threshold(), None);
        dap.pop(1);
        // Cluster 1 now below threshold (0 < 1).
        assert_eq!(dap.below_threshold(), Some(1));
    }

    #[test]
    fn an_emptied_cluster_trips_threshold_one_but_never_zero() {
        for (threshold, tripped) in [(0, None), (1, Some(1))] {
            let mut dap = DynamicAddressPool::new(2, 10, threshold);
            dap.push(0, seg(0)).unwrap();
            dap.push(1, seg(1)).unwrap();
            assert_eq!(dap.pop(1), Some(seg(1)));
            assert_eq!(dap.cluster_len(1), 0);
            assert_eq!(dap.below_threshold(), tripped, "threshold {threshold}");
        }
    }

    #[test]
    fn rebuild_replaces_everything() {
        let mut dap = DynamicAddressPool::new(2, 10, 0);
        dap.push(0, seg(0)).unwrap();
        dap.push(1, seg(1)).unwrap();
        dap.rebuild(3, &[(seg(5), 2), (seg(6), 0)]);
        assert_eq!(dap.k(), 3);
        assert_eq!(dap.free_count(), 2);
        assert!(!dap.is_free(seg(0)));
        assert!(dap.is_free(seg(5)));
        assert_eq!(dap.occupancy(), vec![1, 0, 1]);
    }

    #[test]
    fn memory_bytes_grows_with_segments() {
        let small = DynamicAddressPool::new(4, 1_000, 0);
        let large = DynamicAddressPool::new(4, 100_000, 0);
        assert!(large.memory_bytes() > small.memory_bytes());
    }

    #[test]
    fn retire_removes_from_pool_and_blocks_push() {
        let mut dap = DynamicAddressPool::new(2, 10, 0);
        dap.push(0, seg(3)).unwrap();
        dap.push(0, seg(4)).unwrap();
        assert!(dap.retire(seg(3)));
        assert!(!dap.retire(seg(3)), "second retire is a no-op");
        assert!(dap.is_retired(seg(3)));
        assert!(!dap.is_free(seg(3)));
        assert_eq!(dap.free_count(), 1);
        assert_eq!(dap.pop(0), Some(seg(4)));
        assert_eq!(dap.pop(0), None, "retired segment must never be handed out");
        assert_eq!(dap.push(1, seg(3)), Err(DapError::Retired(seg(3))));
        assert_eq!(dap.retired_count(), 1);
        assert_eq!(dap.retired_segments(), vec![seg(3)]);
    }

    #[test]
    fn retire_while_in_flight_blocks_recycle() {
        // A segment popped (in use) then retired cannot be recycled.
        let mut dap = DynamicAddressPool::new(1, 4, 0);
        dap.push(0, seg(2)).unwrap();
        let s = dap.pop(0).unwrap();
        assert!(dap.retire(s));
        assert_eq!(dap.push(0, s), Err(DapError::Retired(s)));
        assert_eq!(dap.free_count(), 0);
    }

    #[test]
    fn rebuild_filters_retired() {
        let mut dap = DynamicAddressPool::new(2, 10, 0);
        dap.push(0, seg(0)).unwrap();
        dap.retire(seg(5));
        dap.rebuild(3, &[(seg(5), 2), (seg(6), 0), (seg(0), 1)]);
        assert_eq!(dap.free_count(), 2, "retired seg 5 dropped from rebuild");
        assert!(!dap.is_free(seg(5)));
        assert!(dap.is_retired(seg(5)), "retirement survives rebuild");
        assert_eq!(dap.pop(2), None);
    }

    #[test]
    fn peek_head_names_the_next_pop() {
        // After every step, `peek_head` must equal what the next pop of
        // each cluster returns and `free_list` what all its pops return,
        // checked on a clone; `cluster_of` names the list holding each
        // free segment and no cluster for any other.
        fn check(dap: &DynamicAddressPool) {
            let mut listed = 0;
            for c in 0..dap.k() + 1 {
                let mut probe = dap.clone();
                assert_eq!(dap.peek_head(c), probe.clone().pop(c), "cluster {c}");
                let pops: Vec<_> = std::iter::from_fn(|| probe.pop(c)).collect();
                assert_eq!(dap.free_list(c).collect::<Vec<_>>(), pops, "cluster {c}");
                for &s in &pops {
                    assert_eq!(dap.cluster_of(s), Some(c), "{s}");
                }
                listed += pops.len();
            }
            assert_eq!(listed, dap.free_count());
            for i in 0..40 {
                assert_eq!(dap.cluster_of(seg(i)).is_some(), dap.is_free(seg(i)), "{i}");
            }
        }
        let mut dap = DynamicAddressPool::new(2, 32, 0);
        check(&dap);
        dap.push(0, seg(7)).unwrap();
        check(&dap);
        for i in [3, 9, 1] {
            dap.push(0, seg(i)).unwrap();
            dap.push(1, seg(i + 10)).unwrap();
            check(&dap);
        }
        assert_eq!(dap.peek_head(0), Some(seg(7)));
        assert_eq!(dap.pop(0), Some(seg(7)));
        check(&dap);
        // Retiring the head moves the entry behind it up.
        assert!(dap.retire(seg(3)));
        assert_eq!(dap.peek_head(0), Some(seg(9)));
        check(&dap);
        assert!(dap.retire(seg(1)));
        check(&dap);
        assert_eq!(dap.pop_with_fallback(&[0, 1]), Some((seg(9), 0)));
        assert_eq!(dap.peek_head(0), None);
        check(&dap);
        dap.rebuild(3, &[(seg(4), 2), (seg(5), 2), (seg(6), 2), (seg(3), 2)]);
        assert_eq!(dap.peek_head(2), Some(seg(4)));
        check(&dap);
        dap.pop(2);
        dap.pop(2);
        assert_eq!(dap.peek_head(2), Some(seg(6)));
        check(&dap);
    }

    #[test]
    fn conservation_under_interleaving() {
        let mut dap = DynamicAddressPool::new(4, 64, 0);
        for i in 0..64 {
            dap.push(i % 4, seg(i)).unwrap();
        }
        let mut held = Vec::new();
        // Interleave pops and recycles.
        for round in 0..200 {
            if round % 3 == 0 && !held.is_empty() {
                let s: LogicalSegment = held.pop().unwrap();
                dap.push(round % 4, s).unwrap();
            } else if let Some((s, _)) = dap.pop_with_fallback(&[0, 1, 2, 3]) {
                held.push(s);
            }
            assert_eq!(dap.free_count() + held.len(), 64, "round {round}");
        }
    }
}
