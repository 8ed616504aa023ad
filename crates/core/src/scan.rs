//! A range scan as one lazy merge over the shards' index cursors, and
//! the reusable buffer it keeps its winners in.
//!
//! [`crate::ShardedEngine::scan_into`] locks every shard in ascending
//! index, one stack frame per shard, and opens a `Cursor` on the
//! shard's index range in the frame that holds its guard. Each cursor
//! links to the one opened before it, so the innermost frame reaches
//! them all without the heap, and runs the scan in three steps:
//! 1. **merge** — take the least head among the cursors, `limit`
//!    times. Keys are unique (shards hold disjoint keys) and every
//!    cursor is ascending, so that is the global key order, and a
//!    cursor advances only when its own head wins. Each winner is
//!    recorded as `(key, shard, physical slot, len)` in the
//!    [`ScanBuffer`]; nothing else is stored. The lines of the first
//!    `PREFETCHED_WINNERS` (128) winners' values are prefetched as they
//!    are recorded; losers are never touched.
//! 2. **charge** — each shard's remaining matches are only counted, up
//!    to `limit` minus its winners, and the shard is charged its
//!    winners plus that count in one call: Σ over shards of
//!    min(`limit`, matches), the losers included.
//! 3. **visit** — the winners go to the visitor in key order, their
//!    bytes read straight out of device memory. Only the merge can fail
//!    (it translates each winner's address), and merge and charge finish
//!    before the first visit, so an error means the visitor saw nothing.
//!
//! [`crate::E2Engine::scan`] is the one-cursor case.

use crate::error::Result;
use e2nvm_sim::{LogicalSegment, MemoryController, PhysicalSegment};
use std::ops::{Bound, RangeBounds};

/// How many winners' lines the merge prefetches as it records them,
/// each only as far as its value's bytes. The benchmark's scans return
/// at most 100 records, so there every winner is warmed: the variant
/// that measured fastest, where a window of 16 measured slower
/// (DESIGN.md §5, prefetch clause). The cap only bounds how many hints
/// a longer scan issues before its first copy; no measured workload
/// reaches it. A hint only: nothing it warms is counted.
const PREFETCHED_WINNERS: usize = 128;

/// One index match: key, segment, value length.
pub(crate) type Match = (u64, LogicalSegment, usize);

/// A merge winner: its key, the shard whose device holds it, and the
/// physical slot and length of its bytes there.
#[derive(Debug, Clone, Copy)]
struct Winner {
    key: u64,
    shard: usize,
    phys: PhysicalSegment,
    len: usize,
}

/// A reusable scan working set: the winners of the last
/// [`crate::ShardedEngine::scan_into`] in key order, and what it
/// charged. Keep one per scanning thread and hand it to every scan, so
/// a warm scan never touches the allocator.
#[derive(Debug, Default)]
pub struct ScanBuffer {
    winners: Vec<Winner>,
    read: usize,
}

impl ScanBuffer {
    /// An empty buffer (allocates on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Entries the last scan returned (its winners).
    pub fn len(&self) -> usize {
        self.winners.len()
    }

    /// Whether the last scan returned nothing.
    pub fn is_empty(&self) -> bool {
        self.winners.is_empty()
    }

    /// Records the last scan charged as device reads, losers included.
    pub fn read(&self) -> usize {
        self.read
    }

    /// Forget the last scan, keep the capacity.
    pub(crate) fn clear(&mut self) {
        self.winners.clear();
        self.read = 0;
    }
}

/// `range` as inclusive `(lo, hi)` bounds, or `None` if it holds no
/// key — inverted, or empty between two excluded bounds.
/// `BTreeMap::range` would panic on either.
pub(crate) fn inclusive(range: &impl RangeBounds<u64>) -> Option<(u64, u64)> {
    let lo = match range.start_bound() {
        Bound::Included(&lo) => lo,
        Bound::Excluded(&lo) => lo.checked_add(1)?,
        Bound::Unbounded => 0,
    };
    let hi = match range.end_bound() {
        Bound::Included(&hi) => hi,
        Bound::Excluded(&hi) => hi.checked_sub(1)?,
        Bound::Unbounded => u64::MAX,
    };
    (lo <= hi).then_some((lo, hi))
}

/// The cursors of the shards locked so far, reached from the innermost.
pub(crate) trait Cursors {
    /// Shard index of this cursor.
    fn shard(&self) -> usize;
    /// The least head key of this cursor and every outer one.
    fn least(&self) -> Option<u64>;
    /// Record that least head as the next winner, advance its cursor,
    /// and return the new least.
    fn take_least(&mut self, buf: &mut ScanBuffer) -> Result<Option<u64>>;
    /// Charge every shard its winners plus its other matches up to
    /// `limit`; returns the reads charged.
    fn charge(&mut self, limit: usize) -> usize;
    /// The controller of shard `shard`.
    fn controller(&self, shard: usize) -> &MemoryController;
}

/// One locked shard's index cursor over the scanned range, its
/// controller, and the cursors opened before it, whose least head it
/// keeps so that a step its own head wins touches no other cursor.
pub(crate) struct Cursor<'a, 'o, I> {
    shard: usize,
    head: Option<Match>,
    rest: I,
    won: usize,
    controller: &'a mut MemoryController,
    outer: Option<&'o mut dyn Cursors>,
    outer_least: Option<u64>,
}

impl<'a, 'o, I: Iterator<Item = Match>> Cursor<'a, 'o, I> {
    /// A cursor over `matches` (ascending), the next shard after
    /// `outer`'s.
    pub(crate) fn new(
        mut matches: I,
        controller: &'a mut MemoryController,
        outer: Option<&'o mut dyn Cursors>,
    ) -> Self {
        Self {
            shard: outer.as_ref().map_or(0, |o| o.shard() + 1),
            head: matches.next(),
            rest: matches,
            won: 0,
            controller,
            outer_least: outer.as_ref().and_then(|o| o.least()),
            outer,
        }
    }

    /// Record the least head of this cursor and the outer ones as the
    /// next winner and advance its cursor; `false` once all have run
    /// out. Only a step the outer cursors win leaves this one.
    #[inline(always)]
    fn step(&mut self, buf: &mut ScanBuffer) -> Result<bool> {
        match (self.head, &mut self.outer) {
            (Some((key, seg, len)), _) if self.outer_least.is_none_or(|o| key < o) => {
                let phys = self.controller.physical(seg)?;
                if buf.winners.len() < PREFETCHED_WINNERS {
                    self.controller.device().prefetch(phys, len);
                }
                buf.winners.push(Winner {
                    key,
                    shard: self.shard,
                    phys,
                    len,
                });
                self.won += 1;
                self.head = self.rest.next();
            }
            (_, Some(outer)) if self.outer_least.is_some() => {
                self.outer_least = outer.take_least(buf)?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Run the scan over this cursor — the innermost — and every outer
    /// one (the module docs' three steps) into an emptied `buf`: returns
    /// how many winners `f` was called with before it returned `false`
    /// or they ran out. On an error `f` has seen nothing and nothing was
    /// charged.
    pub(crate) fn merge_charge_visit(
        &mut self,
        limit: usize,
        buf: &mut ScanBuffer,
        f: &mut dyn FnMut(u64, &[u8]) -> bool,
    ) -> Result<usize> {
        while buf.winners.len() < limit && self.step(buf)? {}
        buf.read = self.charge(limit);
        let mut visited = 0;
        for w in &buf.winners {
            let bytes = self.controller(w.shard).device().peek(w.phys);
            visited += 1;
            if !f(w.key, &bytes[..w.len]) {
                break;
            }
        }
        Ok(visited)
    }
}

impl<I: Iterator<Item = Match>> Cursors for Cursor<'_, '_, I> {
    fn shard(&self) -> usize {
        self.shard
    }

    fn least(&self) -> Option<u64> {
        match (self.head, self.outer_least) {
            (Some((key, ..)), Some(outer)) => Some(key.min(outer)),
            (head, outer) => head.map(|(key, ..)| key).or(outer),
        }
    }

    fn take_least(&mut self, buf: &mut ScanBuffer) -> Result<Option<u64>> {
        self.step(buf)?;
        Ok(self.least())
    }

    fn charge(&mut self, limit: usize) -> usize {
        let losers = match self.head {
            Some(_) if self.won < limit => {
                1 + self.rest.by_ref().take(limit - self.won - 1).count()
            }
            _ => 0,
        };
        let read = self.won + losers;
        self.controller.charge_reads(read);
        read + self.outer.as_mut().map_or(0, |o| o.charge(limit))
    }

    fn controller(&self, shard: usize) -> &MemoryController {
        match &self.outer {
            Some(outer) if shard != self.shard => outer.controller(shard),
            _ => &*self.controller,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::inclusive;
    use std::ops::Bound::{Excluded, Included, Unbounded};

    #[test]
    #[allow(clippy::reversed_empty_ranges)]
    fn inclusive_bounds_of_every_range_form() {
        assert_eq!(inclusive(&(3..=5)), Some((3, 5)));
        assert_eq!(inclusive(&(3..5)), Some((3, 4)));
        assert_eq!(inclusive(&(..)), Some((0, u64::MAX)));
        assert_eq!(inclusive(&(Excluded(3), Included(4))), Some((4, 4)));
        assert_eq!(inclusive(&(5..=3)), None);
        assert_eq!(inclusive(&(4..4)), None);
        assert_eq!(inclusive(&(Excluded(4), Excluded(4))), None);
        assert_eq!(inclusive(&(Excluded(4), Excluded(5))), None);
        assert_eq!(inclusive(&(Excluded(u64::MAX), Unbounded)), None);
        assert_eq!(inclusive(&(..0)), None);
    }
}
