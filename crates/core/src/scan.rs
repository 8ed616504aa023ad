//! The flat buffer a scan travels in, from the shards' index walks to
//! whoever consumes the entries: `(key, start, len)` entries over one
//! byte arena, plus the scan's working set, all reused across scans, so
//! a warm scan never touches the allocator no matter how many records
//! it returns.
//!
//! A scan runs in three steps over it:
//! 1. **walk** — [`crate::E2Engine`]'s one scan walk appends a run of
//!    locations (key, segment, length; ascending, because it is an
//!    index walk) and charges the run's device reads in one call;
//! 2. **merge** — `ScanBuffer::merge` merges the runs by key and gives
//!    each of the first `limit` — the winners — its entry slot;
//! 3. **copy** — `ScanBuffer::copy_winners` copies one run's winners'
//!    bytes into the arena with unaccounted peeks. Each run's winners
//!    are a prefix of it, and losers' bytes are never copied.
//!
//! Entries are in key order; the arena holds the bytes in whatever
//! order the runs were copied, each entry pointing at its own.

use crate::error::Result;
use e2nvm_sim::{LogicalSegment, MemoryController};

/// One scanned record: its key and where its bytes sit in the arena.
/// Offsets are `usize`, so an unbounded scan cannot overflow them
/// before the arena's own `Vec` runs out of address space.
#[derive(Debug, Clone, Copy)]
struct ScanEntry {
    key: u64,
    start: usize,
    len: usize,
}

/// Where one walked record lives on its shard's device, and — once
/// the merge has picked it — which entry it fills.
#[derive(Debug, Clone, Copy)]
struct ScanLoc {
    key: u64,
    seg: LogicalSegment,
    len: usize,
    slot: usize,
}

/// One walk's locations: `locs[start..end]`, of which the merge took
/// `locs[start..next]`.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: usize,
    next: usize,
    end: usize,
}

/// A reusable scan result: the entries of the last
/// [`crate::ShardedEngine::scan_into`] in key order. Keep one per
/// scanning thread and hand it to every scan.
#[derive(Debug, Default)]
pub struct ScanBuffer {
    entries: Vec<ScanEntry>,
    bytes: Vec<u8>,
    locs: Vec<ScanLoc>,
    runs: Vec<Run>,
}

impl ScanBuffer {
    /// An empty buffer (allocates on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget the entries, keep the capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.bytes.clear();
        self.locs.clear();
        self.runs.clear();
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, in the order they are held.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u64, &[u8])> {
        self.entries
            .iter()
            .map(|e| (e.key, &self.bytes[e.start..e.start + e.len]))
    }

    /// The entries as owned pairs — what the `Vec`-returning scans
    /// collect.
    pub fn to_vec(&self) -> Vec<(u64, Vec<u8>)> {
        self.iter().map(|(k, v)| (k, v.to_vec())).collect()
    }

    /// Records walked by every run so far — the reads charged for them.
    pub(crate) fn walked(&self) -> usize {
        self.locs.len()
    }

    /// Append a run of `(key, segment, len)` locations, ascending by
    /// key, and return its index.
    pub(crate) fn push_run(
        &mut self,
        locs: impl Iterator<Item = (u64, LogicalSegment, usize)>,
    ) -> usize {
        let start = self.locs.len();
        self.locs.extend(locs.map(|(key, seg, len)| ScanLoc {
            key,
            seg,
            len,
            slot: 0,
        }));
        self.runs.push(Run {
            start,
            next: start,
            end: self.locs.len(),
        });
        self.runs.len() - 1
    }

    /// The segments run `run` walked — what its device charge covers.
    pub(crate) fn run_segments(&self, run: usize) -> impl Iterator<Item = LogicalSegment> + '_ {
        let Run { start, end, .. } = self.runs[run];
        self.locs[start..end].iter().map(|l| l.seg)
    }

    /// Merge every run by key and give the first `limit` their entry
    /// slots, in key order. Runs are ascending and keys are unique
    /// (shards hold disjoint keys), so taking the smallest head each
    /// time is the global order. A run's winners are its prefix
    /// `locs[start..next]`.
    pub(crate) fn merge(&mut self, limit: usize) {
        let Self {
            entries,
            locs,
            runs,
            ..
        } = self;
        while entries.len() < limit {
            let mut best: Option<(usize, u64)> = None;
            for (r, run) in runs.iter().enumerate() {
                if run.next < run.end {
                    let key = locs[run.next].key;
                    if best.map_or(true, |(_, k)| key < k) {
                        best = Some((r, key));
                    }
                }
            }
            let Some((r, key)) = best else { break };
            let loc = &mut locs[runs[r].next];
            runs[r].next += 1;
            loc.slot = entries.len();
            entries.push(ScanEntry {
                key,
                start: 0,
                len: loc.len,
            });
        }
    }

    /// Copy run `run`'s winners' bytes into the arena, reading them off
    /// `controller` — the device its walk charged — without accounting.
    pub(crate) fn copy_winners(&mut self, run: usize, controller: &MemoryController) -> Result<()> {
        let Run { start, next, .. } = self.runs[run];
        for loc in &self.locs[start..next] {
            let data = controller.peek(loc.seg)?;
            self.entries[loc.slot].start = self.bytes.len();
            self.bytes.extend_from_slice(&data[..loc.len]);
        }
        Ok(())
    }
}
