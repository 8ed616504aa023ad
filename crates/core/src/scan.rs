//! The flat buffer a scan travels in, from the shards' index walks to
//! whoever consumes the entries: `(key, start, len)` entries over one
//! byte arena, both reused across scans, so a warm scan never touches
//! the allocator no matter how many records it returns.
//!
//! [`crate::E2Engine::scan_append`] appends one shard's run (ascending —
//! it is an index walk), [`crate::ShardedEngine::scan_into`] fills the
//! buffer shard by shard and orders the entries by key. Only the small
//! fixed-size entries move when they are ordered; the value bytes stay
//! where the device read put them.

/// One scanned record: its key and where its bytes sit in the arena.
/// Offsets are `usize`, so an unbounded scan cannot overflow them
/// before the arena's own `Vec` runs out of address space.
#[derive(Debug, Clone, Copy)]
struct ScanEntry {
    key: u64,
    start: usize,
    len: usize,
}

/// A reusable scan result: the entries of the last
/// [`crate::ShardedEngine::scan_into`] in key order. Keep one per
/// scanning thread and hand it to every scan.
#[derive(Debug, Default)]
pub struct ScanBuffer {
    entries: Vec<ScanEntry>,
    bytes: Vec<u8>,
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

    /// Append one entry, copying `value` into the arena.
    pub(crate) fn push(&mut self, key: u64, value: &[u8]) {
        self.entries.push(ScanEntry {
            key,
            start: self.bytes.len(),
            len: value.len(),
        });
        self.bytes.extend_from_slice(value);
    }

    /// Order the entries by key and keep the first `limit`. In place:
    /// an unstable sort needs no scratch, keys are unique (shards hold
    /// disjoint keys), so it is also deterministic, and one shard's
    /// run — already ascending — costs it a single pass.
    pub(crate) fn keep_lowest(&mut self, limit: usize) {
        self.entries.sort_unstable_by_key(|e| e.key);
        self.entries.truncate(limit);
    }
}
