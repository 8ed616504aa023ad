//! The two families of write schemes the paper compares against.
//!
//! * **In-place (RBW) schemes** transform the data written to a *fixed*
//!   address so that fewer bits flip: DCW, Flip-N-Write, MinShift,
//!   Captopril. They may keep per-address auxiliary bits (flags, shift
//!   amounts); flips of those bits are charged too, since real hardware
//!   stores them in spare cells of the same row.
//! * **Placement schemes** choose *which free address* receives a write:
//!   DATACON and Hamming-Tree. They see the pool of free segments and
//!   their contents. The ML placements — E2-NVM's VAE and PNW's PCA,
//!   each with K-means — are models served by the E2-NVM engine, not
//!   schemes here.

use e2nvm_sim::LogicalSegment;
use rand::rngs::StdRng;

/// Result of encoding one in-place write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InPlaceWrite {
    /// The bytes to store at the address (same length as the input).
    pub stored: Vec<u8>,
    /// Auxiliary metadata bits flipped by this write (flags, shift
    /// amounts), charged on top of the data-cell flips.
    pub aux_bits_flipped: u64,
}

/// A read-before-write scheme operating on a fixed address.
pub trait InPlaceScheme {
    /// Scheme name for reports.
    fn name(&self) -> &'static str;

    /// Encode `new` for storage at `addr`, given the currently stored
    /// bytes `old_stored`. Updates internal per-address metadata.
    ///
    /// Implementations must guarantee `decode(addr, &w.stored) == new`.
    fn encode(&mut self, addr: usize, old_stored: &[u8], new: &[u8]) -> InPlaceWrite;

    /// Recover the logical value from the stored representation.
    fn decode(&self, addr: usize, stored: &[u8]) -> Vec<u8>;

    /// Auxiliary metadata bits kept per word (for overhead reporting).
    fn aux_bits_per_word(&self) -> u32 {
        0
    }
}

/// A scheme that picks the destination address for each write from a
/// pool of free segments.
pub trait PlacementScheme {
    /// Scheme name for reports.
    fn name(&self) -> &'static str;

    /// (Re)build internal state from the current free pool: each entry
    /// is a free segment id and its current content.
    fn initialize(&mut self, free: &[(LogicalSegment, Vec<u8>)], rng: &mut StdRng);

    /// Pick and *remove* a free segment for `data`. `None` when the pool
    /// is exhausted.
    fn choose(&mut self, data: &[u8]) -> Option<LogicalSegment>;

    /// Return a segment (with its current content) to the free pool.
    fn recycle(&mut self, seg: LogicalSegment, content: &[u8]);

    /// Free segments currently available.
    fn free_count(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trait must be object-safe: the bench harness stores
    /// `Box<dyn PlacementScheme>`.
    #[test]
    fn traits_are_object_safe() {
        fn _take_inplace(_s: &mut dyn InPlaceScheme) {}
        fn _take_placement(_s: &mut dyn PlacementScheme) {}
    }
}
