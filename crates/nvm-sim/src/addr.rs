//! Typed segment addressing: which address space a segment id lives in
//! is part of its type.
//!
//! The simulator exposes two address spaces:
//!
//! - [`PhysicalSegment`] — a slot on the device. Wear is physical:
//!   endurance limits, programmed-bit totals, worn-out flags, wear
//!   heatmaps and retirement quarantine are all keyed here, because the
//!   *medium* wears out, not the name software calls it by.
//! - [`LogicalSegment`] — the stable name software uses. The engine,
//!   dynamic address pool, key index and snapshots speak logical ids;
//!   the [`crate::MemoryController`] owns the (possibly non-identity)
//!   translation between the two, published as a [`SegmentRemap`].
//!
//! Before this split both spaces shared one untyped `usize` id, and
//! the retirement path quarantined *logical* ids — which silently
//! assumed the identity mapping and broke the moment a wear-leveling
//! policy relocated a segment (DESIGN.md §10). With distinct newtypes
//! that misuse class no longer compiles.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Sentinel for "no logical segment maps here" (the start-gap spare).
pub(crate) const GAP: usize = usize::MAX;

/// A segment address in the **logical** space: what the engine, DAP,
/// key index, and partition math use. Translate to the device's
/// physical space through [`crate::MemoryController::remap`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct LogicalSegment(pub usize);

/// A segment address in the **physical** space: an actual slot on the
/// [`crate::NvmDevice`]. Endurance limits, wear counters, worn-out
/// state and retirement quarantine are keyed here.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct PhysicalSegment(pub usize);

impl LogicalSegment {
    /// The raw index (e.g. for array indexing or display).
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl PhysicalSegment {
    /// The raw index (e.g. for array indexing or display).
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for LogicalSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lseg#{}", self.0)
    }
}

impl fmt::Display for PhysicalSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pseg#{}", self.0)
    }
}

/// The controller-owned logical→physical translation table and its
/// inverse, queryable by any layer that needs to cross address spaces
/// (wear attribution, quarantine, snapshots, debugging).
///
/// Invariants (checked by [`SegmentRemap::is_consistent`]):
/// - `physical` is injective: no two logical segments share a slot;
/// - `logical(physical(l)) == l` for every logical `l`;
/// - physical slots not hit by any logical id (e.g. the start-gap
///   spare) have no logical preimage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentRemap {
    /// `forward[l]` = physical slot backing logical `l`.
    forward: Vec<usize>,
    /// `inverse[p]` = logical id mapped to physical `p`, or [`GAP`].
    inverse: Vec<usize>,
}

impl SegmentRemap {
    /// Identity mapping over `n` segments (both spaces the same size).
    pub fn identity(n: usize) -> Self {
        Self {
            forward: (0..n).collect(),
            inverse: (0..n).collect(),
        }
    }

    /// Build from a forward table over `physical_segments` device
    /// slots; unmapped slots get no logical preimage. Fails if any
    /// entry is out of range or two logical ids share a physical slot.
    pub fn from_forward(forward: Vec<usize>, physical_segments: usize) -> Option<Self> {
        let mut inverse = vec![GAP; physical_segments];
        for (l, &p) in forward.iter().enumerate() {
            if p >= physical_segments || inverse[p] != GAP {
                return None;
            }
            inverse[p] = l;
        }
        Some(Self { forward, inverse })
    }

    /// The physical slot backing logical segment `l`, or `None` if `l`
    /// is out of range.
    #[inline]
    pub fn physical(&self, l: LogicalSegment) -> Option<PhysicalSegment> {
        self.forward.get(l.0).map(|&p| PhysicalSegment(p))
    }

    /// The logical segment mapped to physical slot `p`; `None` if `p`
    /// is out of range or currently unmapped (the start-gap spare).
    #[inline]
    pub fn logical(&self, p: PhysicalSegment) -> Option<LogicalSegment> {
        match self.inverse.get(p.0) {
            Some(&l) if l != GAP => Some(LogicalSegment(l)),
            _ => None,
        }
    }

    /// Number of logical segments.
    pub fn logical_len(&self) -> usize {
        self.forward.len()
    }

    /// Number of physical slots (≥ [`SegmentRemap::logical_len`]).
    pub fn physical_len(&self) -> usize {
        self.inverse.len()
    }

    /// Whether the mapping is the identity over equal-sized spaces.
    pub fn is_identity(&self) -> bool {
        self.forward.len() == self.inverse.len()
            && self.forward.iter().enumerate().all(|(l, &p)| l == p)
    }

    /// The forward table as raw indices (`table[l]` = physical slot),
    /// the shape snapshots serialize.
    pub fn forward_table(&self) -> &[usize] {
        &self.forward
    }

    /// Check the bijection invariants; `false` means the table was
    /// corrupted (every mutation in the controller preserves them).
    pub fn is_consistent(&self) -> bool {
        if self.forward.len() > self.inverse.len() {
            return false;
        }
        let mut seen = vec![false; self.inverse.len()];
        for (l, &p) in self.forward.iter().enumerate() {
            if p >= self.inverse.len() || seen[p] || self.inverse[p] != l {
                return false;
            }
            seen[p] = true;
        }
        self.inverse
            .iter()
            .all(|&l| l == GAP || (l < self.forward.len() && seen[self.forward[l]]))
    }

    /// Swap the logical preimages of two physical slots (both must be
    /// mapped). Used by the controller when it applies a
    /// [`crate::SwapAction::Swap`].
    pub(crate) fn swap_physical(&mut self, a: PhysicalSegment, b: PhysicalSegment) {
        let la = self.inverse[a.0];
        let lb = self.inverse[b.0];
        debug_assert!(la != GAP && lb != GAP);
        self.forward[la] = b.0;
        self.forward[lb] = a.0;
        self.inverse.swap(a.0, b.0);
    }

    /// Move the logical preimage of `src` onto the unmapped slot `gap`,
    /// leaving `src` unmapped (the new gap). Used by the controller
    /// when it applies a [`crate::SwapAction::MoveToGap`].
    pub(crate) fn move_to_gap(&mut self, src: PhysicalSegment, gap: PhysicalSegment) {
        let l = self.inverse[src.0];
        debug_assert!(l != GAP && self.inverse[gap.0] == GAP);
        self.forward[l] = gap.0;
        self.inverse[gap.0] = l;
        self.inverse[src.0] = GAP;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrips() {
        let r = SegmentRemap::identity(4);
        assert!(r.is_identity());
        assert!(r.is_consistent());
        for i in 0..4 {
            assert_eq!(r.physical(LogicalSegment(i)), Some(PhysicalSegment(i)));
            assert_eq!(r.logical(PhysicalSegment(i)), Some(LogicalSegment(i)));
        }
        assert_eq!(r.physical(LogicalSegment(4)), None);
        assert_eq!(r.logical(PhysicalSegment(4)), None);
    }

    #[test]
    fn gap_slot_has_no_preimage() {
        // 3 logical over 4 physical, slot 3 is the gap.
        let r = SegmentRemap::from_forward(vec![0, 1, 2], 4).unwrap();
        assert!(!r.is_identity());
        assert!(r.is_consistent());
        assert_eq!(r.logical(PhysicalSegment(3)), None);
        assert_eq!(r.logical_len(), 3);
        assert_eq!(r.physical_len(), 4);
    }

    #[test]
    fn from_forward_rejects_aliasing_and_range() {
        assert!(SegmentRemap::from_forward(vec![0, 0], 4).is_none());
        assert!(SegmentRemap::from_forward(vec![0, 7], 4).is_none());
    }

    #[test]
    fn swap_and_move_preserve_consistency() {
        let mut r = SegmentRemap::from_forward(vec![0, 1, 2], 4).unwrap();
        r.swap_physical(PhysicalSegment(0), PhysicalSegment(2));
        assert!(r.is_consistent());
        assert_eq!(r.physical(LogicalSegment(0)), Some(PhysicalSegment(2)));
        assert_eq!(r.logical(PhysicalSegment(0)), Some(LogicalSegment(2)));
        r.move_to_gap(PhysicalSegment(1), PhysicalSegment(3));
        assert!(r.is_consistent());
        assert_eq!(r.physical(LogicalSegment(1)), Some(PhysicalSegment(3)));
        assert_eq!(r.logical(PhysicalSegment(1)), None);
    }

    #[test]
    fn displays_name_their_space() {
        assert_eq!(LogicalSegment(3).to_string(), "lseg#3");
        assert_eq!(PhysicalSegment(3).to_string(), "pseg#3");
    }
}
