//! Wear-leveling policies for the memory controller.
//!
//! Real Optane controllers run proprietary wear leveling; prior work (and
//! the paper's §2.1) characterizes it as a segment swap every ψ writes,
//! with ψ on the order of tens of writes. The set of policies is closed —
//! no wear leveling, start-gap rotation (Qureshi et al., MICRO '09) and a
//! random swap — and [`WearPolicy`] is both the policy and its persisted
//! state: the controller holds it by value and snapshots copy it.
//! Policies operate purely on [`PhysicalSegment`] ids — relocation is a
//! *device-space* concern; logical names never move. The controller
//! applies each proposed [`SwapAction`] to the device and its
//! [`crate::SegmentRemap`], then confirms it via
//! [`WearPolicy::on_applied`].
//!
//! The propose/confirm split matters because an action can be *skipped*:
//! the controller refuses relocations that would touch a retired segment
//! or push a segment over its endurance limit (relocation traffic must
//! never be the thing that kills a segment). A policy only advances its
//! own bookkeeping — e.g. the start-gap position — when the controller
//! confirms the action actually happened.

use crate::addr::PhysicalSegment;
use serde::{Deserialize, Serialize};

/// A physical relocation the controller must perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapAction {
    /// Exchange the contents of two physical segments.
    Swap(PhysicalSegment, PhysicalSegment),
    /// Move the contents of `src` into the unmapped gap segment,
    /// making `src` the new gap. Used by start-gap.
    MoveToGap {
        /// Segment whose content moves.
        src: PhysicalSegment,
        /// Current gap segment receiving the content.
        gap: PhysicalSegment,
    },
}

/// A wear-leveling policy together with its position, which is all the
/// state it has: persisting the value and installing it again resumes
/// the policy exactly where it left off — including the random-swap
/// RNG, which is a counter-based stream precisely so this value stays
/// small. [`crate::MemoryController::from_state`] validates the fields
/// against the device it is installed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WearPolicy {
    /// No wear leveling: the translation stays the identity forever.
    None,
    /// Start-gap rotation: one physical segment is kept as a *gap* (no
    /// logical preimage); every ψ writes the segment preceding the gap
    /// moves into it, rotating the whole address space over time.
    ///
    /// Retired-aware: the rotation walks backward past quarantined
    /// predecessors rather than proposing a move out of a dead slot. If
    /// every candidate is retired the rotation halts — the device is
    /// nearly dead at that point and retirement reporting takes over.
    StartGap {
        /// Swap period ψ.
        psi: u64,
        /// Writes observed so far.
        writes: u64,
        /// Current gap slot.
        gap: PhysicalSegment,
    },
    /// Random swap: every ψ writes, the most recently written segment is
    /// swapped with a uniformly random other segment — the model of
    /// proprietary controllers used by the paper's Figure 2.
    ///
    /// Retired-aware: partners are redrawn until a live one comes up
    /// (with a bounded number of attempts), and no proposal is made at
    /// all when the written segment itself is quarantined mid-flight.
    RandomSwap {
        /// Swap period ψ.
        psi: u64,
        /// RNG stream seed.
        seed: u64,
        /// Writes observed so far.
        writes: u64,
        /// RNG draws consumed so far.
        draws: u64,
    },
}

/// SplitMix64 — the same tiny deterministic generator the fault model
/// uses; counter-based here so the RNG state serializes as two u64s.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Count one write; true when the period ψ has just elapsed.
fn tick(writes: &mut u64, psi: u64) -> bool {
    *writes += 1;
    (*writes).is_multiple_of(psi)
}

impl WearPolicy {
    /// Count one write to physical segment `written` on a device of
    /// `physical` segments; returns a proposed action when a relocation
    /// is due. `retired` holds the per-physical quarantine flags (a
    /// segment past its end counts as live), so the proposal routes
    /// around dead slots. Proposing does not assume the action will be
    /// applied — position bookkeeping waits for
    /// [`WearPolicy::on_applied`].
    pub fn on_write(
        &mut self,
        written: PhysicalSegment,
        retired: &[bool],
        physical: usize,
    ) -> Option<SwapAction> {
        let is_retired = |p: usize| retired.get(p).copied().unwrap_or(false);
        match self {
            WearPolicy::None => None,
            WearPolicy::StartGap { psi, writes, gap } => {
                if !tick(writes, *psi) {
                    return None;
                }
                // Walk backward from the gap, skipping retired slots;
                // give up after a full lap (everything else retired).
                let mut src = gap.0;
                for _ in 0..physical - 1 {
                    src = (src + physical - 1) % physical;
                    if !is_retired(src) {
                        return Some(SwapAction::MoveToGap {
                            src: PhysicalSegment(src),
                            gap: *gap,
                        });
                    }
                }
                None
            }
            WearPolicy::RandomSwap {
                psi,
                seed,
                writes,
                draws,
            } => {
                if !tick(writes, *psi) || is_retired(written.0) {
                    return None;
                }
                // Pick a live partner different from the written
                // segment; bounded redraws so a mostly-retired device
                // can't spin.
                for _ in 0..4 * physical {
                    *draws += 1;
                    let draw =
                        splitmix64(seed.wrapping_add(draws.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
                    let mut other = (draw % (physical as u64 - 1)) as usize;
                    if other >= written.0 {
                        other += 1;
                    }
                    if !is_retired(other) {
                        return Some(SwapAction::Swap(written, PhysicalSegment(other)));
                    }
                }
                None
            }
        }
    }

    /// The controller applied `action` to the device and remap table;
    /// commit the position bookkeeping tied to it.
    pub fn on_applied(&mut self, action: &SwapAction) {
        if let (WearPolicy::StartGap { gap, .. }, SwapAction::MoveToGap { src, .. }) =
            (self, action)
        {
            *gap = *src;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start_gap(physical: usize, psi: u64) -> WearPolicy {
        WearPolicy::StartGap {
            psi,
            writes: 0,
            gap: PhysicalSegment(physical - 1),
        }
    }

    fn random_swap(psi: u64, seed: u64) -> WearPolicy {
        WearPolicy::RandomSwap {
            psi,
            seed,
            writes: 0,
            draws: 0,
        }
    }

    fn gap(policy: &WearPolicy) -> PhysicalSegment {
        match policy {
            WearPolicy::StartGap { gap, .. } => *gap,
            other => panic!("not start-gap: {other:?}"),
        }
    }

    #[test]
    fn no_wear_leveling_never_acts() {
        let mut wl = WearPolicy::None;
        for i in 0..1000 {
            assert!(wl.on_write(PhysicalSegment(i % 7), &[], 7).is_none());
        }
        assert_eq!(wl, WearPolicy::None);
    }

    #[test]
    fn start_gap_rotates_every_psi() {
        let mut wl = start_gap(4, 3);
        let s0 = PhysicalSegment(0);
        assert!(wl.on_write(s0, &[], 4).is_none());
        assert!(wl.on_write(s0, &[], 4).is_none());
        // Third write proposes: segment 2 moves into gap 3. The gap
        // only advances once the controller confirms the move.
        let action = wl.on_write(s0, &[], 4).expect("psi elapsed");
        assert_eq!(
            action,
            SwapAction::MoveToGap {
                src: PhysicalSegment(2),
                gap: PhysicalSegment(3)
            }
        );
        assert_eq!(gap(&wl), PhysicalSegment(3), "gap unchanged until applied");
        wl.on_applied(&action);
        assert_eq!(gap(&wl), PhysicalSegment(2));
        // Next confirmed trigger moves segment 1 into gap 2.
        wl.on_write(s0, &[], 4);
        wl.on_write(s0, &[], 4);
        let action = wl.on_write(s0, &[], 4).expect("psi elapsed");
        assert_eq!(
            action,
            SwapAction::MoveToGap {
                src: PhysicalSegment(1),
                gap: PhysicalSegment(2)
            }
        );
    }

    #[test]
    fn start_gap_skipped_proposal_does_not_move_gap() {
        let mut wl = start_gap(4, 1);
        let first = wl.on_write(PhysicalSegment(0), &[], 4).unwrap();
        // Controller skipped it (e.g. unsafe relocation): no on_applied.
        let second = wl.on_write(PhysicalSegment(0), &[], 4).unwrap();
        assert_eq!(first, second, "unconfirmed proposal must be re-proposed");
    }

    #[test]
    fn start_gap_gap_wraps_around() {
        let mut wl = start_gap(3, 1);
        let mut gaps = vec![gap(&wl).0];
        for _ in 0..6 {
            if let Some(a) = wl.on_write(PhysicalSegment(0), &[], 3) {
                wl.on_applied(&a);
            }
            gaps.push(gap(&wl).0);
        }
        // Gap cycles 2 -> 1 -> 0 -> 2 -> ...
        assert_eq!(gaps, vec![2, 1, 0, 2, 1, 0, 2]);
    }

    #[test]
    fn start_gap_walks_past_retired_predecessor() {
        let mut wl = start_gap(4, 1);
        // Slot 2 (the gap's predecessor) is quarantined.
        let retired = [false, false, true, false];
        let action = wl.on_write(PhysicalSegment(0), &retired, 4).unwrap();
        assert_eq!(
            action,
            SwapAction::MoveToGap {
                src: PhysicalSegment(1),
                gap: PhysicalSegment(3)
            }
        );
    }

    #[test]
    fn start_gap_halts_when_all_candidates_retired() {
        let mut wl = start_gap(3, 1);
        let retired = [true, true, false];
        assert!(wl.on_write(PhysicalSegment(2), &retired, 3).is_none());
    }

    #[test]
    fn random_swap_partner_differs() {
        let mut wl = random_swap(1, 42);
        for i in 0..200 {
            let seg = PhysicalSegment(i % 8);
            match wl.on_write(seg, &[], 8) {
                Some(SwapAction::Swap(a, b)) => {
                    assert_ne!(a, b);
                    assert!(b.0 < 8);
                    assert_eq!(a, seg);
                }
                other => panic!("expected swap every write, got {other:?}"),
            }
        }
    }

    #[test]
    fn random_swap_respects_period() {
        let mut wl = random_swap(5, 1);
        let actions: Vec<bool> = (0..20)
            .map(|i| wl.on_write(PhysicalSegment(i % 4), &[], 4).is_some())
            .collect();
        let count = actions.iter().filter(|&&x| x).count();
        assert_eq!(count, 4);
        assert!(actions[4] && actions[9] && actions[14] && actions[19]);
    }

    #[test]
    fn random_swap_avoids_retired_partner() {
        let mut wl = random_swap(1, 7);
        // Only slot 3 is a legal partner for writes to slot 0.
        let retired = [false, true, true, false];
        for _ in 0..50 {
            match wl.on_write(PhysicalSegment(0), &retired, 4) {
                Some(SwapAction::Swap(_, b)) => assert_eq!(b, PhysicalSegment(3)),
                other => panic!("expected swap, got {other:?}"),
            }
        }
    }
}
