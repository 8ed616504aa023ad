//! The memory controller: the owner of the logical→physical segment
//! translation, plus one of a closed set of wear-leveling policies.
//!
//! Software (the E2-NVM layer, the baselines, the KV stores) addresses
//! [`LogicalSegment`]s. The controller translates each access through
//! its [`SegmentRemap`] to the [`PhysicalSegment`] backing it, forwards
//! the access to the device, and — every ψ writes, per its
//! [`WearPolicy`] — physically relocates segments, updating the remap.
//! Relocations are charged to the device like any other traffic, so
//! their extra bit flips and energy show up in the stats, exactly the
//! interference the paper's Figure 2 studies.
//!
//! The translation is *queryable* ([`MemoryController::remap`]), which
//! is what lets wear-keyed subsystems compose with wear leveling:
//! retirement quarantines the physical slot a dying write actually hit
//! ([`MemoryController::retire`]), heatmaps can be read in either
//! address space, and snapshots persist the whole mapping, policy
//! included ([`MemoryController::export_state`]), instead of refusing
//! to run.
//!
//! Relocation safety: before applying a proposed [`SwapAction`] the
//! controller pre-checks endurance headroom on every destination
//! ([`NvmDevice::write_would_wear_out`]) and skips actions that touch a
//! retired slot or cannot prove headroom (counted in
//! [`MemoryController::skipped_relocations`]). Wear-out therefore only
//! ever fires on *user* writes, where the engine's retire-and-replace
//! path guarantees zero data loss.

use crate::addr::{LogicalSegment, PhysicalSegment, SegmentRemap};
use crate::device::{NvmDevice, WriteReport};
use crate::error::{Result, SimError};
use crate::stats::DeviceStats;
use crate::wear_leveling::{SwapAction, WearPolicy};
use e2nvm_telemetry::{Event, TelemetryRegistry};
use serde::{Deserialize, Serialize};

/// Serializable controller state: everything needed to rebuild the
/// translation layer after a restart — the wear-leveling policy with
/// its position, the logical→physical forward table, and the
/// per-physical retired flags. Persisted as its own section of the
/// E2SS snapshot format (v2), which is what lifted the old "snapshots
/// refused under active wear leveling" restriction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerState {
    /// The wear-leveling policy, exactly as the controller holds it.
    pub policy: WearPolicy,
    /// Forward table: `remap[l]` = physical slot backing logical `l`.
    pub remap: Vec<usize>,
    /// Per-physical-segment retired (quarantined) flags.
    pub retired: Vec<bool>,
}

/// A device behind a remapping, wear-leveling controller.
pub struct MemoryController {
    device: NvmDevice,
    remap: SegmentRemap,
    /// The remap is the identity and can never change (no wear-leveling
    /// policy moves anything): logical `l` is physical `l`, and
    /// translating it loads nothing.
    identity: bool,
    policy: WearPolicy,
    /// Physical segments quarantined by [`MemoryController::retire`].
    retired: Vec<bool>,
    /// Wear-leveling proposals skipped because they touched a retired
    /// slot or could not prove endurance headroom.
    skipped_relocations: u64,
    /// Journal sink for wear-leveling events; a capacity-0 disconnected
    /// registry until [`MemoryController::attach_telemetry`] is called.
    telemetry: TelemetryRegistry,
}

/// The pass-through controller, so anything that takes a controller
/// also takes a bare device.
impl From<NvmDevice> for MemoryController {
    fn from(device: NvmDevice) -> Self {
        Self::without_wear_leveling(device)
    }
}

impl MemoryController {
    /// A fresh controller: identity translation (one segment short of
    /// the device under start-gap, whose last slot starts as the gap)
    /// and nothing retired.
    ///
    /// # Panics
    /// Panics if `policy` is invalid for the device (see
    /// [`MemoryController::from_state`]).
    fn build(device: NvmDevice, policy: WearPolicy) -> Self {
        let physical = device.num_segments();
        let logical = match policy {
            WearPolicy::StartGap { .. } => physical - 1,
            _ => physical,
        };
        let state = ControllerState {
            policy,
            remap: (0..logical).collect(),
            retired: vec![false; physical],
        };
        Self::from_state(device, &state).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Register the underlying device's metrics on `registry` and route
    /// wear-leveling events to its journal. `labels` distinguish this
    /// controller's series (e.g. `[("shard", "2")]`).
    pub fn attach_telemetry(&mut self, registry: &TelemetryRegistry, labels: &[(&str, &str)]) {
        self.device.attach_telemetry(registry, labels);
        self.telemetry = registry.clone();
    }

    /// A pass-through controller with no wear leveling.
    pub fn without_wear_leveling(device: NvmDevice) -> Self {
        Self::build(device, WearPolicy::None)
    }

    /// Start-gap wear leveling acting every `psi` writes. One physical
    /// segment is reserved as the gap, so the logical capacity is
    /// `device.num_segments() - 1`.
    ///
    /// # Panics
    /// Panics if `psi == 0` or the device has fewer than 2 segments.
    pub fn with_start_gap(device: NvmDevice, psi: u64) -> Self {
        let policy = WearPolicy::StartGap {
            psi,
            writes: 0,
            gap: PhysicalSegment(device.num_segments() - 1),
        };
        Self::build(device, policy)
    }

    /// Random-swap wear leveling acting every `psi` writes (the paper's
    /// model of proprietary controllers).
    ///
    /// # Panics
    /// Panics if `psi == 0` or the device has fewer than 2 segments.
    pub fn with_random_swap(device: NvmDevice, psi: u64, seed: u64) -> Self {
        let policy = WearPolicy::RandomSwap {
            psi,
            seed,
            writes: 0,
            draws: 0,
        };
        Self::build(device, policy)
    }

    /// Rebuild a controller from persisted [`ControllerState`] — the
    /// recovery path. The device must already carry its restored image
    /// (wear counters, fault state, contents); this reattaches the
    /// translation layer exactly where it left off. A state that does
    /// not fit the device — a table of the wrong size or not a
    /// bijection, a zero period ψ, a rotating policy on a one-segment
    /// device, a start-gap gap that is out of range or mapped — is
    /// [`SimError::InvalidConfig`].
    pub fn from_state(device: NvmDevice, state: &ControllerState) -> Result<Self> {
        let physical = device.num_segments();
        let invalid = |why: String| Err(SimError::InvalidConfig(why));
        if state.retired.len() != physical {
            return invalid(format!(
                "controller state has {} retired flags for a {}-segment device",
                state.retired.len(),
                physical
            ));
        }
        let Some(remap) = SegmentRemap::from_forward(state.remap.clone(), physical) else {
            return invalid("controller remap table is not a bijection onto the device".into());
        };
        match state.policy {
            WearPolicy::None => {}
            WearPolicy::StartGap { psi, .. } | WearPolicy::RandomSwap { psi, .. }
                if psi == 0 || physical < 2 =>
            {
                return invalid(format!(
                    "wear leveling needs psi >= 1 and at least 2 segments, \
                     got psi {psi} on {physical}"
                ));
            }
            WearPolicy::StartGap { gap, .. }
                if gap.0 >= physical || remap.logical(gap).is_some() =>
            {
                return invalid(format!(
                    "start-gap state names {gap} as the gap, which is out of range or mapped"
                ));
            }
            WearPolicy::StartGap { .. } | WearPolicy::RandomSwap { .. } => {}
        }
        Ok(Self {
            identity: matches!(state.policy, WearPolicy::None) && remap.is_identity(),
            device,
            remap,
            policy: state.policy,
            retired: state.retired.clone(),
            skipped_relocations: 0,
            telemetry: TelemetryRegistry::with_journal_capacity(0),
        })
    }

    /// Export the translation layer for persistence; the inverse of
    /// [`MemoryController::from_state`].
    pub fn export_state(&self) -> ControllerState {
        ControllerState {
            policy: self.policy,
            remap: self.remap.forward_table().to_vec(),
            retired: self.retired.clone(),
        }
    }

    /// Number of logical segments addressable by software.
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.remap.logical_len()
    }

    /// The live logical→physical translation table and its inverse.
    /// This is the API seam that makes wear-keyed subsystems compose:
    /// anything that must cross address spaces (retirement, heatmaps,
    /// snapshots, diagnostics) queries it instead of assuming identity.
    pub fn remap(&self) -> &SegmentRemap {
        &self.remap
    }

    /// The physical slot backing `logical` right now. A pass-through
    /// controller over an identity table answers without loading the
    /// table's entry (DESIGN.md §5, prefetch clause).
    #[inline]
    pub fn physical(&self, logical: LogicalSegment) -> Result<PhysicalSegment> {
        if self.identity && logical.index() < self.remap.logical_len() {
            return Ok(PhysicalSegment(logical.index()));
        }
        self.remap
            .physical(logical)
            .ok_or_else(|| SimError::SegmentOutOfRange {
                segment: logical.index(),
                num_segments: self.remap.logical_len(),
            })
    }

    /// Quarantine the physical segment currently backing `logical`.
    ///
    /// Called by the engine when a write to `logical` dies with a
    /// wear-out: the *slot the write actually hit* is what wore out, so
    /// that is what must never be handed out again — even after later
    /// relocations reassign the logical name. Returns the quarantined
    /// physical id. Safe to call straight from the write's error path:
    /// the remap only mutates after *successful* writes, so the failed
    /// write's translation is still live.
    pub fn retire(&mut self, logical: LogicalSegment) -> Result<PhysicalSegment> {
        let phys = self.physical(logical)?;
        self.retired[phys.index()] = true;
        Ok(phys)
    }

    /// Whether a physical segment is quarantined.
    pub fn is_retired(&self, phys: PhysicalSegment) -> bool {
        self.retired.get(phys.index()).copied().unwrap_or(false)
    }

    /// Number of quarantined physical segments — the figure health
    /// probes and the HEALTH wire summary report.
    pub fn retired_physical_count(&self) -> usize {
        self.retired.iter().filter(|&&r| r).count()
    }

    /// The quarantined physical segments, ascending.
    pub fn retired_physical(&self) -> Vec<PhysicalSegment> {
        self.retired
            .iter()
            .enumerate()
            .filter_map(|(i, &r)| r.then_some(PhysicalSegment(i)))
            .collect()
    }

    /// Wear-leveling proposals skipped for safety (retired slot
    /// involved, or endurance headroom could not be proven).
    pub fn skipped_relocations(&self) -> u64 {
        self.skipped_relocations
    }

    /// Record a journal event for a fault-model write error before
    /// propagating it (worn-out segments are rare, journal-worthy
    /// occurrences; transient failures are high-volume and only
    /// counted).
    fn journal_write_error(&self, err: &SimError) {
        if let SimError::SegmentWornOut { segment, .. } = err {
            self.telemetry
                .journal()
                .record(Event::SegmentWornOut { segment: *segment });
        }
    }

    /// Write a full logical segment.
    pub fn write(&mut self, logical: LogicalSegment, data: &[u8]) -> Result<WriteReport> {
        let phys = self.physical(logical)?;
        let mut report = self.device.write(phys, data).inspect_err(|e| {
            self.journal_write_error(e);
        })?;
        self.run_wear_leveling(phys, &mut report);
        Ok(report)
    }

    /// Write at an offset within a logical segment.
    pub fn write_at(
        &mut self,
        logical: LogicalSegment,
        offset: usize,
        data: &[u8],
    ) -> Result<WriteReport> {
        let phys = self.physical(logical)?;
        let mut report = self.device.write_at(phys, offset, data).inspect_err(|e| {
            self.journal_write_error(e);
        })?;
        self.run_wear_leveling(phys, &mut report);
        Ok(report)
    }

    /// Give the wear-leveling policy its per-write tick and apply (or
    /// safely skip) whatever it proposes. Infallible by design: a
    /// relocation problem must never surface as an error on the user
    /// write that triggered it — that write already succeeded.
    fn run_wear_leveling(&mut self, phys: PhysicalSegment, report: &mut WriteReport) {
        let physical = self.retired.len();
        let Some(action) = self.policy.on_write(phys, &self.retired, physical) else {
            return;
        };
        match self.try_apply(&action) {
            Ok(Some(r)) => {
                report.merge(&r);
                self.policy.on_applied(&action);
                let (a, b) = match action {
                    SwapAction::Swap(a, b) => (a, b),
                    SwapAction::MoveToGap { src, gap } => (src, gap),
                };
                self.telemetry
                    .journal()
                    .record(Event::WearLevelSwap { a: a.0, b: b.0 });
            }
            Ok(None) | Err(_) => {
                self.skipped_relocations += 1;
            }
        }
    }

    /// Apply a proposed action if every destination is live and has
    /// provable endurance headroom; `Ok(None)` means safely skipped.
    /// The remap mutates only after the device operation succeeds, and
    /// a partially applied swap rolls the contents back (unaccounted —
    /// unreachable in practice given the pre-check, but the remap must
    /// never disagree with the medium).
    fn try_apply(&mut self, action: &SwapAction) -> Result<Option<WriteReport>> {
        match *action {
            SwapAction::Swap(a, b) => {
                if self.is_retired(a) || self.is_retired(b) {
                    return Ok(None);
                }
                let ca = self.device.peek(a).to_vec();
                let cb = self.device.peek(b).to_vec();
                if self.device.write_would_wear_out(a, &cb)?
                    || self.device.write_would_wear_out(b, &ca)?
                {
                    return Ok(None);
                }
                match self.device.swap_segments(a, b) {
                    Ok(r) => {
                        self.remap.swap_physical(a, b);
                        Ok(Some(r))
                    }
                    Err(_) => {
                        self.device.seed_segment(a, &ca)?;
                        self.device.seed_segment(b, &cb)?;
                        Ok(None)
                    }
                }
            }
            SwapAction::MoveToGap { src, gap } => {
                if self.is_retired(src) || self.is_retired(gap) {
                    return Ok(None);
                }
                let content = self.device.peek(src).to_vec();
                if self.device.write_would_wear_out(gap, &content)? {
                    return Ok(None);
                }
                match self.device.write_retrying_transients(gap, &content) {
                    Ok(r) => {
                        self.remap.move_to_gap(src, gap);
                        Ok(Some(r))
                    }
                    // A half-programmed gap is harmless: it has no
                    // logical preimage until the remap commits.
                    Err(_) => Ok(None),
                }
            }
        }
    }

    /// Read a logical segment (with device read accounting). The slice
    /// is the device's own; callers copy out what they keep.
    pub fn read(&mut self, logical: LogicalSegment) -> Result<&[u8]> {
        let phys = self.physical(logical)?;
        self.device.read(phys)
    }

    /// Charge `n` full-segment reads in one call, returning nothing to
    /// read: the count-only form of [`MemoryController::read`] for a
    /// caller that takes the bytes it keeps with
    /// [`MemoryController::peek`], or none at all (a scan's losers).
    /// The stats end bit for bit where `n` `read`s would leave them.
    pub fn charge_reads(&mut self, n: usize) {
        self.device.charge_reads(n as u64);
    }

    /// Hint that `logical`'s bytes are about to be read or written:
    /// translate it and start loading the lines of the whole segment
    /// (see [`NvmDevice::prefetch`]). A no-op for an out-of-range id;
    /// counts nothing.
    #[inline]
    pub fn prefetch(&self, logical: LogicalSegment) {
        if let Ok(phys) = self.physical(logical) {
            self.device.prefetch(phys, usize::MAX);
        }
    }

    /// Inspect a logical segment's content without accounting.
    pub fn peek(&self, logical: LogicalSegment) -> Result<&[u8]> {
        let phys = self.physical(logical)?;
        Ok(self.device.peek(phys))
    }

    /// Seed a logical segment's content without accounting.
    pub fn seed(&mut self, logical: LogicalSegment, data: &[u8]) -> Result<()> {
        let phys = self.physical(logical)?;
        self.device.seed_segment(phys, data)
    }

    /// Cumulative device statistics (includes wear-leveling traffic).
    pub fn stats(&self) -> &DeviceStats {
        self.device.stats()
    }

    /// Reset the device statistics.
    pub fn reset_stats(&mut self) {
        self.device.reset_stats();
    }

    /// Borrow the underlying device.
    pub fn device(&self) -> &NvmDevice {
        &self.device
    }

    /// Check the remap table is a bijection from logical segments onto a
    /// subset of physical segments (test/diagnostic helper).
    pub fn remap_is_consistent(&self) -> bool {
        self.remap.is_consistent() && self.remap.physical_len() == self.device.num_segments()
    }
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("logical_segments", &self.remap.logical_len())
            .field("wear_leveling", &self.policy)
            .field("retired_physical", &self.retired_physical_count())
            .field("stats", self.device.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use crate::fault::FaultConfig;

    fn device(n: usize) -> NvmDevice {
        NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(256)
                .num_segments(n)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn passthrough_controller_preserves_contents() {
        let mut mc = MemoryController::without_wear_leveling(device(4));
        let seg = LogicalSegment(2);
        mc.write(seg, &vec![7u8; 256]).unwrap();
        assert_eq!(mc.read(seg).unwrap(), vec![7u8; 256]);
        assert_eq!(mc.num_segments(), 4);
        assert!(mc.remap_is_consistent());
    }

    /// A start-gap controller whose remap has rotated and whose energy
    /// and latency totals are the uneven sums earlier writes leave. Its
    /// costs are not binary
    /// fractions, so every addition rounds and a sum taken in another
    /// order — or as one multiply — lands on other bits.
    fn written_controller() -> MemoryController {
        let uneven = NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(256)
                .num_segments(16)
                .energy(crate::energy::EnergyParams {
                    ctrl_pj: 0.3,
                    read_line_pj: 0.7,
                    ..Default::default()
                })
                .latency(crate::latency::LatencyParams {
                    read_base_ns: 1.1,
                    read_line_ns: 0.13,
                    ..Default::default()
                })
                .build()
                .unwrap(),
        );
        let mut mc = MemoryController::with_start_gap(uneven, 3);
        for i in 0..40usize {
            let content: Vec<u8> = (0..256).map(|b| (b * 31 + i * 17) as u8).collect();
            mc.write(LogicalSegment(i % 15), &content).unwrap();
        }
        assert!(!mc.remap().is_identity());
        mc
    }

    /// Every field equal, the `f64` totals to the bit.
    fn assert_same_charge(run: &MemoryController, single: &MemoryController, what: &str) {
        let (a, b) = (run.stats(), single.stats());
        assert_eq!(a, b, "{what}");
        assert_eq!(a.energy_pj.to_bits(), b.energy_pj.to_bits(), "{what}");
        assert_eq!(a.latency_ns.to_bits(), b.latency_ns.to_bits(), "{what}");
    }

    #[test]
    fn charging_n_reads_matches_n_single_reads() {
        for n in [0usize, 1, 2, 97, 1000] {
            let mut charged = written_controller();
            let mut single = written_controller();
            charged.charge_reads(n);
            for i in 0..n {
                single.read(LogicalSegment((i * 7) % 15)).unwrap();
            }
            assert_same_charge(&charged, &single, &format!("n = {n}"));
        }
    }

    /// Every translation a controller answers equals its table's, in
    /// range and out: the pass-through controller answers without
    /// loading the table, a restored one with a permuted table and no
    /// policy through it.
    #[test]
    fn translation_matches_the_table() {
        let permuted = ControllerState {
            policy: WearPolicy::None,
            remap: vec![2, 0, 3, 1],
            retired: vec![false; 4],
        };
        let controllers = [
            MemoryController::without_wear_leveling(device(4)),
            MemoryController::from_state(device(4), &permuted).unwrap(),
            written_controller(),
        ];
        for mc in &controllers {
            for l in 0..mc.num_segments() + 3 {
                let got = mc.physical(LogicalSegment(l)).ok();
                assert_eq!(got, mc.remap().physical(LogicalSegment(l)), "{mc:?} at {l}");
            }
        }
        assert_eq!(
            controllers[1].physical(LogicalSegment(0)).unwrap(),
            PhysicalSegment(2)
        );
    }

    #[test]
    fn start_gap_reserves_one_segment() {
        let mc = MemoryController::with_start_gap(device(8), 10);
        assert_eq!(mc.num_segments(), 7);
    }

    #[test]
    fn start_gap_relocation_preserves_logical_view() {
        let mut mc = MemoryController::with_start_gap(device(4), 1);
        // Write distinct content to each logical segment; with psi=1 a
        // relocation happens on every write.
        for i in 0..3 {
            mc.write(LogicalSegment(i), &vec![i as u8 + 1; 256])
                .unwrap();
        }
        for _ in 0..20 {
            mc.write(LogicalSegment(0), &vec![0xEEu8; 256]).unwrap();
        }
        assert_eq!(mc.read(LogicalSegment(1)).unwrap(), vec![2u8; 256]);
        assert_eq!(mc.read(LogicalSegment(2)).unwrap(), vec![3u8; 256]);
        assert_eq!(mc.read(LogicalSegment(0)).unwrap(), vec![0xEEu8; 256]);
        assert!(mc.remap_is_consistent());
    }

    #[test]
    fn random_swap_preserves_logical_view() {
        let mut mc = MemoryController::with_random_swap(device(6), 2, 99);
        for i in 0..6 {
            mc.seed(LogicalSegment(i), &vec![i as u8; 256]).unwrap();
        }
        for round in 0..50u8 {
            mc.write(LogicalSegment((round % 6) as usize), &vec![round; 256])
                .unwrap();
            // After each write the most recent content must read back.
            assert_eq!(
                mc.read(LogicalSegment((round % 6) as usize)).unwrap(),
                vec![round; 256]
            );
            assert!(mc.remap_is_consistent());
        }
        assert!(mc.stats().swaps > 0);
    }

    #[test]
    fn wear_leveling_adds_flips() {
        // Identical writes to one segment: without wear leveling zero
        // flips after the first; with psi=1 random swap, relocations keep
        // flipping bits.
        let run = |mut mc: MemoryController| -> u64 {
            for i in 0..6 {
                mc.seed(LogicalSegment(i), &vec![(i as u8).wrapping_mul(37); 256])
                    .unwrap();
            }
            mc.reset_stats();
            for _ in 0..100 {
                mc.write(LogicalSegment(0), &vec![0u8.wrapping_mul(37); 256])
                    .unwrap();
            }
            mc.stats().bits_flipped
        };
        let without = run(MemoryController::without_wear_leveling(device(6)));
        let with = run(MemoryController::with_random_swap(device(6), 1, 5));
        assert!(without < with, "without={without} with={with}");
    }

    #[test]
    fn out_of_range_logical_rejected() {
        let mut mc = MemoryController::with_start_gap(device(4), 10);
        // Logical capacity is 3; index 3 is invalid.
        assert!(mc.write(LogicalSegment(3), &vec![0u8; 256]).is_err());
    }

    #[test]
    fn swap_traffic_included_in_write_report() {
        let mut mc = MemoryController::with_random_swap(device(4), 1, 3);
        for i in 0..4 {
            mc.seed(LogicalSegment(i), &vec![0xA5u8.wrapping_add(i as u8); 256])
                .unwrap();
        }
        let r = mc.write(LogicalSegment(0), &vec![0xA5u8; 256]).unwrap();
        // The report includes the swap's flips, which are nonzero because
        // the partner segment has different content.
        assert!(r.bits_flipped > 0);
    }

    #[test]
    fn retire_quarantines_the_backing_physical_slot() {
        let mut mc = MemoryController::with_start_gap(device(4), 1);
        // Drive relocations until logical 0 is no longer backed by
        // physical 0.
        for _ in 0..3 {
            mc.write(LogicalSegment(0), &vec![1u8; 256]).unwrap();
        }
        let backing = mc.remap().physical(LogicalSegment(0)).unwrap();
        assert_ne!(
            backing,
            PhysicalSegment(0),
            "relocation should have moved it"
        );
        let retired = mc.retire(LogicalSegment(0)).unwrap();
        assert_eq!(retired, backing, "retirement must hit the live translation");
        assert!(mc.is_retired(backing));
        assert!(!mc.is_retired(PhysicalSegment(0)));
        assert_eq!(mc.retired_physical_count(), 1);
        assert_eq!(mc.retired_physical(), vec![backing]);
    }

    #[test]
    fn relocations_route_around_retired_slots() {
        let mut mc = MemoryController::with_start_gap(device(5), 1);
        mc.retire(LogicalSegment(1)).unwrap();
        let dead = mc.remap().physical(LogicalSegment(1)).unwrap();
        for i in 0..40usize {
            mc.write(LogicalSegment(i % 4), &vec![i as u8; 256])
                .unwrap();
            assert!(mc.remap_is_consistent());
            // The retired slot keeps its preimage forever: nothing moves
            // in (it can't be the gap) and its content never relocates
            // out via wear leveling.
            assert_eq!(
                mc.remap().logical(dead),
                Some(LogicalSegment(1)),
                "retired slot must not participate in rotation"
            );
        }
        // The policy routed *around* the dead slot rather than proposing
        // actions the controller would then have to veto.
        assert_eq!(mc.skipped_relocations(), 0);
    }

    #[test]
    fn relocation_never_wears_out_a_segment() {
        // Tiny endurance budget + psi=1 start-gap: every write proposes a
        // relocation, and without the headroom pre-check a relocation
        // write would be the one that crosses the limit.
        let cfg = DeviceConfig::builder()
            .segment_bytes(64)
            .num_segments(4)
            .fault(FaultConfig {
                seed: 7,
                endurance_bits: 40_000,
                endurance_shape: 3.0,
                transient_rate: 0.0,
            })
            .build()
            .unwrap();
        let mut mc = MemoryController::with_start_gap(NvmDevice::new(cfg), 1);
        let mut user_wearouts = 0;
        for i in 0..20_000usize {
            let pattern = vec![(i % 251) as u8; 64];
            match mc.write(LogicalSegment(i % 3), &pattern) {
                Ok(_) => {}
                Err(SimError::SegmentWornOut { .. }) => user_wearouts += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(mc.remap_is_consistent());
        }
        // Wear-outs happened (the budget is tiny) but every one of them
        // surfaced on a user write, never inside a relocation.
        assert!(user_wearouts > 0, "budget was supposed to be exceeded");
        assert!(mc.skipped_relocations() > 0, "pre-check never engaged");
    }

    #[test]
    fn export_restore_roundtrips_mid_rotation() {
        let rotating: [fn(NvmDevice) -> MemoryController; 2] = [
            |dev| MemoryController::with_start_gap(dev, 2),
            |dev| MemoryController::with_random_swap(dev, 2, 99),
        ];
        for make in rotating {
            let mut mc = make(device(5));
            let logical = mc.num_segments();
            for i in 0..17usize {
                mc.write(LogicalSegment(i % logical), &vec![i as u8; 256])
                    .unwrap();
            }
            mc.retire(LogicalSegment(2)).unwrap();
            let state = mc.export_state();
            assert!(!mc.remap().is_identity(), "{:?}", state.policy);

            // Clone the device image the cheap way: replay contents into
            // a fresh device (wear state is irrelevant to this test).
            let mut dev2 = device(5);
            for p in 0..5 {
                let content = mc.device().peek(PhysicalSegment(p)).to_vec();
                dev2.seed_segment(PhysicalSegment(p), &content).unwrap();
            }
            let mut mc2 = MemoryController::from_state(dev2, &state).unwrap();

            assert_eq!(mc2.export_state(), state);
            assert_eq!(mc2.num_segments(), logical);
            assert_eq!(mc2.retired_physical(), mc.retired_physical());
            for l in 0..logical {
                assert_eq!(
                    mc.peek(LogicalSegment(l)).unwrap(),
                    mc2.peek(LogicalSegment(l)).unwrap(),
                    "logical {l} must read identically after restore"
                );
            }
            // Both controllers keep proposing identical relocations.
            for i in 0..12usize {
                let ra = mc
                    .write(LogicalSegment(i % logical), &vec![0x5Au8; 256])
                    .unwrap();
                let rb = mc2
                    .write(LogicalSegment(i % logical), &vec![0x5Au8; 256])
                    .unwrap();
                assert_eq!(ra.lines_written, rb.lines_written);
                assert_eq!(
                    mc.remap().forward_table(),
                    mc2.remap().forward_table(),
                    "restored {:?} diverged at write {i}",
                    state.policy
                );
            }
            assert_eq!(mc2.export_state(), mc.export_state());
        }
    }

    #[test]
    fn from_state_rejects_inconsistent_tables() {
        let identity = |n: usize| (0..n).collect::<Vec<_>>();
        let start_gap = |psi, gap| WearPolicy::StartGap {
            psi,
            writes: 0,
            gap: PhysicalSegment(gap),
        };
        let bad = [
            // Not a bijection; too few retired flags.
            (4, WearPolicy::None, vec![0, 0, 1, 2], 4),
            (4, WearPolicy::None, identity(4), 3),
            // Start-gap with ψ = 0, a gap past the device, or on a
            // one-segment device; random swap with ψ = 0.
            (4, start_gap(0, 3), identity(3), 4),
            (4, start_gap(2, 4), identity(3), 4),
            (1, start_gap(2, 0), identity(0), 1),
            (
                4,
                WearPolicy::RandomSwap {
                    psi: 0,
                    seed: 1,
                    writes: 0,
                    draws: 0,
                },
                identity(4),
                4,
            ),
            // The gap is mapped.
            (4, start_gap(2, 2), identity(3), 4),
        ];
        for (physical, policy, remap, flags) in bad {
            let state = ControllerState {
                policy,
                remap,
                retired: vec![false; flags],
            };
            let got = MemoryController::from_state(device(physical), &state);
            assert!(
                matches!(got, Err(SimError::InvalidConfig(_))),
                "{state:?} on {physical} segments"
            );
        }
    }

    #[test]
    #[should_panic(expected = "psi >= 1")]
    fn zero_psi_rejected() {
        MemoryController::with_start_gap(device(4), 0);
    }
}
