//! Padding strategies (paper §4): fitting variable-size values into the
//! fixed model input.
//!
//! The model is trained on `w`-bit inputs; a value of `p < w` bits is
//! padded with `q = w − p` synthetic bits *for prediction only* — padded
//! bits are never written to NVM. Two axes (Figure 5):
//!
//! * **Location**: before the data (beginning), split around it
//!   (middle/edges), or after it (end).
//! * **Type**: universal data-agnostic (zero / one / random), universal
//!   data-aware (input-based IB, dataset-based DB, memory-based MB), or
//!   **learned** (an LSTM that slides a 64-bit window and predicts 8
//!   bits per step, §4.1.3).

pub mod learned;

pub use learned::LearnedPadder;

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Where the padding bits go relative to the value (paper Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PaddingLocation {
    /// `[pad..., data]`
    Beginning,
    /// `[pad/2..., data, pad/2...]` ("padding in the edges").
    Middle,
    /// `[data, pad...]`
    #[default]
    End,
}

impl PaddingLocation {
    /// All locations, in the paper's presentation order.
    pub const ALL: [PaddingLocation; 3] = [
        PaddingLocation::Beginning,
        PaddingLocation::Middle,
        PaddingLocation::End,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            PaddingLocation::Beginning => "beginning",
            PaddingLocation::Middle => "middle",
            PaddingLocation::End => "end",
        }
    }
}

/// How the padding bits are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PaddingType {
    /// All zeros.
    Zero,
    /// All ones.
    One,
    /// Uniform random bits.
    Random,
    /// Input-based: 1-bits with the probability of 1s in the input item.
    InputBased,
    /// Dataset-based: probability from all items observed so far.
    DatasetBased,
    /// Memory-based: probability from the resident memory contents.
    MemoryBased,
    /// LSTM-generated (the paper's best performer).
    #[default]
    Learned,
}

impl PaddingType {
    /// All types, in the paper's presentation order.
    pub const ALL: [PaddingType; 7] = [
        PaddingType::Zero,
        PaddingType::One,
        PaddingType::Random,
        PaddingType::InputBased,
        PaddingType::DatasetBased,
        PaddingType::MemoryBased,
        PaddingType::Learned,
    ];

    /// Display name (paper's abbreviations).
    pub fn name(&self) -> &'static str {
        match self {
            PaddingType::Zero => "zero",
            PaddingType::One => "one",
            PaddingType::Random => "rand",
            PaddingType::InputBased => "IB",
            PaddingType::DatasetBased => "DB",
            PaddingType::MemoryBased => "MB",
            PaddingType::Learned => "LB",
        }
    }
}

/// Stateful padder: tracks dataset/memory bit statistics and (for the
/// learned type) owns the LSTM generator.
#[derive(Debug)]
pub struct Padder {
    location: PaddingLocation,
    ptype: PaddingType,
    dataset_ones: u64,
    dataset_bits: u64,
    memory_ones_ratio: f32,
    learned: Option<LearnedPadder>,
}

impl Padder {
    /// Create a padder. For [`PaddingType::Learned`], call
    /// [`Padder::train_learned`] before padding (an untrained padder
    /// falls back to dataset-based generation).
    pub fn new(location: PaddingLocation, ptype: PaddingType) -> Self {
        Self {
            location,
            ptype,
            dataset_ones: 0,
            dataset_bits: 0,
            memory_ones_ratio: 0.5,
            learned: None,
        }
    }

    /// The configured location.
    pub fn location(&self) -> PaddingLocation {
        self.location
    }

    /// The configured type.
    pub fn padding_type(&self) -> PaddingType {
        self.ptype
    }

    /// Record one observed item (updates the dataset distribution used
    /// by [`PaddingType::DatasetBased`]).
    pub fn observe(&mut self, data: &[u8]) {
        self.dataset_ones += e2nvm_sim::bitops::popcount(data);
        self.dataset_bits += (data.len() * 8) as u64;
    }

    /// Set the resident-memory ones ratio used by
    /// [`PaddingType::MemoryBased`] (computed from a pool snapshot).
    pub fn set_memory_ratio(&mut self, ratio: f32) {
        self.memory_ones_ratio = ratio.clamp(0.0, 1.0);
    }

    /// Train the learned (LSTM) generator on resident memory contents.
    pub fn train_learned<R: Rng>(&mut self, segments: &[Vec<u8>], epochs: usize, rng: &mut R) {
        let mut padder = LearnedPadder::new(rng);
        padder.train(segments, epochs, rng);
        self.learned = Some(padder);
    }

    /// Pad `data` to the model input `out` — `input_bits / 8` bytes of
    /// packed bits, MSB-first as `e2nvm_ml::data::bytes_to_features`
    /// lays them out, which is what the prediction kernel reads. Stored
    /// bytes are unaffected (padding is prediction-only). The `q`
    /// padding bits are generated in ascending order, one RNG draw per
    /// bit for the randomized types, and land around the data as the
    /// location says (a [`PaddingLocation::Middle`] split falls on a
    /// nibble).
    ///
    /// # Panics
    /// Panics if `data` is longer than `out`.
    pub fn pad<R: Rng>(&self, data: &[u8], out: &mut [u8], rng: &mut R) {
        assert!(
            data.len() <= out.len(),
            "pad: data ({} bits) exceeds model input ({} bits)",
            data.len() * 8,
            out.len() * 8
        );
        let data_bits = data.len() * 8;
        let q = out.len() * 8 - data_bits;
        let before = match self.location {
            PaddingLocation::Beginning => q,
            PaddingLocation::Middle => q / 2,
            PaddingLocation::End => 0,
        };
        out.fill(0);
        let (byte, shift) = (before / 8, before % 8);
        if shift == 0 {
            out[byte..byte + data.len()].copy_from_slice(data);
        } else {
            for (i, &b) in data.iter().enumerate() {
                out[byte + i] |= b >> shift;
                out[byte + i + 1] |= b << (8 - shift);
            }
        }
        // Padding bit `j` of `q` sits before the data while `j < before`
        // and after it otherwise.
        let mut set = |j: usize| {
            let pos = if j < before { j } else { j + data_bits };
            out[pos / 8] |= 0x80 >> (pos % 8);
        };
        match self.ptype {
            PaddingType::Zero => {}
            PaddingType::One => (0..q).for_each(set),
            PaddingType::Random => {
                for j in 0..q {
                    if rng.gen::<bool>() {
                        set(j);
                    }
                }
            }
            PaddingType::InputBased => {
                let p = if data.is_empty() {
                    0.5
                } else {
                    e2nvm_sim::bitops::popcount(data) as f32 / data_bits as f32
                };
                bernoulli(p, q, rng, set);
            }
            PaddingType::DatasetBased => bernoulli(self.dataset_ratio(), q, rng, set),
            PaddingType::MemoryBased => bernoulli(self.memory_ones_ratio, q, rng, set),
            PaddingType::Learned => match &self.learned {
                Some(padder) => padder.generate(data, q, set),
                // Untrained learned padder: degrade gracefully to the
                // dataset distribution rather than panic mid-workload.
                None => bernoulli(self.dataset_ratio(), q, rng, set),
            },
        }
    }

    /// Share of one-bits among the items observed so far (0.5 before
    /// the first).
    fn dataset_ratio(&self) -> f32 {
        if self.dataset_bits == 0 {
            0.5
        } else {
            self.dataset_ones as f32 / self.dataset_bits as f32
        }
    }
}

/// Set each of the `q` padding bits with probability `p`, one draw per
/// bit in ascending order.
fn bernoulli<R: Rng>(p: f32, q: usize, rng: &mut R, mut set: impl FnMut(usize)) {
    for j in 0..q {
        if rng.gen::<f32>() < p {
            set(j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2nvm_ml::rng::seeded;

    /// Pad `data` into a fresh `out_bytes`-byte model input.
    fn padded(padder: &Padder, data: &[u8], out_bytes: usize, rng: &mut impl Rng) -> Vec<u8> {
        let mut out = vec![0xA5u8; out_bytes]; // stale content must not leak
        padder.pad(data, &mut out, rng);
        out
    }

    /// Share of one-bits in `bytes`.
    fn ones_ratio(bytes: &[u8]) -> f32 {
        e2nvm_sim::bitops::popcount(bytes) as f32 / (bytes.len() * 8) as f32
    }

    #[test]
    fn exact_size_passthrough() {
        let padder = Padder::new(PaddingLocation::End, PaddingType::Zero);
        let mut rng = seeded(1);
        assert_eq!(padded(&padder, &[0xFF], 1, &mut rng), [0xFF]);
    }

    #[test]
    fn locations_place_data_correctly() {
        let mut rng = seeded(2);
        let data = [0xFFu8]; // 8 one-bits
        for (loc, expect) in [
            (PaddingLocation::Beginning, [0x00, 0xFF]),
            (PaddingLocation::End, [0xFF, 0x00]),
            (PaddingLocation::Middle, [0x0F, 0xF0]),
        ] {
            let padder = Padder::new(loc, PaddingType::Zero);
            assert_eq!(
                padded(&padder, &data, 2, &mut rng),
                expect,
                "{}",
                loc.name()
            );
        }
    }

    #[test]
    fn middle_split_on_a_nibble_keeps_data_and_padding_apart() {
        let mut rng = seeded(9);
        let padder = Padder::new(PaddingLocation::Middle, PaddingType::One);
        // 3 padding bytes: 12 bits before the data, 12 after.
        assert_eq!(
            padded(&padder, &[0x00, 0x81], 5, &mut rng),
            [0xFF, 0xF0, 0x08, 0x1F, 0xFF]
        );
    }

    #[test]
    fn zero_one_random_types() {
        let mut rng = seeded(3);
        let data = [0x0Fu8];
        let end = |t| Padder::new(PaddingLocation::End, t);
        let zero = padded(&end(PaddingType::Zero), &data, 4, &mut rng);
        assert_eq!(zero, [0x0F, 0, 0, 0]);
        let one = padded(&end(PaddingType::One), &data, 4, &mut rng);
        assert_eq!(one, [0x0F, 0xFF, 0xFF, 0xFF]);
        let rand = padded(&end(PaddingType::Random), &data, 64, &mut rng);
        assert_eq!(rand[0], 0x0F);
        assert!(
            (ones_ratio(&rand[1..]) - 0.5).abs() < 0.1,
            "random not balanced"
        );
    }

    #[test]
    fn input_based_matches_input_distribution() {
        let mut rng = seeded(4);
        // Input 25% ones, like the paper's d1 = [0,0,0,1] example.
        let data = [0b0001_0001u8, 0b0000_0000];
        let padder = Padder::new(PaddingLocation::End, PaddingType::InputBased);
        let out = padded(&padder, &data, 2 + 512, &mut rng);
        let p = ones_ratio(&out[2..]);
        assert!((p - 2.0 / 16.0).abs() < 0.03, "p={p}");
    }

    #[test]
    fn dataset_based_tracks_observations() {
        let mut rng = seeded(5);
        let mut padder = Padder::new(PaddingLocation::End, PaddingType::DatasetBased);
        // Observe 75%-ones data.
        padder.observe(&[0xFF, 0xFF, 0xFF, 0x00]);
        let out = padded(&padder, &[0x00], 1 + 512, &mut rng);
        let p = ones_ratio(&out[1..]);
        assert!((p - 0.75).abs() < 0.03, "p={p}");
    }

    #[test]
    fn memory_based_uses_set_ratio() {
        let mut rng = seeded(6);
        let mut padder = Padder::new(PaddingLocation::End, PaddingType::MemoryBased);
        padder.set_memory_ratio(0.9);
        let out = padded(&padder, &[0x00], 1 + 512, &mut rng);
        let p = ones_ratio(&out[1..]);
        assert!((p - 0.9).abs() < 0.03, "p={p}");
    }

    #[test]
    fn untrained_learned_falls_back() {
        let mut rng = seeded(7);
        let padder = Padder::new(PaddingLocation::End, PaddingType::Learned);
        assert!(padder.learned.is_none());
        let out = padded(&padder, &[0xAA], 8, &mut rng);
        assert_eq!(out[0], 0xAA);
    }

    #[test]
    #[should_panic(expected = "exceeds model input")]
    fn oversized_data_panics() {
        let padder = Padder::new(PaddingLocation::End, PaddingType::Zero);
        let mut rng = seeded(8);
        padder.pad(&[0u8; 10], &mut [0u8; 1], &mut rng);
    }

    #[test]
    fn all_enums_have_unique_names() {
        let names: std::collections::HashSet<_> =
            PaddingType::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(names.len(), 7);
        let locs: std::collections::HashSet<_> =
            PaddingLocation::ALL.iter().map(|l| l.name()).collect();
        assert_eq!(locs.len(), 3);
    }
}
