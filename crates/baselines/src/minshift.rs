//! MinShift — bit shifting + flipping (Luo et al., RTCSA '14: "Enhancing
//! lifetime of NVM-based main memory with bit shifting and flipping").
//!
//! Per 64-bit word, the encoder tries every rotation `s ∈ {0..S-1}`
//! (optionally combined with complementing the word) and stores the
//! variant with the fewest flips against the currently stored word. The
//! chosen `(shift, flip)` code is kept in per-word auxiliary cells whose
//! own flips are charged.

use crate::scheme::{InPlaceScheme, InPlaceWrite};
use std::collections::HashMap;

/// Per-word transform code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Code {
    shift: u8,
    flip: bool,
}

impl Code {
    /// Bits of the aux encoding that differ between two codes.
    fn aux_flips(&self, other: &Code, shift_bits: u32) -> u64 {
        let a = ((self.shift as u64) << 1) | self.flip as u64;
        let b = ((other.shift as u64) << 1) | other.flip as u64;
        ((a ^ b) & ((1u64 << (shift_bits + 1)) - 1)).count_ones() as u64
    }
}

/// The MinShift scheme over 64-bit words.
#[derive(Debug, Clone)]
pub struct MinShift {
    /// Number of candidate rotations (power of two; default 4).
    shifts: u8,
    codes: HashMap<usize, Vec<Code>>,
}

impl MinShift {
    /// Create with `shifts` candidate rotations (must be a power of two
    /// in `1..=64`).
    ///
    /// # Panics
    /// Panics on an invalid shift count.
    pub fn new(shifts: u8) -> Self {
        assert!(
            (1..=64).contains(&shifts) && shifts.is_power_of_two(),
            "MinShift: shifts must be a power of two in 1..=64"
        );
        Self {
            shifts,
            codes: HashMap::new(),
        }
    }

    fn shift_bits(&self) -> u32 {
        self.shifts.trailing_zeros()
    }
}

impl Default for MinShift {
    fn default() -> Self {
        Self::new(4)
    }
}

fn load_words(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks(8)
        .map(|c| {
            let mut buf = [0u8; 8];
            buf[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(buf)
        })
        .collect()
}

fn store_words(words: &[u64], len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.truncate(len);
    out
}

impl InPlaceScheme for MinShift {
    fn name(&self) -> &'static str {
        "MinShift"
    }

    fn encode(&mut self, addr: usize, old_stored: &[u8], new: &[u8]) -> InPlaceWrite {
        assert_eq!(old_stored.len(), new.len(), "MinShift: length mismatch");
        let old_words = load_words(old_stored);
        let new_words = load_words(new);
        let n_words = new_words.len();
        let shift_bits = self.shift_bits();
        let codes = self
            .codes
            .entry(addr)
            .or_insert_with(|| vec![Code::default(); n_words]);
        if codes.len() < n_words {
            codes.resize(n_words, Code::default());
        }
        let mut stored_words = Vec::with_capacity(n_words);
        let mut aux = 0u64;
        // A partial tail word must not be rotated: rotation would move
        // data bits into the truncated padding region and corrupt the
        // round-trip. Flipping is byte-local and stays safe.
        let partial_tail = !new.len().is_multiple_of(8);
        for (w, (&old, &neww)) in old_words.iter().zip(&new_words).enumerate() {
            let mut best = (u64::MAX, Code::default(), 0u64);
            let max_shift = if partial_tail && w + 1 == n_words {
                1
            } else {
                self.shifts
            };
            for s in 0..max_shift {
                let rotated = neww.rotate_left(s as u32);
                for flip in [false, true] {
                    let cand = if flip { !rotated } else { rotated };
                    let code = Code { shift: s, flip };
                    let data_flips = (cand ^ old).count_ones() as u64;
                    let aux_flips = code.aux_flips(&codes[w], shift_bits);
                    let total = data_flips + aux_flips;
                    if total < best.0 {
                        best = (total, code, data_flips);
                    }
                }
            }
            aux += best.0 - best.2;
            codes[w] = best.1;
            let rotated = neww.rotate_left(best.1.shift as u32);
            stored_words.push(if best.1.flip { !rotated } else { rotated });
        }
        InPlaceWrite {
            stored: store_words(&stored_words, new.len()),
            aux_bits_flipped: aux,
        }
    }

    fn decode(&self, addr: usize, stored: &[u8]) -> Vec<u8> {
        let words = load_words(stored);
        let empty = Vec::new();
        let codes = self.codes.get(&addr).unwrap_or(&empty);
        let decoded: Vec<u64> = words
            .iter()
            .enumerate()
            .map(|(w, &word)| {
                let code = codes.get(w).copied().unwrap_or_default();
                let unflipped = if code.flip { !word } else { word };
                unflipped.rotate_right(code.shift as u32)
            })
            .collect();
        store_words(&decoded, stored.len())
    }

    fn aux_bits_per_word(&self) -> u32 {
        self.shift_bits() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcw::Dcw;
    use e2nvm_sim::bitops::hamming;
    use rand::{Rng, SeedableRng};

    #[test]
    fn roundtrip_multibyte() {
        let mut s = MinShift::default();
        let old = vec![0u8; 16];
        let new: Vec<u8> = (0..16).map(|i| i * 17).collect();
        let w = s.encode(0, &old, &new);
        assert_eq!(s.decode(0, &w.stored), new);
    }

    #[test]
    fn shift_exploited_for_shifted_content() {
        // Old word is a pattern; new word is the same pattern rotated by
        // one bit — MinShift should store it with ~0 data flips.
        let mut s = MinShift::new(4);
        let pattern: u64 = 0xDEAD_BEEF_CAFE_F00D;
        let old = pattern.to_le_bytes().to_vec();
        let new = pattern.rotate_right(1).to_le_bytes().to_vec();
        let w = s.encode(0, &old, &new);
        let data_flips = hamming(&old, &w.stored);
        assert_eq!(data_flips, 0, "rotation should cancel the difference");
        assert_eq!(s.decode(0, &w.stored), new);
    }

    #[test]
    fn never_worse_than_dcw_plus_aux() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut ms = MinShift::default();
        let mut dcw = Dcw;
        let mut ms_stored = vec![0u8; 32];
        let mut dcw_stored = vec![0u8; 32];
        let mut ms_total = 0u64;
        let mut dcw_total = 0u64;
        for _ in 0..200 {
            let new: Vec<u8> = (0..32).map(|_| rng.gen()).collect();
            let wm = ms.encode(0, &ms_stored, &new);
            ms_total += hamming(&ms_stored, &wm.stored) + wm.aux_bits_flipped;
            assert_eq!(ms.decode(0, &wm.stored), new);
            ms_stored = wm.stored;
            let wd = dcw.encode(0, &dcw_stored, &new);
            dcw_total += hamming(&dcw_stored, &wd.stored);
            dcw_stored = wd.stored;
        }
        assert!(
            ms_total <= dcw_total,
            "MinShift {ms_total} should not exceed DCW {dcw_total}"
        );
    }

    #[test]
    fn aux_overhead_reported() {
        let s = MinShift::new(8);
        assert_eq!(s.aux_bits_per_word(), 4); // log2(8) + flip bit
    }

    #[test]
    fn tail_shorter_than_word() {
        let mut s = MinShift::default();
        let old = vec![0u8; 5];
        let new = vec![0xA5u8, 0x5A, 0xFF, 0x00, 0x77];
        let w = s.encode(2, &old, &new);
        assert_eq!(w.stored.len(), 5);
        assert_eq!(s.decode(2, &w.stored), new);
    }
}
