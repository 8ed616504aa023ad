//! Learned padding (paper §4.1.3): an LSTM with a sliding window that
//! "takes as input 64 bits and predicts 8 bits in a single step", then
//! slides by 8 bits to generate as many padding bits as needed.
//!
//! The window is fed to the LSTM as 8 timesteps of 8 bits each; the
//! dense sigmoid head emits the next byte's 8 bit probabilities, which
//! are thresholded at 0.5.

use e2nvm_ml::matrix::Matrix;
use e2nvm_ml::{Lstm, LstmConfig};
use rand::Rng;

/// Window size in bits (paper Figure 6).
pub const WINDOW_BITS: usize = 64;
/// Bits predicted per step (paper Figure 6).
pub const STEP_BITS: usize = 8;

const WINDOW_STEPS: usize = WINDOW_BITS / STEP_BITS;

/// The sliding-window LSTM padding generator.
#[derive(Debug)]
pub struct LearnedPadder {
    lstm: Lstm,
}

impl LearnedPadder {
    /// A fresh, untrained generator.
    pub fn new<R: Rng>(rng: &mut R) -> Self {
        Self {
            lstm: Lstm::new(
                LstmConfig {
                    input_dim: STEP_BITS,
                    hidden: 24,
                    output_dim: STEP_BITS,
                    lr: 1e-2,
                },
                rng,
            ),
        }
    }

    /// Train on resident memory contents: every 72-bit window of every
    /// segment yields one (64-bit input → next 8 bits) example.
    pub fn train<R: Rng>(&mut self, segments: &[Vec<u8>], epochs: usize, rng: &mut R) {
        // Collect (window, next-byte) examples at byte granularity.
        let mut windows: Vec<(&[u8], u8)> = Vec::new();
        for seg in segments {
            if seg.len() <= WINDOW_BITS / 8 {
                continue;
            }
            for start in 0..seg.len() - WINDOW_BITS / 8 {
                windows.push((
                    &seg[start..start + WINDOW_BITS / 8],
                    seg[start + WINDOW_BITS / 8],
                ));
            }
        }
        if windows.is_empty() {
            return;
        }
        // Cap the training set to keep retraining cheap.
        const CAP: usize = 2048;
        if windows.len() > CAP {
            for i in 0..CAP {
                let j = rng.gen_range(i..windows.len());
                windows.swap(i, j);
            }
            windows.truncate(CAP);
        }
        let batch = 64usize;
        for _ in 0..epochs.max(1) {
            for chunk in windows.chunks(batch) {
                let seq = Self::windows_to_sequence(chunk.iter().map(|(w, _)| *w));
                let targets = Matrix::from_fn(chunk.len(), STEP_BITS, |r, c| {
                    ((chunk[r].1 >> (7 - c)) & 1) as f32
                });
                self.lstm.train_batch(&seq, &targets);
            }
        }
    }

    fn windows_to_sequence<'a>(windows: impl Iterator<Item = &'a [u8]> + Clone) -> Vec<Matrix> {
        let rows: Vec<&[u8]> = windows.collect();
        (0..WINDOW_STEPS)
            .map(|step| {
                Matrix::from_fn(rows.len(), STEP_BITS, |r, c| {
                    ((rows[r][step] >> (7 - c)) & 1) as f32
                })
            })
            .collect()
    }

    /// Generate `q` padding bits conditioned on `data`, calling `set(j)`
    /// for every bit `j` of the `q` that is a one (ascending).
    ///
    /// The window is seeded with the last 8 bytes of `data` (cycled if
    /// the value is shorter) and slides by one predicted byte per step.
    pub fn generate(&self, data: &[u8], q: usize, mut set: impl FnMut(usize)) {
        let mut window = [0u8; WINDOW_BITS / 8];
        if data.is_empty() {
            // Nothing to condition on: a zero window.
        } else if data.len() >= WINDOW_BITS / 8 {
            window.copy_from_slice(&data[data.len() - WINDOW_BITS / 8..]);
        } else {
            // Cycle the short value to fill the window.
            for (i, w) in window.iter_mut().enumerate() {
                *w = data[i % data.len()];
            }
        }
        for start in (0..q).step_by(STEP_BITS) {
            let seq = Self::windows_to_sequence(std::iter::once(&window[..]));
            let pred = self.lstm.predict(&seq);
            let mut byte = 0u8;
            for c in 0..STEP_BITS {
                let bit = pred.get(0, c) > 0.5;
                byte = (byte << 1) | u8::from(bit);
                if bit && start + c < q {
                    set(start + c);
                }
            }
            // Slide the window by one byte.
            window.rotate_left(1);
            window[WINDOW_BITS / 8 - 1] = byte;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2nvm_ml::rng::seeded;

    /// The `q` generated bits, one `bool` each.
    fn generated(padder: &LearnedPadder, data: &[u8], q: usize) -> Vec<bool> {
        let mut out = vec![false; q];
        padder.generate(data, q, |j| out[j] = true);
        out
    }

    fn ones(bits: &[bool]) -> usize {
        bits.iter().filter(|&&b| b).count()
    }

    #[test]
    fn sets_only_bits_below_q() {
        let mut rng = seeded(1);
        let padder = LearnedPadder::new(&mut rng);
        for q in [0, 1, 7, 8, 9, 64, 100] {
            // `generated` indexes out of bounds (and panics) on `j >= q`.
            let out = generated(&padder, &[0xAB, 0xCD], q);
            // A shorter request is a prefix of a longer one.
            assert_eq!(out, generated(&padder, &[0xAB, 0xCD], 104)[..q]);
        }
    }

    #[test]
    fn learns_constant_continuation() {
        // Memory full of all-ones segments: the LSTM must learn that
        // the next byte after any window is 0xFF.
        let mut rng = seeded(2);
        let segments: Vec<Vec<u8>> = (0..8).map(|_| vec![0xFFu8; 24]).collect();
        let mut padder = LearnedPadder::new(&mut rng);
        padder.train(&segments, 30, &mut rng);
        let out = generated(&padder, &[0xFFu8; 8], 32);
        assert!(
            ones(&out) >= 30,
            "expected ~all ones, got {}/32",
            ones(&out)
        );
    }

    #[test]
    fn learns_alternating_pattern() {
        // Segments alternate 0x00/0xFF bytes; after a window ending in
        // 0xFF the next byte is 0x00 and vice versa.
        let mut rng = seeded(3);
        let segments: Vec<Vec<u8>> = (0..8)
            .map(|_| {
                (0..32)
                    .map(|i| if i % 2 == 0 { 0x00 } else { 0xFF })
                    .collect()
            })
            .collect();
        let mut padder = LearnedPadder::new(&mut rng);
        padder.train(&segments, 60, &mut rng);
        // Window ends ... 0x00 0xFF -> next byte should be 0x00.
        let data: Vec<u8> = (0..8)
            .map(|i| if i % 2 == 0 { 0x00 } else { 0xFF })
            .collect();
        let out = generated(&padder, &data, 16);
        assert!(
            ones(&out[..8]) <= 2 && ones(&out[8..]) >= 6,
            "pattern not learned: {out:?}"
        );
    }

    #[test]
    fn short_and_empty_values_handled() {
        let mut rng = seeded(4);
        let padder = LearnedPadder::new(&mut rng);
        generated(&padder, &[], 8);
        generated(&padder, &[0x01], 8);
    }

    #[test]
    fn training_on_tiny_segments_is_safe() {
        let mut rng = seeded(5);
        let mut padder = LearnedPadder::new(&mut rng);
        // Segments not longer than the window: no examples, no panic.
        padder.train(&[vec![0u8; 8], vec![1u8; 4]], 5, &mut rng);
        generated(&padder, &[0u8; 4], 16);
    }
}
