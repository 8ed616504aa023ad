//! Rows of packed bits — the VAE's input as it sits in memory — and the
//! walk over their set bits that the encoder's first layer takes, in
//! serving ([`crate::predict`]) and in training alike.
//!
//! A row is `cols / 8` MSB-first bytes, the layout
//! [`crate::data::bytes_to_features`] defines: bit `7 - j` of byte `b`
//! is feature `8b + j`. Training reads its batches straight out of a
//! [`BitMatrix`] by row index, so no 0/1 float matrix is ever built.

#[cfg(test)]
use crate::matrix::Matrix;

/// Rows of packed bits, all of one width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    row_bytes: usize,
    data: Vec<u8>,
}

impl BitMatrix {
    /// One row per segment, its bytes as they are.
    ///
    /// # Panics
    /// Panics if the segments differ in length.
    pub fn from_segments(segments: &[impl AsRef<[u8]>]) -> Self {
        let row_bytes = segments.first().map_or(0, |s| s.as_ref().len());
        let mut data = Vec::with_capacity(segments.len() * row_bytes);
        for s in segments {
            let s = s.as_ref();
            assert_eq!(s.len(), row_bytes, "BitMatrix: ragged segments");
            data.extend_from_slice(s);
        }
        BitMatrix {
            rows: segments.len(),
            row_bytes,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of features (bits) per row.
    pub fn cols(&self) -> usize {
        8 * self.row_bytes
    }

    /// Row `r`'s bytes.
    pub fn row(&self, r: usize) -> &[u8] {
        &self.data[r * self.row_bytes..(r + 1) * self.row_bytes]
    }

    /// Gather a subset of rows by index.
    pub fn select_rows(&self, idx: &[usize]) -> Self {
        let mut data = Vec::with_capacity(idx.len() * self.row_bytes);
        for &r in idx {
            data.extend_from_slice(self.row(r));
        }
        BitMatrix {
            rows: idx.len(),
            row_bytes: self.row_bytes,
            data,
        }
    }

    /// Every row, in order, as a batch.
    pub(crate) fn all(&self) -> BitBatch<'_> {
        BitBatch {
            bits: self,
            pick: None,
        }
    }

    /// Rows `pick`, in that order, as a batch.
    pub(crate) fn pick<'a>(&'a self, pick: &'a [usize]) -> BitBatch<'a> {
        BitBatch {
            bits: self,
            pick: Some(pick),
        }
    }
}

#[cfg(test)]
impl BitMatrix {
    /// The rows of a 0.0/1.0 feature matrix, packed.
    ///
    /// # Panics
    /// Panics if the width is not a whole number of bytes or a feature
    /// is neither `0.0` nor `1.0`.
    pub(crate) fn from_features(m: &Matrix) -> Self {
        let rows: Vec<Vec<u8>> = (0..m.rows())
            .map(|r| crate::data::features_to_bytes(m.row(r)))
            .collect();
        BitMatrix {
            row_bytes: m.cols() / 8,
            ..Self::from_segments(&rows)
        }
    }

    /// The rows as 0.0/1.0 features — the float path the tests hold
    /// the bit path to.
    pub(crate) fn to_features(&self) -> Matrix {
        let data = (0..self.rows)
            .flat_map(|r| crate::data::bytes_to_features(self.row(r)))
            .collect();
        Matrix::from_vec(self.rows, self.cols(), data)
    }
}

/// Some rows of a [`BitMatrix`] by index — a training batch, read in
/// place.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BitBatch<'a> {
    bits: &'a BitMatrix,
    /// `None`: every row.
    pick: Option<&'a [usize]>,
}

impl<'a> BitBatch<'a> {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.pick.map_or(self.bits.rows, <[usize]>::len)
    }

    /// Number of features per row.
    pub(crate) fn cols(&self) -> usize {
        self.bits.cols()
    }

    /// The batch's row `b`.
    pub(crate) fn row(&self, b: usize) -> &'a [u8] {
        self.bits.row(self.pick.map_or(b, |pick| pick[b]))
    }
}

/// The eight features of every byte as `0.0`/`1.0`, MSB first: a row
/// of bits read against a row of floats eight at a time, with no
/// shifts in the loop.
pub(crate) const BYTE_FEATURES: [[f32; 8]; 256] = {
    let mut table = [[0.0; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut j = 0;
        while j < 8 {
            table[byte][j] = ((byte >> (7 - j)) & 1) as f32;
            j += 1;
        }
        byte += 1;
    }
    table
};

/// The set bits of `bits[from..]` as layer inputs: `(index, 1.0)` in
/// ascending index, indexed from the start of `bits`. The constant
/// `1.0` lets the kernel's `1.0 * w` fold to `w` — the same value
/// either way.
#[derive(Clone)]
pub(crate) struct SetBits<'a> {
    bits: &'a [u8],
    /// The 8-byte word being walked.
    word: usize,
    /// Its bits not yet visited. A word at a time: running out of them
    /// is the branch the CPU cannot predict, and this takes it once
    /// per 64 bits, not per 8.
    rest: u64,
}

impl<'a> SetBits<'a> {
    pub(crate) fn new(bits: &'a [u8], from: usize) -> Self {
        let word = from / 8;
        // Drop the bytes of the first word that lie before `from`.
        let rest = load_word(bits, word).unwrap_or(0) & (u64::MAX >> (from % 8 * 8));
        SetBits { bits, word, rest }
    }
}

impl Iterator for SetBits<'_> {
    type Item = (usize, f32);

    #[inline(always)]
    fn next(&mut self) -> Option<(usize, f32)> {
        while self.rest == 0 {
            self.word += 1;
            self.rest = load_word(self.bits, self.word)?;
        }
        let lead = self.rest.leading_zeros() as usize;
        self.rest &= !(1 << (63 - lead));
        Some((self.word * 64 + lead, 1.0))
    }
}

/// Bytes `8 * word..` of `bits` (up to eight, zero-extended) as one
/// big-endian word — which keeps MSB-first: the highest set bit is the
/// lowest feature index. `None` past the end.
#[inline(always)]
fn load_word(bits: &[u8], word: usize) -> Option<u64> {
    let rest = bits.get(word * 8..).filter(|rest| !rest.is_empty())?;
    Some(match rest.get(..8) {
        Some(full) => u64::from_be_bytes(full.try_into().expect("eight bytes")),
        // Folded, not copied: a `memcpy` call inside the walk would
        // have the tile's sums spilled around it.
        None => rest.iter().fold(0, |w, &b| w << 8 | u64::from(b)) << (64 - 8 * rest.len()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{bytes_to_features, segments_to_matrix};

    #[test]
    fn packing_round_trips_through_features() {
        let segments: Vec<[u8; 3]> = (0..20u8).map(|i| [i, i.wrapping_mul(37), !i]).collect();
        let bits = BitMatrix::from_segments(&segments);
        assert_eq!((bits.rows(), bits.cols()), (20, 24));
        assert_eq!(bits.to_features(), segments_to_matrix(&segments));
        assert_eq!(BitMatrix::from_features(&bits.to_features()), bits);
        let picked = bits.select_rows(&[3, 0]);
        assert_eq!(picked.row(0), &segments[3]);
        assert_eq!(picked.row(1), &segments[0]);
        let none = bits.select_rows(&[]);
        assert_eq!((none.rows(), none.cols()), (0, 24));
    }

    /// The walk yields exactly the set features, ascending, from any
    /// starting byte — at widths that end inside a word and on one.
    #[test]
    fn set_bits_are_the_set_features_in_order() {
        let mut rng = crate::rng::seeded(0xB175);
        for len in [0, 1, 7, 8, 9, 16, 36] {
            let row: Vec<u8> = (0..len).map(|_| rand::Rng::gen(&mut rng)).collect();
            let features = bytes_to_features(&row);
            for from in 0..=len {
                let want: Vec<usize> = (8 * from..8 * len)
                    .filter(|&i| features[i] == 1.0)
                    .collect();
                let got: Vec<usize> = SetBits::new(&row, from).map(|(i, _)| i).collect();
                assert_eq!(got, want, "{len} bytes from byte {from}");
            }
            let table: Vec<f32> = row
                .iter()
                .flat_map(|&b| BYTE_FEATURES[usize::from(b)])
                .collect();
            assert_eq!(table, features);
        }
    }
}
