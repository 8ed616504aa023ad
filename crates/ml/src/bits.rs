//! Rows of packed bits — the VAE's input as it sits in memory — and the
//! decoder of their set bits into the index list the encoder's first
//! layer walks, in serving ([`crate::predict`]) and in training alike.
//!
//! A row is `cols / 8` MSB-first bytes, the layout
//! [`crate::data::bytes_to_features`] defines: bit `7 - j` of byte `b`
//! is feature `8b + j`. Training reads its batches straight out of a
//! [`BitMatrix`] by row index, so no 0/1 float matrix is ever built.

use crate::kernel::{set_bits_by_word, Kernel};
#[cfg(test)]
use crate::matrix::Matrix;

/// The widest input, in bits, a [`crate::Vae`] or a [`crate::Placer`]
/// is built for: the set-bit decoder's indices are `u16`.
pub const MAX_INPUT_BITS: usize = 1 << 16;

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

/// The feature indices of the set bits of `bits[from..]`, ascending and
/// counted from the start of `bits`, written into the front of `out`
/// (grown to `8 * bits.len()` slots if it is shorter, never shrunk)
/// and returned as a slice — the list a layer's walk adds the weight
/// rows of. No branch on the data. Where `kernel` decodes with VBMI2,
/// each whole 8-byte word is one byte compress
/// ([`crate::kernel::set_bits_by_word`]); the bytes left over — all of
/// them on every other kernel — each store all eight of their slots
/// from a table of left-aligned positions, and the end of the list
/// moves by the byte's count, read from a second table. Both decoders
/// list the same indices.
///
/// # Panics
/// Panics if `bits` is wider than [`MAX_INPUT_BITS`] or `from` is past
/// its end.
pub(crate) fn set_bit_indices<'o>(
    kernel: Kernel,
    bits: &[u8],
    from: usize,
    out: &'o mut Vec<u16>,
) -> &'o [u16] {
    assert!(
        8 * bits.len() <= MAX_INPUT_BITS,
        "{} input bits: indices are u16",
        8 * bits.len()
    );
    assert!(from <= bits.len(), "byte {from} past the input");
    if out.len() < 8 * bits.len() {
        out.resize(8 * bits.len(), 0);
    }
    let (decoded, mut n) = set_bits_by_word(kernel, &bits[from..], 8 * from, out);
    let from = from + decoded;
    // The byte's first feature index, in every lane; it wraps to 0 only
    // after the widest input's last byte.
    let mut base = [(8 * from) as u16; 8];
    for &byte in &bits[from..] {
        // `n` is at most eight per byte walked, so the eight slots fit.
        let slots: &mut [u16; 8] = (&mut out[n..n + 8]).try_into().expect("eight slots");
        for ((slot, &j), base) in slots
            .iter_mut()
            .zip(&BYTE_POSITIONS[usize::from(byte)])
            .zip(&mut base)
        {
            *slot = *base + j;
            *base = base.wrapping_add(8);
        }
        n += usize::from(BYTE_COUNTS[usize::from(byte)]);
    }
    &out[..n]
}

/// The positions `j` of every byte's set bits (bit `7 - j`, MSB first),
/// ascending and left-aligned; the slots past them are `0`.
const BYTE_POSITIONS: [[u16; 8]; 256] = {
    let mut table = [[0; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let (mut j, mut n) = (0, 0);
        while j < 8 {
            if byte >> (7 - j) & 1 == 1 {
                table[byte][n] = j as u16;
                n += 1;
            }
            j += 1;
        }
        byte += 1;
    }
    table
};

/// The number of every byte's set bits: a load where `count_ones`
/// without the `popcnt` instruction — x86-64's baseline — is a dozen
/// instructions a byte.
const BYTE_COUNTS: [u8; 256] = {
    let mut table = [0; 256];
    let mut byte = 0;
    while byte < 256 {
        table[byte] = (byte as u8).count_ones() as u8;
        byte += 1;
    }
    table
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{bytes_to_features, segments_to_matrix};
    use rand::Rng;

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

    /// A row of `len` bytes whose bits are set with probability
    /// `density`.
    fn random_row(rng: &mut impl Rng, len: usize, density: f64) -> Vec<u8> {
        (0..len)
            .map(|_| (0..8).fold(0, |b, _| b << 1 | u8::from(rng.gen_bool(density))))
            .collect()
    }

    /// Each decoder lists exactly the set features, ascending, from any
    /// starting byte — at every length 1..=40 bytes (whole words and
    /// not), at densities from none to all, and from one buffer reused
    /// from longer inputs to shorter ones, so stale slots past a
    /// shorter list never show.
    #[test]
    fn set_bit_indices_are_the_set_features_in_order() {
        for kernel in Kernel::instantiations() {
            let mut rng = crate::rng::seeded(0xB175);
            let mut out = Vec::new();
            for len in (1..=40).rev() {
                for density in [0.0, 0.05, 0.3, 0.5, 0.9, 1.0] {
                    let row = random_row(&mut rng, len, density);
                    let features = bytes_to_features(&row);
                    for from in 0..=len {
                        let want: Vec<u16> = (8 * from..8 * len)
                            .filter(|&i| features[i] == 1.0)
                            .map(|i| i as u16)
                            .collect();
                        assert_eq!(
                            set_bit_indices(kernel, &row, from, &mut out),
                            want,
                            "{}: {len} bytes from byte {from}, density {density}",
                            kernel.name()
                        );
                    }
                }
            }
        }
    }

    /// The widest input decodes to its last index on every decoder —
    /// through a whole word on the VBMI2 one — and the empty one to
    /// nothing.
    #[test]
    fn the_widest_input_decodes_to_its_last_index() {
        for kernel in Kernel::instantiations() {
            let mut out = Vec::new();
            let mut row = vec![0u8; MAX_INPUT_BITS / 8];
            row[MAX_INPUT_BITS / 8 - 1] = 0x01;
            row[0] = 0x80;
            assert_eq!(
                set_bit_indices(kernel, &row, 0, &mut out),
                [0, u16::MAX],
                "{}",
                kernel.name()
            );
            let last_word = row.len() - 8;
            assert_eq!(
                set_bit_indices(kernel, &row, last_word, &mut out),
                [u16::MAX]
            );
            row.fill(0xFF);
            let all = set_bit_indices(kernel, &row, last_word, &mut out);
            assert!(all.iter().copied().eq(u16::MAX - 63..=u16::MAX));
            assert_eq!(set_bit_indices(kernel, &row, row.len(), &mut out), []);
            assert!(set_bit_indices(kernel, &[], 0, &mut out).is_empty());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Every decoder this CPU runs lists what the byte table does —
        /// at every length up to `longest` bytes, whole words and words
        /// with a ragged tail, from every byte, at any density — out of
        /// one buffer reused from longer inputs to shorter ones.
        #[test]
        fn the_decoders_list_the_same_indices(
            longest in 0usize..=40,
            density in 0.0f64..=1.0,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = crate::rng::seeded(seed);
            let rows: Vec<Vec<u8>> = (0..=longest)
                .rev()
                .map(|len| random_row(&mut rng, len, density))
                .collect();
            let (mut table, mut reused) = (Vec::new(), Vec::new());
            for kernel in Kernel::instantiations() {
                for row in &rows {
                    for from in 0..=row.len() {
                        let want = set_bit_indices(Kernel::portable(), row, from, &mut table);
                        proptest::prop_assert_eq!(
                            set_bit_indices(kernel, row, from, &mut reused),
                            want,
                            "{}: {} bytes from byte {}",
                            kernel.name(),
                            row.len(),
                            from
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "65544 input bits")]
    fn a_wider_input_is_refused() {
        set_bit_indices(
            Kernel::detect(),
            &vec![0; MAX_INPUT_BITS / 8 + 1],
            0,
            &mut Vec::new(),
        );
    }

    #[test]
    fn the_byte_table_is_the_features() {
        let table: Vec<f32> = (0..=255u8)
            .flat_map(|b| BYTE_FEATURES[usize::from(b)])
            .collect();
        assert_eq!(table, bytes_to_features(&(0..=255).collect::<Vec<u8>>()));
    }
}
