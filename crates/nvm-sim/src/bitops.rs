//! Bit-level helpers: hamming distance, popcount over byte slices, and
//! per-byte flip extraction.
//!
//! These are the primitives every write scheme in the workspace is
//! measured with, so they are written to be branch-light and to work on
//! `u64` chunks where possible.

/// Number of differing bits between two equal-length byte slices.
///
/// # Panics
/// Panics if the slices have different lengths — a length mismatch here
/// is always a logic error in the caller, never a runtime condition.
#[inline]
pub fn hamming(a: &[u8], b: &[u8]) -> u64 {
    assert_eq!(a.len(), b.len(), "hamming: slice length mismatch");
    let mut total = 0u64;
    let mut chunks_a = a.chunks_exact(8);
    let mut chunks_b = b.chunks_exact(8);
    for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
        let xa = u64::from_le_bytes(ca.try_into().expect("chunk is 8 bytes"));
        let xb = u64::from_le_bytes(cb.try_into().expect("chunk is 8 bytes"));
        total += (xa ^ xb).count_ones() as u64;
    }
    for (ra, rb) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        total += (ra ^ rb).count_ones() as u64;
    }
    total
}

/// Number of set bits in a byte slice.
#[inline]
pub fn popcount(a: &[u8]) -> u64 {
    let mut total = 0u64;
    let mut chunks = a.chunks_exact(8);
    for c in chunks.by_ref() {
        total += u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")).count_ones() as u64;
    }
    for r in chunks.remainder() {
        total += r.count_ones() as u64;
    }
    total
}

/// Number of `0 -> 1` transitions (SET pulses in PCM terms) going from
/// `old` to `new`.
#[inline]
pub fn zero_to_one(old: &[u8], new: &[u8]) -> u64 {
    assert_eq!(old.len(), new.len(), "zero_to_one: slice length mismatch");
    old.iter()
        .zip(new)
        .map(|(o, n)| ((!o) & n).count_ones() as u64)
        .sum()
}

/// Number of `1 -> 0` transitions (RESET pulses in PCM terms) going from
/// `old` to `new`.
#[inline]
pub fn one_to_zero(old: &[u8], new: &[u8]) -> u64 {
    assert_eq!(old.len(), new.len(), "one_to_zero: slice length mismatch");
    old.iter()
        .zip(new)
        .map(|(o, n)| (o & !n).count_ones() as u64)
        .sum()
}

/// `(0 -> 1, 1 -> 0)` transition counts going from `old` to `new` in
/// one word-wise pass: [`zero_to_one`] and [`one_to_zero`] together,
/// and their sum is [`hamming`].
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn transitions(old: &[u8], new: &[u8]) -> (u64, u64) {
    assert_eq!(old.len(), new.len(), "transitions: slice length mismatch");
    let (mut set, mut reset) = (0u64, 0u64);
    let mut chunks_o = old.chunks_exact(8);
    let mut chunks_n = new.chunks_exact(8);
    for (co, cn) in chunks_o.by_ref().zip(chunks_n.by_ref()) {
        let o = u64::from_le_bytes(co.try_into().expect("chunk is 8 bytes"));
        let n = u64::from_le_bytes(cn.try_into().expect("chunk is 8 bytes"));
        set += (!o & n).count_ones() as u64;
        reset += (o & !n).count_ones() as u64;
    }
    for (o, n) in chunks_o.remainder().iter().zip(chunks_n.remainder()) {
        set += (!o & n).count_ones() as u64;
        reset += (o & !n).count_ones() as u64;
    }
    (set, reset)
}

/// Expand a byte slice into individual bits, most significant bit first
/// within each byte. Used when feeding memory contents to the ML models.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for shift in (0..8).rev() {
            bits.push((b >> shift) & 1);
        }
    }
    bits
}

/// Pack a bit slice (values 0/1, MSB-first per byte) back into bytes.
/// The bit count must be a multiple of 8.
///
/// # Panics
/// Panics if `bits.len()` is not a multiple of 8.
pub fn bits_to_bytes(bits: &[u8]) -> Vec<u8> {
    assert_eq!(
        bits.len() % 8,
        0,
        "bits_to_bytes: length must be multiple of 8"
    );
    bits.chunks_exact(8)
        .map(|chunk| chunk.iter().fold(0u8, |acc, &bit| (acc << 1) | (bit & 1)))
        .collect()
}

/// Iterator over the byte offsets whose value differs between two
/// equal-length slices. Useful for wear accounting.
pub fn differing_bytes<'a>(old: &'a [u8], new: &'a [u8]) -> impl Iterator<Item = (usize, u8)> + 'a {
    assert_eq!(
        old.len(),
        new.len(),
        "differing_bytes: slice length mismatch"
    );
    old.iter()
        .zip(new)
        .enumerate()
        .filter_map(|(i, (o, n))| (o != n).then_some((i, o ^ n)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hamming_basic() {
        assert_eq!(hamming(&[0x00], &[0xFF]), 8);
        assert_eq!(hamming(&[0xF0], &[0x0F]), 8);
        assert_eq!(hamming(&[0xAA], &[0xAA]), 0);
        assert_eq!(hamming(&[], &[]), 0);
    }

    #[test]
    fn hamming_crosses_chunk_boundary() {
        // 9 bytes: one full u64 chunk + one remainder byte.
        let a = [0u8; 9];
        let mut b = [0u8; 9];
        b[3] = 0b1010_1010;
        b[8] = 0b0000_0001;
        assert_eq!(hamming(&a, &b), 5);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn hamming_length_mismatch_panics() {
        hamming(&[0], &[0, 0]);
    }

    #[test]
    fn popcount_matches_naive() {
        let data: Vec<u8> = (0..=255u8).collect();
        let naive: u64 = data.iter().map(|b| b.count_ones() as u64).sum();
        assert_eq!(popcount(&data), naive);
    }

    #[test]
    fn set_reset_decomposition() {
        let old = [0b1100_0011u8, 0xFF, 0x00];
        let new = [0b0011_1100u8, 0x0F, 0xF0];
        let set = zero_to_one(&old, &new);
        let reset = one_to_zero(&old, &new);
        assert_eq!(set + reset, hamming(&old, &new));
        assert_eq!(set, 8);
        assert_eq!(reset, 8);
    }

    #[test]
    fn transitions_equal_the_three_separate_passes_at_every_length() {
        // A fixed LCG stream: every byte value and both directions of
        // flip turn up on either side of the 8-byte chunk boundary.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 56) as u8
        };
        for len in 0..=257 {
            let old: Vec<u8> = (0..len).map(|_| next()).collect();
            let new: Vec<u8> = (0..len).map(|_| next()).collect();
            let (set, reset) = transitions(&old, &new);
            assert_eq!(set, zero_to_one(&old, &new), "len {len}");
            assert_eq!(reset, one_to_zero(&old, &new), "len {len}");
            assert_eq!(set + reset, hamming(&old, &new), "len {len}");
            assert_eq!(transitions(&old, &old), (0, 0));
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn transitions_length_mismatch_panics() {
        transitions(&[0], &[0, 0]);
    }

    #[test]
    fn bits_roundtrip() {
        let bytes = [0b1011_0001u8, 0x00, 0xFF, 0x5A];
        let bits = bytes_to_bits(&bytes);
        assert_eq!(bits.len(), 32);
        assert_eq!(&bits[..8], &[1, 0, 1, 1, 0, 0, 0, 1]);
        assert_eq!(bits_to_bytes(&bits), bytes);
    }

    #[test]
    fn differing_bytes_reports_xor_mask() {
        let old = [1u8, 2, 3, 4];
        let new = [1u8, 0, 3, 5];
        let diffs: Vec<_> = differing_bytes(&old, &new).collect();
        assert_eq!(diffs, vec![(1, 2), (3, 1)]);
    }
}
