//! CRC-32 (IEEE 802.3 polynomial, the one zlib/ethernet/WAL formats
//! share), hand-rolled so the WAL needs no external dependency.
//!
//! Two paths, one value — the standard CRC-32/ISO-HDLC (the tests pin
//! the check vectors and hold the paths against each other):
//!
//! * **Carry-less folding**, on x86-64 CPUs with PCLMULQDQ and SSSE3,
//!   for inputs of at least 64 bytes: the Intel method (Gopal et al.,
//!   "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//!   Instruction", 2009) with the constants zlib's Chromium port uses.
//!   Four 128-bit lanes fold 64 bytes per step, fold into one, which
//!   takes the remaining 16-byte blocks and then the last `len % 16`
//!   bytes (an overlapping load of the last 16, shifted into place by
//!   `pshufb`); a Barrett reduction leaves the 32-bit state. It reads
//!   no table on the way: the WAL checksums each record right after a
//!   PUT's prediction has streamed tens of KB of weights through L1,
//!   which evicts the 8 KB of slice-by-8 tables.
//! * **Slice-by-8**, everywhere else and as the tests' oracle: eight
//!   compile-time tables let the hot loop fold 8 bytes per iteration
//!   with independent lookups instead of a byte-long dependency chain.

/// Reflected polynomial of CRC-32/ISO-HDLC.
const POLY: u32 = 0xEDB8_8320;

/// Eight 256-entry lookup tables, computed at compile time.
/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, which is what lets
/// eight byte-lookups combine into one 8-byte step.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 of `data` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    Crc::detect().checksum(data)
}

/// The shortest input the carry-less path takes: one step of its four
/// lanes.
const CLMUL_MIN: usize = 64;

/// Which path a checksum takes.
#[derive(Debug, Clone, Copy)]
struct Crc {
    /// Set only where the CPU was asked for PCLMULQDQ and SSSE3
    /// ([`Crc::detect`]): the soundness of the carry-less path rests on
    /// nothing else setting it.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    clmul: bool,
}

impl Crc {
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        let clmul = std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("ssse3");
        #[cfg(not(target_arch = "x86_64"))]
        let clmul = false;
        Crc { clmul }
    }

    fn checksum(self, data: &[u8]) -> u32 {
        #[cfg(target_arch = "x86_64")]
        if self.clmul && data.len() >= CLMUL_MIN {
            // SAFETY: `clmul` is only ever set after
            // `is_x86_feature_detected!` found PCLMULQDQ and SSSE3, and
            // `data` is at least `CLMUL_MIN` long.
            return unsafe { clmul::fold(u32::MAX, data) } ^ u32::MAX;
        }
        sliced(u32::MAX, data) ^ u32::MAX
    }
}

/// The CRC state after `data`, eight bytes per step.
fn sliced(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().expect("4")) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..].try_into().expect("4"));
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    bytewise(crc, chunks.remainder())
}

/// The CRC state after `data`, one byte per step.
fn bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The carry-less path, in the bit-reflected domain of the Intel paper
/// (its constants `k1`–`k5`, `P(x)′` and `μ′`).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi8, _mm_and_si128, _mm_andnot_si128, _mm_clmulepi64_si128,
        _mm_cmplt_epi8, _mm_cvtsi128_si32, _mm_cvtsi32_si128, _mm_loadu_si128, _mm_or_si128,
        _mm_set1_epi8, _mm_set_epi32, _mm_set_epi64x, _mm_setr_epi8, _mm_setzero_si128,
        _mm_shuffle_epi8, _mm_srli_si128, _mm_xor_si128,
    };

    /// `k1`, `k2`: carry a lane 64 bytes on.
    const K1K2: (i64, i64) = (0x0001_5444_2bd4, 0x0001_c6e4_1596);
    /// `k3`, `k4`: carry a lane 16 bytes on (and `k4` 128 bits down
    /// to 96).
    const K3K4: (i64, i64) = (0x0001_7519_97d0, 0x0000_ccaa_009e);
    /// `k5`: 96 bits down to 64.
    const K5: i64 = 0x0001_63cd_6124;
    /// `P(x)′` and `μ′`: the Barrett reduction to 32 bits.
    const POLY: (i64, i64) = (0x0001_db71_0641, 0x0001_f701_1641);

    /// The CRC state after `data` from state `crc`.
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ and SSSE3; `data` must be at least
    /// 64 bytes long.
    #[target_feature(enable = "pclmulqdq,ssse3")]
    pub(super) unsafe fn fold(crc: u32, data: &[u8]) -> u32 {
        assert!(data.len() >= super::CLMUL_MIN);
        let mut blocks = data.chunks_exact(16).map(|block| {
            // SAFETY: `block` is 16 readable bytes, and the load asks
            // for no alignment.
            _mm_loadu_si128(block.as_ptr().cast())
        });
        let mut next = || blocks.next().expect("a 16-byte block");
        let mut x = [next(), next(), next(), next()];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        let k = _mm_set_epi64x(K1K2.1, K1K2.0);
        let mut left = data.len() / 16 - 4;
        while left >= 4 {
            for lane in &mut x {
                *lane = fold_into(*lane, k, next());
            }
            left -= 4;
        }
        // Four lanes into one, then the single blocks.
        let k = _mm_set_epi64x(K3K4.1, K3K4.0);
        let mut acc = x[0];
        for lane in &x[1..] {
            acc = fold_into(acc, k, *lane);
        }
        for _ in 0..left {
            acc = fold_into(acc, k, next());
        }
        let tail = data.len() % 16;
        if tail > 0 {
            // SAFETY: the slice is 16 readable bytes (`data` is at
            // least 64 long), and the load asks for no alignment.
            let last = _mm_loadu_si128(data[data.len() - 16..].as_ptr().cast());
            acc = fold_tail(acc, k, last, tail);
        }
        // 128 bits to 64.
        let low32 = _mm_set_epi32(0, !0, 0, !0);
        let x = _mm_xor_si128(_mm_srli_si128(acc, 8), _mm_clmulepi64_si128(acc, k, 0x10));
        let k5 = _mm_set_epi64x(0, K5);
        let x = _mm_xor_si128(
            _mm_srli_si128(x, 4),
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
        );
        // Barrett reduction to 32 bits.
        let poly = _mm_set_epi64x(POLY.1, POLY.0);
        let t = _mm_and_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10),
            low32,
        );
        let x = _mm_xor_si128(x, _mm_clmulepi64_si128(t, poly, 0x00));
        _mm_cvtsi128_si32(_mm_srli_si128(x, 4)) as u32
    }

    /// `acc` carried on over the `tail` (1..16) bytes after the last
    /// whole block, which are the end of `last`, the input's last 16
    /// bytes. Read as a message, `acc` and then those bytes are
    /// `zeros(16 - tail) ++ acc[..tail]` one block ahead of
    /// `acc[tail..] ++ tail bytes`, so one fold by `k` (`k3`, `k4`)
    /// takes them in. The byte shifts are `pshufb`s by a mask made from
    /// `tail`: no table is read.
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ and SSSE3.
    #[inline]
    #[target_feature(enable = "pclmulqdq,ssse3")]
    unsafe fn fold_tail(acc: __m128i, k: __m128i, last: __m128i, tail: usize) -> __m128i {
        // Byte i of `up` is i + tail - 16: negative, so that `pshufb`
        // writes a zero, below byte 16 - tail.
        let iota = _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let up = _mm_add_epi8(iota, _mm_set1_epi8(tail as i8 - 16));
        let head = _mm_shuffle_epi8(acc, up);
        // `up` with its sign bits flipped: i + tail below 16 - tail,
        // negative from there.
        let rest = _mm_shuffle_epi8(acc, _mm_xor_si128(up, _mm_set1_epi8(i8::MIN)));
        let new = _mm_andnot_si128(_mm_cmplt_epi8(up, _mm_setzero_si128()), last);
        fold_into(head, k, _mm_or_si128(rest, new))
    }

    /// `x` carried one fold on by `k` (`k`'s low half times `x`'s low,
    /// its high half times `x`'s high), plus the block it lands on.
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold_into(x: __m128i, k: __m128i, block: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), block)
    }
}

#[cfg(test)]
impl Crc {
    /// The slice-by-8 path, whatever the CPU offers.
    fn portable() -> Self {
        Crc { clmul: false }
    }

    /// Every path this CPU runs: slice-by-8, then the carry-less one
    /// where the CPU has PCLMULQDQ and SSSE3.
    fn paths() -> Vec<Crc> {
        let detected = Crc::detect();
        if !detected.clmul {
            eprintln!("this CPU lacks PCLMULQDQ or SSSE3: only slice-by-8 is tested");
        }
        vec![Crc::portable(), detected]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time reference the sliced loop must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        bytewise(u32::MAX, data) ^ u32::MAX
    }

    #[test]
    fn known_vectors() {
        for crc in Crc::paths() {
            // The standard check value for "123456789".
            assert_eq!(crc.checksum(b"123456789"), 0xCBF4_3926, "{crc:?}");
            assert_eq!(crc.checksum(b""), 0, "{crc:?}");
            assert_eq!(crc.checksum(b"a"), 0xE8B7_BE43, "{crc:?}");
            // zlib's crc32 of 64 and 100 zero bytes: the carry-less
            // path's shortest input and one with single blocks and a
            // byte tail after its lanes.
            assert_eq!(crc.checksum(&[0; 64]), 0x758D_6336, "{crc:?}");
            assert_eq!(crc.checksum(&[0; 100]), 0x9988_C6CA, "{crc:?}");
        }
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn sliced_agrees_with_bytewise_at_every_length() {
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(37) >> 2) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(
                Crc::portable().checksum(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
    }

    /// The carry-less path is slice-by-8's value at every length
    /// 0..=1100 — below its 64-byte floor, at every 16-byte tail, over
    /// several lane steps — for random bytes, all zeros and all ones,
    /// from aligned and unaligned starts.
    #[test]
    fn clmul_equals_slice_by_8_at_every_length() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let random: Vec<u8> = (0..1108)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        for bytes in [random, vec![0x00; 1108], vec![0xFF; 1108]] {
            for start in [0, 1, 7] {
                for len in 0..=1100 {
                    let data = &bytes[start..start + len];
                    let expected = Crc::portable().checksum(data);
                    for crc in Crc::paths() {
                        assert_eq!(crc.checksum(data), expected, "{crc:?}, len {len}");
                    }
                }
            }
        }
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"write-ahead log");
        let b = crc32(b"write-ahead lof");
        assert_ne!(a, b);
    }
}
