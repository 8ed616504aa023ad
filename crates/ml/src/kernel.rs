//! The crate's one GEMM inner loop, `out += Σ a · W[i]` over a walk of
//! `(i, a)` inputs, which serving ([`crate::predict`]) and training
//! ([`Matrix::matmul`]) run.
//!
//! Column-tile clause: the sums of a tile of columns stay in registers
//! for the whole walk and are stored once (`add_tile`); a wider output
//! walks the inputs again per tile. Every column still takes its
//! additions in the walk's order, so the tile widths — which differ
//! between the AVX2 and the portable instantiation — change no sum, and
//! `fma` is never enabled: the sums are held to a fold that rounds twice.
//!
//! Compaction clause: a row of float inputs reaches the kernel as its
//! non-zero `(i, a)` pairs in ascending `i`, compacted once
//! ([`compact_non_zero`], a store per input and no branch on its value)
//! and then walked by every tile. The walk sees exactly what filtering
//! `a != 0.0` would yield, in the same order, so every fold is the one
//! the filter made: a zero input still adds no row, and the sums still
//! start at `+0.0`.

use crate::matrix::Matrix;

/// Which instantiation of [`add_tiles`] a call runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Kernel {
    /// `true` only out of [`Kernel::detect`], which asked the CPU: the
    /// soundness of the AVX2 call rests on nothing else setting it.
    avx2: bool,
}

impl Kernel {
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        Kernel { avx2 }
    }

    /// The instantiation's name: `"avx2"` or `"portable"`.
    pub(crate) fn name(self) -> &'static str {
        if self.avx2 {
            "avx2"
        } else {
            "portable"
        }
    }

    /// `out += Σ a · W[i]` over `inputs`' `(i, a)` in their order,
    /// keeping the first `out.len()` columns.
    #[allow(unsafe_code)]
    pub(crate) fn add_rows(
        self,
        w: &Matrix,
        inputs: impl Iterator<Item = (usize, f32)> + Clone,
        out: &mut [f32],
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            /// Sixty-four columns are eight `ymm` registers of sums.
            ///
            /// # Safety
            /// The CPU must support AVX2.
            #[target_feature(enable = "avx2")]
            unsafe fn avx2(
                w: &Matrix,
                inputs: impl Iterator<Item = (usize, f32)> + Clone,
                out: &mut [f32],
            ) {
                add_tiles::<64>(w, inputs, out);
            }
            if self.avx2 {
                // SAFETY: `self.avx2` is set by `Kernel::detect` alone,
                // from `is_x86_feature_detected!("avx2")`.
                return unsafe { avx2(w, inputs, out) };
            }
        }
        // Thirty-two columns are eight 128-bit registers of sums.
        add_tiles::<32>(w, inputs, out);
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::detect()
    }
}

/// The one loop of the kernel, over columns `col..col + T` of `out`:
/// the tile's sums are a local array for the whole walk (registers,
/// when `T` floats fit the target's) and `out` is written once.
#[inline(always)]
fn add_tile<const T: usize>(
    w: &Matrix,
    inputs: impl Iterator<Item = (usize, f32)>,
    col: usize,
    out: &mut [f32],
) {
    let out: &mut [f32; T] = (&mut out[col..col + T])
        .try_into()
        .expect("a slice of T columns");
    let (weights, stride) = (w.as_slice(), w.cols());
    let mut sums = *out;
    for (i, a) in inputs {
        let at = i * stride + col;
        let row: &[f32; T] = weights[at..at + T]
            .try_into()
            .expect("a slice of T columns");
        for (sum, &v) in sums.iter_mut().zip(row) {
            *sum += a * v;
        }
    }
    *out = sums;
}

/// [`add_tile`] over all of `out`: tiles of `WIDE` columns, then of
/// each narrower power of two for what is left, every tile walking
/// `inputs` anew.
#[inline(always)]
fn add_tiles<const WIDE: usize>(
    w: &Matrix,
    inputs: impl Iterator<Item = (usize, f32)> + Clone,
    out: &mut [f32],
) {
    assert!(out.len() <= w.cols(), "more sums than weight columns");
    let mut col = 0;
    macro_rules! tiles {
        ($($t:literal)*) => {$(
            while $t <= WIDE && out.len() - col >= $t {
                add_tile::<$t>(w, inputs.clone(), col, out);
                col += $t;
            }
        )*};
    }
    tiles!(64 32 16 8 4 2 1);
}

/// The non-zero entries of `x` as layer inputs, `(i, a)` in ascending
/// `i`, compacted into the front of `slots` (grown to `x.len()` if it
/// is shorter, never shrunk) and returned as a slice: a zero input adds
/// no row, so `0 × ∞` never makes a NaN. Every entry is stored and the
/// end of the slice moves past it only if it is non-zero — a count, not
/// a branch the CPU would have to guess per input.
pub(crate) fn compact_non_zero<'s>(
    x: &[f32],
    slots: &'s mut Vec<(usize, f32)>,
) -> &'s [(usize, f32)] {
    if slots.len() < x.len() {
        slots.resize(x.len(), (0, 0.0));
    }
    let mut n = 0;
    for (i, &a) in x.iter().enumerate() {
        slots[n] = (i, a);
        n += usize::from(a != 0.0);
    }
    &slots[..n]
}

#[cfg(test)]
impl Kernel {
    /// The portable instantiation, whatever the CPU offers.
    pub(crate) fn portable() -> Self {
        Kernel { avx2: false }
    }

    /// Every instantiation this CPU runs, portable first.
    pub(crate) fn instantiations() -> Vec<Kernel> {
        let detected = Kernel::detect();
        if !detected.avx2 {
            eprintln!("no AVX2 on this CPU: only the portable instantiation is tested");
            return vec![detected];
        }
        vec![Kernel::portable(), detected]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The filter the compaction replaced, kept as its reference.
    fn non_zero(x: &[f32]) -> impl Iterator<Item = (usize, f32)> + '_ {
        x.iter().copied().enumerate().filter(|&(_, a)| a != 0.0)
    }

    /// Zeros of both signs, subnormals, infinities, NaN and ordinary
    /// values of either sign.
    fn awkward(rng: &mut impl Rng) -> f32 {
        let magnitude = match rng.gen_range(0..7) {
            0 | 1 => 0.0,
            2 => f32::from_bits(rng.gen_range(1..0x0080_0000)),
            3 => f32::INFINITY,
            4 => f32::NAN,
            _ => rng.gen_range(0.0f32..4.0),
        };
        if rng.gen() {
            -magnitude
        } else {
            magnitude
        }
    }

    fn to_bits(inputs: impl Iterator<Item = (usize, f32)>) -> Vec<(usize, u32)> {
        inputs.map(|(i, a)| (i, a.to_bits())).collect()
    }

    /// The compaction is the filter's output, index for index and bit
    /// for bit, at every width 0..=70 — from one slot buffer reused
    /// across rows, so stale slots past a shorter row never show.
    #[test]
    fn compaction_is_the_non_zero_filter_exactly() {
        let mut rng = crate::rng::seeded(0xC0FFEE);
        let mut slots = Vec::new();
        for width in (0..=70).chain((0..=70).rev()) {
            for _ in 0..8 {
                let row: Vec<f32> = (0..width).map(|_| awkward(&mut rng)).collect();
                assert_eq!(
                    to_bits(compact_non_zero(&row, &mut slots).iter().copied()),
                    to_bits(non_zero(&row)),
                    "width {width}, row {row:?}"
                );
            }
        }
    }
}
