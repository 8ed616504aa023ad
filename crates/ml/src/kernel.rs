//! The crate's one GEMM inner loop, `out += Σ a · W[i]` over a walk of
//! `(i, a)` inputs, which serving ([`crate::predict`]) and training
//! ([`Matrix::matmul`] and the folds behind `t_matmul` / `matmul_t`)
//! run, and the one CPU-feature dispatch ([`Kernel::run`]) that picks
//! its instantiation — for the optimizer's elementwise update too.
//!
//! Column-tile clause: the sums of a tile of columns stay in registers
//! for the whole walk and are stored once (`add_tile`); a wider output
//! walks the inputs again per tile. Every column still takes its
//! additions in the walk's order, so the tile widths — which differ
//! between the instantiations — change no sum. No instantiation ever
//! contracts a product and a sum into one `fma` (Rust does not, whatever
//! features a function enables): the sums are held to a fold that
//! rounds twice.
//!
//! Compaction clause: a row of float inputs reaches the kernel as its
//! non-zero `(i, a)` pairs in ascending `i`, compacted once
//! ([`compact_non_zero`]: sixteen inputs per `vcompressps` on AVX-512,
//! a store per input elsewhere, no branch on a value either way) and
//! then walked by every tile. The walk sees exactly what filtering
//! `a != 0.0` would yield, in the same order, so every fold is the one
//! the filter made: a zero input still adds no row, and the sums still
//! start at `+0.0`. A row of bits is compacted to the ascending list of
//! its set bits' indices ([`crate::bits::set_bit_indices`]) and walked
//! add-only: `1.0 · w` is `w`. Where the CPU has AVX-512 VBMI2 the
//! decoder lists a whole 8-byte word per `vpcompressb`
//! ([`set_bits_by_word`]); everywhere else, and past the last whole
//! word, a byte table does. Both list the same indices in the same
//! order.
//!
//! Row-block clause: a block of four rows of a product whose inputs
//! are at least [`DENSE_TENTHS`] tenths non-zero is walked whole, every
//! `i` in ascending order, and each weight row read serves all the
//! block's rows (`add_block`); the block's `4 × T` independent sums
//! also keep the adds from waiting on one another, as one row's few
//! accumulators do. A row's zero input is then multiplied, not skipped:
//! against a finite weight its product is `±0`, and adding `±0` leaves
//! every sum as it is except `-0.0` — which a sum that starts at `+0.0`
//! never holds: under round-to-nearest `x + y` is `-0.0` only if both
//! are, and an exact cancellation is `+0.0`. So each element is still
//! the compacted walk's fold, bit for bit, and the density only decides
//! which walk is faster. Against an infinite or NaN weight a zero
//! input's product is NaN, so a block with a zero input is walked whole
//! only if every weight is finite (one scan per product, made when a
//! block first asks); otherwise its rows take the compacted walk. A
//! block's sums are 4 rows × 64 columns (sixteen `zmm` registers) on
//! AVX-512 and 4 × 16 (eight `ymm`) on AVX2; the portable instantiation
//! walks every row on its own.

use crate::matrix::Matrix;

/// The instruction sets the kernel is instantiated for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Portable,
    Avx2,
    Avx512,
}

/// Which instantiation of the kernel a call runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Kernel {
    /// Anything but `Portable` only where the CPU was asked for it —
    /// [`Kernel::detect`] and the tests' `instantiations`: the
    /// soundness of the vector calls rests on nothing else setting it.
    isa: Isa,
    /// Whether set bits are decoded a word at a time by AVX-512 VBMI2
    /// ([`set_bits_by_word`]). Set, like `isa`, only where the CPU was
    /// asked for AVX-512F, BW, VBMI2 and POPCNT.
    vbmi2: bool,
}

/// A loop [`Kernel::run`] compiles once per instantiation. `BLOCK` is
/// the widest column tile of a row block ([`ROWS`] rows; `0`: no row
/// blocks), `WIDE` the widest column tile of one row's walk, `LANES`
/// the `f64` lanes of one vector register with `fma` (`1`: none) — the
/// width [`crate::libm`]'s lane functions run at.
pub(crate) trait Op {
    type Out;
    fn run<const BLOCK: usize, const WIDE: usize, const LANES: usize>(self) -> Self::Out;
}

/// Rows per row block. Fixed, and spelled out in [`add_block`]: a loop
/// over the rows' sums would leave their unrolling — and whether they
/// stay in registers at all — to the compiler's size thresholds.
const ROWS: usize = 4;

/// The share of non-zero inputs, in tenths, from which a block of rows
/// is walked whole rather than row by row over its non-zeros.
const DENSE_TENTHS: usize = 4;

impl Kernel {
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        let isa = if std::arch::is_x86_feature_detected!("avx512f") {
            Isa::Avx512
        } else if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
        {
            Isa::Avx2
        } else {
            Isa::Portable
        };
        #[cfg(target_arch = "x86_64")]
        let vbmi2 = isa == Isa::Avx512 && has_vbmi2();
        #[cfg(not(target_arch = "x86_64"))]
        let (isa, vbmi2) = (Isa::Portable, false);
        Kernel { isa, vbmi2 }
    }

    /// The instantiation's name: `"avx512+vbmi2"`, `"avx512"`, `"avx2"`
    /// or `"portable"`.
    pub(crate) fn name(self) -> &'static str {
        match (self.isa, self.vbmi2) {
            (Isa::Avx512, true) => "avx512+vbmi2",
            (Isa::Avx512, false) => "avx512",
            (Isa::Avx2, _) => "avx2",
            (Isa::Portable, _) => "portable",
        }
    }

    /// `op` compiled for this instantiation.
    #[allow(unsafe_code)]
    pub(crate) fn run<O: Op>(self, op: O) -> O::Out {
        #[cfg(target_arch = "x86_64")]
        {
            /// A block of four rows by sixty-four columns is sixteen
            /// `zmm` registers of sums; one row's tile is four. A `zmm`
            /// holds eight `f64` lanes (AVX-512F has `fma`).
            ///
            /// # Safety
            /// The CPU must support AVX-512F.
            #[target_feature(enable = "avx512f")]
            unsafe fn avx512<O: Op>(op: O) -> O::Out {
                op.run::<64, 64, 8>()
            }
            /// A block of four rows by sixteen columns, and one row's
            /// sixty-four, are eight `ymm` registers of sums. A `ymm`
            /// holds four `f64` lanes.
            ///
            /// # Safety
            /// The CPU must support AVX2 and FMA.
            #[target_feature(enable = "avx2,fma")]
            unsafe fn avx2<O: Op>(op: O) -> O::Out {
                op.run::<16, 64, 4>()
            }
            match self.isa {
                // SAFETY: `Isa::Avx512` is only ever set after
                // `is_x86_feature_detected!("avx512f")`.
                Isa::Avx512 => return unsafe { avx512(op) },
                // SAFETY: as above, after `is_x86_feature_detected!`
                // of both "avx2" and "fma".
                Isa::Avx2 => return unsafe { avx2(op) },
                Isa::Portable => {}
            }
        }
        // One row's thirty-two columns are eight 128-bit registers of
        // sums. No row blocks: with these few registers they gain
        // nothing measurable. No `fma` either, so one lane: the scalar
        // functions, whose `mul_add`s are library calls on x86-64 here
        // (about 1.5× the training time; OPERATIONS.md §4).
        op.run::<0, 32, 1>()
    }

    /// `out += Σ a · W[i]` over `inputs`' `(i, a)` in their order,
    /// keeping the first `out.len()` columns.
    pub(crate) fn add_rows(
        self,
        w: &Matrix,
        inputs: impl Iterator<Item = (usize, f32)> + Clone,
        out: &mut [f32],
    ) {
        self.run(AddRows { w, inputs, out });
    }

    /// `out += Σ W[i]` over the input indices `set`, in their order —
    /// a row of bits ([`crate::bits::set_bit_indices`]), walked
    /// add-only.
    pub(crate) fn add_set_rows(self, w: &Matrix, set: &[u16], out: &mut [f32]) {
        self.add_rows(w, set.iter().map(|&i| (usize::from(i), 1.0)), out);
    }

    /// `out += a · w`: every element continues its fold over its row of
    /// `a` in ascending `k`, a zero input adding nothing. `out` must
    /// hold no `-0.0` (the row-block clause); a product's `+0.0` start
    /// and a freshly zeroed gradient hold none.
    pub(crate) fn matmul_into(self, a: &Matrix, w: &Matrix, out: &mut Matrix) {
        assert_eq!(
            (a.cols(), a.rows(), w.cols()),
            (w.rows(), out.rows(), out.cols()),
            "matmul_into: {}x{} · {}x{} into {}x{}",
            a.rows(),
            a.cols(),
            w.rows(),
            w.cols(),
            out.rows(),
            out.cols()
        );
        self.run(Gemm {
            kernel: self,
            a,
            w,
            out,
        });
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::detect()
    }
}

/// Whether the CPU runs [`set_bits_vbmi2`]: its byte compress, its
/// widening and its count.
#[cfg(target_arch = "x86_64")]
fn has_vbmi2() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512bw")
        && std::arch::is_x86_feature_detected!("avx512vbmi2")
        && std::arch::is_x86_feature_detected!("popcnt")
}

/// [`Kernel::add_rows`]' loop.
struct AddRows<'a, I> {
    w: &'a Matrix,
    inputs: I,
    out: &'a mut [f32],
}

impl<I: Iterator<Item = (usize, f32)> + Clone> Op for AddRows<'_, I> {
    type Out = ();

    #[inline(always)]
    fn run<const BLOCK: usize, const WIDE: usize, const LANES: usize>(self) {
        add_tiles::<WIDE>(self.w, self.inputs, self.out);
    }
}

/// [`Kernel::matmul_into`]'s loop.
struct Gemm<'a> {
    kernel: Kernel,
    a: &'a Matrix,
    w: &'a Matrix,
    out: &'a mut Matrix,
}

impl Op for Gemm<'_> {
    type Out = ();

    /// Blocks of [`ROWS`] rows, each walked whole if it is dense enough
    /// and row by row over its non-zeros otherwise — also if it has a
    /// zero input and a weight is not finite, where the zero's product
    /// would be a NaN; add-only, row by row, if its non-zeros are all
    /// `1.0`.
    #[inline(always)]
    fn run<const BLOCK: usize, const WIDE: usize, const LANES: usize>(self) {
        let Gemm { kernel, a, w, out } = self;
        let mut slots = NonZero::default();
        let mut finite = None;
        let mut r0 = 0;
        while r0 < a.rows() {
            let rows = ROWS.min(a.rows() - r0);
            let inputs = &a.as_slice()[r0 * a.cols()..(r0 + rows) * a.cols()];
            let (non_zero, ones) = inputs.iter().fold((0u32, 0u32), |(n, ones), &a| {
                (n + u32::from(a != 0.0), ones + u32::from(a == 1.0))
            });
            let (non_zero, ones) = (non_zero as usize, ones == non_zero);
            let dense = BLOCK > 0 && rows == ROWS && non_zero * 10 >= DENSE_TENTHS * inputs.len();
            // A zero input is multiplied: against finite weights its
            // product is `±0` and adds nothing.
            let blocked = dense
                && (non_zero == inputs.len()
                    || *finite.get_or_insert_with(|| {
                        w.as_slice().iter().fold(true, |all, v| all & v.is_finite())
                    }));
            if blocked {
                block_tiles::<BLOCK>(&DenseBlock::new(a, r0), w, out);
            } else {
                for r in r0..r0 + rows {
                    let (idx, val) = compact_non_zero(kernel, a.row(r), &mut slots);
                    if ones {
                        let bits = idx.iter().map(|&i| (i as usize, 1.0));
                        add_tiles::<WIDE>(w, bits, out.row_mut(r));
                    } else {
                        let inputs = idx.iter().zip(val).map(|(&i, &a)| (i as usize, a));
                        add_tiles::<WIDE>(w, inputs, out.row_mut(r));
                    }
                }
            }
            r0 += rows;
        }
    }
}

/// Rows `r0..r0 + ROWS` of a product's inputs, walked as one block.
struct DenseBlock<'a> {
    r0: usize,
    rows: [&'a [f32]; ROWS],
}

impl<'a> DenseBlock<'a> {
    fn new(a: &'a Matrix, r0: usize) -> Self {
        DenseBlock {
            r0,
            rows: [a.row(r0), a.row(r0 + 1), a.row(r0 + 2), a.row(r0 + 3)],
        }
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

/// The row-block clause's loop, over the block's rows and columns
/// `col..col + T` of `out`: `ROWS × T` sums stay in registers while
/// every input index is walked in ascending order, each weight row is
/// read once for all the rows, and every product is added as it is.
#[inline(always)]
fn add_block<const T: usize>(block: &DenseBlock<'_>, w: &Matrix, col: usize, out: &mut Matrix) {
    let k = w.rows();
    let [x0, x1, x2, x3] = block.rows;
    assert!(block.rows.iter().all(|row| row.len() == k));
    let r0 = block.r0;
    let mut s0: [f32; T] = tile(out.row(r0), col);
    let mut s1: [f32; T] = tile(out.row(r0 + 1), col);
    let mut s2: [f32; T] = tile(out.row(r0 + 2), col);
    let mut s3: [f32; T] = tile(out.row(r0 + 3), col);
    let (weights, stride) = (w.as_slice(), w.cols());
    for i in 0..k {
        let row: &[f32; T] = tile_ref(&weights[i * stride..], col);
        add_product(&mut s0, x0[i], row);
        add_product(&mut s1, x1[i], row);
        add_product(&mut s2, x2[i], row);
        add_product(&mut s3, x3[i], row);
    }
    for (r, sums) in [s0, s1, s2, s3].iter().enumerate() {
        out.row_mut(r0 + r)[col..col + T].copy_from_slice(sums);
    }
}

/// Columns `col..col + T` of `row`, by value.
#[inline(always)]
fn tile<const T: usize>(row: &[f32], col: usize) -> [f32; T] {
    *tile_ref(row, col)
}

/// Columns `col..col + T` of `row`.
#[inline(always)]
fn tile_ref<const T: usize>(row: &[f32], col: usize) -> &[f32; T] {
    row[col..col + T].try_into().expect("a slice of T columns")
}

/// One row of [`add_block`]'s step: `sums += a · row`.
#[inline(always)]
fn add_product<const T: usize>(sums: &mut [f32; T], a: f32, row: &[f32; T]) {
    for (sum, &v) in sums.iter_mut().zip(row) {
        *sum += a * v;
    }
}

/// [`add_block`] over all of `out`'s columns: tiles of `BLOCK`, then of
/// each narrower power of two.
#[inline(always)]
fn block_tiles<const BLOCK: usize>(block: &DenseBlock<'_>, w: &Matrix, out: &mut Matrix) {
    let width = out.cols();
    let mut col = 0;
    macro_rules! tiles {
        ($($t:literal)*) => {$(
            while $t <= BLOCK && width - col >= $t {
                add_block::<$t>(block, w, col, out);
                col += $t;
            }
        )*};
    }
    tiles!(64 32 16 8 4 2 1);
}

/// Slots for [`compact_non_zero`]'s output: an input's index and its
/// value side by side in two arrays, as the AVX-512 compaction stores
/// them.
#[derive(Debug, Default)]
pub(crate) struct NonZero {
    idx: Vec<u32>,
    val: Vec<f32>,
}

/// The non-zero entries of `x` as layer inputs — their indices and
/// their values, in ascending index — compacted into the front of
/// `slots` (grown to `x.len()` if they are shorter, never shrunk) and
/// returned as slices: a zero input adds no row, so `0 × ∞` never makes
/// a NaN. Every entry is stored and the end of the slices moves past it
/// only if it is non-zero (`a != 0.0`: a NaN is kept, `-0.0` is not) —
/// a count, not a branch the CPU would have to guess per input. On
/// AVX-512 sixteen entries at a time: a compare into a mask, both
/// arrays compressed in registers and each stored whole.
///
/// # Panics
/// Panics if `x` has more entries than a `u32` counts.
#[allow(unsafe_code)]
pub(crate) fn compact_non_zero<'s>(
    kernel: Kernel,
    x: &[f32],
    slots: &'s mut NonZero,
) -> (&'s [u32], &'s [f32]) {
    assert!(u32::try_from(x.len()).is_ok(), "{} inputs", x.len());
    if slots.idx.len() < x.len() {
        slots.idx.resize(x.len(), 0);
        slots.val.resize(x.len(), 0.0);
    }
    let NonZero { idx, val } = slots;
    #[cfg(target_arch = "x86_64")]
    if kernel.isa == Isa::Avx512 {
        // SAFETY: `Isa::Avx512` is only ever set after
        // `is_x86_feature_detected!("avx512f")`.
        let n = unsafe { compact_avx512(x, idx, val) };
        return (&idx[..n], &val[..n]);
    }
    let _ = kernel;
    let mut n = 0;
    for (i, &a) in (0u32..).zip(x) {
        idx[n] = i;
        val[n] = a;
        n += usize::from(a != 0.0);
    }
    (&idx[..n], &val[..n])
}

/// [`compact_non_zero`]'s AVX-512 instantiation: the number of non-zero
/// entries of `x`, their indices and values in the front of `idx` and
/// `val`. A whole chunk's two stores land at `n ≤ i`, so they end by
/// `i + 16 ≤ x.len()`: the slots need no room past `x`'s length.
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(unsafe_code)]
unsafe fn compact_avx512(x: &[f32], idx: &mut [u32], val: &mut [f32]) -> usize {
    use std::arch::x86_64::{
        _mm512_add_epi32, _mm512_cmp_ps_mask, _mm512_loadu_ps, _mm512_maskz_compress_epi32,
        _mm512_maskz_compress_ps, _mm512_set1_epi32, _mm512_setr_epi32, _mm512_setzero_ps,
        _mm512_storeu_epi32, _mm512_storeu_ps, _CMP_NEQ_UQ,
    };
    let chunks = x.chunks_exact(16);
    let tail = chunks.remainder();
    let mut lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let mut n = 0;
    for chunk in chunks {
        // SAFETY: `chunk` is sixteen readable floats, and the load asks
        // for no alignment.
        let a = unsafe { _mm512_loadu_ps(chunk.as_ptr()) };
        // Unordered: a NaN is not equal to zero, and `-0.0` is.
        let keep = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(a, _mm512_setzero_ps());
        let (to_idx, to_val) = (&mut idx[n..n + 16], &mut val[n..n + 16]);
        // SAFETY: each store is sixteen lanes into a slice of sixteen
        // writable slots (the slicing above asserts the room), and
        // asks for no alignment.
        unsafe {
            _mm512_storeu_epi32(
                to_idx.as_mut_ptr().cast(),
                _mm512_maskz_compress_epi32(keep, lanes),
            );
            _mm512_storeu_ps(to_val.as_mut_ptr(), _mm512_maskz_compress_ps(keep, a));
        }
        n += keep.count_ones() as usize;
        lanes = _mm512_add_epi32(lanes, _mm512_set1_epi32(16));
    }
    for (i, &a) in ((x.len() - tail.len()) as u32..).zip(tail) {
        idx[n] = i;
        val[n] = a;
        n += usize::from(a != 0.0);
    }
    n
}

/// The set bits of `bits`' whole 8-byte words, as
/// [`crate::bits::set_bit_indices`] lists them with `bits[0]`'s first
/// feature at index `first`, written into the front of `out`: the
/// number of bytes decoded and of indices listed. `(0, 0)` unless the
/// kernel decodes with VBMI2 — the byte table then takes every byte, as
/// it takes the ragged tail here.
///
/// # Panics
/// Panics if `out` has fewer than `8 * bits.len()` slots.
#[allow(unsafe_code)]
pub(crate) fn set_bits_by_word(
    kernel: Kernel,
    bits: &[u8],
    first: usize,
    out: &mut [u16],
) -> (usize, usize) {
    #[cfg(target_arch = "x86_64")]
    if kernel.vbmi2 {
        assert!(out.len() >= 8 * bits.len(), "{} slots", out.len());
        // SAFETY: `vbmi2` is only ever set after `has_vbmi2()`.
        return unsafe { set_bits_vbmi2(bits, first, out) };
    }
    let _ = (kernel, bits, first, out);
    (0, 0)
}

/// [`set_bits_by_word`]'s VBMI2 instantiation. Each word's bits are
/// put in index order — bit `7 - j` of byte `b` is feature `8b + j`, so
/// the big-endian word's bits reversed are the mask's bits `8b + j` —
/// and one `vpcompressb` of the bytes `0..64` lists the set ones'
/// offsets, ascending; they are widened to `u16`, the word's first
/// index added, and all 64 slots stored whole. A word's stores start at
/// `n ≤ 8 × the bytes before it` and so end by `8 × the bytes up to its
/// end`: `8 * bits.len()` slots hold them all.
///
/// # Safety
/// The CPU must support AVX-512F, AVX-512BW, AVX-512 VBMI2 and POPCNT.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi2,popcnt")]
#[allow(unsafe_code)]
unsafe fn set_bits_vbmi2(bits: &[u8], first: usize, out: &mut [u16]) -> (usize, usize) {
    use std::arch::x86_64::{
        _mm512_add_epi16, _mm512_castsi512_si256, _mm512_cvtepu8_epi16, _mm512_extracti64x4_epi64,
        _mm512_maskz_compress_epi8, _mm512_set1_epi16, _mm512_set_epi8, _mm512_storeu_epi16,
    };
    #[rustfmt::skip]
    let offsets = _mm512_set_epi8(
        63, 62, 61, 60, 59, 58, 57, 56, 55, 54, 53, 52, 51, 50, 49, 48,
        47, 46, 45, 44, 43, 42, 41, 40, 39, 38, 37, 36, 35, 34, 33, 32,
        31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17, 16,
        15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0,
    );
    let words = bits.chunks_exact(8);
    let decoded = bits.len() - words.remainder().len();
    // The word's first index in every `u16` lane; it wraps to 0 only
    // after the widest input's last word.
    let mut base = _mm512_set1_epi16(first as u16 as i16);
    let mut n = 0;
    for word in words {
        let word: [u8; 8] = word.try_into().expect("a word");
        let mask = u64::from_be_bytes(word).reverse_bits();
        let listed = _mm512_maskz_compress_epi8(mask, offsets);
        let low = _mm512_cvtepu8_epi16(_mm512_castsi512_si256(listed));
        let high = _mm512_cvtepu8_epi16(_mm512_extracti64x4_epi64::<1>(listed));
        let slots = &mut out[n..n + 64];
        // SAFETY: each store is 32 `u16` lanes into the 64 writable
        // slots of `slots` (the slicing above asserts the room): the
        // first into its front half, the second 32 slots on, and
        // neither asks for alignment.
        unsafe {
            let at = slots.as_mut_ptr().cast::<i16>();
            _mm512_storeu_epi16(at, _mm512_add_epi16(low, base));
            _mm512_storeu_epi16(at.add(32), _mm512_add_epi16(high, base));
        }
        n += mask.count_ones() as usize;
        base = _mm512_add_epi16(base, _mm512_set1_epi16(64));
    }
    (decoded, n)
}

#[cfg(test)]
impl Kernel {
    /// The portable instantiation, whatever the CPU offers.
    pub(crate) fn portable() -> Self {
        Kernel {
            isa: Isa::Portable,
            vbmi2: false,
        }
    }

    /// Every instantiation this CPU runs: portable, then AVX2 and
    /// AVX-512 where the CPU has them — AVX-512 with the byte-table
    /// decoder, and with the VBMI2 one where the CPU has that too.
    pub(crate) fn instantiations() -> Vec<Kernel> {
        let mut all = vec![Kernel::portable()];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                all.push(Kernel {
                    isa: Isa::Avx2,
                    vbmi2: false,
                });
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                all.push(Kernel {
                    isa: Isa::Avx512,
                    vbmi2: false,
                });
            }
            if has_vbmi2() {
                all.push(Kernel {
                    isa: Isa::Avx512,
                    vbmi2: true,
                });
            }
        }
        let names: Vec<_> = all.iter().map(|k| k.name()).collect();
        if all.len() < 4 {
            // Once per test binary, and written to stderr itself: the
            // harness captures `eprintln!`, and a CI log should show it.
            static SAID: std::sync::Once = std::sync::Once::new();
            SAID.call_once(|| {
                let line = format!(
                    "this CPU runs only {names:?}: the other instantiations are not tested\n"
                );
                let _ = std::io::Write::write_all(&mut std::io::stderr(), line.as_bytes());
            });
        }
        all
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
    /// for bit, at every width 0..=70 and on every instantiation — from
    /// one slot buffer reused across rows, so stale slots past a
    /// shorter row never show.
    #[test]
    fn compaction_is_the_non_zero_filter_exactly() {
        let mut rng = crate::rng::seeded(0xC0FFEE);
        for kernel in Kernel::instantiations() {
            let mut slots = NonZero::default();
            for width in (0..=70).chain((0..=70).rev()) {
                for _ in 0..8 {
                    let row: Vec<f32> = (0..width).map(|_| awkward(&mut rng)).collect();
                    let (idx, val) = compact_non_zero(kernel, &row, &mut slots);
                    assert_eq!(
                        to_bits(idx.iter().zip(val).map(|(&i, &a)| (i as usize, a))),
                        to_bits(non_zero(&row)),
                        "{}, width {width}, row {row:?}",
                        kernel.name()
                    );
                }
            }
        }
    }
}
